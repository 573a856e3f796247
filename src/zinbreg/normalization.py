"""Plug-in size-factor estimators for sequencing-depth normalization.

Every estimator returns factors renormalized so their logs sum to zero
(equivalently, their product is one), which is the identifiability
constraint the regression model relies on.

Conventions that the original method descriptions leave open, fixed here
for bit-reproducibility:

* percentiles of nonzero counts use the averaged inverted CDF (Hyndman &
  Fan type 2, the convention whose median is the usual midpoint rule);
  being a pure function of the empirical distribution, it also makes the
  factors exactly invariant to duplicating the feature set;
* the scaled-ratio trimmed mean uses the sample whose nonzero-count upper
  quartile is closest to the across-sample mean upper quartile as its
  reference, and trims by strict quantile cutoffs on both the log-ratio
  and average-intensity axes;
* the pairwise-ratio geometric mean averages the per-pair median ratios
  with exponent 1/n (an implicit unit self-ratio), so that a sample with
  c times the counts of an otherwise identical cohort gets factor
  proportional to c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CountMatrix
from .errors import DataError, EmptySample, NoSharedFeatures

__all__ = [
    "SizeFactors",
    "METHODS",
    "estimate_css",
    "estimate_gmpr",
    "estimate_q75",
    "estimate_tmm",
    "estimate_rle",
    "estimate",
]

METHODS = ("css", "gmpr", "q75", "tmm", "rle")


@dataclass(frozen=True)
class SizeFactors:
    """Per-sample positive scale factors with product one."""

    values: np.ndarray
    method: str

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if values.ndim != 1:
            raise DataError("size factors must be a 1-d vector")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise DataError("size factors must be positive and finite")
        if abs(np.log(values).sum()) > 1e-10:
            raise DataError("size factor logs must sum to zero")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _quantile(values: np.ndarray, q) -> np.ndarray:
    return np.quantile(values, q, method="averaged_inverted_cdf")


def _renormalize(raw: np.ndarray, method: str) -> SizeFactors:
    if np.any(~np.isfinite(raw)) or np.any(raw <= 0):
        raise DataError(f"{method}: raw factors must be positive and finite")
    logs = np.log(raw)
    return SizeFactors(np.exp(logs - logs.mean()), method)


def _nonzero_rows(counts: CountMatrix) -> list[np.ndarray]:
    rows = []
    for i in range(counts.n):
        row = counts.counts[i]
        nz = row[row > 0]
        if nz.size == 0:
            raise EmptySample(f"sample {counts.sample_ids[i]!r} has no nonzero count")
        rows.append(nz)
    return rows


def estimate_css(counts: CountMatrix, l_css: int = 50) -> SizeFactors:
    """Cumulative-sum scaling: per sample, sum the counts at or below the
    sample's l_css-th percentile of nonzero counts."""
    if not 0 <= l_css <= 100:
        raise ValueError(f"l_css must be a percentage in [0, 100], got {l_css}")
    raw = np.empty(counts.n)
    for i, nz in enumerate(_nonzero_rows(counts)):
        q = _quantile(nz, l_css / 100.0)
        row = counts.counts[i]
        raw[i] = row[row <= q].sum()
    return _renormalize(raw, "css")


def estimate_q75(counts: CountMatrix) -> SizeFactors:
    """Upper-quartile scaling: the 75th percentile of nonzero counts."""
    return _renormalize(_upper_quartiles(counts), "q75")


def estimate_gmpr(counts: CountMatrix) -> SizeFactors:
    """Geometric mean of pairwise median count ratios over shared nonzero
    features, taken with exponent 1/n."""
    y = counts.counts
    n = counts.n
    log_raw = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for k in range(n):
            if k == i:
                continue
            both = (y[i] > 0) & (y[k] > 0)
            if not np.any(both):
                raise NoSharedFeatures(counts.sample_ids[i], counts.sample_ids[k])
            ratios = y[i, both] / y[k, both]
            acc += np.log(np.median(ratios))
        log_raw[i] = acc / n
    return _renormalize(np.exp(log_raw), "gmpr")


def _upper_quartiles(counts: CountMatrix) -> np.ndarray:
    return np.array([_quantile(nz, 0.75) for nz in _nonzero_rows(counts)])


def estimate_tmm(counts: CountMatrix, trim_m: float = 0.30, trim_a: float = 0.05) -> SizeFactors:
    """Doubly-trimmed weighted mean of log ratios against a reference sample.

    Log ratios are taken on depth-scaled counts over features nonzero in
    both samples; the factor restores the depth ratio times the trimmed
    mean. Falls back to the untrimmed weighted mean when trimming removes
    every shared feature (e.g. perfectly proportional samples).
    """
    if not (0 <= trim_m < 0.5 and 0 <= trim_a < 0.5):
        raise ValueError("trim fractions must lie in [0, 0.5)")
    y = counts.counts.astype(np.float64)
    totals = y.sum(axis=1)
    uq = _upper_quartiles(counts)
    ref = int(np.argmin(np.abs(uq - uq.mean())))

    raw = np.empty(counts.n)
    for i in range(counts.n):
        if i == ref:
            raw[i] = 1.0
            continue
        both = (y[i] > 0) & (y[ref] > 0)
        if not np.any(both):
            raise NoSharedFeatures(counts.sample_ids[i], counts.sample_ids[ref])
        yi, yr = y[i, both], y[ref, both]
        li = np.log(yi / totals[i])
        lr = np.log(yr / totals[ref])
        m = li - lr
        a = 0.5 * (li + lr)
        w = 1.0 / ((totals[i] - yi) / (totals[i] * yi) + (totals[ref] - yr) / (totals[ref] * yr))

        m_lo, m_hi = _quantile(m, [trim_m, 1 - trim_m])
        a_lo, a_hi = _quantile(a, [trim_a, 1 - trim_a])
        keep = (m > m_lo) & (m < m_hi) & (a > a_lo) & (a < a_hi)
        if not np.any(keep):
            keep = np.ones(m.shape, dtype=bool)
        raw[i] = (totals[i] / totals[ref]) * np.exp(np.sum(w[keep] * m[keep]) / np.sum(w[keep]))
    return _renormalize(raw, "tmm")


def estimate_rle(counts: CountMatrix, pseudo: float = 1.0) -> SizeFactors:
    """Relative log expression: median ratio to the per-feature geometric
    mean, on pseudo-count-shifted counts."""
    if pseudo <= 0:
        raise ValueError(f"pseudo-count must be positive, got {pseudo}")
    shifted = counts.counts.astype(np.float64) + pseudo
    ref = np.exp(np.log(shifted).mean(axis=0))
    raw = np.median(shifted / ref[None, :], axis=1)
    return _renormalize(raw, "rle")


def estimate(counts: CountMatrix, method: str = "css", *, l_css: int = 50) -> SizeFactors:
    """Dispatch to one of the five estimators by name."""
    if method == "css":
        return estimate_css(counts, l_css=l_css)
    if method == "gmpr":
        return estimate_gmpr(counts)
    if method == "q75":
        return estimate_q75(counts)
    if method == "tmm":
        return estimate_tmm(counts)
    if method == "rle":
        return estimate_rle(counts)
    raise ValueError(f"unknown normalization method {method!r}, expected one of {METHODS}")
