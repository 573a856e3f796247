"""Posterior summarization: inclusion probabilities, Bayesian FDR
selection, credible intervals, and cross-chain concordance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrace
from .sampler import ChainTrace

__all__ = [
    "FdrSelection",
    "PosteriorSummary",
    "ConcordanceReport",
    "compute_ppi",
    "bayesian_fdr_threshold",
    "summarize",
    "chain_concordance",
]

# PPIs are rounded before threshold comparisons so float noise cannot
# split ties nondeterministically.
_PPI_DECIMALS = 12


@dataclass(frozen=True)
class FdrSelection:
    """Result of thresholding PPIs at a target Bayesian FDR.

    ``threshold`` is on the PPI scale: the selection is exactly
    ``{ppi >= threshold}``. An empty selection (no cutoff achieves the
    target) is legal and reported with ``threshold = inf``.
    """

    threshold: float
    selected: np.ndarray
    fdr: float
    n_selected: int

    @property
    def empty(self) -> bool:
        return self.n_selected == 0


def compute_ppi(traces: list[ChainTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Pooled marginal posterior inclusion probabilities across chains.

    Pooling concatenates the post-burn-in draws of every chain, which for
    equal-length chains coincides with averaging per-chain PPIs.
    """
    if not traces:
        raise EmptyTrace("no traces given")
    total = sum(t.n_recorded for t in traces)
    if total == 0:
        raise EmptyTrace("traces contain no recorded draws")
    gamma = sum(t.gamma_sums for t in traces) / total
    delta = sum(t.delta_sums for t in traces) / total
    return gamma, delta


def bayesian_fdr_threshold(ppis: np.ndarray, target: float = 0.05) -> FdrSelection:
    """Largest selection whose estimated Bayesian FDR stays at or below
    ``target``.

    Sorting the complements q = 1 - PPI ascending, the estimated FDR of
    selecting everything strictly below a cutoff c is the mean of the q
    values below c; the cutoff returned is the largest one (over the
    distinct q values, plus select-all) meeting the target. Ties at a
    cutoff are excluded by the strict inequality.
    """
    if not 0 < target < 1:
        raise ValueError(f"target FDR must lie in (0, 1), got {target}")
    ppis = np.asarray(ppis, dtype=np.float64).ravel()
    if np.any(ppis < 0) or np.any(ppis > 1):
        raise ValueError("PPIs must lie in [0, 1]")
    m = ppis.size
    empty = FdrSelection(
        threshold=float("inf"), selected=np.zeros(m, dtype=bool), fdr=0.0, n_selected=0
    )
    if m == 0:
        return empty

    q = 1.0 - np.round(ppis, _PPI_DECIMALS)
    order = np.argsort(q, kind="stable")
    qs = q[order]
    prefix_mean = np.cumsum(qs) / np.arange(1, m + 1)
    # a prefix of size k is addressable by a strict cutoff iff the next
    # sorted value is strictly larger (or the prefix is everything)
    boundary = np.append(qs[1:] > qs[:-1], True)
    feasible = boundary & (prefix_mean <= target)
    if not np.any(feasible):
        return empty
    k = int(np.flatnonzero(feasible)[-1]) + 1
    selected = np.zeros(m, dtype=bool)
    selected[order[:k]] = True
    return FdrSelection(
        threshold=float(ppis[selected].min()),
        selected=selected,
        fdr=float(prefix_mean[k - 1]),
        n_selected=k,
    )


@dataclass(frozen=True)
class PosteriorSummary:
    """PPIs with their FDR selections, posterior means, and equal-tailed
    95% intervals of the group shifts: the contents of the fit tables."""

    ppi_gamma: np.ndarray        # (p,)
    ppi_delta: np.ndarray        # (R, p)
    selected_gamma: np.ndarray   # (p,) bool
    selected_delta: np.ndarray   # (R, p) bool
    mu0_mean: np.ndarray         # (p,)
    mu_mean: np.ndarray          # (K, p)
    mu_lower: np.ndarray         # (K, p), equal-tailed 2.5%
    mu_upper: np.ndarray         # (K, p), equal-tailed 97.5%
    beta_mean: np.ndarray        # (R, p)
    phi_mean: np.ndarray         # (p,)


def summarize(traces: list[ChainTrace], fdr_target: float = 0.05) -> PosteriorSummary:
    """Pool chains into a posterior summary with FDR-thresholded calls.

    Group-shift credible intervals are the equal-tailed 2.5/97.5
    percentiles of the stored draws; the other parameters report their
    pooled means.
    """
    ppi_gamma, ppi_delta = compute_ppi(traces)
    total = sum(t.n_recorded for t in traces)
    selected_delta = bayesian_fdr_threshold(ppi_delta.ravel(), fdr_target).selected
    draws = np.concatenate([t.mu_draws for t in traces], axis=0)
    return PosteriorSummary(
        ppi_gamma=ppi_gamma,
        ppi_delta=ppi_delta,
        selected_gamma=bayesian_fdr_threshold(ppi_gamma, fdr_target).selected,
        selected_delta=selected_delta.reshape(ppi_delta.shape),
        mu0_mean=sum(t.mu0_sum for t in traces) / total,
        mu_mean=sum(t.mu_sum for t in traces) / total,
        mu_lower=np.percentile(draws, 2.5, axis=0).astype(np.float64),
        mu_upper=np.percentile(draws, 97.5, axis=0).astype(np.float64),
        beta_mean=sum(t.beta_sum for t in traces) / total,
        phi_mean=sum(t.phi_sum for t in traces) / total,
    )


@dataclass(frozen=True)
class ConcordanceReport:
    """Pairwise PPI correlations between chains and a convergence verdict.

    Correlations are Pearson coefficients of the per-chain PPI vectors;
    a pair involving a constant (degenerate-variance) vector is NaN and
    flagged. The verdict requires every pair to be at or above the floor,
    with NaN pairs passing only when the two vectors are exactly equal.
    """

    corr_gamma: np.ndarray
    corr_delta: np.ndarray
    degenerate_gamma: tuple[int, ...]
    degenerate_delta: tuple[int, ...]
    floor: float
    converged: bool


def _pairwise(vectors: list[np.ndarray], floor: float):
    c = len(vectors)
    mat = np.full((c, c), np.nan)
    np.fill_diagonal(mat, 1.0)
    degenerate = tuple(
        i for i, v in enumerate(vectors) if v.size < 2 or float(np.std(v)) == 0.0
    )
    ok = True
    for a in range(c):
        for b in range(a + 1, c):
            if a in degenerate or b in degenerate:
                mat[a, b] = mat[b, a] = np.nan
                if not np.array_equal(vectors[a], vectors[b]):
                    ok = False
            else:
                r = float(np.corrcoef(vectors[a], vectors[b])[0, 1])
                mat[a, b] = mat[b, a] = r
                if r < floor:
                    ok = False
    return mat, degenerate, ok


def chain_concordance(traces: list[ChainTrace], floor: float = 0.95) -> ConcordanceReport:
    """Cross-chain agreement of the per-chain PPI vectors."""
    if len(traces) < 2:
        raise ValueError(f"need at least 2 traces, got {len(traces)}")
    gamma_vecs = [t.ppi_gamma() for t in traces]
    delta_vecs = [t.ppi_delta().ravel() for t in traces]
    corr_g, degen_g, ok_g = _pairwise(gamma_vecs, floor)
    corr_d, degen_d, ok_d = _pairwise(delta_vecs, floor)
    return ConcordanceReport(
        corr_gamma=corr_g,
        corr_delta=corr_d,
        degenerate_gamma=degen_g,
        degenerate_delta=degen_d,
        floor=floor,
        converged=ok_g and ok_d,
    )
