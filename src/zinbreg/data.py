"""Core data containers, hyperparameter bundles, and input validation.

All containers are immutable after construction (frozen dataclasses whose
array fields are marked read-only), so they can be shared freely across
concurrently running chains.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    AllZeroFeature,
    ConstantCovariate,
    DataError,
    DimensionMismatch,
)

__all__ = [
    "CountMatrix",
    "CovariateMatrix",
    "GroupAssignment",
    "Hyperparameters",
    "ProposalScales",
    "Dataset",
    "validate_inputs",
    "standardize_covariates",
    "filter_low_abundance",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CountMatrix:
    """n x p matrix of observed counts with sample and feature labels.

    A 0-feature matrix is representable (abundance filtering may drop
    everything); modeling entry points require p >= 1.
    """

    counts: np.ndarray
    sample_ids: tuple[str, ...]
    feature_ids: tuple[str, ...]

    def __post_init__(self):
        raw = np.ascontiguousarray(self.counts, dtype=np.float64)
        if raw.ndim != 2:
            raise DimensionMismatch("counts must be a 2-d matrix")
        if not np.all(np.isfinite(raw)):
            raise DataError("counts contain non-finite entries")
        if np.any(raw < 0):
            raise DataError("counts must be non-negative")
        if np.any(raw != np.floor(raw)):
            raise DataError("counts must be integers")
        counts = _frozen(raw.astype(np.int64))
        n, p = counts.shape
        if n < 2:
            raise DimensionMismatch(f"need n >= 2 samples, got {n}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        if len(self.sample_ids) != n:
            raise DimensionMismatch(f"{len(self.sample_ids)} sample ids for {n} rows")
        if len(self.feature_ids) != p:
            raise DimensionMismatch(f"{len(self.feature_ids)} feature ids for {p} columns")
        if len(set(self.sample_ids)) != n:
            raise DataError("sample ids must be unique")
        if len(set(self.feature_ids)) != p:
            raise DataError("feature ids must be unique")

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def p(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class CovariateMatrix:
    """n x R real design matrix. Columns may be standardized (mean 0, sd 1)."""

    values: np.ndarray
    covariate_ids: tuple[str, ...]
    standardized: bool = False

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DimensionMismatch("covariates must be a 2-d matrix")
        if not np.all(np.isfinite(values)):
            raise DataError("covariates contain missing or non-finite entries")
        values = _frozen(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "covariate_ids", tuple(self.covariate_ids))
        if len(self.covariate_ids) != values.shape[1]:
            raise DimensionMismatch(
                f"{len(self.covariate_ids)} covariate ids for {values.shape[1]} columns"
            )
        if len(set(self.covariate_ids)) != values.shape[1]:
            raise DataError("covariate ids must be unique")
        if self.standardized and values.shape[1] > 0:
            mean = values.mean(axis=0)
            sd = values.std(axis=0, ddof=1)
            if np.any(np.abs(mean) >= 1e-8) or np.any(np.abs(sd - 1.0) >= 1e-6):
                raise DataError("standardized flag set but columns are not standardized")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GroupAssignment:
    """Group labels in {1, ..., K} for each sample, with a reference group."""

    labels: np.ndarray
    n_groups: int
    reference_group: int = 1

    def __post_init__(self):
        labels = _frozen(np.ascontiguousarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise DimensionMismatch("group labels must be 1-d")
        k = int(self.n_groups)
        if k < 1:
            raise DataError("need at least one group")
        present = set(np.unique(labels).tolist())
        if not present.issubset(set(range(1, k + 1))):
            raise DataError(f"labels outside 1..{k}: {sorted(present)}")
        if present != set(range(1, k + 1)):
            missing = sorted(set(range(1, k + 1)) - present)
            raise DataError(f"groups with no samples: {missing}")
        if not 1 <= self.reference_group <= k:
            raise DataError(f"reference group {self.reference_group} outside 1..{k}")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def zero_based(self) -> np.ndarray:
        """Labels as 0-based indices (internal convention)."""
        return self.labels - 1


@dataclass(frozen=True)
class Hyperparameters:
    """Prior hyperparameters.

    ``a_t``/``b_t`` are the shared inverse-gamma shape/scale whose
    marginalization gives the heavy-tailed t slab (df 2*a_t, squared scale
    b_t/a_t) on both group shifts and covariate effects. ``a_phi``/``b_phi``
    parameterize a shape-rate gamma on the dispersion (mean a_phi/b_phi).
    """

    a_pi: float = 1.0
    b_pi: float = 1.0
    a_omega: float = 0.2
    b_omega: float = 1.8
    a_p: float = 0.4
    b_p: float = 0.6
    a_phi: float = 1.0
    b_phi: float = 0.01
    sigma0_sq: float = 100.0
    a_t: float = 2.0
    b_t: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"hyperparameter {f.name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class ProposalScales:
    """Random-walk standard deviations for the Metropolis-Hastings moves.

    ``tau_mu``/``tau_beta`` are the between-model (add move) scales; the
    within-model walks use half of them.
    """

    tau_mu0: float = 0.5
    tau_mu: float = 1.0
    tau_beta: float = 1.0
    tau_phi: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"proposal scale {f.name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class Dataset:
    """A validated (counts, covariates, groups) bundle ready for modeling."""

    counts: CountMatrix
    covariates: CovariateMatrix
    groups: GroupAssignment

    @property
    def n(self) -> int:
        return self.counts.n

    @property
    def p(self) -> int:
        return self.counts.p

    @property
    def n_covariates(self) -> int:
        return self.covariates.n_covariates

    @property
    def n_groups(self) -> int:
        return self.groups.n_groups


def _constant_columns(values: np.ndarray) -> np.ndarray:
    if values.shape[1] == 0:
        return np.zeros(0, dtype=bool)
    return np.ptp(values, axis=0) == 0


def validate_inputs(
    counts: CountMatrix,
    covariates: CovariateMatrix,
    groups: GroupAssignment,
) -> Dataset:
    """Cross-check the three inputs and return them as one bundle.

    Rejects row-count disagreements, constant covariate columns, and
    features that are zero in every sample.
    """
    if not (counts.n == covariates.n == groups.n):
        raise DimensionMismatch(
            f"row counts disagree: counts n={counts.n}, covariates n={covariates.n}, "
            f"groups n={groups.n}"
        )
    if counts.p < 1:
        raise DimensionMismatch("need at least one feature")
    const = _constant_columns(covariates.values)
    if np.any(const):
        bad = [covariates.covariate_ids[i] for i in np.flatnonzero(const)]
        raise ConstantCovariate(f"constant covariate column(s): {', '.join(bad)}")
    # ``any``, not a column sum, which wraps in int64 for large counts
    zero_features = np.flatnonzero(~counts.counts.any(axis=0))
    if zero_features.size:
        name = counts.feature_ids[int(zero_features[0])]
        raise AllZeroFeature(f"feature {name!r} has no nonzero count in any sample")
    return Dataset(counts=counts, covariates=covariates, groups=groups)


def standardize_covariates(covariates: CovariateMatrix) -> CovariateMatrix:
    """Center each column and scale it to unit sample standard deviation."""
    values = covariates.values
    if values.shape[1] == 0:
        return replace(covariates, standardized=True)
    const = _constant_columns(values)
    if np.any(const):
        bad = [covariates.covariate_ids[i] for i in np.flatnonzero(const)]
        raise ConstantCovariate(f"cannot standardize constant column(s): {', '.join(bad)}")
    out = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
    return CovariateMatrix(out, covariates.covariate_ids, standardized=True)


def filter_low_abundance(
    counts: CountMatrix,
    groups: GroupAssignment,
    min_count: int = 2,
    min_groups: int | None = None,
) -> CountMatrix:
    """Drop sparsely observed features.

    A feature is retained iff in each of at least ``min_groups`` groups,
    at least ``min_count`` samples have a nonzero count for it. Column
    order of retained features is preserved. ``min_groups`` defaults to
    all groups.
    """
    if min_groups is None:
        min_groups = groups.n_groups
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if not 1 <= min_groups <= groups.n_groups:
        raise ValueError(f"min_groups must be in 1..{groups.n_groups}, got {min_groups}")
    if counts.n != groups.n:
        raise DimensionMismatch(f"counts n={counts.n} but groups n={groups.n}")

    nonzero = counts.counts > 0
    groups_passing = np.zeros(counts.p, dtype=np.int64)
    for g in range(1, groups.n_groups + 1):
        members = groups.labels == g
        groups_passing += nonzero[members].sum(axis=0) >= min_count
    keep = groups_passing >= min_groups
    kept_ids = tuple(fid for fid, k in zip(counts.feature_ids, keep) if k)
    return CountMatrix(counts.counts[:, keep], counts.sample_ids, kept_ids)
