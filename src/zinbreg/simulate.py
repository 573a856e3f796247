"""Synthetic count data with ground truth for benchmarking.

``generate`` draws each sample's counts from a Dirichlet-Multinomial whose
log concentrations carry the group and covariate effects, then masks a
fixed fraction of cells to zero. This intentionally differs from the
fitted model's own count process. It is a pure function of its config
(seeded), so datasets are reproducible and parallel replicate generation
is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CountMatrix, CovariateMatrix, GroupAssignment
from .errors import DomainError, PoolTooSmall

__all__ = [
    "SimConfig",
    "SimTruth",
    "dirichlet_draw",
    "generate",
]


@dataclass(frozen=True)
class SimConfig:
    """Settings for the Dirichlet-Multinomial generator (two groups of
    equal size)."""

    n: int = 60
    p: int = 300
    n_disc: int = 20
    sigma_e: float = 1.0
    pi0: float = 0.4
    n_covariates: int = 7
    m_active: int = 4
    total_min: int = 20_000_000
    total_max: int = 60_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if not 0 < self.n_disc <= self.p:
            raise ValueError(f"n_disc must lie in 1..p, got {self.n_disc}")
        if not 0 <= self.m_active <= self.n_covariates:
            raise ValueError(
                f"m_active must lie in 0..{self.n_covariates}, got {self.m_active}"
            )
        if not 0 <= self.pi0 < 1:
            raise ValueError(f"pi0 must lie in [0, 1), got {self.pi0}")
        if self.sigma_e < 0:
            raise ValueError(f"sigma_e must be non-negative, got {self.sigma_e}")
        if not 1 <= self.total_min <= self.total_max:
            raise ValueError("need 1 <= total_min <= total_max")


@dataclass(frozen=True)
class SimTruth:
    """Ground truth behind one synthetic dataset."""

    gamma_true: np.ndarray  # (p,) int8
    delta_true: np.ndarray  # (R, p) int8
    mu2_true: np.ndarray    # (p,), shift of group 2 vs reference
    beta_true: np.ndarray   # (R, p)


def dirichlet_draw(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Dirichlet draw via normalized independent gamma variables."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0) or np.any(~np.isfinite(a)):
        raise DomainError("Dirichlet concentrations must be strictly positive and finite")
    g = rng.standard_gamma(a)
    total = g.sum()
    if total <= 0:
        raise DomainError("degenerate Dirichlet draw (all gamma variables zero)")
    return g / total


def _covariates_from_pool(
    rng: np.random.Generator,
    pool: CovariateMatrix,
    pool_groups: GroupAssignment,
    per_group: int,
) -> np.ndarray:
    rows = []
    for g in (1, 2):
        members = np.flatnonzero(pool_groups.labels == g)
        if members.size < per_group:
            raise PoolTooSmall(
                f"pool group {g} has {members.size} records, need {per_group}"
            )
        rows.append(rng.choice(members, size=per_group, replace=False))
    return pool.values[np.concatenate(rows)]


def generate(
    config: SimConfig,
    pool: tuple[CovariateMatrix, GroupAssignment] | None = None,
) -> tuple[CountMatrix, CovariateMatrix, GroupAssignment, SimTruth]:
    """Generate one Dirichlet-Multinomial dataset with ground truth.

    Group 1 is the reference; the first n/2 samples belong to it.
    Covariate rows come from ``pool`` (one half per pool group) when
    given, otherwise from a built-in standard-normal pool. Each sample's
    counts are one ``rng.multinomial`` draw of its total over its
    Dirichlet proportions: numpy draws it as a sequence of binomials, the
    first feature's from the whole total, each next one's from what is left
    at its share of the remaining probability.
    """
    rng = np.random.default_rng(config.seed)
    n, p, R = config.n, config.p, config.n_covariates
    half = n // 2
    labels = np.repeat([1, 2], half)

    if pool is None:
        x = rng.standard_normal((n, R))
    else:
        pool_cov, pool_groups = pool
        if pool_cov.n_covariates != R:
            raise PoolTooSmall(
                f"pool has {pool_cov.n_covariates} covariates, config expects {R}"
            )
        x = _covariates_from_pool(rng, pool_cov, pool_groups, half)

    mu0 = rng.uniform(8.0, 10.0, size=p)
    disc = rng.choice(p, size=config.n_disc, replace=False)
    gamma_true = np.zeros(p, dtype=np.int8)
    gamma_true[disc] = 1
    mu2 = np.zeros(p)
    mu2[disc] = 2.0 * (2 * rng.integers(0, 2, size=config.n_disc) - 1)

    delta_true = np.zeros((R, p), dtype=np.int8)
    beta_true = np.zeros((R, p))
    for j in range(p):
        if config.m_active == 0:
            break
        active = rng.choice(R, size=config.m_active, replace=False)
        signs = 2 * rng.integers(0, 2, size=config.m_active) - 1
        beta_true[active, j] = signs * rng.uniform(0.5, 1.0, size=config.m_active)
        delta_true[active, j] = 1

    group_shift = np.where(labels == 2, 1.0, 0.0)[:, None] * mu2[None, :]
    log_conc = mu0[None, :] + group_shift + x @ beta_true
    log_conc = log_conc + config.sigma_e * rng.standard_normal((n, p))

    y = np.zeros((n, p), dtype=np.int64)
    for i in range(n):
        probs = dirichlet_draw(np.exp(log_conc[i]), rng)
        total = int(rng.integers(config.total_min, config.total_max + 1))
        y[i] = rng.multinomial(total, probs)

    n_mask = int(round(config.pi0 * n * p))
    if n_mask:
        y.flat[rng.choice(n * p, size=n_mask, replace=False)] = 0

    counts = CountMatrix(
        y,
        sample_ids=tuple(f"sample_{i + 1}" for i in range(n)),
        feature_ids=tuple(f"taxon_{j + 1}" for j in range(p)),
    )
    covariates = CovariateMatrix(x, tuple(f"cov_{r + 1}" for r in range(R)))
    groups = GroupAssignment(labels, n_groups=2, reference_group=1)
    truth = SimTruth(
        gamma_true=gamma_true, delta_true=delta_true, mu2_true=mu2, beta_true=beta_true
    )
    return counts, covariates, groups, truth

