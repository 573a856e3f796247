"""Counts drawn from the fitted model's own zero-inflated negative binomial
process, for parameter-recovery checks, the engine's step tests and
``scripts/same_decisions.py``.

A pure function of its arguments (seeded), so datasets are reproducible.
"""

import numpy as np

from zinbreg.data import CountMatrix, CovariateMatrix, GroupAssignment
from zinbreg.simulate import SimTruth


def generate_zinb(
    n: int = 200,
    p: int = 20,
    n_disc: int = 10,
    n_covariates: int = 0,
    m_active: int = 0,
    n_groups: int = 2,
    pi_zero: float = 0.2,
    phi: float = 10.0,
    mu0_low: float = 6.0,
    mu0_high: float = 8.0,
    shift_size: float = 2.0,
    seed: int = 0,
) -> tuple[CountMatrix, CovariateMatrix, GroupAssignment, SimTruth, np.ndarray]:
    """Generate counts from the fitted model's ZINB process.

    Group shifts of non-reference groups are ``±shift_size`` on the
    discriminating features, covariate effects ``±Uniform(0.5, 1)`` on
    ``m_active`` slots per feature, size factors one, and each cell is an
    extra zero independently with probability ``pi_zero``. Returns the
    counts, covariates, groups, truth and the (n, p) int8 mask of the
    extra zeros.
    """
    if n_groups < 2:
        raise ValueError("need at least 2 groups")
    rng = np.random.default_rng(seed)
    labels = 1 + (np.arange(n) % n_groups)
    half_shift = np.zeros((n_groups, p))

    mu0 = rng.uniform(mu0_low, mu0_high, size=p)
    disc = rng.choice(p, size=n_disc, replace=False)
    gamma_true = np.zeros(p, dtype=np.int8)
    gamma_true[disc] = 1
    for k in range(1, n_groups):
        half_shift[k, disc] = shift_size * (2 * rng.integers(0, 2, size=n_disc) - 1)

    R = n_covariates
    x = rng.standard_normal((n, R)) if R else np.zeros((n, 0))
    delta_true = np.zeros((R, p), dtype=np.int8)
    beta_true = np.zeros((R, p))
    for j in range(p):
        if m_active == 0:
            break
        active = rng.choice(R, size=m_active, replace=False)
        signs = 2 * rng.integers(0, 2, size=m_active) - 1
        beta_true[active, j] = signs * rng.uniform(0.5, 1.0, size=m_active)
        delta_true[active, j] = 1

    z0 = labels - 1
    eta = mu0[None, :] + half_shift[z0, :] + x @ beta_true
    lam = np.exp(eta)
    nb = rng.negative_binomial(phi, phi / (phi + lam))
    mask = (rng.random((n, p)) < pi_zero).astype(np.int8)
    y = np.where(mask == 1, 0, nb).astype(np.int64)

    counts = CountMatrix(
        y,
        sample_ids=tuple(f"sample_{i + 1}" for i in range(n)),
        feature_ids=tuple(f"taxon_{j + 1}" for j in range(p)),
    )
    covariates = CovariateMatrix(x, tuple(f"cov_{r + 1}" for r in range(R)))
    groups = GroupAssignment(labels, n_groups=n_groups, reference_group=1)
    truth = SimTruth(
        gamma_true=gamma_true,
        delta_true=delta_true,
        mu2_true=half_shift[1].copy(),
        beta_true=beta_true,
    )
    return counts, covariates, groups, truth, mask
