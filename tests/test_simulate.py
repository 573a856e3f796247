import numpy as np
import pytest

import _oracles as oracle
from _zinb import generate_zinb
from zinbreg.data import (
    CovariateMatrix,
    GroupAssignment,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from zinbreg.errors import DomainError, PoolTooSmall
from zinbreg.simulate import SimConfig, dirichlet_draw, generate


def test_dirichlet_draw_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0.1, 100, size=30)
        pi = dirichlet_draw(a, rng)
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.all(pi >= 0)


def test_dirichlet_draw_symmetric_mean():
    rng = np.random.default_rng(1)
    draws = np.array([dirichlet_draw(np.array([3.0, 3.0]), rng) for _ in range(4000)])
    assert draws[:, 0].mean() == pytest.approx(0.5, abs=0.02)


def test_dirichlet_draw_concentration():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pi = dirichlet_draw(np.array([1e6, 1e6]), rng)
        assert abs(pi[0] - 0.5) < 1e-2


def test_dirichlet_draw_moment_oracle():
    # empirical mean matches a / sum(a) within 3 standard errors
    rng = np.random.default_rng(3)
    a = np.array([0.5, 2.0, 7.5])
    n = 100_000
    draws = np.empty((n, 3))
    for i in range(n):
        draws[i] = dirichlet_draw(a, rng)
    mean = draws.mean(axis=0)
    expected = a / a.sum()
    a0 = a.sum()
    se = np.sqrt(expected * (1 - expected) / (a0 + 1) / n)
    assert np.all(np.abs(mean - expected) < 3 * se)


def test_dirichlet_rejects_nonpositive():
    with pytest.raises(DomainError):
        dirichlet_draw(np.array([1.0, 0.0]), np.random.default_rng(0))


def test_generate_deterministic():
    cfg = SimConfig(n=8, p=12, n_disc=3, n_covariates=2, m_active=1,
                    total_min=1000, total_max=2000, pi0=0.3, seed=5)
    a = generate(cfg)
    b = generate(cfg)
    np.testing.assert_array_equal(a[0].counts, b[0].counts)
    np.testing.assert_array_equal(a[3].beta_true, b[3].beta_true)
    c = generate(SimConfig(**{**cfg.__dict__, "seed": 6}))
    assert not np.array_equal(a[0].counts, c[0].counts)


def test_generate_zero_mask_count_and_rowsums():
    # totals in the tens of millions, so that no unmasked count is zero and
    # every masked cell shows as a change
    cfg = SimConfig(n=10, p=20, n_disc=4, n_covariates=3, m_active=2, pi0=0.25, seed=7)
    counts = generate(cfg)[0].counts
    # the mask is drawn after the counts, so the unmasked twin from the same
    # seed has the same counts except at the masked cells, now zero
    cfg0 = SimConfig(**{**cfg.__dict__, "pi0": 0.0})
    counts0 = generate(cfg0)[0].counts
    assert counts0.all()
    masked = counts != counts0
    assert masked.sum() == round(0.25 * 10 * 20)
    assert np.all(counts[masked] == 0)

    # with no masking, row sums equal the multinomial totals
    sums = counts0.sum(axis=1)
    assert np.all((sums >= cfg.total_min) & (sums <= cfg.total_max))


def test_generate_truth_counts():
    cfg = SimConfig(n=12, p=30, n_disc=6, n_covariates=5, m_active=3,
                    total_min=2000, total_max=3000, seed=9)
    _, _, groups, truth = generate(cfg)
    assert truth.gamma_true.sum() == 6
    assert np.all(truth.delta_true.sum(axis=0) == 3)
    assert np.all(np.abs(truth.mu2_true[truth.gamma_true == 1]) == 2.0)
    assert np.all(truth.mu2_true[truth.gamma_true == 0] == 0.0)
    active = truth.delta_true == 1
    assert np.all((np.abs(truth.beta_true[active]) >= 0.5) & (np.abs(truth.beta_true[active]) <= 1.0))
    assert np.all(truth.beta_true[~active] == 0.0)
    # balanced groups, first half reference
    assert groups.labels.tolist() == [1] * 6 + [2] * 6


def test_generate_passes_validation_after_filter():
    cfg = SimConfig(n=20, p=40, n_disc=5, n_covariates=3, m_active=2,
                    total_min=100_000, total_max=200_000, pi0=0.4, seed=11)
    counts, covs, groups, _ = generate(cfg)
    kept = filter_low_abundance(counts, groups, 2, 2)
    ds = validate_inputs(kept, standardize_covariates(covs), groups)
    assert ds.p >= 35  # the reference-style settings rarely drop features


def test_generate_pool_sampling():
    rng = np.random.default_rng(13)
    pool_cov = CovariateMatrix(rng.standard_normal((30, 2)), ("a", "b"))
    pool_grp = GroupAssignment(1 + (np.arange(30) % 2), 2)
    cfg = SimConfig(n=10, p=8, n_disc=2, n_covariates=2, m_active=1,
                    total_min=1000, total_max=1500, seed=15)
    counts, covs, _, _ = generate(cfg, pool=(pool_cov, pool_grp))
    pool_rows = {tuple(row) for row in pool_cov.values}
    assert all(tuple(row) in pool_rows for row in covs.values)


def test_generate_pool_too_small():
    pool_cov = CovariateMatrix(np.random.default_rng(0).standard_normal((4, 2)), ("a", "b"))
    pool_grp = GroupAssignment(np.array([1, 1, 1, 2]), 2)
    cfg = SimConfig(n=10, p=8, n_disc=2, n_covariates=2, m_active=1,
                    total_min=1000, total_max=1500, seed=15)
    with pytest.raises(PoolTooSmall):
        generate(cfg, pool=(pool_cov, pool_grp))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=7)
    with pytest.raises(ValueError):
        SimConfig(n_disc=400, p=300)
    with pytest.raises(ValueError):
        SimConfig(pi0=1.0)
    with pytest.raises(ValueError):
        SimConfig(m_active=9, n_covariates=7)


def test_generate_zinb_structure():
    counts, covs, groups, truth, mask = generate_zinb(
        n=40, p=10, n_disc=3, n_covariates=4, m_active=2, pi_zero=0.3, seed=21
    )
    assert counts.counts.shape == (40, 10)
    assert covs.n_covariates == 4
    assert truth.gamma_true.sum() == 3
    assert mask.shape == (40, 10) and mask.any()
    assert np.all(counts.counts[mask == 1] == 0)
    assert np.all(truth.delta_true.sum(axis=0) == 2)


def test_generate_zinb_multi_group_labels():
    _, _, groups, truth, _ = generate_zinb(n=30, p=6, n_disc=2, n_groups=3, seed=22)
    assert set(groups.labels.tolist()) == {1, 2, 3}
    assert truth.mu2_true.shape == (6,)


@pytest.mark.parametrize("p", [2, 10, 100, 1000])
def test_numpy_multinomial_is_the_sequential_binomial_draw(p):
    # generate draws each sample's counts with rng.multinomial: the same
    # binomials, in the same order, as the oracle's loop, so the counts and
    # the stream left after them are the same
    for seed in range(20):
        probs = dirichlet_draw(np.exp(np.random.default_rng(seed).uniform(0, 3, p)),
                               np.random.default_rng(seed))
        for total in (5, 1000, 40_000_000):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(ours.multinomial(total, probs),
                                          oracle.multinomial(ref, total, probs))
            assert ours.random() == ref.random()
