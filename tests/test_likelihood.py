import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gamma as gamma_dist
from scipy.stats import poisson

import _oracles as oracle
from _oracles import (
    InconsistentZeroIndicator,
    TaxonParams,
    log_gamma_density,
    log_prior_terms,
    mean_alpha,
    nb_log_pmf,
    taxon_log_lik,
    zinb_log_pmf,
)
from zinbreg.data import CovariateMatrix, GroupAssignment, Hyperparameters
from zinbreg.errors import DomainError
from zinbreg.likelihood import log_t_density, softplus
from zinbreg.normalization import SizeFactors


def test_nb_log_pmf_geometric_cases():
    # phi=1 makes the NB geometric with success probability lam/(lam+1)
    assert nb_log_pmf(0, 1.0, 1.0) == pytest.approx(math.log(0.5))
    assert nb_log_pmf(2, 1.0, 1.0) == pytest.approx(math.log(1 / 8))


def test_nb_log_pmf_matches_direct_gamma_evaluation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = int(rng.integers(0, 120))
        lam = float(rng.uniform(0.1, 50))
        phi = float(rng.uniform(0.1, 30))
        assert nb_log_pmf(y, lam, phi) == pytest.approx(
            math.log(oracle.nb_pmf_direct(y, lam, phi)), abs=1e-10
        )


def test_nb_log_pmf_large_counts_finite():
    out = nb_log_pmf(10**9, 1e9, 5.0)
    assert np.isfinite(out)


def test_nb_kernel_matches_log_space_form():
    # log(exp(loglam) + phi) carries the relative rounding of exp, the sum
    # and the log; a relative error in the log's argument is an absolute
    # error in the log, hence the +1 next to |log(lam + phi)|
    loglam = np.linspace(-700.0, 700.0, 1401)[:, None, None]
    phi = np.geomspace(1e-3, 1e4, 71)[None, :, None]
    y = np.array([0.0, 1.0, 10.0, 1e6, 1e9])[None, None, :]
    with np.errstate(all="raise"):
        got = oracle.nb_kernel(y, loglam, phi)
    want = oracle.nb_kernel_logaddexp(y, loglam, phi)
    log_sum = np.logaddexp(loglam, np.log(phi))
    scale = np.abs(y * loglam) + (y + phi) * (np.abs(log_sum) + 1.0)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


def test_softplus_matches_log_space_form_and_holds_at_the_clip():
    # exp(m) and log1p each round once; log1p(x) >= x/(1 + x), so the
    # rounding of exp moves the result by at most eps times itself
    m = np.linspace(-740.0, 700.0, 14401)
    with np.errstate(over="raise"):
        got = softplus(m)
        held = softplus(np.array([700.0, 709.0, 1e4, 1e300]))
    want = np.logaddexp(0.0, m)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)
    # past the clip the softplus stays at its value there; below it exp
    # underflows and the softplus is exactly 0
    assert np.all(held == softplus(np.array([700.0])))
    assert softplus(np.array([-800.0, -1e300]))[0] == 0.0
    out = m.copy()
    assert softplus(out, out=out) is out
    np.testing.assert_array_equal(out, got)


def test_log_odds_form_equals_the_log_mean_kernel():
    # y*M - (y + phi)*softplus(M) at M = log(lam/phi) is the kernel plus
    # phi*log(phi)
    loglam = np.linspace(-30.0, 30.0, 121)[:, None, None]
    phi = np.geomspace(1e-2, 1e3, 31)[None, :, None]
    y = np.array([0.0, 1.0, 7.0, 1e4])[None, None, :]
    m = loglam - np.log(phi)
    got = y * m - (y + phi) * softplus(m)
    want = oracle.nb_kernel(y, loglam, phi) + phi * np.log(phi)
    scale = np.abs(y * loglam) + (y + phi) * (np.abs(m) + np.abs(np.log(phi)) + 1.0)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale)


def test_nb_log_pmf_variance_matches_dispersion():
    lam, phi = 7.0, 3.0
    ys = np.arange(0, 4000)
    pmf = np.exp(nb_log_pmf(ys, lam, phi))
    mean = float((ys * pmf).sum())
    var = float(((ys - mean) ** 2 * pmf).sum())
    assert mean == pytest.approx(lam, rel=1e-8)
    assert var == pytest.approx(lam + lam**2 / phi, rel=1e-6)


def test_nb_poisson_limit():
    # pointwise distance shrinks like lam^2/phi; the summed (half-L1)
    # distance is an order larger and is bounded separately
    for lam in (1.0, 5.0, 20.0):
        ys = np.arange(0, 200)
        nb = np.exp(nb_log_pmf(ys, lam, 1000.0))
        po = poisson.pmf(ys, lam)
        assert np.abs(nb - po).max() < 1e-3
        assert 0.5 * np.abs(nb - po).sum() < 6e-3


def test_nb_log_pmf_domain_errors():
    with pytest.raises(DomainError):
        nb_log_pmf(1, 0.0, 1.0)
    with pytest.raises(DomainError):
        nb_log_pmf(1, 1.0, -2.0)
    with pytest.raises(DomainError):
        nb_log_pmf(1.5, 1.0, 1.0)


def test_zinb_log_pmf_zero_mixture():
    assert zinb_log_pmf(0, 0.5, 1.0, 1.0) == pytest.approx(math.log(0.75))


def test_zinb_log_pmf_positive_count_is_shifted_nb():
    y, pi, lam, phi = 3, 0.3, 2.5, 1.7
    assert zinb_log_pmf(y, pi, lam, phi) == pytest.approx(
        math.log(1 - pi) + nb_log_pmf(y, lam, phi)
    )


@pytest.mark.parametrize("pi", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("lam", [0.5, 5.0, 50.0])
@pytest.mark.parametrize("phi", [0.1, 1.0, 100.0])
def test_zinb_normalizes_over_truncated_support(pi, lam, phi):
    # support truncated where the NB tail mass is far below 1e-8
    ymax = int(lam + 60 * math.sqrt(lam + lam**2 / phi) + 200)
    ys = np.arange(0, ymax)
    total = np.exp(zinb_log_pmf(ys, pi, lam, phi)).sum()
    assert total == pytest.approx(1.0, abs=1e-6)


def _params(**kw):
    defaults = dict(
        mu0=0.0,
        mu_k=np.zeros(2),
        beta=np.zeros(2),
        phi=1.0,
        gamma=0,
        delta=np.zeros(2, dtype=int),
        reference_group=1,
    )
    defaults.update(kw)
    return TaxonParams(**defaults)


def test_mean_alpha_zero_parameters():
    assert mean_alpha(_params(), np.zeros(2), 1) == pytest.approx(1.0)


def test_mean_alpha_arithmetic():
    params = _params(
        mu0=1.0, mu_k=np.array([0.0, 2.0]), gamma=1,
        beta=np.array([0.5, -1.0]), delta=np.array([1, 1]),
    )
    x = np.array([-1.0, 0.0])
    assert mean_alpha(params, x, 2) == pytest.approx(math.exp(1.0 + 2.0 - 0.5))


def test_mean_alpha_gamma_off_is_group_invariant():
    params = _params(mu0=0.7, beta=np.array([0.2, 0.0]), delta=np.array([1, 0]))
    x = np.array([1.0, 3.0])
    assert mean_alpha(params, x, 1) == mean_alpha(params, x, 2)


def test_taxon_params_invariants_enforced():
    with pytest.raises(DomainError):
        _params(gamma=0, mu_k=np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        _params(delta=np.array([0, 1]), beta=np.array([0.5, 0.0]))
    with pytest.raises(DomainError):
        _params(gamma=1, mu_k=np.array([0.5, 1.0]), reference_group=1)
    with pytest.raises(DomainError):
        _params(phi=0.0)


def _loglik_setup(n=6, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    covs = CovariateMatrix(x, ("c0", "c1"))
    groups = GroupAssignment(1 + np.arange(n) % 2, 2)
    s = np.exp(rng.standard_normal(n) * 0.1)
    s = SizeFactors(np.exp(np.log(s) - np.log(s).mean()), "css")
    return covs, groups, s


def test_taxon_log_lik_all_flagged_is_zero():
    covs, groups, s = _loglik_setup()
    y = np.zeros(6, dtype=int)
    r = np.ones(6, dtype=int)
    assert taxon_log_lik(y, r, _params(), s, covs, groups) == 0.0


def test_taxon_log_lik_single_sample():
    covs, groups, s = _loglik_setup()
    x0 = covs.values[0]
    params = _params()
    y = np.zeros(6, dtype=int)
    r = np.array([0, 1, 1, 1, 1, 1])
    expected = nb_log_pmf(0, s.values[0] * mean_alpha(params, x0, 1), 1.0)
    assert taxon_log_lik(y, r, params, s, covs, groups) == pytest.approx(expected)


def test_taxon_log_lik_matches_naive_loop():
    covs, groups, s = _loglik_setup(seed=7)
    rng = np.random.default_rng(8)
    params = _params(
        mu0=1.2, mu_k=np.array([0.0, -0.8]), gamma=1, phi=2.5,
        beta=np.array([0.4, 0.0]), delta=np.array([1, 0]),
    )
    y = rng.integers(0, 12, size=6)
    r = np.where(y == 0, rng.integers(0, 2, size=6), 0)
    expected = 0.0
    for i in range(6):
        if r[i] == 1:
            continue
        lam = s.values[i] * mean_alpha(params, covs.values[i], int(groups.labels[i]))
        expected += math.log(oracle.nb_pmf_direct(int(y[i]), lam, params.phi))
    assert taxon_log_lik(y, r, params, s, covs, groups) == pytest.approx(expected)


def test_taxon_log_lik_additive_over_disjoint_subsets():
    covs, groups, s = _loglik_setup(seed=9)
    rng = np.random.default_rng(10)
    params = _params(mu0=0.5, phi=1.5)
    y = rng.integers(0, 10, size=6)
    r = np.zeros(6, dtype=int)
    full = taxon_log_lik(y, r, params, s, covs, groups)
    part = 0.0
    for keep in (slice(0, 3), slice(3, 6)):
        r_part = np.ones(6, dtype=int)
        y_part = y.copy()
        y_part[r_part.astype(bool)] = 0
        # flag out the complement instead: rebuild with r=1 elsewhere
        r_sub = np.ones(6, dtype=int)
        r_sub[keep] = 0
        y_sub = np.where(r_sub == 1, 0, y)
        part += taxon_log_lik(y_sub, r_sub, params, s, covs, groups)
    assert part == pytest.approx(full)


def test_taxon_log_lik_rejects_inconsistent_indicator():
    covs, groups, s = _loglik_setup()
    y = np.array([1, 0, 0, 0, 0, 0])
    r = np.array([1, 0, 0, 0, 0, 0])
    with pytest.raises(InconsistentZeroIndicator):
        taxon_log_lik(y, r, _params(), s, covs, groups)


def test_log_t_density_matches_quadrature_oracle():
    # marginalized slab: t with df 4 and squared scale 5 for a_t=2, b_t=10
    assert math.exp(log_t_density(0.0, 4.0, 5.0)) == pytest.approx(
        0.16770509831249109, abs=1e-9
    )
    assert math.exp(log_t_density(1.5, 4.0, 5.0)) == pytest.approx(
        0.1284683707620487, abs=1e-9
    )
    for x in (-3.0, 0.7, 8.0):
        assert math.exp(log_t_density(x, 4.0, 5.0)) == pytest.approx(
            oracle.t_density_quadrature(x, 2.0, 10.0), rel=1e-8
        )


def test_log_gamma_density_shape_rate():
    # vague dispersion prior at its mean: log(0.01) - 1
    assert log_gamma_density(100.0, 1.0, 0.01) == pytest.approx(
        math.log(0.01) - 1.0
    )
    for x, a, b in ((2.3, 1.7, 0.4), (55.0, 2.0, 0.05)):
        assert log_gamma_density(x, a, b) == pytest.approx(
            gamma_dist.logpdf(x, a, scale=1 / b)
        )


def test_log_prior_terms_components():
    hp = Hyperparameters()
    params = _params(
        mu0=1.0, gamma=1, mu_k=np.array([0.0, 0.5]), phi=100.0,
        beta=np.array([0.3, 0.0]), delta=np.array([1, 0]),
    )
    terms = log_prior_terms(params, hp)
    assert terms.mu0 == pytest.approx(
        -0.5 * (math.log(2 * math.pi * 100.0) + 1.0 / 100.0)
    )
    assert terms.mu == pytest.approx(float(log_t_density(0.5, 4.0, 5.0)))
    assert terms.beta == pytest.approx(float(log_t_density(0.3, 4.0, 5.0)))
    assert terms.phi == pytest.approx(math.log(0.01) - 1.0)
    assert terms.total() == pytest.approx(terms.mu0 + terms.mu + terms.beta + terms.phi)


def test_log_prior_terms_zero_for_switched_off_blocks():
    hp = Hyperparameters()
    terms = log_prior_terms(_params(phi=100.0), hp)
    assert terms.mu == 0.0
    assert terms.beta == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 500),
    st.floats(0.2, 80.0),
    st.floats(0.2, 50.0),
)
def test_nb_log_pmf_never_positive(y, lam, phi):
    assert nb_log_pmf(y, lam, phi) <= 1e-12
