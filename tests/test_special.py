"""The package's special functions against scipy's, as the oracle.

Each tolerance is fixed from float64 rounding before the comparison; the
comments give the largest ratio of error to tolerance seen when the
tests were written.
"""

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from zinbreg.sampler import _truncated_walk
from zinbreg.special import betaln, lgamma, ndtr

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny  # below it, spacing is absolute


def _assert_within(got, ref, tol):
    err = np.abs(got - ref)
    worst = int(np.argmax(err - tol))
    assert np.all(err <= tol), (got.flat[worst], ref.flat[worst], tol.flat[worst])


def test_lgamma_matches_scipy_over_its_domain():
    rng = np.random.default_rng(0)
    x = np.concatenate([
        np.exp(rng.uniform(np.log(8.0), np.log(2.0**53), 200_000)),
        rng.uniform(8.0, 9.0, 50_000),  # the series' lower end
        np.arange(8.0, 100.0), [8.0, 2.0**53],
    ])
    # The series' terms are each about 1 eps relative, and (z - 1/2) log z
    # and z partly cancel near x = 8: 64 eps of the result or of 1, whichever
    # is larger (largest ratio seen: 0.035)
    ref = sp.gammaln(x)
    _assert_within(lgamma(x), ref, 64 * EPS * np.maximum(np.abs(ref), 1.0))


def test_lgamma_at_count_plus_dispersion_arguments():
    rng = np.random.default_rng(1)
    y = np.concatenate([rng.integers(8, 20, 20_000), rng.integers(8, 100_000, 20_000)])
    phi = np.exp(rng.uniform(np.log(0.01), np.log(100.0), y.size))
    x = y + phi
    ref = sp.gammaln(x)
    # same reasoning as above (largest ratio seen: 0.037)
    _assert_within(lgamma(x), ref, 64 * EPS * np.maximum(np.abs(ref), 1.0))


def test_lgamma_keeps_shape():
    assert lgamma(10.5).shape == ()
    assert float(lgamma(10.5)) == pytest.approx(float(sp.gammaln(10.5)), rel=1e-14)
    assert lgamma(np.full((2, 3), 8.0)).shape == (2, 3)


def test_lgamma_into_caller_buffers_is_elementwise():
    # with the caller's out and work, each element gets the value it gets
    # alone
    x = np.random.default_rng(3).uniform(8.0, 1e6, 500)
    out, work = np.empty(x.size), np.empty(x.size)
    got = lgamma(x, out=out, work=work)
    assert np.shares_memory(got, out)
    np.testing.assert_array_equal(got, [lgamma(v) for v in x])


def test_betaln_matches_scipy():
    for a, b in ((0.5, 0.5), (1.0, 99.0), (3.0, 1000.0), (250.0, 750.0)):
        ref = float(sp.betaln(a, b))
        # three math.lgamma terms, each within about 1 eps relative (largest
        # ratio seen: 0.87)
        scale = abs(sp.gammaln(a)) + abs(sp.gammaln(b)) + abs(sp.gammaln(a + b))
        assert abs(betaln(a, b) - ref) <= 4 * EPS * scale


def test_ndtr_matches_scipy_in_both_tails():
    x = np.linspace(-40.0, 40.0, 200_001)
    ref = sp.ndtr(x)
    # Rounding x/sqrt(2) by half an ulp moves erfc in the tail by x**2/2 eps
    # relative; both implementations do so (largest ratio seen: 0.62);
    # below TINY, where ndtr(-37.5) lies, the spacing is absolute
    _assert_within(ndtr(x), ref, 4 * EPS * (1.0 + x * x) * ref + TINY)


def test_log_mass_of_the_dispersion_proposal_is_the_normal_log_cdf():
    # step_phi takes log P(N(phi, tau^2) > 0) as log1p(-ndtr(-phi/tau))
    x = np.linspace(0.0, 40.0, 100_001)
    ref = sp.log_ndtr(x)
    # ndtr(-x)'s tolerance above, through log1p (largest ratio seen: 0.56)
    _assert_within(np.log1p(-ndtr(-x)), ref, 4 * EPS * (1.0 + x * x) * np.abs(ref) + TINY)


@pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3])
def test_truncated_walk_draws_the_truncated_normal(ratio):
    # 20,000 draws at phi/tau = ratio against scipy's truncated normal: at
    # 1e-3 about half of each round is drawn again, at 1e3 none
    tau = 2.5
    phi = np.full(20_000, ratio * tau)
    rng = np.random.default_rng(5)
    draws = _truncated_walk(phi, tau, rng)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)
    law = stats.truncnorm(-ratio, np.inf, loc=ratio * tau, scale=tau)
    assert stats.kstest(draws, law.cdf).pvalue > 1e-3
