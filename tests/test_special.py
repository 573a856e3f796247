"""The package's special functions against scipy's, as the oracle.

Each tolerance is fixed from float64 rounding before the comparison; the
comments give the largest ratio of error to tolerance seen when the
tests were written.
"""

import numpy as np
import pytest
from scipy import special as sp

from zinbreg.sampler import _phi_proposal
from zinbreg.special import betaln, lgamma, ndtr, ndtri

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny  # below it, spacing is absolute


def _assert_within(got, ref, tol):
    err = np.abs(got - ref)
    worst = int(np.argmax(err - tol))
    assert np.all(err <= tol), (got.flat[worst], ref.flat[worst], tol.flat[worst])


def test_lgamma_matches_scipy_over_its_domain():
    rng = np.random.default_rng(0)
    x = np.concatenate([
        np.exp(rng.uniform(np.log(1e-3), np.log(2.0**53), 200_000)),
        rng.uniform(0.5, 3.0, 50_000),  # around the zeros of lgamma at 1 and 2
        rng.uniform(7.5, 8.5, 50_000),  # across the shift
        np.arange(1.0, 100.0), [1e-3, 2.0**53],
    ])
    # Below x = 8 the result is lgamma(x + 8) - log(x ... (x+7)), two terms
    # of up to 28 in magnitude, each about 1 eps relative: 64 eps absolute
    # against results near 0, relative above (largest ratio seen: 0.44)
    ref = sp.gammaln(x)
    _assert_within(lgamma(x), ref, 64 * EPS * np.maximum(np.abs(ref), 1.0))


def test_lgamma_at_count_plus_dispersion_arguments():
    rng = np.random.default_rng(1)
    y = np.concatenate([rng.integers(1, 20, 20_000), rng.integers(1, 100_000, 20_000)])
    phi = np.exp(rng.uniform(np.log(0.01), np.log(100.0), y.size))
    x = y + phi
    ref = sp.gammaln(x)
    # same reasoning as above (largest ratio seen: 0.41)
    _assert_within(lgamma(x), ref, 64 * EPS * np.maximum(np.abs(ref), 1.0))


def test_lgamma_keeps_shape():
    assert lgamma(3.5).shape == ()
    assert float(lgamma(3.5)) == pytest.approx(float(sp.gammaln(3.5)), rel=1e-14)
    assert lgamma(np.ones((2, 3))).shape == (2, 3)


def test_lgamma_into_caller_buffers_is_elementwise():
    # with the caller's out and work, the small arguments' working arrays
    # come from work when it has room (few small) and are fresh when not
    # (most small); either way each element gets the value it gets alone
    rng = np.random.default_rng(3)
    for small_share in (0.1, 0.9):
        small = rng.random(500) < small_share
        x = np.where(small, rng.uniform(1e-3, 8.0, 500), rng.uniform(8.0, 1e6, 500))
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
    x = np.linspace(0.0, 40.0, 100_001)
    _, log_mass = _phi_proposal(x, 1.0, np.zeros_like(x))
    ref = sp.log_ndtr(x)
    # log1p(-ndtr(-x)), with ndtr(-x)'s tolerance above (largest ratio
    # seen: 0.56)
    _assert_within(log_mass, ref, 4 * EPS * (1.0 + x * x) * np.abs(ref) + TINY)


def test_ndtri_matches_scipy_over_the_unit_interval():
    rng = np.random.default_rng(2)
    p = np.concatenate([
        np.exp(rng.uniform(np.log(1e-300), 0.0, 100_000)),
        rng.uniform(0.0, 1.0, 100_000),
        1.0 - np.exp(rng.uniform(np.log(1e-16), 0.0, 50_000)),
        [1e-300, 0.075, 0.5, 0.925, 1.0 - 2.0**-53],
    ])
    p = p[(p > 0.0) & (p < 1.0)]
    ref = sp.ndtri(p)
    # AS241 is a ratio of two degree-7 polynomials evaluated by Horner's
    # rule, each within about 7 eps relative (largest ratio seen: 0.28)
    _assert_within(ndtri(p), ref, 16 * EPS * np.abs(ref))
    np.testing.assert_array_equal(ndtri([0.0, 1.0]), [-np.inf, np.inf])


@pytest.mark.parametrize("u", [1.0 - 2.0**-53, 1.0 - 1e-12, 0.5, 1e-9])
def test_dispersion_proposal_is_finite_and_positive(u):
    ratio = np.logspace(-3.0, 3.0, 61)
    for tau in (0.01, 1.0, 30.0):
        phi = ratio * tau
        prop, log_mass = _phi_proposal(phi, tau, np.full(phi.size, u))
        assert np.all(np.isfinite(prop)) and np.all(prop > 0.0), (u, tau)
        assert np.all(np.isfinite(log_mass)) and np.all(log_mass <= 0.0)
