"""The special functions the model needs, from numpy and the standard library.

* ``lgamma(x)``: vectorized log-gamma for ``x > 0``, by the Stirling series
  at ``x`` for ``x >= 8``, and below that at ``x + 8`` with the recurrence
  ``lgamma(x) = lgamma(x + 8) - log(x (x+1) ... (x+7))``. It serves the
  negative binomial's dispersion terms and ``lgamma(y + 1)``;
* ``betaln(a, b)``: scalar log Beta function, from ``math.lgamma``;
* ``ndtr(x)``: standard normal CDF, ``erfc(-x/sqrt(2))/2`` from
  ``math.erfc``, which keeps its relative precision in the lower tail;
* ``ndtri(p)``: its inverse, Wichura's AS241 (1988), the algorithm behind
  ``statistics.NormalDist.inv_cdf``, accurate to about 1e-16 for
  ``min(p, 1 - p)`` down to 1e-300.

Each array function is elementwise: an element's value depends on that
element alone, not on the shape or layout of the array it came in.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lgamma", "betaln", "ndtr", "ndtri"]


def _horner(coeffs, x, out=None) -> np.ndarray:
    """Polynomial with ``coeffs`` (highest degree first) at ``x``; with
    coefficients of shape (k, 1), k polynomials at once, in k rows."""
    out = np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


# Stirling series of lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2) in
# 1/z: B_2k / (2k (2k-1) z^(2k-1)) for k = 8 down to 1. At z = 8 the first
# omitted term (k = 9) is below 1e-16.
_STIRLING = (
    -3617.0 / 122400.0,
    1.0 / 156.0,
    -691.0 / 360360.0,
    1.0 / 1188.0,
    -1.0 / 1680.0,
    1.0 / 1260.0,
    -1.0 / 360.0,
    1.0 / 12.0,
)
_SHIFT = 8.0
_RISING = np.arange(_SHIFT)  # x (x+1) ... (x+7) = prod(x + _RISING)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling(z, out, buf) -> np.ndarray:
    """lgamma of the 1-d array ``z`` by its Stirling series, accurate for
    z >= 8, into ``out``, with ``buf`` as working space (both of z's size)."""
    np.multiply(z, z, out=buf)
    np.divide(1.0, buf, out=buf)
    _horner(_STIRLING, buf, out)
    out /= z
    out += _HALF_LOG_2PI - 0.5
    # (z - 1/2)(log z - 1) as z(log z - 1) - (log z - 1)/2, so that its
    # largest rounding error is the one in log z (halving and doubling are
    # exact)
    log_z = np.log(z, out=buf)
    log_z -= 1.0
    log_z *= 0.5
    out -= log_z
    log_z += log_z
    log_z *= z
    out += log_z
    return out


def lgamma(x, out=None, work=None) -> np.ndarray:
    """Log-gamma of each element of ``x`` (positive finite reals).

    ``out`` and ``work``, when given, are contiguous float64 arrays of x's
    size: the result is written into ``out`` (and returned in x's shape),
    and ``work`` is overwritten. Fresh arrays of that size cost more in
    page faults than the arithmetic, so a caller that evaluates lgamma
    often passes the same two each time.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    x = x.ravel()  # in-place steps need arrays, not 0-d scalars
    out = np.empty_like(x) if out is None else out.reshape(x.size)
    work = np.empty_like(x) if work is None else work.reshape(x.size)
    # every element takes the series; those below the shift, where it is
    # inaccurate (and may overflow), are then replaced from the recurrence
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _stirling(x, out, work)
    small = x < _SHIFT
    xs = x[small]
    m = xs.size
    # three working arrays of the small elements' count, from ``work`` when
    # it has room
    pool = work if 3 * m <= work.size else np.empty(3 * m)
    prod, tmp, buf = pool[: 3 * m].reshape(3, m)
    # x (x+1) ... (x+7), multiplied in that order
    np.add(xs, 1.0, out=prod)
    prod *= xs
    for k in _RISING[2:]:
        np.add(xs, k, out=tmp)
        prod *= tmp
    np.log(prod, out=prod)
    xs += _SHIFT
    _stirling(xs, tmp, buf)
    tmp -= prod
    out[small] = tmp
    return out.reshape(shape)


def betaln(a: float, b: float) -> float:
    """Log of the Beta function at scalars ``a, b > 0``."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


_SQRT_HALF = math.sqrt(0.5)


def ndtr(x) -> np.ndarray:
    """Standard normal CDF of each element of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    t = (x * -_SQRT_HALF).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, t), np.float64, len(t)).reshape(x.shape)


# AS241 (PPND16) rational approximations, highest degree first: the central
# region |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2, then the tails in
# r = sqrt(-log(min(p, 1 - p))), for r <= 5 in r - 1.6 and beyond in r - 5.
# Each table holds (numerator, denominator) coefficient pairs, so that one
# Horner pass evaluates both.
_CENTRAL = np.transpose((
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
))[:, :, None]
_NEAR_TAIL = np.transpose((
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
))[:, :, None]
_FAR_TAIL = np.transpose((
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
))[:, :, None]


def _rational(coeffs, x) -> np.ndarray:
    num, den = _horner(coeffs, x)
    return num / den


def ndtri(p) -> np.ndarray:
    """Standard normal quantile of each element of ``p`` in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _rational(_CENTRAL, 0.180625 - qc * qc)
    tail = ~central
    qt = q[tail]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.where(qt <= 0.0, p[tail], 1.0 - p[tail])))
        x = _rational(_NEAR_TAIL, r - 1.6)
        far = r > 5.0  # min(p, 1 - p) below 1.4e-11: rare, so only on demand
        if far.any():
            x[far] = _rational(_FAR_TAIL, r[far] - 5.0)
    x[np.isinf(r)] = np.inf  # p = 0 or 1
    out[tail] = np.copysign(x, qt)
    return out
