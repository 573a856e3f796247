"""The special functions the model needs, from numpy and the standard library.

* ``lgamma(x)``: vectorized log-gamma for ``x >= 8``, by the Stirling
  series. It serves the negative binomial's dispersion terms at counts
  above the sampler's small-count table, where ``y + phi`` exceeds 8;
* ``betaln(a, b)``: scalar log Beta function, from ``math.lgamma``;
* ``ndtr(x)``: standard normal CDF, ``erfc(-x/sqrt(2))/2`` from
  ``math.erfc``, which keeps its relative precision in the lower tail.

Each array function is elementwise: an element's value depends on that
element alone, not on the shape or layout of the array it came in.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lgamma", "betaln", "ndtr"]


def _horner(coeffs, x, out=None) -> np.ndarray:
    """Polynomial with ``coeffs`` (highest degree first) at ``x``."""
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
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def lgamma(x, out=None, work=None) -> np.ndarray:
    """Log-gamma of each element of ``x``, all at least 8, by the Stirling
    series (below 8 it is inaccurate). ``out`` and ``work``, when given, are
    float64 arrays of x's shape: the result is written into ``out`` and
    ``work`` is overwritten. Fresh arrays of that size cost more in page
    faults than the arithmetic, so a caller that evaluates lgamma often
    passes the same two each time.
    """
    z = np.asarray(x, dtype=np.float64)
    out = np.empty_like(z) if out is None else out
    buf = np.empty_like(z) if work is None else work
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


def betaln(a: float, b: float) -> float:
    """Log of the Beta function at scalars ``a, b > 0``."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


_SQRT_HALF = math.sqrt(0.5)


def ndtr(x) -> np.ndarray:
    """Standard normal CDF of each element of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    t = (x * -_SQRT_HALF).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, t), np.float64, len(t)).reshape(x.shape)

