"""Negative binomial kernel and the prior densities the sampler uses.

The model has one likelihood: a negative binomial mass per matrix cell,
summed over the cells not flagged as extra zeros. Its log splits into

* ``nb_kernel(y, loglam, phi)``: the terms that involve the mean,
  ``y*log(lam) - (y + phi)*log(lam + phi)``, taking the log mean and
  computing ``log(lam + phi)`` as ``log(exp(loglam) + phi)``. It is finite
  for log means up to ~709, where ``exp`` overflows; the sampler clips its
  log means at +-700;
* the terms in the dispersion alone,
  ``lgamma(y + phi) - lgamma(phi) + phi*log(phi)``, which is exactly
  ``phi*log(phi)`` at ``y = 0`` (the sampler's ``_Engine._phi_terms``);
* ``-lgamma(y + 1)``, which depends on the data only.

Every sampler move evaluates the kernel through one engine method, into
the engine's scratch buffers (``out=``, ``work=``). The NB has mean
``lam`` and variance ``lam + lam**2 / phi``; large ``phi`` recovers the
Poisson.

The slab priors on group shifts and covariate effects are the
marginalized scaled-t densities ``t_{2a}(0, b/a)`` obtained by
integrating a normal slab against its shared inverse-gamma variance.

The t-density constants come from ``math.lgamma``; the sampler takes the
vectorized log-gamma terms from the package's own ``special.lgamma``, so
the package needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["nb_kernel", "log_normal_density", "log_t_density"]


def log_normal_density(x, var):
    """Log density of N(0, var) at x."""
    return -0.5 * (np.log(2.0 * np.pi * var) + np.square(x) / var)


def log_t_density(x, df, scale_sq):
    """Log density of a scaled Student t with ``df`` (a scalar) degrees of
    freedom and squared scale ``scale_sq``, centered at zero."""
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * np.log(df * np.pi * scale_sq)
        - ((df + 1.0) / 2.0) * np.log1p(np.square(x) / (df * scale_sq))
    )


def nb_kernel(y, loglam, phi, out=None, work=None):
    """Mean-dependent part of the NB log mass at count ``y``, log mean
    ``loglam`` and dispersion ``phi`` (broadcastable arrays).

    ``out`` and ``work``, when given, are float64 arrays of the broadcast
    shape: the result is written into ``out`` and returned, and ``work`` is
    overwritten. The kernel holds three arrays of that shape at once (the
    log mean, ``log(lam + phi)`` and ``y + phi``), so a caller that passes
    both, and a ``loglam`` it owns, allocates nothing. Without them the two
    are allocated; the arithmetic is the same either way. ``phi`` may be
    ``out`` itself: the kernel reads ``phi`` for the last time in the step
    that first writes ``out``.

    Finite for log means up to ~709, where ``exp(loglam)`` overflows; the
    engine clips its log means at +-700.
    """
    if out is None:
        out = np.empty(np.broadcast(y, loglam, phi).shape)
    if work is None:
        work = np.empty_like(out)
    log_sum = np.exp(loglam, out=work)
    log_sum += phi
    np.log(log_sum, out=log_sum)  # log(lam + phi)
    np.add(y, phi, out=out)
    out *= log_sum
    np.multiply(y, loglam, out=work)
    return np.subtract(work, out, out=out)  # y log(lam) - (y + phi) log(lam + phi)
