"""Negative binomial kernel and the prior densities the sampler uses.

The model has one likelihood: a negative binomial mass per matrix cell,
summed over the cells not flagged as extra zeros. Its log splits into

* ``nb_kernel(y, loglam, phi)``: the terms that involve the mean,
  ``y*log(lam) - (y + phi)*log(lam + phi)``, taking the log mean and
  computing ``log(lam + phi)`` as ``log(exp(loglam) + phi)``. It is finite
  for log means up to ~709, where ``exp`` overflows; the sampler clips its
  log means at +-700;
* ``nb_phi_terms(y, phi)``: the terms in the dispersion alone,
  ``lgamma(y + phi) - lgamma(phi) + phi*log(phi)``, which is exactly
  ``phi*log(phi)`` at ``y = 0``;
* ``-lgamma(y + 1)``, which depends on the data only.

Every sampler move evaluates the kernel through one engine method, into
the engine's scratch buffers (``out=``, ``work=``); ``nb_log_pmf`` adds
the other two parts to give the full mass. The NB has mean ``lam`` and
variance ``lam + lam**2 / phi``; large ``phi`` recovers the Poisson.

The slab priors on group shifts and covariate effects are the
marginalized scaled-t densities ``t_{2a}(0, b/a)`` obtained by
integrating a normal slab against its shared inverse-gamma variance.

The log-gamma terms come from the package's own ``special.lgamma`` (the
vectorized ``lgamma(y + phi)``, ``lgamma(phi)`` and ``lgamma(y + 1)``)
and from ``math.lgamma`` (the scalar t-density constants), so the
package needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .special import lgamma

__all__ = [
    "nb_kernel",
    "nb_phi_terms",
    "nb_log_pmf",
    "zinb_log_pmf",
    "log_normal_density",
    "log_t_density",
]


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
    are allocated; the arithmetic is the same either way.

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


def nb_phi_terms(y, phi):
    """Part of the NB log mass that depends on the dispersion alone."""
    return lgamma(y + phi) - lgamma(phi) + phi * np.log(phi)


def nb_log_pmf(y, lam, phi):
    """Log mass of the negative binomial with mean ``lam`` and dispersion
    ``1/phi`` at count ``y``.

    Accepts scalars or broadcastable arrays; raises ``DomainError`` when
    ``lam`` or ``phi`` is not strictly positive or ``y`` is not a
    non-negative integer.
    """
    y = np.asarray(y, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if np.any(lam <= 0) or np.any(~np.isfinite(lam)):
        raise DomainError("lam must be strictly positive and finite")
    if np.any(phi <= 0) or np.any(~np.isfinite(phi)):
        raise DomainError("phi must be strictly positive and finite")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise DomainError("y must be a non-negative integer")
    out = nb_kernel(y, np.log(lam), phi) + nb_phi_terms(y, phi) - lgamma(y + 1.0)
    return out if out.ndim else float(out)


def zinb_log_pmf(y, pi, lam, phi):
    """Log mass of the zero-inflated negative binomial: a point mass at
    zero with weight ``pi`` mixed with an NB(lam, phi) count component."""
    pi = np.asarray(pi, dtype=np.float64)
    if np.any(pi < 0) or np.any(pi > 1):
        raise DomainError("pi must lie in [0, 1]")
    y = np.asarray(y, dtype=np.float64)
    nb = nb_log_pmf(y, lam, phi)
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_1mpi = np.log1p(-pi)
    out = np.where(y == 0, np.logaddexp(log_pi, log_1mpi + nb), log_1mpi + nb)
    return out if out.ndim else float(out)
