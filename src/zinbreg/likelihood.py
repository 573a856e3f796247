"""The negative binomial log mass in log-odds form, and the prior densities
the sampler uses.

The model has one likelihood: a negative binomial mass per matrix cell,
summed over the cells not flagged as extra zeros. With mean ``lam``,
dispersion ``phi`` and the log odds ``M = log(lam/phi)``, its log at count
``y`` is

    y*M - (y + phi)*softplus(M) + lgamma(y + phi) - lgamma(phi) - lgamma(y + 1)

with ``softplus(M) = log(1 + exp(M)) = log(1 + lam/phi)``. The sampler keeps
the three parts apart:

* ``y*M``: linear in the log mean, so the change a mean move makes to it is
  the move's shift times a sum of counts, a constant of the data;
* ``(y + phi)*softplus(M)``: the one per-cell term, weighted by ``y + phi``
  at the cells not flagged; at ``y = 0`` the log mass is ``-phi*softplus(M)``;
* the ``lgamma`` terms: ``lgamma(y + phi) - lgamma(phi)`` is exactly 0 at
  ``y = 0``, so the dispersion terms are a per-feature sum over the nonzero
  counts, and ``lgamma(y + 1)`` depends on the data only.

``softplus`` holds ``M`` at 700 from above before its ``exp``, which would
overflow past ~709.8, so every term stays finite. Past the clip the
softplus stays at 700 while ``y*M`` keeps growing, so there the log mass
is not the NB's: it rises with ``M`` at ``y > 0``. It needs no lower clip:
below about -745 ``exp`` underflows to 0 and ``log1p(0)`` is exactly 0,
the softplus's limit. The NB
has mean ``lam`` and variance ``lam + lam**2 / phi``; large ``phi``
recovers the Poisson.

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

__all__ = ["softplus", "log_normal_density", "log_t_density"]

# the log odds are held here before the softplus's exp, which keeps it finite
_LOG_ODDS_CLIP = 700.0


def softplus(m, out=None):
    """``log(1 + exp(m))`` at the log odds ``m``, held at ``m = 700`` from
    above, into ``out`` (a float64 array of ``m``'s shape, which may be
    ``m`` itself) when given. Three passes: the clip, ``exp`` and
    ``log1p``."""
    out = np.minimum(m, _LOG_ODDS_CLIP, out=out)
    np.exp(out, out=out)
    return np.log1p(out, out=out)


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
