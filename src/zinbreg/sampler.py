"""Metropolis-Hastings-within-Gibbs sampler for the zero-inflated negative
binomial regression model.

One sweep applies, in order:

1. redraw of the extra-zero indicators at observed zeros,
2. random-walk update of each feature baseline,
3. add-delete move on each feature's discrimination indicator with its
   group shifts, then within-model walks on active shifts,
4. add-delete move on one covariate indicator per feature, then
   within-model walks on active effects,
5. truncated-normal random-walk update of each dispersion.

Indicator priors enter through their collapsed Beta-Bernoulli ratios: the
whole-vector ratio for the discrimination indicators, the per-feature
vector ratio over covariate slots, and the per-entry ratio for the
extra-zero indicators.

Everything a chain does is a pure function of (data, size factors,
hyperparameters, proposal scales, chain config); identical seeds give
bit-identical traces regardless of how chains are scheduled.

The likelihood is taken in the log-odds form of ``likelihood.py``: per
cell, ``y*M - (y + phi)*softplus(M)`` at the log odds
``M = log(mean/phi)``, the log mean being
``log(s) + mu0 + mu[group] + beta . x``, plus per-feature dispersion
sums. ``_Engine`` keeps a cache of the current state:

* per cell: the mask ``active`` of the cells not flagged as extra zeros,
  the unclipped log odds ``M`` (``log_odds``), its softplus ``sp`` and the
  weights ``w = active*(y + phi)``;
* per feature: ``G = sum of lgamma(y + phi) - lgamma(phi)`` over its
  nonzero counts (the terms vanish at a zero count);
* constants of the data: each feature's count sums, in total, per group
  (``y_group``) and against each covariate (``y_x``).

A mean move shifts ``M`` by its change in the log mean. The count term of
its log likelihood ratio is then the shift times the matching count sum,
and the rest is ``-sum w*(sp' - sp)`` over the cells it touches: one
softplus (three passes) at its proposal, a difference and an ``einsum``.
The three random walks on the means (baselines, active shifts and active
effects) are one method, ``_walk``. ``step_mu0``, ``_mu_within`` and
``_beta_within`` each draw their own steps and uniforms and take their own
prior ratio; ``_walk`` shifts the gathered log-odds rows by the step
(times the covariate row, for an effect), takes the ratio, accepts,
commits and counts. The extra-zero step reads the cached softplus at the
zero cells, where the log mass is ``-phi*sp``. The dispersion move shifts
``M`` by ``-(log phi' - log phi)``, moves the weights with ``phi`` and
takes ``lgamma`` on the nonzero counts and the p dispersions only. A move
copies its accepted rows into the cache, and the log posterior is a sum
over the cache plus the priors. The likelihood of a move goes through
``_ratio`` and ``_commit`` alone: in a prior-only chain the first gives a
zero ratio and the second copies nothing, so the moves leave the cache
alone and the log posterior rebuilds it.

The engine stores its per-cell arrays feature-major, (p, n): the counts,
the mask, the cache and the scratch views. Its samples are ordered by
group, the reference group first, so one feature's cells are one
contiguous row, one group's cells of it are one slice, and the
non-reference groups' cells together are the slice after the reference's.
A walk over some features gathers and commits whole rows (of a group's
slice, for the group shifts); a move over every feature commits its
accepted rows; a ratio is one fused ``einsum`` of the differences with the
weights. ``ModelState`` keeps the input's sample order: ``attach`` and the
extra-zero step map between the two orders. The extra-zero step visits
the zero cells in the engine's order and gives each the uniform of its
place in the input's row-major order, so a seed draws the same chain in
any layout.

A move's per-cell arithmetic allocates nothing. ``_Engine`` owns four
flat float64 scratch buffers, allocated once, and every move writes into
them: its proposal's log odds, their softplus, the rows of data and cache
it gathers, the blocks it builds its shift from, the differences of its
ratio, the ``lgamma`` arguments of the dispersion sums and the rows it
commits. A block move (features x samples) uses the first
features*samples elements of a buffer, reshaped. What a move still
allocates is per feature. The cache never points into scratch: ``attach``
builds it in fresh arrays, and a move copies its accepted rows into the
cache, since the next move overwrites the buffers.

Moves that are conditionally independent across features are evaluated
in single vectorized passes; the one sequential scan (the discrimination
add-delete, coupled across features by the collapsed prior) precomputes
its likelihood ratios in a vectorized pass as well, runs on Python lists
with its prior ratios looked up in tables over the count of indicators
on, and writes its shift changes in one vectorized step afterwards.
Tests drive ``_Engine`` directly, one step at a time.

The special functions come from the package's own ``special.py``: the
vectorized ``lgamma`` for the dispersion sums and ``sum lgamma(y + 1)``,
``betaln`` (through ``math.lgamma``) for the collapsed indicator priors,
and the normal CDF ``ndtr`` for the dispersion proposal's truncation
correction. That proposal, a normal walk truncated to ``phi > 0``, is
drawn by rejection (``_truncated_walk``): the entries at or below 0 are
drawn again until none is left. The bound lies below the mean ``phi``, so
each draw is kept with probability at least 1/2.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Hyperparameters, ProposalScales
from .errors import EmptyTrace, NumericalFailure, UsageError
from .likelihood import log_normal_density, log_t_density, softplus
from .normalization import SizeFactors, estimate_css
from .special import betaln, lgamma, ndtr

__all__ = [
    "ChainConfig",
    "ModelState",
    "ChainTrace",
    "run_chain",
    "run_chains_parallel",
    "zero_indicator_prob",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "ZINBREG_THREADS"


def _view(buf, shape) -> np.ndarray:
    """The first ``prod(shape)`` elements of the flat scratch ``buf``, in
    ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


def _take(a, index, buf, axis=None) -> np.ndarray:
    """``np.take(a, index, axis)`` written into the flat scratch ``buf``."""
    if axis is None:
        shape = np.shape(index)
    else:
        shape = list(a.shape)
        shape[axis] = len(index)
    # the indices are valid; mode="clip" writes straight into ``out``, where
    # the default mode="raise" would go through a temporary copy
    return np.take(a, index, axis=axis, out=_view(buf, shape), mode="clip")


_MOVES = (
    "r",
    "mu0",
    "gamma_add",
    "gamma_delete",
    "mu_within",
    "delta_add",
    "delta_delete",
    "beta_within",
    "phi",
)


@dataclass(frozen=True)
class ChainConfig:
    """Length, seeding, and mode switches for one chain."""

    n_iter: int = 20000
    burn_in: int | None = None
    seed: int = 0
    thin: int = 1
    prior_only: bool = False
    adapt_scales: bool = False
    diagnostics: bool = False

    def __post_init__(self):
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.n_iter // 2)
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter}")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError(f"burn_in must lie in [0, n_iter), got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")

    @property
    def n_recorded(self) -> int:
        return len(range(self.burn_in, self.n_iter, self.thin))


@dataclass
class ModelState:
    """One chain's full latent configuration (mutated in place by sweeps)."""

    r: np.ndarray          # (n, p) int8, extra-zero indicators
    mu0: np.ndarray        # (p,)
    mu: np.ndarray         # (K, p), reference row identically zero
    beta: np.ndarray       # (R, p)
    gamma: np.ndarray      # (p,) int8
    delta: np.ndarray      # (R, p) int8
    phi: np.ndarray        # (p,)

    def copy(self) -> "ModelState":
        return ModelState(
            r=self.r.copy(), mu0=self.mu0.copy(), mu=self.mu.copy(),
            beta=self.beta.copy(), gamma=self.gamma.copy(),
            delta=self.delta.copy(), phi=self.phi.copy(),
        )


@dataclass
class ChainTrace:
    """Post-burn-in sums and stored draws for one chain. The move counters
    cover every sweep, burn-in included."""

    n_iter: int
    burn_in: int
    n_recorded: int
    gamma_sums: np.ndarray      # (p,)
    delta_sums: np.ndarray      # (R, p)
    mu0_sum: np.ndarray         # (p,)
    mu_sum: np.ndarray          # (K, p)
    beta_sum: np.ndarray        # (R, p)
    phi_sum: np.ndarray         # (p,)
    mu_draws: np.ndarray        # (n_recorded, K, p) float32
    proposal_counts: dict[str, int]
    accept_counts: dict[str, int]
    diagnostics: dict[str, np.ndarray] | None = None

    def ppi_gamma(self) -> np.ndarray:
        return self.gamma_sums / self.n_recorded

    def ppi_delta(self) -> np.ndarray:
        return self.delta_sums / self.n_recorded

    def acceptance_rate(self, move: str) -> float:
        n = self.proposal_counts.get(move, 0)
        return self.accept_counts.get(move, 0) / n if n else float("nan")


class _Engine:
    """Precomputed data views and constants, the likelihood cache of the
    current state, the scratch buffers the moves write their proposals
    into, and the five update steps. Per-cell arrays are (p, n): one row
    per feature, its samples in the engine's group order."""

    def __init__(
        self,
        data: Dataset,
        size_factors: SizeFactors,
        hp: Hyperparameters,
        scales: ProposalScales,
        prior_only: bool = False,
    ):
        y = data.counts.counts
        n, p = y.shape
        self.n, self.p = n, p
        self.R = data.n_covariates
        self.K = data.n_groups
        z0 = data.groups.zero_based()
        self.ref0 = data.groups.reference_group - 1
        self.nonref = [k for k in range(self.K) if k != self.ref0]
        # samples in group order, the reference group first: each group's
        # samples, and all the non-reference groups' samples together, are
        # one slice of a feature's row
        self.order = np.argsort(np.where(z0 == self.ref0, -1, z0), kind="stable")
        self.z0 = z0[self.order]
        sizes = np.bincount(z0, minlength=self.K)
        self.group_span = [slice(0, 0)] * self.K
        start = 0
        for k in [self.ref0] + self.nonref:
            self.group_span[k] = slice(start, start + int(sizes[k]))
            start += int(sizes[k])
        self.nonref_span = slice(int(sizes[self.ref0]), n)
        self.yf = np.ascontiguousarray(y[self.order].T, dtype=np.float64)
        self.xt = np.ascontiguousarray(data.covariates.values[self.order].T)
        s = size_factors.values
        self.log_s = np.log(s)[self.order]
        # the starting baselines: log mean normalized counts (+ 0.01)
        self.mu0_start = np.log((y.astype(np.float64) / s[:, None]).mean(axis=0) + 0.01)
        # count sums of each feature: in total, per group (K, p) and against
        # each covariate (R, p); a mean move's count term is its shift
        # times one of them
        self.y_tot = self.yf.sum(axis=1)
        self.y_group = np.array([self.yf[:, g].sum(axis=1) for g in self.group_span])
        self.y_x = self.xt @ self.yf.T
        # zero cells as flat indices into the engine's (p, n) grid, in its
        # order; their features; the same cells as flat indices into the
        # input's (n, p) grid; and each one's place in the input's
        # row-major order, the index of its uniform
        self.zero_cells = np.flatnonzero(self.yf == 0)
        self.zero_feat, position = np.divmod(self.zero_cells, n)
        self.zero_in = self.order[position] * p + self.zero_feat
        input_order = np.argsort(self.zero_in)
        self.zero_draw = np.empty_like(input_order)
        self.zero_draw[input_order] = np.arange(input_order.size)
        # nonzero cells: their features and counts
        nz_flat = np.flatnonzero(self.yf)
        self.nz_feat = nz_flat // n
        self.nz_y = self.yf.ravel()[nz_flat]
        # sum of lgamma(y + 1) over the cells not flagged as extra zeros:
        # only zero cells can be flagged and they add nothing, so it is a
        # constant of the data
        self.log_y_fact = float(lgamma(self.yf + 1.0).sum())
        self.hp = hp
        self.prior_only = prior_only
        self.t_df = 2.0 * hp.a_t
        self.t_scale_sq = hp.b_t / hp.a_t
        self.log_phi_norm = hp.a_phi * math.log(hp.b_phi) - math.lgamma(hp.a_phi)
        # collapsed Beta-Bernoulli log prior of a feature with s of its R
        # covariate indicators on, for s = 0..R
        self.delta_log_prior = np.array(
            [betaln(hp.a_p + s, hp.b_p + self.R - s) - betaln(hp.a_p, hp.b_p)
             for s in range(self.R + 1)]
        )
        # collapsed prior ratios of a discrimination delete and add with s of
        # the p indicators on, for s = 0..p (nan where the move cannot occur)
        a, b = hp.a_omega, hp.b_omega
        self.gamma_del_prior = [math.nan] + [
            math.log((b + p - s) / (a + s - 1.0)) for s in range(1, p + 1)
        ]
        self.gamma_add_prior = [
            math.log((a + s) / (b + p - s - 1.0)) for s in range(p)
        ] + [math.nan]
        # live scales (mutated only by the optional burn-in adaptation)
        self.tau_mu0 = scales.tau_mu0
        self.tau_mu = scales.tau_mu
        self.tau_beta = scales.tau_beta
        self.tau_phi = scales.tau_phi
        self.proposal_counts = {m: 0 for m in _MOVES}
        self.accept_counts = {m: 0 for m in _MOVES}
        self._window_prop = {m: 0 for m in _MOVES}
        self._window_acc = {m: 0 for m in _MOVES}
        # the likelihood cache of the current state: per cell, (p, n) float
        self.active: np.ndarray | None = None    # 1 - r
        self.log_odds: np.ndarray | None = None  # M = log mean - log phi
        self.sp: np.ndarray | None = None        # softplus(M)
        self.w: np.ndarray | None = None         # active*(y + phi)
        # and per feature: sum of lgamma(y + phi) - lgamma(phi), y > 0
        self.G: np.ndarray | None = None
        # scratch: four flat buffers of (n + 1) p elements, room for the n p
        # cells and for the dispersion sums' lgamma arguments (one per
        # nonzero cell and one per feature)
        self._scratch = np.empty((4, (n + 1) * p))
        (
            self._lm_new,   # the proposal's log odds
            self._sp_new,   # their softplus; lgamma values
            self._work1,    # gathered rows, shift blocks, differences,
            self._work2,    # lgamma arguments and working space, commits
        ) = self._scratch
        # the last proposal's log odds and softplus, and its dispersion
        # sums, for ``_commit``
        self._proposal: tuple[np.ndarray, np.ndarray] | None = None
        self._G_new: np.ndarray | None = None

    # -- bookkeeping ---------------------------------------------------

    def attach(self, state: ModelState) -> None:
        """Build the likelihood cache from ``state``, in fresh arrays."""
        shape = (self.p, self.n)
        self.active = np.subtract(1.0, state.r[self.order].T, out=np.empty(shape))
        log_odds = np.take(state.mu.T, self.z0, axis=1, out=np.empty(shape))
        log_odds += state.mu0[:, None]
        if self.R:
            log_odds += state.beta.T @ self.xt
        log_odds += self.log_s
        log_odds -= np.log(state.phi)[:, None]
        self.log_odds = log_odds
        self.sp = softplus(log_odds, out=np.empty(shape))
        self.w = np.add(self.yf, state.phi[:, None], out=np.empty(shape))
        self.w *= self.active
        self.G = self._dispersion_sums(state.phi)

    def _count(self, move: str, proposed: int, accepted: int) -> None:
        self.proposal_counts[move] += int(proposed)
        self.accept_counts[move] += int(accepted)
        self._window_prop[move] += int(proposed)
        self._window_acc[move] += int(accepted)

    # -- the likelihood ----------------------------------------------------

    def _dispersion_sums(self, phi) -> np.ndarray:
        """Per feature, the sum of ``lgamma(y + phi) - lgamma(phi)`` over its
        nonzero counts, at the dispersions ``phi``: the NB log mass's terms
        in the dispersion alone, which are exactly 0 at a zero count. One
        ``lgamma`` call on the nonzero counts and the p dispersions, through
        the ``_sp_new`` and work scratch."""
        feats, nnz = self.nz_feat, self.nz_feat.size
        size = nnz + self.p
        arg = self._work1[:size]
        np.take(phi, feats, out=arg[:nnz], mode="clip")
        arg[:nnz] += self.nz_y
        arg[nnz:] = phi
        lg = lgamma(arg, out=self._sp_new[:size], work=self._work2[:size])
        nz = lg[:nnz]
        nz -= np.take(lg[nnz:], feats, out=arg[:nnz], mode="clip")
        return np.bincount(feats, weights=nz, minlength=self.p)

    def _ratio(self, proposal, feats=None, span=slice(None), phi=None):
        """Per-feature log likelihood ratio of a move's proposal, on the
        samples ``span`` of every feature, or of the features ``feats``.
        ``proposal()`` writes the proposal's log odds on those cells into
        ``_lm_new`` and returns them with its count term, the sum of y times
        the change in M, which it takes from the count sums. For the
        dispersion move ``phi`` is the pair (current, proposed) of
        dispersion vectors, whose change also moves the weights and the
        dispersion sums.

        Zero, without a call to ``proposal``, in a prior-only chain, which
        keeps no likelihood; ``_commit`` copies nothing there either."""
        if self.prior_only:
            return np.zeros(self.p if feats is None else len(feats))
        log_odds, count = proposal()
        if phi is not None:
            self._G_new = self._dispersion_sums(phi[1])
            count = count + (self._G_new - self.G)
        shape = log_odds.shape
        sp = softplus(log_odds, out=_view(self._sp_new, shape))
        if feats is None:
            d = np.subtract(sp, self.sp[:, span], out=_view(self._work1, shape))
            w = self.w[:, span]
        else:
            d = _take(self.sp, feats, self._work1, axis=0)[:, span]
            np.subtract(sp, d, out=d)
            w = _take(self.w, feats, self._work2, axis=0)[:, span]
        llr = count - np.einsum("ij,ij->i", w, d)
        if phi is not None:
            # the weights' change, active*(phi' - phi), at the new softplus
            llr -= (phi[1] - phi[0]) * np.einsum("ij,ij->i", self.active, sp)
        self._proposal = (log_odds, sp)
        return llr

    def _commit(self, rows, feats=None, span=slice(None), phi=None) -> None:
        """Copy the rows ``rows`` of the last ``_ratio``'s proposal into the
        cache, at the features ``feats[rows]`` (``rows`` when the proposal
        had every feature) and the samples ``span``; for the dispersion
        move, with ``phi`` its proposed dispersions, also their weights and
        dispersion sums. The rows go through the work scratch, which the
        move no longer needs. Nothing in a prior-only chain."""
        if self.prior_only or rows.size == 0:
            return
        dest = rows if feats is None else feats[rows]
        for target, block, buf in zip(
            (self.log_odds, self.sp), self._proposal, (self._work1, self._work2)
        ):
            target[dest, span] = _take(block, rows, buf, axis=0)
        if phi is not None:
            self.G[dest] = self._G_new[dest]
            w = _take(self.yf, dest, self._work1, axis=0)
            w += phi[dest, None]
            w *= _take(self.active, dest, self._work2, axis=0)
            self.w[dest] = w

    def _walk(self, move, step, sums, lpr, log_u, feats=None, span=slice(None), x=None):
        """One random walk of a mean parameter: per feature (of ``feats``,
        or every feature), the log odds on the samples ``span`` move by
        ``step``, or for an effect on every sample by ``step`` times the
        covariate row ``x``; the count term is ``step`` times the count sums
        ``sums``. Accepts where ``log_u`` falls below the log likelihood
        ratio plus the prior ratio ``lpr``, commits and counts; returns the
        accepted mask."""

        def proposal():
            if x is None:
                rows = self.log_odds if feats is None else _take(
                    self.log_odds, feats, self._work1, axis=0
                )
                rows = rows[:, span]
                log_odds = np.add(rows, step[:, None], out=_view(self._lm_new, rows.shape))
            else:  # whole rows plus the outer product step x covariate
                log_odds = _take(self.log_odds, feats, self._lm_new, axis=0)
                log_odds += np.einsum("i,j->ij", step, x, out=_view(self._work1, log_odds.shape))
            return log_odds, step * sums

        accept = log_u < self._ratio(proposal, feats, span) + lpr
        self._commit(np.flatnonzero(accept), feats, span)
        self._count(move, step.size, int(accept.sum()))
        return accept

    def log_posterior(self, state: ModelState) -> float:
        """Full log posterior up to an additive constant (diagnostics)."""
        hp = self.hp
        if self.prior_only:
            self.attach(state)  # prior-only moves leave the cache stale
        ll = (
            float(np.vdot(self.yf, self.log_odds)) - float(np.vdot(self.w, self.sp))
            + float(self.G.sum()) - self.log_y_fact
        )
        lp = float(np.sum(log_normal_density(state.mu0, hp.sigma0_sq)))
        act = state.gamma == 1
        for k in self.nonref:
            lp += float(np.sum(log_t_density(state.mu[k, act], self.t_df, self.t_scale_sq)))
        lp += float(np.sum(log_t_density(state.beta[state.delta == 1], self.t_df, self.t_scale_sq)))
        lp += float(
            np.sum(
                self.log_phi_norm
                + (hp.a_phi - 1.0) * np.log(state.phi)
                - hp.b_phi * state.phi
            )
        )
        s_gamma = int(state.gamma.sum())
        lp += betaln(hp.a_omega + s_gamma, hp.b_omega + self.p - s_gamma) - betaln(
            hp.a_omega, hp.b_omega
        )
        lp += float(self.delta_log_prior[state.delta.sum(axis=0)].sum())
        n_r1 = int(state.r.sum())
        lp += n_r1 * math.log(hp.a_pi / (hp.a_pi + hp.b_pi))
        lp += (self.n * self.p - n_r1) * math.log(hp.b_pi / (hp.a_pi + hp.b_pi))
        return ll + lp

    # -- initialization ---------------------------------------------------

    def init_state(self, rng: np.random.Generator) -> ModelState:
        n, p, R, K = self.n, self.p, self.R, self.K
        gamma = rng.integers(0, 2, size=p).astype(np.int8)
        delta = rng.integers(0, 2, size=(R, p)).astype(np.int8)
        mu = np.zeros((K, p))
        draws = rng.standard_normal((len(self.nonref), p))
        for i, k in enumerate(self.nonref):
            mu[k] = np.where(gamma == 1, draws[i], 0.0)
        beta = rng.standard_normal((R, p)) * delta
        mu0 = self.mu0_start.copy()
        phi = np.full(p, 10.0)
        r = np.zeros((n, p), dtype=np.int8)
        u = rng.random(self.zero_in.size)
        np.put(r, self.zero_in, u[self.zero_draw] < 0.5)
        state = ModelState(r=r, mu0=mu0, mu=mu, beta=beta, gamma=gamma, delta=delta, phi=phi)
        self.attach(state)
        return state

    # -- step 1: extra-zero indicators ------------------------------------

    def step_r(self, state: ModelState, rng: np.random.Generator) -> None:
        m = self.zero_cells.size
        if m == 0:
            return
        hp = self.hp
        phi = _take(state.phi, self.zero_feat, self._lm_new)
        if self.prior_only:
            p1 = hp.a_pi / (hp.a_pi + hp.b_pi)
        else:
            p1 = zero_indicator_prob(
                _take(self.sp, self.zero_cells, self._sp_new), phi, hp.a_pi, hp.b_pi,
                out=self._sp_new[:m],
            )
        # the step's only draw, in the input's row-major order
        u = _take(rng.random(m, out=self._work1[:m]), self.zero_draw, self._work2)
        rnew = u < p1
        np.put(state.r, self.zero_in, rnew)
        active = np.subtract(1.0, rnew, out=self._work1[:m])
        self.active.reshape(-1)[self.zero_cells] = active
        self.w.reshape(-1)[self.zero_cells] = np.multiply(active, phi, out=active)
        self._count("r", m, int(rnew.sum()))

    # -- step 2: feature baselines ----------------------------------------

    def step_mu0(self, state: ModelState, rng: np.random.Generator) -> None:
        prop = state.mu0 + self.tau_mu0 * rng.standard_normal(self.p)
        log_u = np.log(rng.random(self.p))
        lpr = (np.square(state.mu0) - np.square(prop)) / (2.0 * self.hp.sigma0_sq)
        accept = self._walk("mu0", prop - state.mu0, self.y_tot, lpr, log_u)
        state.mu0[accept] = prop[accept]

    # -- step 3: discrimination indicators and group shifts ----------------

    def step_gamma_mu(self, state: ModelState, rng: np.random.Generator) -> None:
        self._gamma_add_delete(state, rng)
        self._mu_within(state, rng)

    def _gamma_add_delete(self, state: ModelState, rng: np.random.Generator) -> None:
        p = self.p
        nonref = self.nonref
        nr = len(nonref)
        perm = rng.permutation(p)
        prop = self.tau_mu * rng.standard_normal((nr, p))
        log_u = np.log(rng.random(p))

        on = state.gamma.astype(bool)
        mu_cur = state.mu[nonref, :]
        span = self.nonref_span

        def proposal():
            # shift change of each flip: to zero when on, to prop when off;
            # the reference group's samples do not change
            shift = np.where(on, -mu_cur, prop)
            log_odds = _view(self._lm_new, (p, span.stop - span.start))
            for i, k in enumerate(nonref):
                g = self.group_span[k]
                np.add(
                    self.log_odds[:, g], shift[i][:, None],
                    out=log_odds[:, g.start - span.start:g.stop - span.start],
                )
            return log_odds, np.einsum("kj,kj->j", shift, self.y_group[nonref])

        llr = self._ratio(proposal, span=span)

        t_prop = log_t_density(prop, self.t_df, self.t_scale_sq).sum(axis=0)
        q_prop = log_normal_density(prop, self.tau_mu**2).sum(axis=0)
        t_cur = log_t_density(mu_cur, self.t_df, self.t_scale_sq).sum(axis=0)
        q_cur = log_normal_density(mu_cur, self.tau_mu**2).sum(axis=0)
        # the proposal terms of each feature's flip: q - t of its current
        # shifts for a delete, t - q of the proposed ones for an add
        plus = np.where(on, q_cur, t_prop)
        minus = np.where(on, t_cur, q_prop)

        cols = self._gamma_scan(perm, state.gamma, llr, log_u, plus, minus)
        added = ~on[cols]
        state.gamma[cols] = added
        state.mu[np.ix_(nonref, cols)] = np.where(added, prop[:, cols], 0.0)
        n_on = int(on.sum())
        acc_add = int(added.sum())
        self._count("gamma_add", p - n_on, acc_add)
        self._count("gamma_delete", n_on, cols.size - acc_add)
        self._commit(cols, span=span)

    def _gamma_scan(self, perm, gamma, llr, log_u, plus, minus) -> np.ndarray:
        """The discrimination add-delete decisions, feature by feature in
        the order ``perm``: the collapsed prior couples the features through
        the running count of indicators on, so this is the one sequential
        scan. ``llr`` is each flip's log likelihood ratio, ``plus - minus``
        its proposal terms. Returns the flipped features."""
        gamma = gamma.tolist()
        llr, log_u = llr.tolist(), log_u.tolist()
        plus, minus = plus.tolist(), minus.tolist()
        del_prior, add_prior = self.gamma_del_prior, self.gamma_add_prior
        s_gamma = sum(gamma)
        flips = []
        for j in perm.tolist():
            g = gamma[j]
            prior = del_prior[s_gamma] if g else add_prior[s_gamma]
            if log_u[j] < llr[j] + prior + plus[j] - minus[j]:
                gamma[j] = 1 - g
                s_gamma += 1 - 2 * g
                flips.append(j)
        return np.array(flips, dtype=np.intp)

    def _mu_within(self, state: ModelState, rng: np.random.Generator) -> None:
        """Within-model refresh of every active shift, one group at a time."""
        act = np.flatnonzero(state.gamma)
        for k in self.nonref:
            step = 0.5 * self.tau_mu * rng.standard_normal(act.size)
            log_uu = np.log(rng.random(act.size))
            if act.size == 0:
                continue
            cur = state.mu[k, act]
            prp = cur + step
            lpr = log_t_density(prp, self.t_df, self.t_scale_sq) - log_t_density(
                cur, self.t_df, self.t_scale_sq
            )
            accept = self._walk(
                "mu_within", step, self.y_group[k, act], lpr, log_uu, act, self.group_span[k]
            )
            state.mu[k, act[accept]] = prp[accept]

    # -- step 4: covariate indicators and effects --------------------------

    def step_delta_beta(self, state: ModelState, rng: np.random.Generator) -> None:
        if self.R == 0:
            return
        self._delta_add_delete(state, rng)
        self._beta_within(state, rng)

    def _delta_add_delete(self, state: ModelState, rng: np.random.Generator) -> None:
        R, p, hp = self.R, self.p, self.hp
        pick = rng.integers(0, R, size=p)
        prop = self.tau_beta * rng.standard_normal(p)
        log_u = np.log(rng.random(p))

        cols = np.arange(p)
        cur_on = state.delta[pick, cols].astype(bool)
        old_b = state.beta[pick, cols]
        new_b = np.where(cur_on, 0.0, prop)

        def proposal():
            shift = new_b - old_b
            log_odds = _take(self.xt, pick, self._lm_new, axis=0)
            log_odds *= shift[:, None]
            log_odds += self.log_odds
            return log_odds, shift * self.y_x[pick, cols]

        llr = self._ratio(proposal)

        s_delta = state.delta.sum(axis=0).astype(np.float64)
        lr = np.empty(p)
        add = ~cur_on
        svals = s_delta[add]
        lr[add] = (
            llr[add]
            + np.log((hp.a_p + svals) / (hp.b_p + R - svals - 1.0))
            + log_t_density(prop[add], self.t_df, self.t_scale_sq)
            - log_normal_density(prop[add], self.tau_beta**2)
        )
        svals = s_delta[cur_on]
        lr[cur_on] = (
            llr[cur_on]
            + np.log((hp.b_p + R - svals) / (hp.a_p + svals - 1.0))
            + log_normal_density(old_b[cur_on], self.tau_beta**2)
            - log_t_density(old_b[cur_on], self.t_df, self.t_scale_sq)
        )
        accept = log_u < lr
        jacc = np.flatnonzero(accept)
        state.delta[pick[jacc], jacc] = ~cur_on[jacc]
        state.beta[pick[jacc], jacc] = new_b[jacc]
        self._commit(jacc)
        self._count("delta_add", int(add.sum()), int((accept & add).sum()))
        self._count("delta_delete", int(cur_on.sum()), int((accept & cur_on).sum()))

    def _beta_within(self, state: ModelState, rng: np.random.Generator) -> None:
        """Within-model refresh of every active effect, one covariate at a
        time."""
        for r_idx in range(self.R):
            act = np.flatnonzero(state.delta[r_idx])
            step = 0.5 * self.tau_beta * rng.standard_normal(act.size)
            log_uu = np.log(rng.random(act.size))
            if act.size == 0:
                continue
            cur = state.beta[r_idx, act]
            prp = cur + step
            lpr = log_t_density(prp, self.t_df, self.t_scale_sq) - log_t_density(
                cur, self.t_df, self.t_scale_sq
            )
            accept = self._walk(
                "beta_within", step, self.y_x[r_idx, act], lpr, log_uu, act, x=self.xt[r_idx]
            )
            state.beta[r_idx, act[accept]] = prp[accept]

    # -- step 5: dispersions ------------------------------------------------

    def step_phi(self, state: ModelState, rng: np.random.Generator) -> None:
        p, hp = self.p, self.hp
        tau = self.tau_phi
        log_u = np.log(rng.random(p))
        prop = _truncated_walk(state.phi, tau, rng)
        dlog = np.log(prop) - np.log(state.phi)

        def proposal():
            log_odds = np.subtract(
                self.log_odds, dlog[:, None], out=_view(self._lm_new, self.log_odds.shape)
            )
            return log_odds, -dlog * self.y_tot

        llr = self._ratio(proposal, phi=(state.phi, prop))
        lpr = (hp.a_phi - 1.0) * dlog - hp.b_phi * (prop - state.phi)
        # the truncation correction log P(N(phi, tau^2) > 0) - the same at
        # prop, each as log1p(-ndtr(-x/tau)), which keeps the far tail
        log_mass = np.log1p(-ndtr(np.concatenate((state.phi, prop)) / -tau))
        accept = log_u < llr + lpr + log_mass[:p] - log_mass[p:]
        state.phi[accept] = prop[accept]
        self._commit(np.flatnonzero(accept), phi=prop)
        self._count("phi", p, int(accept.sum()))

    # -- one sweep ------------------------------------------------------------

    def sweep(self, state: ModelState, rng: np.random.Generator) -> None:
        self.step_r(state, rng)
        self.step_mu0(state, rng)
        self.step_gamma_mu(state, rng)
        self.step_delta_beta(state, rng)
        self.step_phi(state, rng)

    def adapt(self, round_index: int, target: float = 0.3) -> None:
        """Robbins-Monro rescaling of the live proposal scales from the
        acceptance rates of the last window."""
        gain = 1.0 / (round_index**0.6)
        for attr, moves in (
            ("tau_mu0", ("mu0",)),
            ("tau_mu", ("mu_within",)),
            ("tau_beta", ("beta_within",)),
            ("tau_phi", ("phi",)),
        ):
            prop = sum(self._window_prop[m] for m in moves)
            if prop == 0:
                continue
            rate = sum(self._window_acc[m] for m in moves) / prop
            setattr(self, attr, getattr(self, attr) * math.exp(gain * (rate - target)))
        for m in _MOVES:
            self._window_prop[m] = 0
            self._window_acc[m] = 0


def _truncated_walk(phi, tau, rng):
    """Draws of N(phi, tau^2) truncated to (0, inf), ``phi > 0``: one
    standard normal per entry from ``rng``, then, in rounds, one more for
    each entry still at or below 0 (in index order) until none is left."""
    prop = phi + tau * rng.standard_normal(phi.size)
    low = np.flatnonzero(prop <= 0.0)
    while low.size:
        prop[low] = phi[low] + tau * rng.standard_normal(low.size)
        low = low[prop[low] <= 0.0]
    return prop


def zero_indicator_prob(sp, phi, a_pi: float, b_pi: float, out=None):
    """Conditional probability that an observed zero is an extra zero, at
    its cell's softplus ``sp = softplus(log(lam/phi))`` and dispersion
    ``phi``.

    The two unnormalized weights are the Beta-function ratios of the
    collapsed per-entry prior, the r=0 one additionally carrying the NB
    mass at zero, ``exp(-phi*sp)``. The result is written into ``out`` when
    given, which may be ``sp`` itself.
    """
    if out is None:
        out = np.empty(np.broadcast(sp, phi).shape)
    np.multiply(phi, sp, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= b_pi
    out += a_pi
    np.divide(a_pi, out, out=out)
    return out if out.ndim else float(out)


_ADAPT_WINDOW = 50


def _first_bad_parameter(state: ModelState) -> str:
    """``'block[index] = value'`` for the first non-finite parameter or
    non-positive dispersion of ``state``; empty when there is none."""
    for name in ("mu0", "mu", "beta", "phi"):
        values = getattr(state, name)
        bad = ~np.isfinite(values)
        if name == "phi":
            bad |= values <= 0
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            return f"{name}[{', '.join(map(str, idx))}] = {values[idx]}"
    return ""


def run_chain(
    data: Dataset,
    hp: Hyperparameters,
    scales: ProposalScales,
    config: ChainConfig,
    size_factors: SizeFactors | None = None,
) -> ChainTrace:
    """Run one chain and return its trace.

    Deterministic given (data, size factors, hyperparameters, scales,
    config); a non-finite parameter mid-run raises ``NumericalFailure``
    with the offending iteration and the first bad parameter.
    """
    sf = size_factors if size_factors is not None else estimate_css(data.counts)
    eng = _Engine(data, sf, hp, scales, config.prior_only)
    rng = np.random.default_rng(config.seed)
    state = eng.init_state(rng)

    p, R, K = eng.p, eng.R, eng.K
    gamma_sums = np.zeros(p, dtype=np.int64)
    delta_sums = np.zeros((R, p), dtype=np.int64)
    mu0_sum = np.zeros(p)
    mu_sum = np.zeros((K, p))
    beta_sum = np.zeros((R, p))
    phi_sum = np.zeros(p)
    mu_draws = np.zeros((config.n_recorded, K, p), dtype=np.float32)
    diag_logpost = np.zeros(config.n_iter) if config.diagnostics else None
    diag_sumgamma = np.zeros(config.n_iter, dtype=np.int64) if config.diagnostics else None

    t_rec = 0
    for it in range(config.n_iter):
        eng.sweep(state, rng)
        bad = _first_bad_parameter(state)
        if bad:
            raise NumericalFailure(it, bad)
        if config.adapt_scales and it < config.burn_in and (it + 1) % _ADAPT_WINDOW == 0:
            eng.adapt((it + 1) // _ADAPT_WINDOW)
        if config.diagnostics:
            diag_logpost[it] = eng.log_posterior(state)
            diag_sumgamma[it] = int(state.gamma.sum())
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            gamma_sums += state.gamma
            delta_sums += state.delta
            mu0_sum += state.mu0
            mu_sum += state.mu
            beta_sum += state.beta
            phi_sum += state.phi
            mu_draws[t_rec] = state.mu
            t_rec += 1

    diagnostics = None
    if config.diagnostics:
        diagnostics = {
            "iteration": np.arange(config.n_iter, dtype=np.int64),
            "log_posterior": diag_logpost,
            "sum_gamma": diag_sumgamma,
        }
    return ChainTrace(
        n_iter=config.n_iter,
        burn_in=config.burn_in,
        n_recorded=t_rec,
        gamma_sums=gamma_sums,
        delta_sums=delta_sums,
        mu0_sum=mu0_sum,
        mu_sum=mu_sum,
        beta_sum=beta_sum,
        phi_sum=phi_sum,
        mu_draws=mu_draws,
        proposal_counts=dict(eng.proposal_counts),
        accept_counts=dict(eng.accept_counts),
        diagnostics=diagnostics,
    )


def _chain_worker(args):
    data, hp, scales, config, sf = args
    return run_chain(data, hp, scales, config, size_factors=sf)


def default_max_workers() -> int:
    """Worker cap: ``ZINBREG_THREADS`` when set, else the CPUs this process
    may run on."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise UsageError(f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def chain_pool(n_chains: int, max_workers: int | None = None):
    """A process pool that runs up to ``n_chains`` chains at once, for
    several ``run_chains_parallel`` calls to share; ``None`` when the chains
    would run in this process (one worker or one chain).

    ``max_workers`` caps the workers as in ``run_chains_parallel``."""
    workers = max_workers if max_workers is not None else default_max_workers()
    workers = min(workers, n_chains)
    if workers <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def run_chains_parallel(
    data: Dataset,
    hp: Hyperparameters,
    scales: ProposalScales,
    configs: list[ChainConfig],
    size_factors: SizeFactors | None = None,
    max_workers: int | None = None,
    pool: ProcessPoolExecutor | None = None,
) -> list[ChainTrace]:
    """Run several chains, in worker processes when available: on ``pool``
    when given (see ``chain_pool``), else on a pool of their own.

    Traces are bit-identical to running each chain sequentially; the chain
    seeds must be pairwise distinct.
    """
    if not configs:
        raise EmptyTrace("no chain configs given")
    seeds = [c.seed for c in configs]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"chain seeds must be distinct, got {seeds}")
    sf = size_factors if size_factors is not None else estimate_css(data.counts)
    jobs = [(data, hp, scales, c, sf) for c in configs]
    if pool is not None:
        return list(pool.map(_chain_worker, jobs))
    with chain_pool(len(configs), max_workers) as own:
        if own is None:
            return [_chain_worker(job) for job in jobs]
        return list(own.map(_chain_worker, jobs))
