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

Every likelihood term goes through the one negative binomial kernel of
``likelihood.py``, at log means ``log(s) + eta`` clipped at +-700 so that
the kernel's ``exp`` stays finite whatever the size factors. ``_Engine``
keeps the current state's per-cell values up to date: the linear
predictor ``eta``, the kernel at ``eta`` and the dispersion-only terms,
next to the mask of cells not flagged as extra zeros. The dispersion-only
terms are ``phi*log(phi)`` at zero counts, so their ``lgamma`` pair is
evaluated on the nonzero counts alone. A move evaluates the kernel only
at its proposal and only on the cells it touches; its log likelihood
ratio is the masked column sum of the proposal's kernel minus the cached
one, and it copies the proposal's cells into the cache where it accepts.
The log posterior is a masked sum of the cache plus the priors.
Prior-only chains skip the likelihood, so their moves leave the cache
alone and the log posterior rebuilds it.
Moves that are conditionally independent across features are evaluated
in single vectorized passes; the one sequential scan (the discrimination
add-delete, coupled across features by the collapsed prior) precomputes
its likelihood ratios in a vectorized pass as well. Tests drive
``_Engine`` directly, one step at a time.

The special functions come from the package's own ``special.py``: the
vectorized ``lgamma`` for the dispersion terms and ``sum lgamma(y + 1)``,
``betaln`` (through ``math.lgamma``) for the collapsed indicator priors,
and the normal CDF ``ndtr`` and quantile ``ndtri`` for the dispersion
proposal. That proposal is drawn in the complementary form
``phi - tau*ndtri((1 - u)*P(N(phi, tau^2) > 0))``, which keeps its
precision as the uniform ``u`` nears 1, where the argument of
``ndtri(cdf_lo + u*(1 - cdf_lo))`` rounds near 1 (``_phi_proposal``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Hyperparameters, ProposalScales
from .errors import EmptyTrace, NumericalFailure, UsageError
from .likelihood import log_normal_density, log_t_density, nb_kernel
from .normalization import SizeFactors, estimate_css
from .special import betaln, lgamma, ndtr, ndtri

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

# Log means are clipped here before they enter the kernel, which keeps
# exp(log mean), and so every likelihood term, finite for any finite
# parameter value and size factor.
_ETA_CLIP = 700.0


def _log_mean(log_s, eta) -> np.ndarray:
    """Log mean ``log_s + eta`` clipped at +-``_ETA_CLIP``."""
    out = log_s + eta
    return np.clip(out, -_ETA_CLIP, _ETA_CLIP, out=out)


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
    """Post-burn-in accumulators and stored draws for one chain."""

    n_iter: int
    burn_in: int
    thin: int
    seed: int
    n_recorded: int
    gamma_sums: np.ndarray      # (p,)
    delta_sums: np.ndarray      # (R, p)
    r_sums: np.ndarray          # (n, p)
    mu0_sum: np.ndarray
    mu0_sumsq: np.ndarray
    mu_sum: np.ndarray          # (K, p)
    mu_sumsq: np.ndarray
    beta_sum: np.ndarray        # (R, p)
    beta_sumsq: np.ndarray
    phi_sum: np.ndarray
    phi_sumsq: np.ndarray
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
    """Precomputed data views, the per-cell cache of the current state, and
    the five update steps."""

    def __init__(
        self,
        data: Dataset,
        size_factors: SizeFactors,
        hp: Hyperparameters,
        scales: ProposalScales,
        prior_only: bool = False,
    ):
        y = data.counts.counts
        self.n, self.p = y.shape
        self.R = data.n_covariates
        self.K = data.n_groups
        self.yf = y.astype(np.float64)
        self.x = data.covariates.values
        self.z0 = data.groups.zero_based()
        self.ref0 = data.groups.reference_group - 1
        self.nonref = [k for k in range(self.K) if k != self.ref0]
        self.s = size_factors.values
        self.log_s = np.log(self.s)
        self.zero_rows, self.zero_cols = np.nonzero(y == 0)
        # nonzero cells as flat indices into (n, p), their columns and counts
        self.nz_flat = np.flatnonzero(y)
        self.nz_cols = self.nz_flat % self.p
        self.nz_y = self.yf.ravel()[self.nz_flat]
        # sum of lgamma(y + 1) over the cells not flagged as extra zeros:
        # only zero cells can be flagged and they add nothing, so it is a
        # constant of the data
        self.log_y_fact = float(lgamma(self.yf + 1.0).sum())
        self.group_rows = [np.flatnonzero(self.z0 == k) for k in range(self.K)]
        self.nonref_rows = np.flatnonzero(self.z0 != self.ref0)
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
        # live scales (mutated only by the optional burn-in adaptation)
        self.tau_mu0 = scales.tau_mu0
        self.tau_mu = scales.tau_mu
        self.tau_beta = scales.tau_beta
        self.tau_phi = scales.tau_phi
        self.proposal_counts = {m: 0 for m in _MOVES}
        self.accept_counts = {m: 0 for m in _MOVES}
        self._window_prop = {m: 0 for m in _MOVES}
        self._window_acc = {m: 0 for m in _MOVES}
        # per-cell cache of the current state, all (n, p) float
        self.active: np.ndarray | None = None  # 1 - r
        self.eta: np.ndarray | None = None     # mu0 + mu[group] + x @ beta
        self.kern: np.ndarray | None = None    # nb_kernel at eta
        self.phit: np.ndarray | None = None    # nb_phi_terms at phi

    # -- bookkeeping ---------------------------------------------------

    def attach(self, state: ModelState) -> None:
        """Build the per-cell cache from ``state``."""
        self.active = 1.0 - state.r.astype(np.float64)
        self.eta = state.mu0[None, :] + state.mu[self.z0, :]
        if self.R:
            self.eta += self.x @ state.beta
        self.kern = self._kernel(self.eta, state.phi)
        self.phit = self._phi_terms(state.phi)

    def _count(self, move: str, proposed: int, accepted: int) -> None:
        self.proposal_counts[move] += int(proposed)
        self.accept_counts[move] += int(accepted)
        self._window_prop[move] += int(proposed)
        self._window_acc[move] += int(accepted)

    # -- likelihood kernels ---------------------------------------------

    def _kernel(self, eta, phi, rows=None, cols=None) -> np.ndarray:
        """NB kernel on the rows x cols block (all rows / all columns when
        None). ``eta`` is the block's linear predictor and ``phi`` the
        full dispersion vector."""
        y, log_s = self.yf, self.log_s
        if cols is not None:
            y, phi = y[:, cols], phi[cols]
        if rows is not None:
            y, log_s = y[rows], log_s[rows]
        return nb_kernel(y, _log_mean(log_s[:, None], eta), phi[None, :])

    def _phi_terms(self, phi) -> np.ndarray:
        """``nb_phi_terms(y, phi)`` on the (n, p) grid for the dispersion
        vector ``phi``. At a zero count ``lgamma(y + phi) - lgamma(phi)``
        is exactly 0, so ``lgamma`` is evaluated on the nonzero counts
        only."""
        plogp = phi * np.log(phi)
        cols = self.nz_cols
        x = phi[cols]
        x += self.nz_y
        nz = lgamma(x)
        nz -= lgamma(phi)[cols]
        nz += plogp[cols]
        out = np.tile(plogp, self.n)
        out[self.nz_flat] = nz
        return out.reshape(self.n, self.p)

    @staticmethod
    def _llr(new, old, active) -> np.ndarray:
        """Per-column sum of ``new - old`` over the cells not flagged as
        extra zeros."""
        d = new - old
        d *= active
        return d.sum(axis=0)

    def _commit(self, accept, eta, kern) -> None:
        """Copy a full-matrix proposal into the cache on accepted columns."""
        np.copyto(self.eta, eta, where=accept)
        np.copyto(self.kern, kern, where=accept)

    def _commit_block(self, rows, cols, eta, kern) -> None:
        """Copy a proposal's rows x cols block into the cache."""
        block = np.ix_(rows, cols)
        self.eta[block] = eta
        self.kern[block] = kern

    def log_posterior(self, state: ModelState) -> float:
        """Full log posterior up to an additive constant (diagnostics)."""
        hp = self.hp
        if self.prior_only:
            self.attach(state)  # prior-only moves leave the cache stale
        t = self.kern + self.phit
        t *= self.active
        ll = float(t.sum()) - self.log_y_fact
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
        norm_mean = (self.yf / self.s[:, None]).mean(axis=0)
        mu0 = np.log(norm_mean + 0.01)
        phi = np.full(p, 10.0)
        r = np.zeros((n, p), dtype=np.int8)
        u = rng.random(self.zero_rows.size)
        r[self.zero_rows, self.zero_cols] = u < 0.5
        state = ModelState(r=r, mu0=mu0, mu=mu, beta=beta, gamma=gamma, delta=delta, phi=phi)
        self.attach(state)
        return state

    # -- step 1: extra-zero indicators ------------------------------------

    def step_r(self, state: ModelState, rng: np.random.Generator) -> None:
        m = self.zero_rows.size
        if m == 0:
            return
        hp = self.hp
        u = rng.random(m)
        if self.prior_only:
            p1 = hp.a_pi / (hp.a_pi + hp.b_pi)
        else:
            loglam0 = _log_mean(
                self.log_s[self.zero_rows], self.eta[self.zero_rows, self.zero_cols]
            )
            p1 = zero_indicator_prob(loglam0, state.phi[self.zero_cols], hp.a_pi, hp.b_pi)
        rnew = u < p1
        state.r[self.zero_rows, self.zero_cols] = rnew
        self.active[self.zero_rows, self.zero_cols] = ~rnew
        self._count("r", m, int(rnew.sum()))

    # -- step 2: feature baselines ----------------------------------------

    def step_mu0(self, state: ModelState, rng: np.random.Generator) -> None:
        p = self.p
        prop = state.mu0 + self.tau_mu0 * rng.standard_normal(p)
        log_u = np.log(rng.random(p))
        if self.prior_only:
            llr = 0.0
        else:
            eta = self.eta + (prop - state.mu0)
            kern = self._kernel(eta, state.phi)
            llr = self._llr(kern, self.kern, self.active)
        lpr = (np.square(state.mu0) - np.square(prop)) / (2.0 * self.hp.sigma0_sq)
        accept = log_u < llr + lpr
        state.mu0[accept] = prop[accept]
        if not self.prior_only:
            self._commit(accept, eta, kern)
        self._count("mu0", p, int(accept.sum()))

    # -- step 3: discrimination indicators and group shifts ----------------

    def step_gamma_mu(self, state: ModelState, rng: np.random.Generator) -> None:
        p, hp = self.p, self.hp
        nonref = self.nonref
        nr = len(nonref)
        perm = rng.permutation(p)
        prop = self.tau_mu * rng.standard_normal((nr, p))
        log_u = np.log(rng.random(p))

        gamma_before = state.gamma.copy()
        if self.prior_only:
            llr = np.zeros(p)
        else:
            # shift change of each flip: to zero when on, to prop when off;
            # the reference group's rows do not change
            rows = self.nonref_rows
            d_mu = np.zeros((self.K, p))
            on = state.gamma.astype(bool)
            for i, k in enumerate(nonref):
                d_mu[k] = np.where(on, -state.mu[k], prop[i])
            eta = self.eta[rows] + d_mu[self.z0[rows], :]
            kern = self._kernel(eta, state.phi, rows=rows)
            llr = self._llr(kern, self.kern[rows], self.active[rows])

        t_prop = log_t_density(prop, self.t_df, self.t_scale_sq).sum(axis=0)
        q_prop = log_normal_density(prop, self.tau_mu**2).sum(axis=0)
        mu_cur = state.mu[nonref, :] if nr else np.zeros((0, p))
        t_cur = log_t_density(mu_cur, self.t_df, self.t_scale_sq).sum(axis=0)
        q_cur = log_normal_density(mu_cur, self.tau_mu**2).sum(axis=0)

        s_gamma = int(state.gamma.sum())
        n_add = n_del = acc_add = acc_del = 0
        for j in perm:
            if state.gamma[j]:
                n_del += 1
                lr = (
                    llr[j]
                    + math.log((hp.b_omega + p - s_gamma) / (hp.a_omega + s_gamma - 1.0))
                    + q_cur[j] - t_cur[j]
                )
                if log_u[j] < lr:
                    state.gamma[j] = 0
                    for k in nonref:
                        state.mu[k, j] = 0.0
                    s_gamma -= 1
                    acc_del += 1
            else:
                n_add += 1
                lr = (
                    llr[j]
                    + math.log((hp.a_omega + s_gamma) / (hp.b_omega + p - s_gamma - 1.0))
                    + t_prop[j] - q_prop[j]
                )
                if log_u[j] < lr:
                    state.gamma[j] = 1
                    for i, k in enumerate(nonref):
                        state.mu[k, j] = prop[i, j]
                    s_gamma += 1
                    acc_add += 1
        self._count("gamma_add", n_add, acc_add)
        self._count("gamma_delete", n_del, acc_del)
        if not self.prior_only:
            cols = np.flatnonzero(state.gamma != gamma_before)
            self._commit_block(rows, cols, eta[:, cols], kern[:, cols])

        # within-model refresh of every active shift, one group at a time
        act = np.flatnonzero(state.gamma)
        for k in nonref:
            step = 0.5 * self.tau_mu * rng.standard_normal(act.size)
            log_uu = np.log(rng.random(act.size))
            if act.size == 0:
                continue
            cur = state.mu[k, act]
            prp = cur + step
            if self.prior_only:
                llr_w = 0.0
            else:
                rows = self.group_rows[k]
                block = np.ix_(rows, act)
                eta = self.eta[block] + step
                kern = self._kernel(eta, state.phi, rows, act)
                llr_w = self._llr(kern, self.kern[block], self.active[block])
            lpr = log_t_density(prp, self.t_df, self.t_scale_sq) - log_t_density(
                cur, self.t_df, self.t_scale_sq
            )
            accept = log_uu < llr_w + lpr
            state.mu[k, act[accept]] = prp[accept]
            if not self.prior_only and np.any(accept):
                self._commit_block(rows, act[accept], eta[:, accept], kern[:, accept])
            self._count("mu_within", act.size, int(accept.sum()))

    # -- step 4: covariate indicators and effects --------------------------

    def step_delta_beta(self, state: ModelState, rng: np.random.Generator) -> None:
        R, p, hp = self.R, self.p, self.hp
        if R == 0:
            return
        pick = rng.integers(0, R, size=p)
        prop = self.tau_beta * rng.standard_normal(p)
        log_u = np.log(rng.random(p))

        cols = np.arange(p)
        cur_on = state.delta[pick, cols].astype(bool)
        old_b = state.beta[pick, cols]
        new_b = np.where(cur_on, 0.0, prop)

        if self.prior_only:
            llr = np.zeros(p)
        else:
            eta = self.eta + self.x[:, pick] * (new_b - old_b)
            kern = self._kernel(eta, state.phi)
            llr = self._llr(kern, self.kern, self.active)

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
        if jacc.size:
            state.delta[pick[jacc], jacc] = ~cur_on[jacc]
            state.beta[pick[jacc], jacc] = new_b[jacc]
            if not self.prior_only:
                self._commit(accept, eta, kern)
        self._count("delta_add", int(add.sum()), int((accept & add).sum()))
        self._count("delta_delete", int(cur_on.sum()), int((accept & cur_on).sum()))

        # within-model refresh of every active effect, one covariate at a time
        for r_idx in range(R):
            act = np.flatnonzero(state.delta[r_idx])
            step = 0.5 * self.tau_beta * rng.standard_normal(act.size)
            log_uu = np.log(rng.random(act.size))
            if act.size == 0:
                continue
            cur = state.beta[r_idx, act]
            prp = cur + step
            if self.prior_only:
                llr_w = 0.0
            else:
                eta = self.eta[:, act] + self.x[:, r_idx][:, None] * step
                kern = self._kernel(eta, state.phi, cols=act)
                llr_w = self._llr(kern, self.kern[:, act], self.active[:, act])
            lpr = log_t_density(prp, self.t_df, self.t_scale_sq) - log_t_density(
                cur, self.t_df, self.t_scale_sq
            )
            accept = log_uu < llr_w + lpr
            if np.any(accept):
                cols_acc = act[accept]
                state.beta[r_idx, cols_acc] = prp[accept]
                if not self.prior_only:
                    self.eta[:, cols_acc] = eta[:, accept]
                    self.kern[:, cols_acc] = kern[:, accept]
            self._count("beta_within", act.size, int(accept.sum()))

    # -- step 5: dispersions ------------------------------------------------

    def step_phi(self, state: ModelState, rng: np.random.Generator) -> None:
        p, hp = self.p, self.hp
        tau = self.tau_phi
        u01 = rng.random(p)
        log_u = np.log(rng.random(p))
        prop, log_mass = _phi_proposal(state.phi, tau, u01)
        valid = np.isfinite(prop) & (prop > 0)
        prop_safe = np.where(valid, prop, state.phi)
        if self.prior_only:
            llr = 0.0
        else:
            kern = self._kernel(self.eta, prop_safe)
            phit = self._phi_terms(prop_safe)
            llr = self._llr(kern + phit, self.kern + self.phit, self.active)
        lpr = (hp.a_phi - 1.0) * (np.log(prop_safe) - np.log(state.phi)) - hp.b_phi * (
            prop_safe - state.phi
        )
        corr = log_mass - np.log1p(-ndtr(-prop_safe / tau))
        accept = valid & (log_u < llr + lpr + corr)
        state.phi[accept] = prop[accept]
        if not self.prior_only:
            np.copyto(self.kern, kern, where=accept)
            np.copyto(self.phit, phit, where=accept)
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


def _phi_proposal(phi, tau, u):
    """Inverse-CDF draws of N(phi, tau^2) truncated to (0, inf) at uniforms
    ``u`` in [0, 1), and the log mass ``log P(N(phi, tau^2) > 0)``.

    The draw is ``phi - tau*ndtri((1 - u)*P)`` with ``P`` that mass: as u
    nears 1 the product keeps its relative precision, where the direct
    form ``ndtri(cdf_lo + u*(1 - cdf_lo))`` rounds its argument to a
    multiple of 2**-53 near 1 and so coarsens the upper tail of the draws.
    """
    cut = ndtr(-phi / tau)
    prop = phi - tau * ndtri((1.0 - u) * (1.0 - cut))
    return prop, np.log1p(-cut)


def zero_indicator_prob(loglam, phi, a_pi: float, b_pi: float):
    """Conditional probability that an observed zero with log mean
    ``loglam`` and dispersion ``phi`` is an extra zero.

    The two unnormalized weights are the Beta-function ratios of the
    collapsed per-entry prior, the r=0 one additionally carrying the NB
    mass at zero.
    """
    loglam = np.asarray(loglam, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    # at y=0 the dispersion-only terms reduce to phi*log(phi)
    log_nb0 = nb_kernel(0.0, loglam, phi) + phi * np.log(phi)
    out = a_pi / (a_pi + b_pi * np.exp(log_nb0))
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

    n, p = eng.n, eng.p
    R, K = eng.R, eng.K
    gamma_sums = np.zeros(p, dtype=np.int64)
    delta_sums = np.zeros((R, p), dtype=np.int64)
    r_sums = np.zeros((n, p), dtype=np.int64)
    mu0_sum = np.zeros(p)
    mu0_sumsq = np.zeros(p)
    mu_sum = np.zeros((K, p))
    mu_sumsq = np.zeros((K, p))
    beta_sum = np.zeros((R, p))
    beta_sumsq = np.zeros((R, p))
    phi_sum = np.zeros(p)
    phi_sumsq = np.zeros(p)
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
            r_sums += state.r
            mu0_sum += state.mu0
            mu0_sumsq += np.square(state.mu0)
            mu_sum += state.mu
            mu_sumsq += np.square(state.mu)
            beta_sum += state.beta
            beta_sumsq += np.square(state.beta)
            phi_sum += state.phi
            phi_sumsq += np.square(state.phi)
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
        thin=config.thin,
        seed=config.seed,
        n_recorded=t_rec,
        gamma_sums=gamma_sums,
        delta_sums=delta_sums,
        r_sums=r_sums,
        mu0_sum=mu0_sum,
        mu0_sumsq=mu0_sumsq,
        mu_sum=mu_sum,
        mu_sumsq=mu_sumsq,
        beta_sum=beta_sum,
        beta_sumsq=beta_sumsq,
        phi_sum=phi_sum,
        phi_sumsq=phi_sumsq,
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


def run_chains_parallel(
    data: Dataset,
    hp: Hyperparameters,
    scales: ProposalScales,
    configs: list[ChainConfig],
    size_factors: SizeFactors | None = None,
    max_workers: int | None = None,
) -> list[ChainTrace]:
    """Run several chains, in worker processes when available.

    Traces are bit-identical to running each chain sequentially; the chain
    seeds must be pairwise distinct.
    """
    if not configs:
        raise EmptyTrace("no chain configs given")
    seeds = [c.seed for c in configs]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"chain seeds must be distinct, got {seeds}")
    sf = size_factors if size_factors is not None else estimate_css(data.counts)
    workers = max_workers if max_workers is not None else default_max_workers()
    workers = min(workers, len(configs))
    if workers <= 1 or len(configs) == 1:
        return [run_chain(data, hp, scales, c, size_factors=sf) for c in configs]
    jobs = [(data, hp, scales, c, sf) for c in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chain_worker, jobs))
