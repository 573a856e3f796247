"""Brute-force reference implementations used to pin expected values.

Everything here is written as directly as possible (explicit sorts,
loops, quadrature, pairwise enumeration) and stays independent of the
library code paths it checks. ``nb_phi_terms``, ``nb_log_pmf`` and
``zinb_log_pmf`` assemble full NB and ZINB masses from ``nb_kernel`` and
scipy's ``gammaln``, which the tests hold against the direct forms here
and scipy's distributions.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats
from scipy.special import betaln, gammaln

from zinbreg.errors import DataError, DomainError


class InconsistentZeroIndicator(DataError):
    """An extra-zero indicator set at a positive count."""


def percentile_type2(values, q):
    """Averaged-inverted-CDF percentile (Hyndman & Fan type 2) by explicit
    sort and case analysis; q in [0, 1]."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    t = n * q
    if t <= 0:
        return xs[0]
    if t >= n:
        return xs[-1]
    j = int(math.floor(t))
    if t > j:
        return xs[j]
    return 0.5 * (xs[j - 1] + xs[j])


def renormalize(raw):
    logs = [math.log(v) for v in raw]
    mean = sum(logs) / len(logs)
    return [math.exp(v - mean) for v in logs]


def css_factors(y, l_css=50):
    raw = []
    for row in np.asarray(y):
        nz = [v for v in row if v > 0]
        cut = percentile_type2(nz, l_css / 100.0)
        raw.append(float(sum(v for v in row if v <= cut)))
    return renormalize(raw)


def q75_factors(y):
    raw = []
    for row in np.asarray(y):
        nz = [v for v in row if v > 0]
        raw.append(percentile_type2(nz, 0.75))
    return renormalize(raw)


def _median(values):
    xs = sorted(values)
    m = len(xs)
    if m % 2:
        return xs[m // 2]
    return 0.5 * (xs[m // 2 - 1] + xs[m // 2])


def gmpr_factors(y):
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    raw = []
    for i in range(n):
        acc = 0.0
        for k in range(n):
            if k == i:
                continue
            ratios = [
                y[i, j] / y[k, j]
                for j in range(y.shape[1])
                if y[i, j] > 0 and y[k, j] > 0
            ]
            acc += math.log(_median(ratios))
        raw.append(math.exp(acc / n))
    return renormalize(raw)


def rle_factors(y, pseudo=1.0):
    y = np.asarray(y, dtype=float) + pseudo
    n, p = y.shape
    ref = [math.exp(sum(math.log(y[i, j]) for i in range(n)) / n) for j in range(p)]
    raw = [_median([y[i, j] / ref[j] for j in range(p)]) for i in range(n)]
    return renormalize(raw)


def tmm_factors(y, trim_m=0.30, trim_a=0.05):
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    totals = y.sum(axis=1)
    uq = [percentile_type2([v for v in row if v > 0], 0.75) for row in y]
    mean_uq = sum(uq) / n
    ref = min(range(n), key=lambda i: (abs(uq[i] - mean_uq), i))
    raw = []
    for i in range(n):
        if i == ref:
            raw.append(1.0)
            continue
        m_vals, a_vals, w_vals = [], [], []
        for j in range(y.shape[1]):
            if y[i, j] > 0 and y[ref, j] > 0:
                li = math.log(y[i, j] / totals[i])
                lr = math.log(y[ref, j] / totals[ref])
                m_vals.append(li - lr)
                a_vals.append(0.5 * (li + lr))
                w_vals.append(
                    1.0
                    / (
                        (totals[i] - y[i, j]) / (totals[i] * y[i, j])
                        + (totals[ref] - y[ref, j]) / (totals[ref] * y[ref, j])
                    )
                )
        m_lo = percentile_type2(m_vals, trim_m)
        m_hi = percentile_type2(m_vals, 1 - trim_m)
        a_lo = percentile_type2(a_vals, trim_a)
        a_hi = percentile_type2(a_vals, 1 - trim_a)
        kept = [
            idx
            for idx in range(len(m_vals))
            if m_lo < m_vals[idx] < m_hi and a_lo < a_vals[idx] < a_hi
        ]
        if not kept:
            kept = list(range(len(m_vals)))
        num = sum(w_vals[idx] * m_vals[idx] for idx in kept)
        den = sum(w_vals[idx] for idx in kept)
        raw.append((totals[i] / totals[ref]) * math.exp(num / den))
    return renormalize(raw)


def multinomial(rng: np.random.Generator, n_total: int, probs: np.ndarray) -> np.ndarray:
    """Exact multinomial draw by sequential binomial decomposition, one
    ``rng.binomial`` call per category: the reference for numpy's
    ``Generator.multinomial``."""
    out = np.zeros(probs.size, dtype=np.int64)
    remaining = int(n_total)
    tail = 1.0
    for j in range(probs.size - 1):
        if remaining == 0:
            break
        pj = probs[j] / tail if tail > 0 else 1.0
        out[j] = rng.binomial(remaining, min(max(pj, 0.0), 1.0))
        remaining -= out[j]
        tail -= probs[j]
    out[-1] += remaining
    return out


def fdr_scan(ppis, target):
    """Evaluate the Bayesian FDR formula at every candidate cutoff on
    1 - PPI and return the largest selection meeting the target."""
    q = 1.0 - np.round(np.asarray(ppis, dtype=float), 12)
    candidates = sorted(set(q.tolist())) + [float(q.max()) + 1.0]
    best = np.zeros(q.size, dtype=bool)
    for c in candidates:
        sel = q < c
        if not sel.any():
            continue
        fdr = q[sel].sum() / sel.sum()
        if fdr <= target and sel.sum() > best.sum():
            best = sel
    return best


def auc_pairs(scores, truth):
    """O(m^2) pairwise comparison AUC with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    pos = scores[truth]
    neg = scores[~truth]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (pos.size * neg.size)


def nb_pmf_direct(y, lam, phi):
    """NB mass by direct gamma-function evaluation (y small enough for
    math.gamma)."""
    return (
        math.gamma(y + phi)
        / (math.gamma(y + 1) * math.gamma(phi))
        * (phi / (lam + phi)) ** phi
        * (lam / (lam + phi)) ** y
    )


def nb_kernel(y, loglam, phi):
    """Mean-dependent part of the NB log mass at count ``y``, log mean
    ``loglam`` and dispersion ``phi`` (broadcastable arrays),
    ``y*log(lam) - (y + phi)*log(lam + phi)``, with ``log(lam + phi)``
    computed as ``log(exp(loglam) + phi)``: finite for log means up to
    ~709, where ``exp`` overflows."""
    log_sum = np.log(np.exp(loglam) + phi)
    return y * loglam - (y + phi) * log_sum


def nb_phi_terms(y, phi):
    """Part of the NB log mass that depends on the dispersion alone, by
    scipy's ``gammaln``, on the full grid."""
    return gammaln(y + phi) - gammaln(phi) + phi * np.log(phi)


def nb_log_pmf(y, lam, phi):
    """Log mass of the negative binomial with mean ``lam`` and dispersion
    ``1/phi`` at count ``y``, assembled from ``nb_kernel`` and scipy's
    ``gammaln``; the tests check it against ``nb_pmf_direct`` and scipy.

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
    out = nb_kernel(y, np.log(lam), phi) + nb_phi_terms(y, phi) - gammaln(y + 1.0)
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


def nb_kernel_logaddexp(y, loglam, phi):
    """The NB kernel ``y*log(lam) - (y + phi)*log(lam + phi)`` with
    ``log(lam + phi)`` computed in log space, finite for any finite log
    mean."""
    return y * loglam - (y + phi) * np.logaddexp(loglam, np.log(phi))


def t_density_quadrature(x, a, b):
    """Marginal slab density at x: normal with variance v integrated
    against an inverse-gamma(a, b) on v."""

    def integrand(v):
        return stats.norm.pdf(x, 0.0, math.sqrt(v)) * stats.invgamma.pdf(v, a, scale=b)

    val, _ = integrate.quad(integrand, 0.0, np.inf)
    return val


def zero_indicator_prob(lam, phi, a_pi, b_pi):
    """Two-point enumeration of the extra-zero conditional at an observed
    zero: unnormalized weights for r=1 and r=0."""
    nb0 = (phi / (lam + phi)) ** phi
    w1 = a_pi / (a_pi + b_pi)
    w0 = nb0 * b_pi / (a_pi + b_pi)
    return w1 / (w0 + w1)


@dataclass(frozen=True)
class TaxonParams:
    """One feature's model parameters.

    ``mu_k`` holds one entry per group, with the reference group pinned at
    zero. Indicator consistency (zero coefficients for switched-off
    indicators) is enforced at construction.
    """

    mu0: float
    mu_k: np.ndarray
    beta: np.ndarray
    phi: float
    gamma: int
    delta: np.ndarray
    reference_group: int = 1

    def __post_init__(self):
        mu_k = np.array(self.mu_k, dtype=np.float64)
        beta = np.array(self.beta, dtype=np.float64)
        delta = np.array(self.delta, dtype=np.int8)
        object.__setattr__(self, "mu_k", mu_k)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)
        if self.gamma not in (0, 1) or np.any((delta != 0) & (delta != 1)):
            raise DomainError("gamma and delta must be binary")
        if not (np.isfinite(self.phi) and self.phi > 0):
            raise DomainError(f"phi must be strictly positive, got {self.phi}")
        if beta.shape != delta.shape:
            raise DomainError("beta and delta must have the same length")
        if not 1 <= self.reference_group <= mu_k.shape[0]:
            raise DomainError("reference group index outside 1..K")
        if mu_k[self.reference_group - 1] != 0.0:
            raise DomainError("mu_k must be zero for the reference group")
        if self.gamma == 0 and np.any(mu_k != 0.0):
            raise DomainError("gamma=0 requires all group shifts to be zero")
        if np.any((delta == 0) & (beta != 0.0)):
            raise DomainError("delta=0 requires the matching beta to be zero")

    @property
    def n_groups(self):
        return self.mu_k.shape[0]


def taxon(state, j, reference_group=1, **overrides):
    """Column ``j`` of a sampler state as TaxonParams, with any field
    replaced by a keyword argument."""
    fields = dict(
        mu0=float(state.mu0[j]), mu_k=state.mu[:, j], beta=state.beta[:, j],
        phi=float(state.phi[j]), gamma=int(state.gamma[j]), delta=state.delta[:, j],
        reference_group=reference_group,
    )
    fields.update(overrides)
    return TaxonParams(**fields)


def check_state(state, counts, reference_group=1):
    """Assert the invariants of a sampler state."""
    assert np.all((state.r == 0) | (counts == 0)), "r=1 at a positive count"
    assert np.all(state.mu[reference_group - 1] == 0.0), "reference shift not pinned"
    assert np.all(state.mu[:, state.gamma == 0] == 0.0), "shifts left over at gamma=0"
    assert np.all(state.beta[state.delta == 0] == 0.0), "effects left over at delta=0"
    assert np.all(state.phi > 0), "nonpositive dispersion"


def mean_alpha(params, x_row, group):
    """Normalized abundance exp(mu0 + gamma*mu_k[group] + x.beta) for one
    sample; the NB mean is the size factor times this."""
    if not 1 <= group <= params.n_groups:
        raise DomainError(f"group {group} outside 1..{params.n_groups}")
    eta = params.mu0 + params.gamma * params.mu_k[group - 1] + float(np.dot(x_row, params.beta))
    return math.exp(eta)


def taxon_log_lik(y_col, r_col, params, s, X, groups):
    """Log likelihood of one feature's column, sample by sample: NB mass
    (scipy's nbinom) over the samples not flagged as extra zeros."""
    y_col = np.asarray(y_col, dtype=np.int64)
    r_col = np.asarray(r_col, dtype=np.int8)
    if np.any((r_col == 1) & (y_col != 0)):
        raise InconsistentZeroIndicator("r=1 requires y=0")
    total = 0.0
    for i in range(y_col.size):
        if r_col[i]:
            continue
        lam = s.values[i] * mean_alpha(params, X.values[i], int(groups.labels[i]))
        total += float(stats.nbinom.logpmf(y_col[i], params.phi, params.phi / (lam + params.phi)))
    return total


def log_gamma_density(x, shape, rate):
    """Log density of a shape-rate gamma at x > 0."""
    return shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x


@dataclass(frozen=True)
class PriorTerms:
    """Log prior density of one feature, split by parameter block."""

    mu0: float
    mu: float
    beta: float
    phi: float

    def total(self):
        return self.mu0 + self.mu + self.beta + self.phi


def log_prior_terms(params, hp):
    """Continuous prior components at the current values; slots switched
    off by their indicators are point masses and contribute zero."""
    t_slab = stats.t(2.0 * hp.a_t, scale=math.sqrt(hp.b_t / hp.a_t))
    mu0_term = float(stats.norm.logpdf(params.mu0, scale=math.sqrt(hp.sigma0_sq)))
    mu_term = 0.0
    if params.gamma == 1:
        for k in range(params.n_groups):
            if k != params.reference_group - 1:
                mu_term += float(t_slab.logpdf(params.mu_k[k]))
    beta_term = float(sum(t_slab.logpdf(b) for b in params.beta[params.delta == 1]))
    phi_term = float(log_gamma_density(params.phi, hp.a_phi, hp.b_phi))
    return PriorTerms(mu0=mu0_term, mu=mu_term, beta=beta_term, phi=phi_term)


def log_posterior(state, ds, sf, hp):
    """Log posterior of a sampler state, feature by feature: likelihood and
    continuous priors from the functions above, plus the collapsed
    Beta-Bernoulli terms of the three indicator families (the extra-zero
    indicators counted at the observed zeros)."""
    ref = ds.groups.reference_group
    y = ds.counts.counts
    total = 0.0
    for j in range(ds.p):
        params = taxon(state, j, ref)
        total += taxon_log_lik(y[:, j], state.r[:, j], params, sf, ds.covariates, ds.groups)
        total += log_prior_terms(params, hp).total()
        s_j = int(state.delta[:, j].sum())
        total += betaln(hp.a_p + s_j, hp.b_p + ds.n_covariates - s_j) - betaln(hp.a_p, hp.b_p)
    s_gamma = int(state.gamma.sum())
    total += betaln(hp.a_omega + s_gamma, hp.b_omega + ds.p - s_gamma)
    total -= betaln(hp.a_omega, hp.b_omega)
    for i, j in zip(*np.nonzero(y == 0)):
        r = int(state.r[i, j])
        total += betaln(hp.a_pi + r, hp.b_pi + 1 - r) - betaln(hp.a_pi, hp.b_pi)
    return total
