import copy
import tracemalloc

import numpy as np
import pytest

import _oracles as oracle
from _zinb import generate_zinb
from conftest import make_counts, small_dataset
from zinbreg.data import (
    CountMatrix,
    CovariateMatrix,
    Dataset,
    GroupAssignment,
    Hyperparameters,
    ProposalScales,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from zinbreg.errors import NumericalFailure
from zinbreg.normalization import SizeFactors, estimate_css
from zinbreg.sampler import (
    ChainConfig,
    ModelState,
    _SMALL_COUNT,
    _Engine,
    _truncated_walk,
    chain_pool,
    run_chain,
    run_chains_parallel,
    zero_indicator_prob,
)


HP = Hyperparameters()
SCALES = ProposalScales()


def _engine(ds, sf=None, hp=HP, prior_only=False, scales=SCALES):
    """An engine on ``ds``; size factors default to CSS."""
    sf = sf if sf is not None else estimate_css(ds.counts)
    return _Engine(ds, sf, hp, scales, prior_only)


def _start(ds, seed, sf=None, hp=HP, scales=SCALES):
    """An engine on ``ds`` and a starting state drawn from ``seed``."""
    eng = _engine(ds, sf, hp, scales=scales)
    return eng, eng.init_state(np.random.default_rng(seed))


def _trace_arrays(trace):
    return (
        trace.gamma_sums, trace.delta_sums, trace.mu0_sum,
        trace.mu_sum, trace.beta_sum, trace.phi_sum, trace.mu_draws,
    )


def assert_traces_equal(a, b):
    for x, y in zip(_trace_arrays(a), _trace_arrays(b)):
        np.testing.assert_array_equal(x, y)
    assert a.accept_counts == b.accept_counts


def test_init_state_deterministic(tiny_dataset):
    _, s1 = _start(tiny_dataset, 5)
    _, s2 = _start(tiny_dataset, 5)
    np.testing.assert_array_equal(s1.gamma, s2.gamma)
    np.testing.assert_array_equal(s1.r, s2.r)
    np.testing.assert_array_equal(s1.mu, s2.mu)


def test_init_state_respects_zero_structure(tiny_dataset):
    _, state = _start(tiny_dataset, 1)
    y = tiny_dataset.counts.counts
    assert np.all(state.r[y > 0] == 0)
    oracle.check_state(state, y)


def test_init_state_distinct_seeds_differ(tiny_dataset):
    _, s1 = _start(tiny_dataset, 1)
    _, s2 = _start(tiny_dataset, 2)
    assert not np.array_equal(s1.gamma, s2.gamma) or not np.array_equal(s1.r, s2.r)


def test_zero_indicator_prob_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = float(rng.uniform(0.05, 30))
        phi = float(rng.uniform(0.1, 20))
        a_pi = float(rng.uniform(0.2, 3))
        b_pi = float(rng.uniform(0.2, 3))
        assert zero_indicator_prob(np.log1p(lam / phi), phi, a_pi, b_pi) == pytest.approx(
            oracle.zero_indicator_prob(lam, phi, a_pi, b_pi), rel=1e-12
        )


def test_zero_indicator_prob_unit_case_two_thirds():
    # a_pi=b_pi=1, phi=1, s*alpha=1: NB(0)=1/2, so P(r=1) = 1/(1+1/2) = 2/3
    assert zero_indicator_prob(np.log1p(1.0), 1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0)


def test_zero_indicator_prob_saturates_at_one():
    assert zero_indicator_prob(np.log1p(1e12), 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-6)


def _all_zero_column_dataset(n=30):
    # bypasses validate_inputs on purpose: a single feature observed at
    # zero in every sample isolates the r update
    y = np.zeros((n, 1), dtype=int)
    counts = CountMatrix(y, tuple(f"s{i}" for i in range(n)), ("f0",))
    covs = CovariateMatrix(np.zeros((n, 0)), ())
    groups = GroupAssignment(np.ones(n, dtype=int), 1)
    return Dataset(counts=counts, covariates=covs, groups=groups)


def _step_r_rate(hp, seed, prior_only=False, sweeps=4000):
    """Mean extra-zero indicator over repeated r steps on the all-zero
    column at mu0=0, phi=1."""
    ds = _all_zero_column_dataset()
    eng = _engine(ds, SizeFactors(np.ones(ds.n), "css"), hp, prior_only)
    state = ModelState(
        r=np.zeros((ds.n, 1), dtype=np.int8),
        mu0=np.zeros(1),
        mu=np.zeros((1, 1)),
        beta=np.zeros((0, 1)),
        gamma=np.zeros(1, dtype=np.int8),
        delta=np.zeros((0, 1), dtype=np.int8),
        phi=np.ones(1),
    )
    eng.attach(state)
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(sweeps):
        eng.step_r(state, rng)
        total += int(state.r.sum())
    return total / (sweeps * ds.n)


def test_step_r_empirical_two_thirds():
    assert _step_r_rate(HP, 11) == pytest.approx(2.0 / 3.0, abs=0.01)


def test_step_r_prior_only_matches_beta_mean():
    hp = Hyperparameters(a_pi=2.0, b_pi=6.0)
    assert _step_r_rate(hp, 12, prior_only=True) == pytest.approx(0.25, abs=0.01)


def test_step_r_gives_each_zero_cell_its_uniform_in_input_order():
    # the step visits the zero cells in the engine's order (samples sorted
    # by group, here interleaved in the input) and draws each cell's
    # indicator with the uniform of its place in the input's row-major
    # order, at the oracle's conditional probability
    ds = _three_group_dataset(seed=73)
    sf = estimate_css(ds.counts)
    eng, state = _start(ds, 23, sf)
    assert not np.array_equal(eng.order, np.arange(ds.n))
    y = ds.counts.counts
    z = ds.groups.zero_based()
    lam = sf.values[:, None] * np.exp(
        state.mu0 + state.mu[z] + ds.covariates.values @ state.beta
    )
    p1 = oracle.zero_indicator_prob(lam, state.phi, HP.a_pi, HP.b_pi)[y == 0]
    rng = np.random.default_rng(24)
    u = copy.deepcopy(rng).random(p1.size)
    eng.step_r(state, rng)
    np.testing.assert_array_equal(state.r[y == 0], u < p1)
    assert 0 < int(state.r.sum()) < p1.size


def test_state_invariants_hold_after_sweeps(tiny_dataset):
    eng = _engine(tiny_dataset)
    rng = np.random.default_rng(21)
    state = eng.init_state(rng)
    for _ in range(30):
        eng.sweep(state, rng)
        oracle.check_state(state, tiny_dataset.counts.counts)


def test_run_chain_exactly_one_draw():
    ds = small_dataset(seed=3)
    trace = run_chain(ds, HP, SCALES, ChainConfig(n_iter=21, burn_in=20, seed=4))
    assert trace.n_recorded == 1


def test_run_chain_deterministic(tiny_dataset):
    cfg = ChainConfig(n_iter=60, burn_in=30, seed=9)
    t1 = run_chain(tiny_dataset, HP, SCALES, cfg)
    t2 = run_chain(tiny_dataset, HP, SCALES, cfg)
    assert_traces_equal(t1, t2)


def test_thinning_counts(tiny_dataset):
    trace = run_chain(tiny_dataset, HP, SCALES, ChainConfig(n_iter=50, burn_in=20, thin=7, seed=2))
    assert trace.n_recorded == len(range(20, 50, 7))


def test_parallel_matches_sequential(tiny_dataset):
    configs = [ChainConfig(n_iter=40, burn_in=20, seed=s) for s in (101, 202)]
    seq = [run_chain(tiny_dataset, HP, SCALES, c) for c in configs]
    par = run_chains_parallel(tiny_dataset, HP, SCALES, configs, max_workers=2)
    for a, b in zip(seq, par):
        assert_traces_equal(a, b)


def test_shared_pool_matches_sequential(tiny_dataset):
    configs = [ChainConfig(n_iter=40, burn_in=20, seed=s) for s in (101, 202)]
    seq = [run_chain(tiny_dataset, HP, SCALES, c) for c in configs]
    with chain_pool(len(configs), max_workers=2) as pool:
        assert pool is not None
        runs = [run_chains_parallel(tiny_dataset, HP, SCALES, configs, pool=pool)
                for _ in range(2)]
    for par in runs:
        for a, b in zip(seq, par):
            assert_traces_equal(a, b)


def test_chain_pool_is_none_for_one_worker_or_chain():
    with chain_pool(2, max_workers=1) as pool:
        assert pool is None
    with chain_pool(1, max_workers=2) as pool:
        assert pool is None


def test_parallel_single_chain_identical(tiny_dataset):
    cfg = ChainConfig(n_iter=30, burn_in=10, seed=77)
    one = run_chain(tiny_dataset, HP, SCALES, cfg)
    via_pool = run_chains_parallel(tiny_dataset, HP, SCALES, [cfg])
    assert_traces_equal(one, via_pool[0])


def test_parallel_rejects_duplicate_seeds(tiny_dataset):
    configs = [ChainConfig(n_iter=10, burn_in=5, seed=1)] * 2
    with pytest.raises(ValueError):
        run_chains_parallel(tiny_dataset, HP, SCALES, configs)


def test_numerical_failure_detected(tiny_dataset, monkeypatch):
    def poison(self, state, rng):
        state.mu0[0] = np.nan

    monkeypatch.setattr(_Engine, "step_phi", poison)
    with pytest.raises(NumericalFailure) as err:
        run_chain(tiny_dataset, HP, SCALES, ChainConfig(n_iter=5, burn_in=1, seed=1))
    assert err.value.iteration == 0
    assert err.value.detail == "mu0[0] = nan"
    assert str(err.value) == "non-finite state at iteration 0: mu0[0] = nan"


def _fit_zinb(counts, covs, groups, n_iter, seed, scales=SCALES):
    ds = validate_inputs(
        counts,
        standardize_covariates(covs) if covs.n_covariates else covs,
        groups,
    )
    sf = SizeFactors(np.ones(ds.n), "css")
    return run_chain(ds, HP, scales, ChainConfig(n_iter=n_iter, seed=seed), size_factors=sf)


def test_mu0_recovery_single_taxon():
    # one feature, no shifts/covariates, true baseline 9
    counts, covs, groups, _, _ = generate_zinb(
        n=50, p=1, n_disc=0, pi_zero=0.2, phi=10.0, mu0_low=9.0, mu0_high=9.0, seed=31
    )
    trace = _fit_zinb(counts, covs, groups, 1600, seed=5)
    mu0_mean = trace.mu0_sum[0] / trace.n_recorded
    assert abs(mu0_mean - 9.0) < 0.5


def test_phi_recovery_single_taxon():
    counts, covs, groups, _, _ = generate_zinb(
        n=200, p=1, n_disc=0, pi_zero=0.2, phi=10.0, mu0_low=7.0, mu0_high=7.0, seed=32
    )
    trace = _fit_zinb(counts, covs, groups, 2500, seed=6)
    phi_mean = trace.phi_sum[0] / trace.n_recorded
    assert 5.0 <= phi_mean <= 20.0


def test_strong_signal_ppi_high():
    counts, covs, groups, truth, _ = generate_zinb(
        n=60, p=12, n_disc=4, pi_zero=0.2, phi=10.0, seed=33
    )
    trace = _fit_zinb(counts, covs, groups, 2000, seed=7)
    ppi = trace.ppi_gamma()
    assert np.all(ppi[truth.gamma_true == 1] > 0.9)


def test_group_label_equivariance_three_groups():
    counts, covs, groups, truth, _ = generate_zinb(
        n=90, p=8, n_disc=4, n_groups=3, pi_zero=0.15, phi=10.0, seed=34
    )
    swapped = GroupAssignment(
        np.select(
            [groups.labels == 2, groups.labels == 3], [3, 2], groups.labels
        ),
        3,
        reference_group=1,
    )
    t_orig = _fit_zinb(counts, covs, groups, 2000, seed=8)
    t_swap = _fit_zinb(counts, covs, swapped, 2000, seed=8)
    m_orig = t_orig.mu_sum / t_orig.n_recorded
    m_swap = t_swap.mu_sum / t_swap.n_recorded
    # swapping labels 2 and 3 swaps the recovered shift rows
    np.testing.assert_allclose(m_orig[1], m_swap[2], atol=0.3)
    np.testing.assert_allclose(m_orig[2], m_swap[1], atol=0.3)


def test_step_mu0_identity_proposal_always_accepts(tiny_dataset):
    # forcing the random-walk step to zero makes the MH ratio exactly one
    eng, state = _start(tiny_dataset, 3)
    before = state.mu0.copy()

    class FixedRng:
        def __init__(self):
            self.inner = np.random.default_rng(0)

        def standard_normal(self, size=None):
            return np.zeros(size)

        def random(self, size=None):
            return self.inner.random(size)

    eng.step_mu0(state, FixedRng())
    np.testing.assert_array_equal(state.mu0, before)
    assert eng.accept_counts["mu0"] == tiny_dataset.p


def test_adaptation_changes_scales_only_during_burn_in(tiny_dataset):
    cfg = ChainConfig(n_iter=220, burn_in=200, seed=13, adapt_scales=True)
    trace = run_chain(tiny_dataset, HP, SCALES, cfg)
    assert trace.n_recorded == 20
    # determinism still holds under adaptation
    trace2 = run_chain(tiny_dataset, HP, SCALES, cfg)
    assert_traces_equal(trace, trace2)


def test_diagnostics_recorded(tiny_dataset):
    cfg = ChainConfig(n_iter=15, burn_in=5, seed=3, diagnostics=True)
    trace = run_chain(tiny_dataset, HP, SCALES, cfg)
    assert trace.diagnostics is not None
    assert trace.diagnostics["log_posterior"].shape == (15,)
    assert np.all(np.isfinite(trace.diagnostics["log_posterior"]))


def _oracle_col_ll(state, ds, sf, j, **overrides):
    """Oracle log likelihood of column ``j`` of ``state``, with any of its
    parameters replaced by a keyword argument."""
    params = oracle.taxon(state, j, ds.groups.reference_group, **overrides)
    return oracle.taxon_log_lik(
        ds.counts.counts[:, j], state.r[:, j], params, sf, ds.covariates, ds.groups
    )


def _naive_mu0_step(state, ds, sf, hp, scales, rng):
    """Reference baseline walk, one feature at a time, consuming the same
    rng draws as the engine."""
    p, ref = ds.p, ds.groups.reference_group
    prop = state.mu0 + scales.tau_mu0 * rng.standard_normal(p)
    log_u = np.log(rng.random(p))
    for j in range(p):
        lr = (
            _oracle_col_ll(state, ds, sf, j, mu0=prop[j]) - _oracle_col_ll(state, ds, sf, j)
            + oracle.log_prior_terms(oracle.taxon(state, j, ref, mu0=prop[j]), hp).mu0
            - oracle.log_prior_terms(oracle.taxon(state, j, ref), hp).mu0
        )
        if log_u[j] < lr:
            state.mu0[j] = prop[j]


def _naive_phi_step(state, ds, sf, hp, scales, rng):
    """Reference dispersion walk with a normal proposal truncated to
    phi > 0, one feature at a time, consuming the same rng draws as the
    engine: the acceptance uniforms, a normal draw per feature, then
    rounds of one more draw per feature still at or below 0, in feature
    order. Returns the number of draws made again."""
    from scipy.stats import norm

    p, ref, tau = ds.p, ds.groups.reference_group, scales.tau_phi
    log_u = np.log(rng.random(p))
    prop = state.phi + tau * rng.standard_normal(p)
    redraws = 0
    low = [j for j in range(p) if prop[j] <= 0]
    while low:
        redraws += len(low)
        for j, z in zip(low, rng.standard_normal(len(low))):
            prop[j] = state.phi[j] + tau * z
        low = [j for j in low if prop[j] <= 0]
    for j in range(p):
        phi = float(state.phi[j])
        lr = (
            _oracle_col_ll(state, ds, sf, j, phi=prop[j]) - _oracle_col_ll(state, ds, sf, j)
            + oracle.log_prior_terms(oracle.taxon(state, j, ref, phi=prop[j]), hp).phi
            - oracle.log_prior_terms(oracle.taxon(state, j, ref), hp).phi
            + norm.logcdf(phi / tau) - norm.logcdf(prop[j] / tau)
        )
        if log_u[j] < lr:
            state.phi[j] = prop[j]
    return redraws


def _naive_gamma_step(state, ds, sf, hp, scales, rng):
    """Reference add-delete + within-model pass built on the oracle
    likelihood, consuming the same rng draws as the engine."""
    import math

    from zinbreg.likelihood import log_normal_density, log_t_density

    p, big_k = ds.p, ds.n_groups
    ref0 = ds.groups.reference_group - 1
    nonref = [k for k in range(big_k) if k != ref0]
    df, ssq = 2 * hp.a_t, hp.b_t / hp.a_t

    def col_ll(j, gamma_j, mu_col):
        return _oracle_col_ll(state, ds, sf, j, gamma=gamma_j, mu_k=mu_col)

    perm = rng.permutation(p)
    prop = scales.tau_mu * rng.standard_normal((len(nonref), p))
    log_u = np.log(rng.random(p))
    s_gamma = int(state.gamma.sum())
    for j in perm:
        j = int(j)
        if state.gamma[j]:
            flip_mu = np.zeros(big_k)
            cur_mu = state.mu[:, j].copy()
            lr = (
                col_ll(j, 0, flip_mu) - col_ll(j, 1, cur_mu)
                + math.log((hp.b_omega + p - s_gamma) / (hp.a_omega + s_gamma - 1.0))
                + float(np.sum(log_normal_density(cur_mu[nonref], scales.tau_mu**2)))
                - float(np.sum(log_t_density(cur_mu[nonref], df, ssq)))
            )
            if log_u[j] < lr:
                state.gamma[j] = 0
                state.mu[nonref, j] = 0.0
                s_gamma -= 1
        else:
            flip_mu = np.zeros(big_k)
            flip_mu[nonref] = prop[:, j]
            lr = (
                col_ll(j, 1, flip_mu) - col_ll(j, 0, np.zeros(big_k))
                + math.log((hp.a_omega + s_gamma) / (hp.b_omega + p - s_gamma - 1.0))
                + float(np.sum(log_t_density(prop[:, j], df, ssq)))
                - float(np.sum(log_normal_density(prop[:, j], scales.tau_mu**2)))
            )
            if log_u[j] < lr:
                state.gamma[j] = 1
                state.mu[nonref, j] = prop[:, j]
                s_gamma += 1

    act = np.flatnonzero(state.gamma)
    for k in nonref:
        step = 0.5 * scales.tau_mu * rng.standard_normal(act.size)
        log_uu = np.log(rng.random(act.size))
        for idx, j in enumerate(act):
            j = int(j)
            cur_mu = state.mu[:, j].copy()
            new_mu = cur_mu.copy()
            new_mu[k] = cur_mu[k] + step[idx]
            lr = (
                col_ll(j, 1, new_mu) - col_ll(j, 1, cur_mu)
                + float(log_t_density(new_mu[k], df, ssq))
                - float(log_t_density(cur_mu[k], df, ssq))
            )
            if log_uu[idx] < lr:
                state.mu[k, j] = new_mu[k]


def _run_against_naive(ds, step, naive, init_seed, rng_seed, sweeps=25, hp=HP,
                       scales=SCALES):
    """Run the engine step and its naive reference side by side from one
    starting state on identical rng streams; returns (engine, reference)
    states."""
    sf = estimate_css(ds.counts)
    eng, s_eng = _start(ds, init_seed, sf, hp, scales)
    s_ref = copy.deepcopy(s_eng)
    rng_eng = np.random.default_rng(rng_seed)
    rng_ref = np.random.default_rng(rng_seed)
    for _ in range(sweeps):
        getattr(eng, step)(s_eng, rng_eng)
        naive(s_ref, ds, sf, hp, scales, rng_ref)
    return s_eng, s_ref


def test_mu0_step_matches_naive_reference(tiny_dataset):
    # a tight baseline prior, so that its ratio decides moves too
    hp = Hyperparameters(sigma0_sq=0.5)
    s_eng, s_ref = _run_against_naive(tiny_dataset, "step_mu0", _naive_mu0_step, 8, 9, hp=hp)
    assert not np.array_equal(s_eng.mu0, _start(tiny_dataset, 8)[1].mu0)
    np.testing.assert_allclose(s_eng.mu0, s_ref.mu0, rtol=0, atol=1e-10)


def test_phi_step_matches_naive_reference(tiny_dataset):
    # small dispersions under a wide proposal, so that the truncation
    # correction and the prior ratio decide moves too
    hp = Hyperparameters(a_phi=2.0, b_phi=1.0)
    scales = ProposalScales(tau_phi=3.0)
    redraws = []

    def naive(*args):
        redraws.append(_naive_phi_step(*args))

    s_eng, s_ref = _run_against_naive(
        tiny_dataset, "step_phi", naive, 10, 11, hp=hp, scales=scales
    )
    assert not np.array_equal(s_eng.phi, _start(tiny_dataset, 10)[1].phi)
    # the proposals fell at or below 0 and were drawn again
    assert sum(redraws) > 0
    np.testing.assert_allclose(s_eng.phi, s_ref.phi, rtol=0, atol=1e-10)


def test_log_posterior_differences_match_oracle():
    ds = small_dataset(seed=94, n=12, p=6, n_covariates=3)
    sf = estimate_css(ds.counts)
    eng, s1 = _start(ds, 1, sf)
    rng = np.random.default_rng(2)
    states = [copy.deepcopy(s1)]
    for _ in range(3):
        eng.sweep(s1, rng)
        states.append(copy.deepcopy(s1))
    states.append(_start(ds, 3, sf)[1])
    oracle_lp = [oracle.log_posterior(s, ds, sf, HP) for s in states]
    engine_lp = []
    for s in states:
        eng.attach(s)
        engine_lp.append(eng.log_posterior(s))
    for a in range(1, len(states)):
        assert engine_lp[a] - engine_lp[0] == pytest.approx(
            oracle_lp[a] - oracle_lp[0], rel=0, abs=1e-9
        )


def test_gamma_step_matches_naive_reference():
    for k_groups, seed in ((2, 91), (3, 92)):
        n = 12 if k_groups == 2 else 15
        ds = small_dataset(seed=seed, n=n, p=6)
        if k_groups == 3:
            labels = 1 + np.arange(n) % 3
            ds = validate_inputs(
                ds.counts, ds.covariates, GroupAssignment(labels, 3)
            )
        s_eng, s_ref = _run_against_naive(
            ds, "step_gamma_mu", _naive_gamma_step, seed, seed + 1
        )
        np.testing.assert_array_equal(s_eng.gamma, s_ref.gamma)
        np.testing.assert_allclose(s_eng.mu, s_ref.mu, atol=1e-10)


def _naive_delta_step(state, ds, sf, hp, scales, rng):
    import math

    from zinbreg.likelihood import log_normal_density, log_t_density

    p, big_r = ds.p, ds.n_covariates
    df, ssq = 2 * hp.a_t, hp.b_t / hp.a_t

    def col_ll(j, beta_col, delta_col):
        return _oracle_col_ll(state, ds, sf, j, beta=beta_col, delta=delta_col)

    pick = rng.integers(0, big_r, size=p)
    prop = scales.tau_beta * rng.standard_normal(p)
    log_u = np.log(rng.random(p))
    for j in range(p):
        r_idx = int(pick[j])
        s_j = int(state.delta[:, j].sum())
        cur_beta = state.beta[:, j].copy()
        cur_delta = state.delta[:, j].copy()
        new_beta = cur_beta.copy()
        new_delta = cur_delta.copy()
        if cur_delta[r_idx]:
            new_beta[r_idx] = 0.0
            new_delta[r_idx] = 0
            lr = (
                col_ll(j, new_beta, new_delta) - col_ll(j, cur_beta, cur_delta)
                + math.log((hp.b_p + big_r - s_j) / (hp.a_p + s_j - 1.0))
                + float(log_normal_density(cur_beta[r_idx], scales.tau_beta**2))
                - float(log_t_density(cur_beta[r_idx], df, ssq))
            )
        else:
            new_beta[r_idx] = prop[j]
            new_delta[r_idx] = 1
            lr = (
                col_ll(j, new_beta, new_delta) - col_ll(j, cur_beta, cur_delta)
                + math.log((hp.a_p + s_j) / (hp.b_p + big_r - s_j - 1.0))
                + float(log_t_density(prop[j], df, ssq))
                - float(log_normal_density(prop[j], scales.tau_beta**2))
            )
        if log_u[j] < lr:
            state.beta[:, j] = new_beta
            state.delta[:, j] = new_delta

    for r_idx in range(big_r):
        act = np.flatnonzero(state.delta[r_idx])
        step = 0.5 * scales.tau_beta * rng.standard_normal(act.size)
        log_uu = np.log(rng.random(act.size))
        for idx, j in enumerate(act):
            j = int(j)
            cur_beta = state.beta[:, j].copy()
            new_beta = cur_beta.copy()
            new_beta[r_idx] = cur_beta[r_idx] + step[idx]
            lr = (
                col_ll(j, new_beta, state.delta[:, j]) - col_ll(j, cur_beta, state.delta[:, j])
                + float(log_t_density(new_beta[r_idx], df, ssq))
                - float(log_t_density(cur_beta[r_idx], df, ssq))
            )
            if log_uu[idx] < lr:
                state.beta[r_idx, j] = new_beta[r_idx]


def test_delta_step_matches_naive_reference():
    ds = small_dataset(seed=93, n=12, p=6, n_covariates=3)
    s_eng, s_ref = _run_against_naive(ds, "step_delta_beta", _naive_delta_step, 6, 7)
    np.testing.assert_array_equal(s_eng.delta, s_ref.delta)
    np.testing.assert_allclose(s_eng.beta, s_ref.beta, atol=1e-10)


def _three_group_dataset(seed, n=15, p=8, n_covariates=2):
    ds = small_dataset(seed=seed, n=n, p=p, n_covariates=n_covariates)
    return validate_inputs(ds.counts, ds.covariates, GroupAssignment(1 + np.arange(n) % 3, 3))


def test_cached_state_matches_fresh_attach():
    ds = _three_group_dataset(95)
    y = ds.counts.counts.astype(np.float64)
    assert ds.n_groups == 3 and ds.n_covariates >= 2 and np.any(y == 0)
    sf = estimate_css(ds.counts)
    eng, state = _start(ds, 12, sf)
    rng = np.random.default_rng(13)
    for _ in range(50):
        eng.sweep(state, rng)
        _assert_cache_matches_fresh_attach(eng, state, ds, sf)


def test_sweeps_without_covariates_keep_the_cache():
    # R = 0: the covariate block is (0, n), and the covariate step proposes
    # nothing
    ds = small_dataset(seed=99, n=12, p=8, n_covariates=0)
    sf = estimate_css(ds.counts)
    eng, state = _start(ds, 16, sf)
    assert eng.xt.shape == (0, ds.n)
    start = copy.deepcopy(state)
    rng = np.random.default_rng(17)
    for _ in range(30):
        eng.sweep(state, rng)
        _assert_cache_matches_fresh_attach(eng, state, ds, sf)
    assert state.delta.shape == (0, ds.p) and state.beta.shape == (0, ds.p)
    assert not np.array_equal(state.mu0, start.mu0)
    assert eng.accept_counts["mu0"] > 0 and eng.accept_counts["phi"] > 0
    for move in ("delta_add", "delta_delete", "beta_within"):
        assert eng.proposal_counts[move] == 0, move


def _assert_cache_matches_fresh_attach(eng, state, ds, sf):
    """The engine's likelihood cache after its moves agrees with one built
    afresh from ``state``."""
    fresh = _engine(ds, sf)
    fresh.attach(state)
    np.testing.assert_array_equal(eng.active, fresh.active)
    # the log odds take one rounding per accepted move (at most eight a
    # sweep in these tests), so after 50 sweeps they are within ~400 eps
    # |M - log s| of a fresh sum, M - log s being the log odds less log s;
    # the softplus moves by its slope, below 1, times that, plus a few eps
    # of its value. The cache is (p, n), samples in group order.
    log_odds = fresh.log_odds
    lm_tol = 1e-12 * max(1.0, float(np.abs(log_odds - fresh.log_s).max()))
    np.testing.assert_allclose(eng.log_odds, log_odds, rtol=0, atol=lm_tol)
    sp_tol = lm_tol + 1e-14 * fresh.sp
    assert np.all(np.abs(eng.sp - fresh.sp) <= sp_tol)
    # the weights and the dispersion sums are evaluated afresh on every
    # change, never updated
    np.testing.assert_array_equal(eng.w, fresh.w)
    np.testing.assert_array_equal(eng.G, fresh.G)
    ll_tol = float((eng.yf * lm_tol).sum() + (fresh.w * sp_tol).sum())
    assert eng.log_posterior(state) == pytest.approx(
        fresh.log_posterior(state), rel=0, abs=1e-12 + ll_tol
    )


def test_log_posterior_prior_only_differences_match_oracle():
    # prior-only moves leave the likelihood cache alone; the log posterior
    # must still describe the state reached, with no attach in between
    ds = small_dataset(seed=96, n=12, p=6, n_covariates=3)
    sf = estimate_css(ds.counts)
    eng = _engine(ds, sf, prior_only=True)
    rng = np.random.default_rng(4)
    state = eng.init_state(rng)
    start = copy.deepcopy(state)
    engine_lp, oracle_lp = [], []
    for _ in range(5):
        eng.sweep(state, rng)
        engine_lp.append(eng.log_posterior(state))
        oracle_lp.append(oracle.log_posterior(state, ds, sf, HP))
    assert not np.array_equal(state.mu0, start.mu0)
    for a in range(1, len(engine_lp)):
        assert engine_lp[a] - engine_lp[0] == pytest.approx(
            oracle_lp[a] - oracle_lp[0], rel=0, abs=1e-9
        )


def test_moves_evaluate_the_kernel_once(monkeypatch):
    from zinbreg import sampler

    cells = {"softplus": 0, "lgamma": 0}

    def counting(name, fn):
        def wrapper(*args, **buffers):
            cells[name] += np.broadcast(*args).size
            return fn(*args, **buffers)
        return wrapper

    monkeypatch.setattr(sampler, "softplus", counting("softplus", sampler.softplus))
    monkeypatch.setattr(sampler, "lgamma", counting("lgamma", sampler.lgamma))
    # counts up to 27, on both sides of the small-count table's cutoff
    small = small_dataset(seed=97)
    ds = validate_inputs(make_counts(3 * small.counts.counts), small.covariates, small.groups)
    eng, state = _start(ds, 5)
    rng = np.random.default_rng(6)
    eng.sweep(state, rng)
    np_cells = ds.n * ds.p
    # the dispersion sums take lgamma at the counts above the table's
    # cutoff alone; at a zero count their terms are exactly 0. The
    # extra-zero step reads the cached softplus.
    phi_cells = int(np.count_nonzero(ds.counts.counts > _SMALL_COUNT))
    assert 0 < phi_cells < np.count_nonzero(ds.counts.counts)
    for name, call, softplus_cells, lgamma_cells in (
        ("log_posterior", lambda: eng.log_posterior(state), 0, 0),
        ("step_r", lambda: eng.step_r(state, rng), 0, 0),
        ("step_mu0", lambda: eng.step_mu0(state, rng), np_cells, 0),
        ("step_phi", lambda: eng.step_phi(state, rng), np_cells, phi_cells),
    ):
        cells.update(softplus=0, lgamma=0)
        call()
        assert cells == {"softplus": softplus_cells, "lgamma": lgamma_cells}, name


def _straddling_dataset(p=8):
    """Each feature takes every count of 0, 1 ... C + 1 and 10**6 once, C
    being the small-count table's cutoff, in a rotated order."""
    values = np.array([0, *range(1, _SMALL_COUNT + 2), 10**6])
    n = values.size
    base = small_dataset(seed=73, n=n, p=p)
    y = values[(np.arange(n)[:, None] + np.arange(p)) % n]
    return validate_inputs(make_counts(y), base.covariates, base.groups)


def test_phi_terms_equal_the_full_matrix_form():
    three = _three_group_dataset(seed=71)
    straddling = _straddling_dataset()
    for ds, phi in (
        (three, np.random.default_rng(4).uniform(0.05, 50.0, three.p)),
        (straddling, np.geomspace(1e-3, 1e4, straddling.p)),
    ):
        y = ds.counts.counts
        assert 0 < np.count_nonzero(y == 0) < y.size
        eng = _engine(ds)
        phi = phi[:, None]
        # the full grid's dispersion terms less phi*log(phi), summed per
        # feature: each cell rounds its three terms, and the sums round once
        # per cell
        full = oracle.nb_phi_terms(eng.yf, phi) - phi * np.log(phi)
        scale = (np.abs(oracle.gammaln(eng.yf + phi)) + np.abs(oracle.gammaln(phi))
                 + np.abs(phi * np.log(phi)) + np.abs(full))
        got = eng._dispersion_sums(phi[:, 0])
        assert np.all(
            np.abs(got - full.sum(axis=1)) <= 8 * np.finfo(float).eps * scale.sum(axis=1)
        )


def _oracle_ratio(ds, sf, state, proposed):
    """Per-feature log likelihood ratio of the parameters ``proposed``
    against ``state``: the full-grid difference of the oracle NB log mass,
    masked by the extra-zero indicators of ``state``."""
    y = ds.counts.counts
    z = ds.groups.zero_based()

    def log_mass(s):
        log_mean = (np.log(sf.values)[:, None] + s.mu0 + s.mu[z]
                    + ds.covariates.values @ s.beta)
        return oracle.nb_log_pmf(y, np.exp(log_mean), s.phi)

    return ((1 - state.r) * (log_mass(proposed) - log_mass(state))).sum(axis=0)


def test_move_ratios_match_the_oracle_log_mass():
    # each move's ratio, from the cache and the count sums, against the
    # oracle at its proposal, replayed from a copy of the generator
    ds = _three_group_dataset(seed=72)
    sf = estimate_css(ds.counts)
    eng, state = _start(ds, 20, sf)
    rng = np.random.default_rng(21)
    for _ in range(3):
        eng.sweep(state, rng)
    p, R, nonref = ds.p, ds.n_covariates, eng.nonref
    # half the discrimination and first-covariate indicators on, so that
    # the add-delete moves propose both and the walks have features
    draws = np.random.default_rng(22).normal(0.0, 0.5, (len(nonref) + 1, p))
    state.gamma[:] = np.arange(p) % 2
    state.mu[nonref] = draws[:-1] * state.gamma
    state.delta[0] = np.arange(p) % 2
    state.beta[0] = draws[-1] * state.delta[0]
    eng.attach(state)
    ratios = []
    ratio = eng._ratio

    def recording(*args, **kwargs):
        llr = ratio(*args, **kwargs)
        ratios.append(llr.copy())
        return llr

    eng._ratio = recording

    def mu0(twin, proposed):
        proposed.mu0 += eng.tau_mu0 * twin.standard_normal(p)
        return slice(None)

    def gamma(twin, proposed):
        twin.permutation(p)
        prop = eng.tau_mu * twin.standard_normal((len(nonref), p))
        proposed.mu[nonref] = np.where(state.gamma == 1, 0.0, prop)
        return slice(None)

    def mu_walk(twin, proposed):
        act = np.flatnonzero(state.gamma)
        proposed.mu[nonref[0], act] += 0.5 * eng.tau_mu * twin.standard_normal(act.size)
        return act

    def delta(twin, proposed):
        pick = twin.integers(0, R, size=p)
        prop = eng.tau_beta * twin.standard_normal(p)
        cols = np.arange(p)
        proposed.beta[pick, cols] = np.where(state.delta[pick, cols] == 1, 0.0, prop)
        return slice(None)

    def beta_walk(twin, proposed):
        act = np.flatnonzero(state.delta[0])
        proposed.beta[0, act] += 0.5 * eng.tau_beta * twin.standard_normal(act.size)
        return act

    def phi(twin, proposed):
        twin.random(p)
        proposed.phi = _truncated_walk(state.phi, eng.tau_phi, twin)
        return slice(None)

    for move, replay in (
        (eng.step_mu0, mu0),
        (eng._mu_within, mu_walk),
        (eng._gamma_add_delete, gamma),
        (eng._beta_within, beta_walk),
        (eng._delta_add_delete, delta),
        (eng.step_phi, phi),
    ):
        proposed = copy.deepcopy(state)
        feats = replay(copy.deepcopy(rng), proposed)
        want = _oracle_ratio(ds, sf, state, proposed)[feats]
        assert np.any(np.abs(want) > 1e-3), replay.__name__
        ratios.clear()
        move(state, rng)
        np.testing.assert_allclose(ratios[0], want, rtol=0, atol=1e-9, err_msg=replay.__name__)
        _assert_cache_matches_fresh_attach(eng, state, ds, sf)


def test_clipped_log_means_keep_the_likelihood_finite():
    # log means of +-1e4, with size factors from exp(-15) to exp(15): the
    # softplus is held at the clip above and underflows to 0 below, and
    # whole sweeps stay finite, with no overflow
    ds = small_dataset(seed=83, n=12, p=6)
    sf = SizeFactors(np.exp(np.linspace(-15.0, 15.0, ds.n)), "css")
    for value in (1e4, -1e4):
        eng, state = _start(ds, 3, sf=sf)
        state.mu0[:] = value
        eng.attach(state)
        ratios = []
        ratio = eng._ratio

        def recording(*args, **kwargs):
            llr = ratio(*args, **kwargs)
            ratios.append(llr.copy())
            return llr

        eng._ratio = recording
        rng = np.random.default_rng(8)
        with np.errstate(over="raise"):
            for _ in range(5):
                eng.sweep(state, rng)
                assert np.isfinite(eng.log_posterior(state)), value
        assert ratios and all(np.all(np.isfinite(llr)) for llr in ratios), value
        oracle.check_state(state, ds.counts.counts)


def test_baselines_past_the_clip_walk_back_down():
    # at log odds past the softplus's clip of 700 the log mass still falls
    # with the baseline, so baselines started at 800 walk down; a softplus
    # held at 700 let the count term y*M carry them up, to 834-845
    ds = small_dataset(seed=83, n=12, p=6)
    eng, state = _start(ds, 3, sf=SizeFactors(np.ones(ds.n), "css"))
    state.mu0[:] = 800.0
    eng.attach(state)
    rng = np.random.default_rng(8)
    for _ in range(200):
        eng.step_mu0(state, rng)
    assert np.all(state.mu0 < 800.0), state.mu0


def _wide_dataset(p, seed):
    """Small counts with extra zeros, n=60 and 7 covariates, as in a wide fit."""
    counts, covs, groups, _, _ = generate_zinb(
        n=60, p=p, n_disc=20, n_covariates=7, m_active=4, pi_zero=0.3, phi=2.0,
        mu0_low=1.5, mu0_high=5.0, shift_size=1.5, seed=seed,
    )
    counts = filter_low_abundance(counts, groups)
    return validate_inputs(counts, standardize_covariates(covs), groups)


def test_warm_sweep_allocates_at_most_one_grid():
    # the moves write their proposals into the engine's scratch buffers;
    # what a sweep still allocates (index and accepted-column blocks,
    # per-feature vectors) stays below one (n, p) float64 grid
    ds = _wide_dataset(1000, seed=3)
    eng, state = _start(ds, 4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        eng.sweep(state, rng)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        eng.sweep(state, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= ds.n * ds.p * 8


def test_cache_shares_no_memory_with_the_scratch_buffers():
    ds = _three_group_dataset(98)
    eng, state = _start(ds, 14)
    rng = np.random.default_rng(15)

    def assert_apart():
        for cache in (eng.log_odds, eng.sp, eng.w, eng.active, eng.G):
            assert not np.shares_memory(cache, eng._scratch)

    assert_apart()
    for _ in range(5):
        eng.sweep(state, rng)
        assert_apart()
    eng.attach(state)
    assert_apart()
