"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The sampler-based criteria use the desk-scale protocol (n=60, p=100,
10 discriminating features, noise 1.0, 40% extra zeros, 4 of 7 covariates
active, 2 chains x 5000 sweeps, 10 replicates); the full-scale study
(p=300, 100 replicates, 20000 sweeps) runs through the same code paths
via scripts/reference_study.py.
"""

import math
import time

import numpy as np
import pytest

import _oracles as oracle
from _zinb import generate_zinb
from conftest import make_counts, random_counts
from zinbreg.cli import _truth_grid, main
from zinbreg.data import (
    CovariateMatrix,
    GroupAssignment,
    Hyperparameters,
    ProposalScales,
    filter_low_abundance,
    standardize_covariates,
    validate_inputs,
)
from zinbreg.evaluate import roc_auc
from zinbreg.inference import bayesian_fdr_threshold, chain_concordance, summarize
from zinbreg.normalization import SizeFactors, estimate, estimate_css
from zinbreg.sampler import ChainConfig, run_chain, run_chains_parallel
from zinbreg.simulate import SimConfig, generate

HP = Hyperparameters()
SCALES = ProposalScales()

DESK = dict(n=60, p=100, n_disc=10, sigma_e=1.0, pi0=0.4,
            n_covariates=7, m_active=4)
DESK_CHAINS = 2
DESK_ITER = 5000
DESK_REPS = 10


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _fit(ds, n_chains, n_iter, seeds, max_workers=None):
    sf = estimate_css(ds.counts)
    configs = [ChainConfig(n_iter=n_iter, seed=s) for s in seeds[:n_chains]]
    traces = run_chains_parallel(ds, HP, SCALES, configs, size_factors=sf,
                                 max_workers=max_workers)
    return traces, summarize(traces, 0.05)


def _desk_replicate(sim_seed, fit_seed_base, m_active=None):
    kwargs = dict(DESK)
    if m_active is not None:
        kwargs["m_active"] = m_active
    counts, covs, groups, truth = generate(SimConfig(seed=sim_seed, **kwargs))
    kept = filter_low_abundance(counts, groups, 2, 2)
    ds = validate_inputs(kept, standardize_covariates(covs), groups)
    seeds = [fit_seed_base + i for i in range(DESK_CHAINS)]
    traces, summary = _fit(ds, DESK_CHAINS, DESK_ITER, seeds)
    # the PPIs and selections on the truth's grid, as sim-study scores them
    full = _truth_grid(
        counts.feature_ids, covs.covariate_ids,
        (kept.feature_ids, summary.ppi_gamma, summary.selected_gamma),
        (kept.feature_ids, covs.covariate_ids, summary.ppi_delta, summary.selected_delta),
    )
    return traces, full, truth


@pytest.fixture(scope="module")
def desk_runs():
    runs = []
    t0 = time.time()
    for rep in range(DESK_REPS):
        runs.append(_desk_replicate(sim_seed=1000 + rep, fit_seed_base=5000 + 10 * rep))
    elapsed = time.time() - t0
    print(f"\n[desk-scale reference: {DESK_REPS} replicates x {DESK_CHAINS} chains "
          f"x {DESK_ITER} sweeps in {elapsed / 60:.1f} min]")
    return runs


def test_criterion_1_prior_calibration():
    rng = np.random.default_rng(42)
    y = rng.integers(0, 6, size=(10, 10))
    y[rng.random((10, 10)) < 0.4] = 0
    y[:, y.sum(axis=0) == 0] = 1
    counts = make_counts(y)
    covs = standardize_covariates(
        CovariateMatrix(rng.standard_normal((10, 2)), ("c1", "c2"))
    )
    ds = validate_inputs(counts, covs, GroupAssignment(1 + np.arange(10) % 2, 2))
    # scales sized to the prior, not the data: the tunables are free and
    # the default data-scale walks cannot traverse a prior with s.d. 100
    # inside the stated budget
    scales = ProposalScales(tau_mu0=8.0, tau_mu=2.0, tau_beta=2.0, tau_phi=120.0)
    t0 = time.time()
    trace = run_chain(
        ds, HP, scales,
        ChainConfig(n_iter=52000, burn_in=2000, seed=3, prior_only=True),
    )
    elapsed = time.time() - t0
    t = trace.n_recorded
    e_gamma = trace.gamma_sums.sum() / (t * 10)
    e_delta = trace.delta_sums.sum() / (t * 20)
    # every sweep, burn-in included, redraws each zero cell's r from its prior
    e_r = trace.accept_counts["r"] / trace.proposal_counts["r"]
    e_phi = trace.phi_sum.sum() / (t * 10)
    e_mu0 = trace.mu0_sum.sum() / (t * 10)
    checks = {
        "E[gamma]": (abs(e_gamma - 0.1) < 0.02, f"{e_gamma:.4f} vs 0.1"),
        "E[delta]": (abs(e_delta - 0.4) < 0.02, f"{e_delta:.4f} vs 0.4"),
        "E[r|y=0]": (abs(e_r - 0.5) < 0.02, f"{e_r:.4f} vs 0.5"),
        "E[phi]": (abs(e_phi - 100.0) < 10.0, f"{e_phi:.2f} vs 100"),
        "E[mu0]": (abs(e_mu0) < 1.0, f"{e_mu0:.3f} vs 0"),
        "runtime": (elapsed < 120.0, f"{elapsed:.0f}s < 120s"),
    }
    ok = all(flag for flag, _ in checks.values())
    detail = "; ".join(f"{k} {msg}" for k, (_, msg) in checks.items())
    _report(1, ok, f"prior-only calibration over 50k sweeps: {detail}")


def test_criterion_2_desk_scale_reference(desk_runs):
    aucs_g, aucs_d = [], []
    for _, full, truth in desk_runs:
        aucs_g.append(roc_auc(full.ppi_gamma, truth.gamma_true))
        aucs_d.append(roc_auc(full.ppi_delta.ravel(), truth.delta_true.ravel()))
    mean_g, mean_d = float(np.mean(aucs_g)), float(np.mean(aucs_d))
    ok = mean_g >= 0.95 and mean_d >= 0.85
    _report(
        2, ok,
        f"desk-scale reference over {DESK_REPS} replicates: "
        f"mean AUC(gamma) = {mean_g:.4f} (>= 0.95), "
        f"mean AUC(delta) = {mean_d:.4f} (>= 0.85)",
    )


def test_criterion_2b_acceptance_rates_sane(desk_runs):
    # guards degenerate proposal scales on the reference simulation
    rates = {m: [] for m in ("mu0", "mu_within", "beta_within", "phi")}
    for traces, *_ in desk_runs:
        for tr in traces:
            for m in rates:
                rates[m].append(tr.accept_counts[m] / tr.proposal_counts[m])
    bad = {m: (min(v), max(v)) for m, v in rates.items()
           if not all(0.05 < r < 0.95 for r in v)}
    detail = "; ".join(
        f"{m} in [{min(v):.2f}, {max(v):.2f}]" for m, v in rates.items()
    )
    _report("2b", not bad, f"within-model acceptance rates on the reference runs: {detail}")


def test_criterion_3_null_delta_false_positive_control():
    fractions = []
    for rep in range(DESK_REPS):
        _, full, _ = _desk_replicate(
            sim_seed=3000 + rep, fit_seed_base=7000 + 10 * rep, m_active=0
        )
        fractions.append(full.selected_delta.mean())
    mean_frac = float(np.mean(fractions))
    ok = mean_frac <= 0.05 + 0.03
    _report(
        3, ok,
        f"all-null covariate design over {DESK_REPS} replicates: mean fraction of "
        f"delta selected at 5% Bayesian FDR = {mean_frac:.4f} (<= 0.08)",
    )


def test_criterion_4_chain_concordance():
    counts, covs, groups, _ = generate(SimConfig(seed=4000, **DESK))
    kept = filter_low_abundance(counts, groups, 2, 2)
    ds = validate_inputs(kept, standardize_covariates(covs), groups)
    traces, _ = _fit(ds, 4, DESK_ITER, [9001, 9002, 9003, 9004])
    report = chain_concordance(traces, floor=0.95)
    off_diag = report.corr_gamma[np.triu_indices(4, k=1)]
    ok = bool(np.all(off_diag >= 0.95))
    _report(
        4, ok,
        f"4-chain desk-scale run: pairwise gamma-PPI correlations in "
        f"[{off_diag.min():.4f}, {off_diag.max():.4f}] (all >= 0.95)",
    )


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(50)
    fdr_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 60))
        ppis = np.round(rng.random(m), int(rng.integers(1, 5)))
        target = float(rng.uniform(0.01, 0.5))
        if not np.array_equal(
            bayesian_fdr_threshold(ppis, target), oracle.fdr_scan(ppis, target)
        ):
            fdr_ok = False
            break

    auc_ok = True
    for _ in range(100):
        m = int(rng.integers(10, 120))
        scores = np.round(rng.random(m), 2)
        truth = rng.integers(0, 2, size=m)
        if truth.sum() in (0, m):
            truth[0] = 1 - truth[0]
        if abs(roc_auc(scores, truth) - oracle.auc_pairs(scores, truth)) > 1e-12:
            auc_ok = False
            break

    norm_ok = True
    references = {
        "css": oracle.css_factors,
        "q75": oracle.q75_factors,
        "gmpr": oracle.gmpr_factors,
        "rle": oracle.rle_factors,
    }
    for i in range(50):
        counts = random_counts(rng, 6, 40, high=100)
        for method, ref in references.items():
            ours = estimate(counts, method).values
            theirs = np.asarray(ref(counts.counts))
            if np.max(np.abs(ours - theirs)) > 1e-10:
                norm_ok = False
                break
        if not norm_ok:
            break

    ok = fdr_ok and auc_ok and norm_ok
    _report(
        5, ok,
        f"oracle equivalences: FDR scan x1000 {'ok' if fdr_ok else 'MISMATCH'}, "
        f"AUC pair-count x100 {'ok' if auc_ok else 'MISMATCH'}, "
        f"size factors x50 matrices {'ok' if norm_ok else 'MISMATCH'}",
    )


def test_criterion_6_likelihood_correctness():
    zinb_ok = True
    worst = 0.0
    for pi in (0.0, 0.3, 0.7):
        for lam in (0.5, 5.0, 50.0):
            for phi in (0.1, 1.0, 100.0):
                ymax = int(lam + 400 * math.sqrt(lam + lam**2 / phi) + 400)
                ys = np.arange(0, ymax)
                total = float(np.exp(oracle.zinb_log_pmf(ys, pi, lam, phi)).sum())
                worst = max(worst, abs(total - 1.0))
                if abs(total - 1.0) > 1e-6:
                    zinb_ok = False

    poisson_ok = True
    worst_tv = 0.0
    from scipy.stats import poisson

    for lam in (1.0, 5.0, 20.0):
        ys = np.arange(0, 400)
        diff = np.abs(np.exp(oracle.nb_log_pmf(ys, lam, 1000.0)) - poisson.pmf(ys, lam))
        worst_tv = max(worst_tv, float(diff.max()))
        if diff.max() > 1e-3:
            poisson_ok = False

    ok = zinb_ok and poisson_ok
    _report(
        6, ok,
        f"likelihood correctness: ZINB normalization worst |1-sum| = {worst:.2e} "
        f"(<= 1e-6); NB-vs-Poisson(phi=1000) worst pointwise distance = "
        f"{worst_tv:.2e} (<= 1e-3)",
    )


def test_criterion_7_parameter_recovery():
    good = 0
    details = []
    for seed in range(10):
        counts, covs, groups, truth, _ = generate_zinb(
            n=200, p=20, n_disc=10, n_covariates=4, m_active=2,
            pi_zero=0.2, phi=10.0, seed=seed,
        )
        ds = validate_inputs(counts, standardize_covariates(covs), groups)
        sf = SizeFactors(np.ones(ds.n), "css")
        trace = run_chain(
            ds, HP, SCALES, ChainConfig(n_iter=3000, seed=seed + 500), size_factors=sf
        )
        summary = summarize([trace], 0.05)
        disc = truth.gamma_true == 1
        mu_err = float(np.abs(summary.mu_mean[1, disc] - truth.mu2_true[disc]).max())
        strong = summary.selected_delta & (np.abs(truth.beta_true) >= 0.5)
        signs_ok = bool(
            np.all(np.sign(summary.beta_mean[strong]) == np.sign(truth.beta_true[strong]))
        )
        if mu_err <= 0.5 and signs_ok:
            good += 1
        details.append(f"{mu_err:.2f}{'' if signs_ok else '!'}")
    ok = good >= 9
    _report(
        7, ok,
        f"exact-model recovery: {good}/10 seeds with every mu2 within 0.5 of truth "
        f"and all selected-effect signs agreeing (max errors per seed: {', '.join(details)})",
    )


def test_criterion_8_byte_identical_reruns(tmp_path, monkeypatch):
    sim_args = [
        "simulate", "--n", "20", "--p", "24", "--n-disc", "4",
        "--n-covariates", "3", "--m-active", "2",
        "--total-min", "100000", "--total-max", "200000",
        "--pi0", "0.3", "--sim-seed", "77",
    ]
    fit_args = [
        "fit", "--counts", "counts.csv", "--covariates", "covariates.csv",
        "--groups", "groups.csv", "--out", "res", "--chains", "2",
        "--iterations", "400", "--seed", "11", "--threads", "2", "--trace-dump",
    ]
    outputs = [
        "ppi_gamma.csv", "ppi_delta.csv", "posterior_summary.csv",
        "convergence.csv", "size_factors.csv", "run_config.resolved",
        "trace_chain0.csv", "trace_chain1.csv",
    ]
    for d in ("run1", "run2"):
        work = tmp_path / d
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(sim_args + ["--out", "."]) == 0
        assert main(fit_args) in (0, 3)
    mismatched = [
        name for name in outputs
        if (tmp_path / "run1" / "res" / name).read_bytes()
        != (tmp_path / "run2" / "res" / name).read_bytes()
    ]
    ok = not mismatched
    _report(
        8, ok,
        "identical config and seeds reproduce byte-identical outputs under "
        f"parallel chain execution ({len(outputs)} files compared"
        + (f"; mismatches: {mismatched}" if mismatched else "")
        + ")",
    )
