import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from conftest import small_dataset
from zinbreg.data import Hyperparameters, ProposalScales
from zinbreg.errors import EmptyTrace
from zinbreg.inference import (
    bayesian_fdr_threshold,
    chain_concordance,
    compute_ppi,
    summarize,
)
from zinbreg.sampler import ChainConfig, run_chain, run_chains_parallel


HP = Hyperparameters()
SCALES = ProposalScales()


def _traces(n_chains=2, n_iter=60, burn_in=30, ds=None):
    ds = ds or small_dataset(seed=8)
    configs = [ChainConfig(n_iter=n_iter, burn_in=burn_in, seed=100 + i) for i in range(n_chains)]
    return ds, run_chains_parallel(ds, HP, SCALES, configs, max_workers=1)


def test_compute_ppi_all_ones():
    ds, traces = _traces(1)
    t = traces[0]
    t.gamma_sums[:] = t.n_recorded
    ppi, _ = compute_ppi([t])
    np.testing.assert_array_equal(ppi, np.ones_like(ppi))


def test_compute_ppi_pools_equal_length_chains():
    ds, traces = _traces(2)
    a, b = traces
    pooled, _ = compute_ppi([a, b])
    averaged = 0.5 * (a.ppi_gamma() + b.ppi_gamma())
    np.testing.assert_allclose(pooled, averaged, atol=1e-12)
    reordered, _ = compute_ppi([b, a])
    np.testing.assert_array_equal(pooled, reordered)


def test_compute_ppi_two_chain_arithmetic():
    ds, traces = _traces(2)
    a, b = traces
    a.gamma_sums[:] = int(0.2 * a.n_recorded)
    b.gamma_sums[:] = int(0.4 * b.n_recorded)
    ppi, _ = compute_ppi([a, b])
    np.testing.assert_allclose(ppi, 0.3, atol=1e-12)


def test_compute_ppi_requires_traces():
    with pytest.raises(EmptyTrace):
        compute_ppi([])


def test_fdr_threshold_worked_example():
    # complements (0.01, 0.02, 0.50): prefix means 0.01, 0.015, 0.51/3
    sel = bayesian_fdr_threshold(np.array([0.99, 0.98, 0.50]), 0.05)
    assert sel.selected.tolist() == [True, True, False]
    assert sel.threshold == pytest.approx(0.98)
    assert sel.fdr == pytest.approx(0.015)


def test_fdr_threshold_all_ones_selects_all():
    sel = bayesian_fdr_threshold(np.ones(5), 0.05)
    assert sel.n_selected == 5
    assert sel.fdr == 0.0


def test_fdr_threshold_all_zeros_selects_none():
    sel = bayesian_fdr_threshold(np.zeros(5), 0.05)
    assert sel.empty
    assert sel.threshold == np.inf


def test_fdr_threshold_tie_handling_strict():
    # complements (0.01, 0.1, 0.1, 0.8): the tied 0.9 entries enter together
    # (prefix mean 0.07) or not at all; the strict cutoff cannot split them
    ppis = np.array([0.99, 0.9, 0.9, 0.2])
    sel = bayesian_fdr_threshold(ppis, 0.06)
    assert sel.selected.tolist() == [True, False, False, False]
    sel2 = bayesian_fdr_threshold(ppis, 0.08)
    assert sel2.selected.tolist() == [True, True, True, False]
    assert sel2.fdr == pytest.approx(0.07)


def test_fdr_threshold_matches_bruteforce_scan():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        ppis = np.round(rng.random(m), int(rng.integers(1, 4)))
        target = float(rng.uniform(0.01, 0.3))
        ours = bayesian_fdr_threshold(ppis, target).selected
        np.testing.assert_array_equal(ours, oracle.fdr_scan(ppis, target))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0, 1), min_size=1, max_size=30),
    st.floats(0.01, 0.4),
    st.floats(0.01, 0.4),
)
def test_fdr_monotone_in_target(ppis, t1, t2):
    ppis = np.array(ppis)
    lo, hi = sorted((t1, t2))
    sel_lo = bayesian_fdr_threshold(ppis, lo).selected
    sel_hi = bayesian_fdr_threshold(ppis, hi).selected
    assert np.all(sel_hi | ~sel_lo)  # raising the target never drops items


def test_fdr_selected_set_equals_threshold_rule():
    rng = np.random.default_rng(6)
    for _ in range(100):
        ppis = rng.random(25)
        sel = bayesian_fdr_threshold(ppis, 0.1)
        np.testing.assert_array_equal(sel.selected, ppis >= sel.threshold)


def test_summarize_single_draw_degenerate_intervals():
    ds, traces = _traces(1, n_iter=11, burn_in=10)
    summ = summarize(traces, 0.05)
    np.testing.assert_allclose(summ.mu_lower, summ.mu_mean, atol=1e-6)
    np.testing.assert_allclose(summ.mu_upper, summ.mu_mean, atol=1e-6)
    assert sum(t.n_recorded for t in traces) == 1


def test_summarize_interval_brackets_mean_on_strong_signal():
    from zinbreg.data import validate_inputs
    from zinbreg.normalization import SizeFactors
    from zinbreg.simulate import generate_zinb

    counts, covs, groups, truth = generate_zinb(
        n=60, p=10, n_disc=4, pi_zero=0.15, phi=10.0, seed=9
    )
    ds = validate_inputs(counts, covs, groups)
    sf = SizeFactors(np.ones(ds.n), "css")
    traces = [
        run_chain(ds, HP, SCALES, ChainConfig(n_iter=800, seed=s), size_factors=sf)
        for s in (1, 2)
    ]
    summ = summarize(traces, 0.05)
    assert np.all(summ.mu_lower <= summ.mu_upper + 1e-9)
    disc = truth.gamma_true == 1
    assert np.all(summ.mu_lower[1, disc] <= summ.mu_mean[1, disc] + 1e-6)
    assert np.all(summ.mu_mean[1, disc] <= summ.mu_upper[1, disc] + 1e-6)
    assert np.all((summ.ppi_gamma >= 0) & (summ.ppi_gamma <= 1))
    assert np.all((summ.ppi_delta >= 0) & (summ.ppi_delta <= 1))


def test_summarize_reference_row_pinned():
    ds, traces = _traces(1, n_iter=40, burn_in=20)
    summ = summarize(traces, 0.05)
    np.testing.assert_array_equal(summ.mu_mean[0], np.zeros(ds.p))
    np.testing.assert_array_equal(summ.mu_lower[0], np.zeros(ds.p))


def test_concordance_identical_chains():
    ds, traces = _traces(1, n_iter=80, burn_in=40)
    report = chain_concordance([traces[0], traces[0]], floor=0.95)
    assert report.corr_gamma[0, 1] == pytest.approx(1.0)
    assert report.converged


def test_concordance_degenerate_chain_flagged():
    ds, traces = _traces(2, n_iter=40, burn_in=20)
    a, b = traces
    a.gamma_sums[:] = a.n_recorded  # constant PPI vector
    report = chain_concordance([a, b], floor=0.5)
    assert 0 in report.degenerate_gamma
    assert np.isnan(report.corr_gamma[0, 1])
    assert not report.converged


def test_concordance_requires_two_chains():
    ds, traces = _traces(1)
    with pytest.raises(ValueError):
        chain_concordance(traces)
