import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from zinbreg.errors import DimensionMismatch, SingleClassTruth
from zinbreg.evaluate import confusion_counts, mcc, roc_auc, roc_points, score_run
from zinbreg.inference import PosteriorSummary
from zinbreg.simulate import SimTruth


def test_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    truth = np.array([1, 1, 0, 0])
    assert roc_auc(scores, truth) == 1.0
    assert roc_auc(-scores, truth) == 0.0


def test_auc_independent_scores_near_half():
    rng = np.random.default_rng(0)
    scores = rng.random(4000)
    truth = rng.integers(0, 2, size=4000)
    assert abs(roc_auc(scores, truth) - 0.5) < 0.03


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = 200
        scores = np.round(rng.random(m), 2)  # rounding forces ties
        truth = rng.integers(0, 2, size=m)
        if truth.sum() in (0, m):
            continue
        assert roc_auc(scores, truth) == pytest.approx(
            oracle.auc_pairs(scores, truth), abs=1e-12
        )


def test_auc_single_class_raises():
    with pytest.raises(SingleClassTruth):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=40), st.data())
def test_auc_invariant_under_monotone_transform(scores, data):
    # a coarse grid keeps exp() strictly increasing in floating point
    scores = np.round(np.array(scores), 2)
    truth = np.array(data.draw(
        st.lists(st.integers(0, 1), min_size=scores.size, max_size=scores.size)
    ))
    if truth.sum() in (0, truth.size):
        return
    base = roc_auc(scores, truth)
    assert roc_auc(3.0 * scores + 7.0, truth) == pytest.approx(base)
    assert roc_auc(np.exp(scores), truth) == pytest.approx(base)


def test_roc_points_endpoints_and_monotone():
    rng = np.random.default_rng(2)
    scores = rng.random(50)
    truth = rng.integers(0, 2, size=50)
    fpr, tpr = roc_points(scores, truth)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)


def test_mcc_perfect_and_inverted():
    truth = np.array([1, 1, 0, 0, 1])
    assert mcc(truth, truth) == 1.0
    assert mcc(1 - truth, truth) == -1.0


def test_mcc_worked_example():
    # TP=2, TN=3, FP=1, FN=1: (6-1)/sqrt(3*3*4*4) = 5/12
    selected = np.array([1, 1, 1, 0, 0, 0, 0])
    truth = np.array([1, 1, 0, 1, 0, 0, 0])
    assert confusion_counts(selected, truth) == (2, 3, 1, 1)
    assert mcc(selected, truth) == pytest.approx(5 / 12)


def test_mcc_zero_denominator_convention():
    assert mcc(np.zeros(4), np.array([0, 1, 0, 1])) == 0.0
    assert mcc(np.ones(4), np.array([0, 1, 0, 1])) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=30), st.data())
def test_mcc_symmetric_under_class_swap(sel, data):
    sel = np.array(sel)
    truth = np.array(data.draw(
        st.lists(st.integers(0, 1), min_size=sel.size, max_size=sel.size)
    ))
    assert mcc(sel, truth) == pytest.approx(mcc(1 - sel, 1 - truth))


def _summary(ppi_gamma, sel_gamma, ppi_delta, sel_delta):
    p = len(ppi_gamma)
    big_r = ppi_delta.shape[0]
    z = np.zeros(p)
    zk = np.zeros((2, p))
    return PosteriorSummary(
        ppi_gamma=np.asarray(ppi_gamma, dtype=float),
        ppi_delta=ppi_delta,
        selected_gamma=np.asarray(sel_gamma, dtype=bool),
        selected_delta=sel_delta.astype(bool),
        mu0_mean=z, mu_mean=zk, mu_lower=zk, mu_upper=zk,
        beta_mean=np.zeros((big_r, p)), phi_mean=z,
    )


def _truth(gamma, delta):
    gamma = np.asarray(gamma, dtype=np.int8)
    delta = np.asarray(delta, dtype=np.int8)
    p = gamma.size
    return SimTruth(
        gamma_true=gamma,
        delta_true=delta,
        mu0_true=np.zeros(p),
        mu2_true=np.zeros(p),
        beta_true=delta.astype(float),
        structural_zero_mask=np.zeros((2, p), dtype=np.int8),
    )


def test_score_run_exact_selection():
    gamma = np.array([1, 0, 1, 0])
    delta = np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=np.int8)
    summ = _summary(gamma.astype(float), gamma, delta.astype(float), delta)
    report = score_run(summ, _truth(gamma, delta))
    assert report.sensitivity == 1.0
    assert report.specificity == 1.0
    assert report.mcc == 1.0
    assert report.auc_gamma == 1.0
    assert report.fpr_delta == 0.0
    assert report.tp + report.tn + report.fp + report.fn == 4


def test_score_run_empty_selection():
    gamma = np.array([1, 0, 1, 0])
    delta = np.zeros((2, 4), dtype=np.int8)
    summ = _summary([0.3, 0.2, 0.4, 0.1], np.zeros(4), np.zeros((2, 4)), delta)
    report = score_run(summ, _truth(gamma, delta))
    assert report.sensitivity == 0.0
    assert report.fdr_empirical == 0.0
    assert math.isnan(report.auc_delta)  # all-null delta truth: single class
    assert report.fpr_delta == 0.0


def test_score_run_null_delta_fpr():
    gamma = np.array([1, 0, 1, 0])
    delta_truth = np.zeros((2, 4), dtype=np.int8)
    sel_delta = np.zeros((2, 4), dtype=np.int8)
    sel_delta[0, 0] = 1
    sel_delta[1, 2] = 1
    summ = _summary(gamma.astype(float), gamma, sel_delta.astype(float), sel_delta)
    report = score_run(summ, _truth(gamma, delta_truth))
    assert report.fpr_delta == pytest.approx(2 / 8)


def test_score_run_dimension_check():
    gamma = np.array([1, 0, 1, 0])
    delta = np.zeros((2, 4), dtype=np.int8)
    summ = _summary(gamma.astype(float), gamma, delta.astype(float), delta)
    with pytest.raises(DimensionMismatch):
        score_run(summ, _truth(np.array([1, 0]), np.zeros((2, 2), dtype=np.int8)))


def test_score_run_consistent_with_recount():
    rng = np.random.default_rng(4)
    gamma_truth = rng.integers(0, 2, size=30)
    sel = rng.integers(0, 2, size=30)
    delta = np.zeros((3, 30), dtype=np.int8)
    summ = _summary(rng.random(30), sel, np.zeros((3, 30)), delta)
    report = score_run(summ, _truth(gamma_truth, delta))
    tp = int(np.sum(sel & gamma_truth))
    fp = int(np.sum(sel & (1 - gamma_truth)))
    fn = int(np.sum((1 - sel) & gamma_truth))
    tn = 30 - tp - fp - fn
    assert (report.tp, report.tn, report.fp, report.fn) == (tp, tn, fp, fn)
    assert report.mcc == pytest.approx(mcc(sel, gamma_truth))
