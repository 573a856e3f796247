"""Scoring of feature selections against ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingleClassTruth
from .inference import PosteriorSummary
from .simulate import SimTruth

__all__ = [
    "roc_auc",
    "roc_points",
    "mcc",
    "confusion_counts",
    "ScoreReport",
    "score_run",
]


def _two_classes(scores, truth) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Scores as flat float64 and truth as flat bool, with the counts of
    positives and negatives; both classes must be present."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel().astype(bool)
    if scores.shape != truth.shape:
        raise DimensionMismatch("scores and truth must have the same length")
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassTruth("truth must contain both classes")
    return scores, truth, n_pos, n_neg


def _roc_counts(scores, truth) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The ROC sweep over the distinct score values, highest first: the
    true and false positive counts at each, from (0, 0), with the counts of
    positives and negatives."""
    scores, truth, n_pos, n_neg = _two_classes(scores, truth)
    order = np.argsort(-scores, kind="stable")
    # keep only the last point of each tied-score run
    last = np.append(scores[order][1:] != scores[order][:-1], True)
    tp = np.concatenate([[0], np.cumsum(truth[order])[last]])
    fp = np.concatenate([[0], np.cumsum(~truth[order])[last]])
    return tp, fp, n_pos, n_neg


def roc_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Area under the ROC curve: the Mann-Whitney ratio, a tied pair
    counting one half. The trapezoids of the sweep's integer counts sum to
    twice its numerator exactly, ``sum dfp*(tp_i + tp_(i-1))``, so the one
    division rounds the ratio correctly."""
    tp, fp, n_pos, n_neg = _roc_counts(scores, truth)
    return int(np.dot(np.diff(fp), tp[1:] + tp[:-1])) / (2 * n_pos * n_neg)


def roc_points(scores: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ROC coordinates (fpr, tpr) swept over the distinct score values,
    from (0, 0) to (1, 1)."""
    tp, fp, n_pos, n_neg = _roc_counts(scores, truth)
    return fp / n_neg, tp / n_pos


def confusion_counts(selected: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    """(TP, TN, FP, FN) of a binary selection against binary truth."""
    selected = np.asarray(selected).ravel().astype(bool)
    truth = np.asarray(truth).ravel().astype(bool)
    if selected.shape != truth.shape:
        raise DimensionMismatch("selection and truth must have the same length")
    tp = int(np.sum(selected & truth))
    tn = int(np.sum(~selected & ~truth))
    fp = int(np.sum(selected & ~truth))
    fn = int(np.sum(~selected & truth))
    return tp, tn, fp, fn


def mcc(selected: np.ndarray, truth: np.ndarray) -> float:
    """Matthews correlation coefficient; zero when any confusion margin is
    empty (the conventional value for a degenerate denominator)."""
    tp, tn, fp, fn = confusion_counts(selected, truth)
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return float((tp * tn - fp * fn) / math.sqrt(denom_sq))


@dataclass(frozen=True)
class ScoreReport:
    """Selection quality of one fit against one ground truth.

    The confusion block (tp/tn/fp/fn and the rates derived from it) scores
    the discriminating-feature calls; ``fpr_delta`` is the fraction of
    truly null feature-covariate pairs selected, and ``auc_delta`` is NaN
    when the truth contains a single class (e.g. an all-null design).
    """

    auc_gamma: float
    auc_delta: float
    mcc: float
    sensitivity: float
    specificity: float
    fdr_empirical: float
    fpr_delta: float
    tp: int
    tn: int
    fp: int
    fn: int


def _safe_auc(scores, truth) -> float:
    try:
        return roc_auc(scores, truth)
    except SingleClassTruth:
        return float("nan")


def score_run(summary: PosteriorSummary, truth: SimTruth) -> ScoreReport:
    """Score a posterior summary against the generating truth."""
    if summary.ppi_gamma.shape != truth.gamma_true.shape:
        raise DimensionMismatch(
            f"summary has {summary.ppi_gamma.shape[0]} features, "
            f"truth has {truth.gamma_true.shape[0]}"
        )
    if summary.ppi_delta.shape != truth.delta_true.shape:
        raise DimensionMismatch(
            f"summary delta block {summary.ppi_delta.shape} does not match "
            f"truth {truth.delta_true.shape}"
        )
    auc_gamma = _safe_auc(summary.ppi_gamma, truth.gamma_true)
    auc_delta = _safe_auc(summary.ppi_delta.ravel(), truth.delta_true.ravel())

    tp, tn, fp, fn = confusion_counts(summary.selected_gamma, truth.gamma_true)
    sensitivity = tp / (tp + fn) if (tp + fn) else float("nan")
    specificity = tn / (tn + fp) if (tn + fp) else float("nan")
    fdr_empirical = fp / (tp + fp) if (tp + fp) else 0.0

    null_delta = truth.delta_true.ravel() == 0
    sel_delta = np.asarray(summary.selected_delta).ravel().astype(bool)
    fpr_delta = (
        float(sel_delta[null_delta].mean()) if np.any(null_delta) else float("nan")
    )
    return ScoreReport(
        auc_gamma=auc_gamma,
        auc_delta=auc_delta,
        mcc=mcc(summary.selected_gamma, truth.gamma_true),
        sensitivity=float(sensitivity),
        specificity=float(specificity),
        fdr_empirical=float(fdr_empirical),
        fpr_delta=fpr_delta,
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
    )
