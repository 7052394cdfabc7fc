"""Binary classification metrics: accuracy, precision, recall, F1 and ROC
AUC, held flat beside the tp/fp/tn/fn counts in one EvalResult.

Both classes must be present, so recall's denominator is never zero. A
precision with no predicted positives is 0.0, and so is the F1 of a zero
precision and recall.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EvalResult:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int


def _check_binary(values: np.ndarray, what: str) -> None:
    if not np.isin(values, (0, 1)).all():
        raise ValueError(f"{what} must contain only 0 and 1")


def auc(labels, scores) -> float:
    """Area under the ROC curve by rank statistics.

    Equivalent to the fraction of (positive, negative) pairs the scores
    order correctly, with ties counting one half. Implemented with midranks
    so it runs in O(n log n). Raises ValueError when only one class is
    present.
    """
    y = np.asarray(labels).reshape(-1)
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if y.shape != s.shape:
        raise ValueError(f"labels ({y.shape[0]}) and scores ({s.shape[0]}) differ")
    _check_binary(y, "labels")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")

    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # Each run [first, last] of equal sorted scores gets its 1-based midrank.
    first = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    last = np.r_[first[1:], len(s)] - 1
    ranks = np.empty(s.shape[0], dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)

    pos_rank_sum = float(np.sum(ranks[y == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(labels, predictions) -> float:
    """The share of 0/1 predictions equal to their 0/1 labels. Unlike
    evaluate it takes no scores and accepts one class."""
    y = np.asarray(labels).reshape(-1)
    p = np.asarray(predictions).reshape(-1)
    if y.shape != p.shape:
        raise ValueError(f"labels ({y.shape[0]}) and predictions ({p.shape[0]}) differ")
    if not y.size:
        raise ValueError("accuracy needs at least one label")
    _check_binary(y, "labels")
    _check_binary(p, "predictions")
    return float(np.mean(y == p))


def evaluate(labels, predictions, scores) -> EvalResult:
    """Every figure of 0/1 predictions and their ranking scores against
    0/1 labels; `auc` checks the labels and scores, `accuracy` the
    predictions."""
    area, acc = auc(labels, scores), accuracy(labels, predictions)
    y, p = np.asarray(labels).reshape(-1), np.asarray(predictions).reshape(-1)
    tp = int(np.sum((y == 1) & (p == 1)))
    fp = int(np.sum((y == 0) & (p == 1)))
    tn = int(np.sum((y == 0) & (p == 0)))
    fn = int(np.sum((y == 1) & (p == 0)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn)
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalResult(accuracy=acc, precision=precision, recall=recall,
                      f1=f1, auc=area, tp=tp, fp=fp, tn=tn, fn=fn)
