"""Evaluation metrics.

Binary-overlap scores (DSC, IoU), quadratic weighted kappa for ordinal
agreement, macro one-vs-rest AUC with rank-based tie handling, and accuracy.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import NUM_CLASSES


class UndefinedKappaError(ValueError):
    """Kappa is undefined when both marginals collapse to a single class."""


class MetricError(ValueError):
    pass


def confusion_matrix(truths: Sequence[int], preds: Sequence[int]) -> np.ndarray:
    """Counts with rows = truth, columns = prediction."""
    t = np.asarray(truths, dtype=int)
    p = np.asarray(preds, dtype=int)
    if t.shape != p.shape:
        raise MetricError("truths and predictions must have equal length")
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    np.add.at(cm, (t, p), 1)
    return cm


def dsc(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice similarity 2|P∩G| / (|P|+|G|); both-empty counts as 1."""
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gt).astype(bool)
    if p.shape != g.shape:
        raise MetricError("mask shapes must match")
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union; both-empty counts as 1."""
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gt).astype(bool)
    if p.shape != g.shape:
        raise MetricError("mask shapes must match")
    union = int((p | g).sum())
    if union == 0:
        return 1.0
    return int((p & g).sum()) / union


def mean_dsc(pred_channels: np.ndarray, gt_channels: np.ndarray) -> float:
    return float(np.mean([dsc(p, g) for p, g in zip(pred_channels, gt_channels)]))


def mean_iou(pred_channels: np.ndarray, gt_channels: np.ndarray) -> float:
    return float(np.mean([iou(p, g) for p, g in zip(pred_channels, gt_channels)]))


def qwk(cm: np.ndarray) -> float:
    """Quadratic weighted kappa from a confusion matrix."""
    o = np.asarray(cm, dtype=np.float64)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise MetricError("confusion matrix must be square")
    total = o.sum()
    if total <= 0:
        raise MetricError("confusion matrix must contain samples")
    c = o.shape[0]
    idx = np.arange(c)
    w = (idx[:, None] - idx[None, :]) ** 2 / (c - 1) ** 2
    e = np.outer(o.sum(axis=1), o.sum(axis=0)) / total
    denom = float((w * e).sum())
    if denom == 0.0:
        raise UndefinedKappaError("single class in both marginals")
    return 1.0 - float((w * o).sum()) / denom


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their ranks.

    Equal to ``scipy.stats.rankdata(x)``, NaN propagation included.
    """
    if np.isnan(x).any():
        return np.full(len(x), np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.r_[starts, len(x)])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2.0, counts)
    return ranks


def _binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-based AUC equal to the pairwise win rate with 0.5 tie credit."""
    ranks = _average_ranks(scores)
    n_pos = int(positives.sum())
    n_neg = len(scores) - n_pos
    rank_sum = float(ranks[positives].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_macro_ovr(scores: np.ndarray, truths: Sequence[int]) -> tuple[float, list[int]]:
    """Macro one-vs-rest AUC over evaluable classes.

    ``scores`` is (n, C): one real score per class per sample. Classes
    without both a positive and a negative are skipped; their indices are
    returned alongside the macro mean.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truths, dtype=int)
    if s.ndim != 2 or s.shape[0] != len(t):
        raise MetricError("scores must be (n_samples, n_classes)")
    aucs = []
    skipped = []
    for c in range(s.shape[1]):
        positives = t == c
        if positives.all() or not positives.any():
            skipped.append(c)
            continue
        aucs.append(_binary_auc(s[:, c], positives))
    if not aucs:
        raise MetricError("no class has both positive and negative samples")
    return float(np.mean(aucs)), skipped


def accuracy(preds: Sequence[int], truths: Sequence[int]) -> float:
    p = np.asarray(preds)
    t = np.asarray(truths)
    if p.shape != t.shape:
        raise MetricError("predictions and truths must have equal length")
    if p.size == 0:
        raise MetricError("cannot compute accuracy on empty input")
    return float((p == t).mean())
