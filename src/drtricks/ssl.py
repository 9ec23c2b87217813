"""Pseudo-labeling and reliable pseudo labeling (RPL).

Predictions on the unlabeled pool are bucketed per predicted class and
sorted by confidence. RPL selects a growing top fraction per bucket each
round, retrains a fresh model on labeled plus selected data, regenerates
pseudo labels with the newest model, and repeats for T rounds.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .data import DataError, Table, write_csv
from .models import (MLP, NUM_CLASSES, TrainConfig, derive_seed, fit, regressor_class,
                     round_half_away)


@dataclass
class RPLConfig:
    base: TrainConfig
    rounds: int = 5

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("need at least one round")


@dataclass(frozen=True)
class PseudoBuckets:
    """The pool ordered by predicted class, then descending confidence, then id:
    pool indices ``order`` with their ``confs``; class k's run ends at ``ends[k]``."""

    pool: Table
    order: np.ndarray
    confs: np.ndarray
    ends: np.ndarray


def confidence_regressor(raw) -> np.ndarray:
    """Negative distance of each raw output to its nearest integer."""
    raw = np.asarray(raw, dtype=np.float64)
    return -np.abs(round_half_away(raw) - raw)


def pseudo_label(model: MLP, unlabeled: Table) -> PseudoBuckets:
    """Assign each unlabeled sample a predicted class and confidence; a
    non-finite raw output raises FloatingPointError without a NumPy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = model.predict_scalar(unlabeled.features) if len(unlabeled) else np.zeros(0)
    if not np.isfinite(raw).all():
        raise FloatingPointError("non-finite model output")
    preds, confs = regressor_class(raw), confidence_regressor(raw)
    order = np.lexsort((unlabeled.ids, -confs, preds))
    return PseudoBuckets(unlabeled, order, confs[order],
                         np.cumsum(np.bincount(preds, minlength=NUM_CLASSES)))


def _runs(buckets: PseudoBuckets, t: int, rounds: int):
    """(class, start offset, bucket size, number taken) per class, in class order."""
    if not 1 <= t <= rounds:
        raise ValueError(f"round index {t} outside 1..{rounds}")
    ends = buckets.ends.tolist()
    for k, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
        yield k, start, end - start, (t * (end - start)) // rounds


def select_reliable(buckets: PseudoBuckets, t: int, rounds: int) -> Table:
    """The pool's top floor(t/T * bucket size) rows per class, labeled with the class."""
    runs = [(start, take) for _k, start, _size, take in _runs(buckets, t, rounds)]
    rows = np.concatenate([buckets.order[start:start + take] for start, take in runs])
    return buckets.pool.take(rows, np.repeat(np.arange(NUM_CLASSES), [take for _, take in runs]))


def _audit_rows(buckets: PseudoBuckets, t: int, rounds: int) -> list[list]:
    return [[t, k, size, take, repr(float(buckets.confs[start + take - 1])) if take else ""]
            for k, start, size, take in _runs(buckets, t, rounds)]


def rpl_train(
    labeled: Table,
    unlabeled: Table,
    cfg: RPLConfig,
    audit_path: Optional[Path | str] = None,
) -> MLP:
    """Reliable pseudo labeling: T rounds of select-and-retrain from scratch, each on
    the labeled rows then the selected pool rows; a DataError first if the two share an id."""
    if len(labeled) == 0:
        raise DataError("labeled set must be nonempty")
    shared = set(labeled.ids.tolist()).intersection(unlabeled.ids.tolist())
    if shared:
        raise DataError(f"sample id {min(shared)} is in both the labeled data "
                        "and the unlabeled pool")
    model = fit(labeled.task, labeled, replace(cfg.base, seed=derive_seed(cfg.base.seed, 0)))
    audit: list[list] = []
    if len(unlabeled) > 0:
        for t in range(1, cfg.rounds + 1):
            buckets = pseudo_label(model, unlabeled)
            selected = select_reliable(buckets, t, cfg.rounds)
            audit.extend(_audit_rows(buckets, t, cfg.rounds))
            combined = Table(labeled.task, np.concatenate((labeled.ids, selected.ids)),
                             np.concatenate((labeled.features, selected.features)),
                             np.concatenate((labeled.labels, selected.labels)))
            round_cfg = replace(cfg.base, seed=derive_seed(cfg.base.seed, t))
            model = fit(labeled.task, combined, round_cfg)
    if audit_path is not None:
        write_csv(audit_path, ["round", "class", "bucket_size", "selected", "min_conf_selected"],
                  audit)
    return model


def naive_pl_train(labeled: Table, unlabeled: Table, cfg: TrainConfig) -> MLP:
    """Single-round pseudo labeling keeping every pseudo label."""
    return rpl_train(labeled, unlabeled, RPLConfig(base=cfg, rounds=1))
