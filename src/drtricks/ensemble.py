"""Deep ensembles and test-time augmentation.

All aggregation averages raw regressor outputs or soft masks, over a fixed
member and branch order, so results are bit-deterministic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .data import Dataset, Image
from .models import (MLP, CheckpointError, TrainConfig, TrainingDivergedError, fit,
                     load_checkpoint, save_checkpoint, seg_features, segment_soft)


@dataclass(frozen=True)
class Ensemble:
    members: tuple[MLP, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")
        if len({m.head for m in self.members}) != 1:
            raise ValueError("ensemble members must share a head type")
        if len(self.seeds) != len(self.members):
            raise ValueError("need one seed per member")


class EnsembleMemberError(RuntimeError):
    """A member's training failed numerically; ``index`` says which member."""

    def __init__(self, index: int, cause: Exception):
        super().__init__(f"member {index} failed: {cause}")
        self.index = index


def train_deep_ensemble(data: Dataset, cfg: TrainConfig, k: int = 5,
                        base_seed: int | None = None) -> Ensemble:
    """Train k independent members with seeds base, base+1, ..., base+k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    base = cfg.seed if base_seed is None else base_seed
    members = []
    seeds = []
    for i in range(k):
        seed = base + i
        try:
            members.append(fit(data.task, data, replace(cfg, seed=seed)))
        except (TrainingDivergedError, FloatingPointError) as exc:
            raise EnsembleMemberError(i, exc) from exc
        seeds.append(seed)
    return Ensemble(tuple(members), tuple(seeds))


def ensemble_predict(e: Ensemble, x) -> np.ndarray | float:
    """Arithmetic mean of member predictions, computed in member order.

    For pixel heads the image's ``seg_features`` are computed once and
    shared by every member, so each member costs one forward pass.
    """
    head = e.members[0].head
    if head == "pixel":
        v = _image_values(x)
        feats = seg_features(v)
        preds = [segment_soft(m, v, feats) for m in e.members]
    else:
        preds = [m.predict_scalar(np.atleast_2d(x)) for m in e.members]
        if np.asarray(x).ndim == 1:
            preds = [float(p[0]) for p in preds]
    out = preds[0]
    for p in preds[1:]:
        out = out + p
    return out / len(preds)


def member_variance(e: Ensemble, x) -> float:
    """Population variance of member predictions (scalar heads)."""
    vals = np.array([float(np.atleast_1d(m.predict_scalar(np.atleast_2d(x)))[0])
                     for m in e.members])
    return float(vals.var())


def _image_values(x) -> np.ndarray:
    return x.values if isinstance(x, Image) else np.asarray(x, dtype=np.float64)


def tta_flip_predict(predict_fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Flip TTA for dense predictions (..., H, W): flip, predict, flip back, average.

    Branches are {identity, horizontal flip, vertical flip}; each flipped
    branch's prediction is flipped back on the spatial axes before the mean.
    """
    v = _image_values(x)
    predict = lambda b: np.asarray(predict_fn(np.ascontiguousarray(b)), dtype=np.float64)
    preds = [predict(v), predict(v[:, ::-1])[..., :, ::-1], predict(v[::-1, :])[..., ::-1, :]]
    return sum(preds[1:], preds[0]) / len(preds)


def tta_rotate_seg(predict_fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Rotation TTA for soft masks: rotate, predict, inverse-rotate, average.

    Angle set {90, 180, 270, 360}; inputs must be square so rotations are
    exact pixel permutations.
    """
    v = _image_values(x)
    if v.shape[0] != v.shape[1]:
        raise ValueError("rotation TTA requires a square image")
    acc = None
    for k in (1, 2, 3, 4):
        rotated = np.ascontiguousarray(np.rot90(v, k))
        pred = np.asarray(predict_fn(rotated), dtype=np.float64)
        aligned = np.ascontiguousarray(np.rot90(pred, -k, axes=(1, 2)))
        acc = aligned if acc is None else acc + aligned
    return acc / 4.0


# ---------------------------------------------------------------------------
# manifest I/O
# ---------------------------------------------------------------------------

def save_ensemble(directory: Path | str, e: Ensemble, prefix: str = "member") -> Path:
    """Write member checkpoints plus a manifest listing paths and seeds."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (m, seed) in enumerate(zip(e.members, e.seeds)):
        name = f"{prefix}_{i}.ckpt"
        save_checkpoint(directory / name, m)
        entries.append({"path": name, "seed": seed})
    manifest = directory / "ensemble.json"
    manifest.write_text(json.dumps({"members": entries}, indent=2) + "\n")
    return manifest


def load_ensemble(manifest: Path | str) -> Ensemble:
    """Read a manifest and its member checkpoints; CheckpointError if malformed."""
    manifest = Path(manifest)
    try:
        entries = json.loads(manifest.read_text())["members"]
        paths = [manifest.parent / entry["path"] for entry in entries]
        seeds = tuple(int(entry["seed"]) for entry in entries)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{manifest}: malformed ensemble manifest ({exc!r})") from exc
    members = tuple(load_checkpoint(p) for p in paths)
    try:
        return Ensemble(members, seeds)
    except ValueError as exc:
        raise CheckpointError(f"{manifest}: {exc}") from exc
