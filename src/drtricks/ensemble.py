"""Deep ensembles and test-time augmentation.

All aggregation averages raw regressor outputs or soft masks, over a fixed
member and branch order, so results are bit-deterministic.
"""
from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .data import Dataset, Image
from .models import (MLP, CheckpointError, TrainConfig, TrainingDivergedError, fit,
                     load_checkpoint, save_checkpoint, seg_features, segment_soft)

T = TypeVar("T")


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
    """A member's training failed numerically; ``index`` says which member,
    and ``arm``, when set, which of several ensembles it belongs to.

    ``args`` is ``(index, message, arm)``, so the error survives a pickle
    round trip from a worker process.
    """

    def __init__(self, index: int, cause: Exception | str, arm: str = ""):
        super().__init__(index, str(cause), arm)
        self.index = index

    def __str__(self) -> str:
        index, message, arm = self.args
        return f"{arm + ' ' if arm else ''}member {index} failed: {message}"


def _outcome(task: Callable[[int], T], i: int, indices: int) -> tuple:
    """``(i, True, result)`` of member i, or ``(i, False, exception)`` if it
    fails, a numerical failure as ``EnsembleMemberError``; a failure first
    moves the index file ``indices`` to its end, so that no worker starts
    another member."""
    try:
        try:
            return i, True, task(i)
        except (TrainingDivergedError, FloatingPointError) as exc:
            raise EnsembleMemberError(i, exc) from exc
    except Exception as exc:
        os.lseek(indices, 0, os.SEEK_END)
        return i, False, exc


def _next_index(fd: int) -> int | None:
    """The next member index from the index file ``fd``; None at its end.

    Every worker reads through the one open file description that ``fd``
    names. For a regular file made by ``open(2)``, ``read(2)`` moves that
    shared offset atomically across processes (since Linux 3.14), so each
    4-byte read takes a different index, in order. A memfd is not made by
    ``open(2)`` and gets no such lock: two workers can read one index.
    """
    data = os.read(fd, 4)
    return int.from_bytes(data, "little") if data else None


def _serve(task: Callable[[int], T], indices: int, cpu: int, out) -> None:
    """A forked worker: take member indices from the file ``indices`` until
    it ends, and append the pickle of ``(i, True, result)`` for each to its
    own file ``out``, or of ``(i, False, exception)`` for the first that
    fails, then stop.

    The worker never returns: ``os._exit`` ends the child without unwinding
    into the caller's stack or flushing the stdio buffers it inherited.
    """
    code = 1
    try:
        os.sched_setaffinity(0, {cpu})
        while (i := _next_index(indices)) is not None:
            outcome = _outcome(task, i, indices)
            out.write(pickle.dumps(outcome))
            out.flush()
            if not outcome[1]:
                break
        code = 0
    finally:
        os._exit(code)


def map_members(task: Callable[[int], T], n: int) -> list[T]:
    """``[task(i) for i in range(n)]``, the members spread over one process per CPU.

    There are as many workers as CPUs this process may run on, at most
    ``n``; restrict the affinity (``taskset -c 0``) for fewer. Members are
    handed out on demand, in index order: the calling process trains member
    0, and every worker, the caller too, reads the next index from one
    shared file whenever it is free, so a caller that orders its members
    costliest first keeps every worker busy to the end. The other workers
    are ``os.fork`` children, which inherit the datasets, the task and the
    file's one offset, so only their results are pickled, each into an
    unlinked file of its worker's own that the caller reads once that
    worker has ended. Each worker is pinned to its own CPU, the caller to
    the first one until the map returns: left unpinned, a child could share
    the caller's CPU and run both at half speed. With one CPU nothing is
    forked.

    A member that fails numerically raises ``EnsembleMemberError`` with its
    index; any other error is raised as it is. The worker of a failing
    member moves the shared offset to the end, so no worker starts another
    member. Every member below it has started already, and the failure
    raised is that of the lowest failing member, as in a sequential loop.
    Unless the caller itself failed with every lower member done, it waits
    for every worker to end, so a failure also waits for a higher member
    that a worker holds: at most one per worker. Every child is killed and
    reaped before this returns or raises.
    """
    import signal
    import tempfile

    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    outcomes = {}  # member index -> (True, result) or (False, exception)
    index_file = tempfile.TemporaryFile()
    indices = index_file.fileno()
    pids, outs = [], []  # the children not yet reaped, and the file of each child
    try:
        index_file.write(np.arange(1, n, dtype="<u4").tobytes())
        index_file.seek(0)
        for w in range(1, min(len(cpus), n)):
            outs.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _serve(task, indices, cpus[w], outs[-1])
            pids.append(pid)
        if pids:
            os.sched_setaffinity(0, {cpus[0]})

        i = 0 if n else None
        while i is not None:
            i, ok, value = _outcome(task, i, indices)
            outcomes[i] = ok, value
            i = _next_index(indices)
        lowest = lambda: min((j for j, (ok, _v) in outcomes.items() if not ok), default=n)
        if any(j not in outcomes for j in range(lowest())):
            while pids:  # a worker holds a member that decides the map
                os.waitpid(pids[-1], 0)
                pids.pop()
            for out in outs:
                out.seek(0)
                try:
                    while True:
                        j, ok, value = pickle.load(out)
                        outcomes[j] = ok, value
                except (EOFError, pickle.UnpicklingError):
                    pass  # the file's end, or a record cut short by its worker's death
        failed = lowest()
        for j in range(failed):
            if j not in outcomes:
                raise RuntimeError(f"a worker ended without the result of member {j}")
        if failed < n:
            raise outcomes[failed][1]
        return [outcomes[j][1] for j in range(n)]
    finally:
        os.sched_setaffinity(0, mask)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in (index_file, *outs):
            f.close()


def train_deep_ensemble(data: Dataset, cfg: TrainConfig, k: int = 5,
                        base_seed: int | None = None) -> Ensemble:
    """Train k independent members with seeds base, base+1, ..., base+k-1.

    The members are trained by ``map_members``; the result does not depend
    on how many CPUs it spreads them over.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = cfg.seed if base_seed is None else base_seed
    seeds = tuple(base + i for i in range(k))
    # ``fit`` is looked up when each member starts, so a wrapper installed
    # on this module's binding sees every fit the caller runs.
    members = map_members(lambda i: fit(data.task, data, replace(cfg, seed=seeds[i])), k)
    return Ensemble(tuple(members), seeds)


def ensemble_predict(e: Ensemble, x) -> np.ndarray:
    """Arithmetic mean of member predictions, summed in member order into the
    first member's fresh output; for pixel heads a contiguous (3, H, W).

    For pixel heads the image's ``seg_features`` are computed once and
    shared by every member, so each member costs one forward pass.
    """
    if e.members[0].head == "pixel":
        v = _image_values(x)
        feats = seg_features(v)
        predict = lambda m: segment_soft(m, v, feats)
    else:
        x = np.atleast_2d(x)
        predict = lambda m: m.predict_scalar(x)
    out = predict(e.members[0])
    for m in e.members[1:]:
        out += predict(m)
    out /= len(e.members)
    return out


def _image_values(x) -> np.ndarray:
    return x.values if isinstance(x, Image) else np.asarray(x, dtype=np.float64)


def tta_flip_predict(predict_fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Flip TTA for dense predictions (..., H, W): flip, predict, flip back, average.

    Branches are {identity, horizontal flip, vertical flip}; each flipped
    branch's prediction is flipped back on the spatial axes before the mean.
    """
    v = _image_values(x)
    predict = lambda b: np.asarray(predict_fn(np.ascontiguousarray(b)), dtype=np.float64)
    acc = np.array(predict(v), order="C")  # a copy: never write into predict_fn's array
    acc += predict(v[:, ::-1])[..., :, ::-1]
    acc += predict(v[::-1, :])[..., ::-1, :]
    acc /= 3
    return acc


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
        aligned = np.rot90(np.asarray(predict_fn(rotated), dtype=np.float64), -k, axes=(1, 2))
        if acc is None:  # a C-order copy: never write into predict_fn's array
            acc = np.array(aligned, order="C")
        else:
            acc += aligned
    acc /= 4.0
    return acc


# ---------------------------------------------------------------------------
# manifest I/O
# ---------------------------------------------------------------------------

def save_ensemble(directory: Path | str, e: Ensemble) -> Path:
    """Write member checkpoints ``member_<i>.ckpt`` plus a manifest listing
    paths and seeds."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (m, seed) in enumerate(zip(e.members, e.seeds)):
        name = f"member_{i}.ckpt"
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
        seeds = tuple(entry["seed"] for entry in entries)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{manifest}: malformed ensemble manifest ({exc!r})") from exc
    for seed in seeds:
        if type(seed) is not int:  # a JSON float or boolean is no seed
            raise CheckpointError(f"{manifest}: member seed {seed!r} is not an integer")
    for path in paths:
        if "\0" in str(path):
            raise CheckpointError(f"{manifest}: member path {str(path)!r} holds a NUL byte")
    members = tuple(load_checkpoint(p) for p in paths)
    try:
        return Ensemble(members, seeds)
    except ValueError as exc:
        raise CheckpointError(f"{manifest}: {exc}") from exc
