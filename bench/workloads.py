"""The benchmark's workloads: inputs, the drtricks commands of one pass, and
the checks on every command's outputs.

Every command runs in this process through ``drtricks.cli.main``, one after
another (a closed loop with a single caller). Output checks use only the
standard library and NumPy, never drtricks itself.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer

TABULAR_ARMS = ["baseline", "+ensemble", "+pl", "+rpl", "+tta", "+post"]
CHANNELS = ("irma", "np", "nv")


@dataclass
class Dirs:
    inputs: Path  # generated once per run by the workload's set-up
    out: Path     # rewritten by every pass


class Session:
    """Runs drtricks commands and counts attempted and failed operations.

    A command fails when it exits non-zero, raises, or its output check
    returns an error message.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, tracer: Tracer, argv: list[str], check=None) -> bool:
        from drtricks import cli

        self.attempted += 1
        captured = io.StringIO()
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(captured):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is one failed operation, not the end of the run
                traceback.print_exc(file=sys.stderr)
                code = 1
        error = f"exit code {code}" if code != 0 else None
        if error is None and check is not None:
            try:
                error = check()
            except Exception as exc:  # missing or malformed outputs
                error = f"output check raised {exc!r}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"drtricks {' '.join(argv)}: {error}")
            print(captured.getvalue(), file=sys.stderr, end="")
            print(f"FAILED drtricks {' '.join(argv)}: {error}", file=sys.stderr)
        return error is None


def tree_digest(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {str(v).lower() if isinstance(v, bool) else v}"
                     for k, v in values.items())
    return "\n".join(lines) + "\n"


def _finite_in(value: float, lo: float, hi: float) -> bool:
    return math.isfinite(value) and lo <= value <= hi


# ---------------------------------------------------------------------------
# independent DSC from the written PGMs
# ---------------------------------------------------------------------------

def read_binary_pgm(path: Path) -> np.ndarray:
    """Positive pixels (>= 128) of a P5 file in the layout drtricks writes."""
    magic, size, maxval, body = path.read_bytes().split(b"\n", 3)
    width, height = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255" or len(body) != width * height:
        raise ValueError(f"{path}: unexpected PGM layout")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width) >= 128


def _dice(pred: np.ndarray, truth: np.ndarray) -> float:
    denom = int(pred.sum()) + int(truth.sum())
    return 1.0 if denom == 0 else 2.0 * int((pred & truth).sum()) / denom


def recompute_mean_dsc(dev_dir: Path, pred_dir: Path) -> float:
    """Mean over dev images of the mean per-channel Dice of the predictions."""
    with open(pred_dir / "predictions.csv", newline="") as fh:
        stems = {int(row["id"]): row["stem"] for row in csv.DictReader(fh)}
    with open(dev_dir / "index.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    scores = []
    for row in rows:
        truth_stem = Path(row["image"]).stem
        scores.append(np.mean([
            _dice(read_binary_pgm(pred_dir / f"{stems[int(row['id'])]}_{ch}.pgm"),
                  read_binary_pgm(dev_dir / f"{truth_stem}_{ch}.pgm"))
            for ch in CHANNELS]))
    return float(np.mean(scores))


def _report_value(path: Path, metric: str) -> float:
    values = {m["metric"]: m["value"] for m in json.loads(path.read_text())["metrics"]}
    return float(values[metric])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegWorkload:
    """`synth` inputs, then `train` -> `predict` -> `evaluate` each pass."""

    name: str
    n_train: int
    n_dev: int
    epochs: int
    ensemble_k: int
    augment: bool
    tta: str
    postprocess: bool
    lr: float = 0.2
    # predict_images_per_s: dev images per second of this span
    predict_span: str = "cli.predict"
    predict_counter: str = "predict_images"

    def _config(self, dirs: Dirs, with_dev: bool) -> str:
        data = {"train": dirs.inputs / "train"}
        if with_dev:
            data["dev"] = dirs.inputs / "dev"
        data["model"] = dirs.out / "model"
        data["predictions"] = dirs.out / "preds"
        return _ini({
            "run": {"task": "segmentation"},
            "data": data,
            "train": {"epochs": self.epochs, "lr": self.lr, "aux": "bce",
                      "augment": self.augment},
            "pipeline": {"ensemble_k": self.ensemble_k, "tta": self.tta,
                         "postprocess": self.postprocess},
        })

    def setup(self, session: Session, tracer: Tracer, dirs: Dirs, seed: int) -> bool:
        # `train` gets no dev set, so it writes no dev report of its own.
        (dirs.inputs / "train.ini").write_text(self._config(dirs, with_dev=False))
        (dirs.inputs / "run.ini").write_text(self._config(dirs, with_dev=True))
        ok = True
        for part, n, synth_seed, offset in (("train", self.n_train, 2 * seed, 0),
                                            ("dev", self.n_dev, 2 * seed + 1, 20_000)):
            target = dirs.inputs / part
            ok = ok and session.run(tracer, [
                "synth", "--task", "segmentation", "--n", str(n), "--seed", str(synth_seed),
                "--out", str(target), "--id-offset", str(offset)],
                check=lambda t=target, n=n: _check_rows(t / "index.csv", n))
        return ok

    def commands(self, dirs: Dirs, seed: int) -> list[list[str]]:
        train_ini, run_ini = str(dirs.inputs / "train.ini"), str(dirs.inputs / "run.ini")
        return [
            ["train", "--config", train_ini, "--seed", str(seed), "--out", str(dirs.out / "model")],
            ["predict", "--config", run_ini, "--seed", str(seed), "--out", str(dirs.out / "preds")],
            ["evaluate", "--config", run_ini, "--seed", str(seed), "--out", str(dirs.out / "eval")],
        ]

    def check(self, command: str, dirs: Dirs) -> str | None:
        if command == "train":
            manifest = json.loads((dirs.out / "model" / "ensemble.json").read_text())
            members = [dirs.out / "model" / m["path"] for m in manifest["members"]]
            if len(members) != self.ensemble_k or not all(p.is_file() for p in members):
                return f"expected {self.ensemble_k} member checkpoints"
        elif command == "predict":
            return _check_rows(dirs.out / "preds" / "predictions.csv", self.n_dev)
        elif command == "evaluate":
            report = dirs.out / "eval" / "report.json"
            reported = _report_value(report, "mean_dsc")
            iou = _report_value(report, "mean_iou")
            if not (_finite_in(reported, 0.0, 1.0) and _finite_in(iou, 0.0, 1.0)):
                return f"report values out of range: mean_dsc {reported}, mean_iou {iou}"
            recomputed = recompute_mean_dsc(dirs.inputs / "dev", dirs.out / "preds")
            if abs(recomputed - reported) > 1e-12:
                return f"report.json mean_dsc {reported!r} != recomputed {recomputed!r}"
        return None

    def dev_score(self, dirs: Dirs) -> float:
        return _report_value(dirs.out / "eval" / "report.json", "mean_dsc")


@dataclass(frozen=True)
class AblateWorkload:
    """One-seed `drtricks ablate` for the grading task each pass."""

    name: str
    n_labeled: int
    n_unlabeled: int
    split_ratio: float
    epochs: int
    ensemble_k: int
    rpl_rounds: int
    lr: float = 2e-3
    batch_size: int = 16
    # Inference on this workload is pseudo labeling of the unlabeled pool.
    predict_counter: str = "pooled"
    predict_span: str = "ssl.pseudo_label"

    def setup(self, session: Session, tracer: Tracer, dirs: Dirs, seed: int) -> bool:
        (dirs.inputs / "ablate.ini").write_text(_ini({
            "run": {"task": "grading"},
            "synth": {"n_labeled": self.n_labeled, "n_unlabeled": self.n_unlabeled,
                      "split_ratio": self.split_ratio},
            "train": {"epochs": self.epochs, "lr": self.lr, "batch_size": self.batch_size},
            "pipeline": {"ensemble_k": self.ensemble_k, "rpl_rounds": self.rpl_rounds},
        }))
        return True

    def commands(self, dirs: Dirs, seed: int) -> list[list[str]]:
        return [["ablate", "--config", str(dirs.inputs / "ablate.ini"),
                 "--seeds", str(seed), "--out", str(dirs.out / "ablation")]]

    def _rows(self, dirs: Dirs) -> list[dict]:
        with open(dirs.out / "ablation" / "ablation.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, command: str, dirs: Dirs) -> str | None:
        rows = self._rows(dirs)
        if [r["arm"] for r in rows] != TABULAR_ARMS or any(r["metric"] != "qwk" for r in rows):
            return "unexpected arms or metric in ablation.csv"
        for r in rows:
            mean, std = float(r["mean"]), float(r["stddev"])
            if not _finite_in(mean, -1.0, 1.0) or std != 0.0:
                return f"arm {r['arm']}: qwk mean {mean} / stddev {std} out of range"
        return None

    def dev_score(self, dirs: Dirs) -> float:
        return next(float(r["mean"]) for r in self._rows(dirs) if r["arm"] == "+rpl")


def _check_rows(path: Path, expected: int) -> str | None:
    with open(path, newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    return None if rows == expected else f"{path.name}: {rows} rows, expected {expected}"


# Paper shapes are kept: 64x64 images, 3 lesion channels, ensemble_k = 5,
# rpl_rounds = 5 and a 600-sample unlabeled pool. Only epochs and set
# sizes are scaled so one pass takes about 4-8 s on a 2-core machine.
WORKLOADS = {w.name: w for w in (
    SegWorkload(
        name="seg_pipeline",
        n_train=20, n_dev=80, epochs=40, ensemble_k=5, augment=False,
        tta="rotate", postprocess=True),
    AblateWorkload(
        name="grading_ablate",
        n_labeled=200, n_unlabeled=600, split_ratio=0.5, epochs=25,
        ensemble_k=5, rpl_rounds=5),
    SegWorkload(
        name="seg_augment",
        n_train=20, n_dev=80, epochs=45, ensemble_k=2, augment=True,
        tta="none", postprocess=False,
        # Plain inference is ~0.2 s per pass here, so writing 240 mask files
        # would set most of the `predict` time and its disk noise; time the
        # ensemble forward passes instead (the writes stay in wall_s).
        predict_span="ensemble.ensemble_predict"),
)}
