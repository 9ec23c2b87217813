"""Command-line entry point.

Subcommands: ``synth`` (generate datasets), ``train`` (supervised single
model or deep ensemble), ``rpl`` (reliable pseudo labeling), ``predict``
(ensemble averaging -> TTA -> rounding/binarization -> post-processing,
each toggleable), ``evaluate`` (metrics report), and ``ablate`` (the
incremental trick-by-trick comparison averaged over a seed list).

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as dd
from .augment import build_pipeline
from .config import ConfigError, RunConfig, load_config
from .ensemble import (Ensemble, EnsembleMemberError, ensemble_predict,
                       load_ensemble, save_ensemble, train_deep_ensemble,
                       tta_flip_predict, tta_rotate_seg)
from .metrics import (MetricError, MetricsReport, UndefinedKappaError, accuracy,
                      confusion_matrix, mean_dsc, mean_iou, qwk,
                      write_report_csv, write_report_json)
from .models import (SEG_FEATURE_DIM, CheckpointError, TrainingDivergedError,
                     derive_seed, fit, load_checkpoint, regressor_class,
                     save_checkpoint, segment_soft)
from .postprocess import postprocess_masks, quality_decision
from .ssl import RPLConfig, naive_pl_train, rpl_train


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _require(value, what: str):
    if value is None:
        raise ConfigError(f"this command needs {what} in the config file")
    return value


def _load_tabular(path: str, task: str) -> dd.Dataset:
    return dd.read_dataset_csv(path, task)


def _load_data(cfg: RunConfig, path: str) -> dd.Dataset:
    if cfg.task == "segmentation":
        return dd.read_seg_dataset(path)
    return _load_tabular(path, cfg.task)


def _aug_or_none(cfg: RunConfig):
    return build_pipeline() if cfg.augment else None


def _load_model_or_ensemble(path: str) -> Ensemble:
    """Load a single checkpoint or an ensemble manifest as an Ensemble."""
    p = Path(path)
    if p.is_dir():
        p = p / "ensemble.json"
    if p.suffix == ".json":
        return load_ensemble(p)
    return Ensemble((load_checkpoint(p),), (0,))


def _check_model_fits(ens: Ensemble, cfg: RunConfig, data: dd.Dataset) -> None:
    """ConfigError unless every member's head and input width fit the task's data."""
    if cfg.task == "segmentation":
        head, width = "pixel", SEG_FEATURE_DIM
    elif data.feature_dim is None:
        raise dd.DataError("the input CSV holds no samples")
    else:
        head, width = "scalar", data.feature_dim
    for m in ens.members:
        if m.head != head or m.dims[0] != width:
            raise ConfigError(
                f"the model has a {m.head} head over {m.dims[0]} inputs; "
                f"task {cfg.task} on this data needs a {head} head over {width}")


def _pipeline_description(cfg: RunConfig, k: int) -> str:
    stages = [f"ensemble({k})" if k > 1 else "single"]
    stages.append(f"tta({cfg.tta})" if cfg.tta != "none" else "tta(off)")
    stages.append("binarize" if cfg.task == "segmentation" else "round")
    stages.append("post" if cfg.postprocess else "post(off)")
    return " -> ".join(stages)


def _predict_soft_masks(ens: Ensemble, image: dd.Image, tta: str) -> np.ndarray:
    predict = lambda img: ensemble_predict(ens, img)
    if tta == "rotate":
        return tta_rotate_seg(predict, image)
    if tta == "flip":
        return tta_flip_predict(predict, image)
    return np.asarray(predict(image.values))


def _decide_grade(raw: float, cfg: RunConfig) -> int:
    if cfg.postprocess and cfg.task == "quality":
        return quality_decision(raw)
    return int(regressor_class(raw))


def _seg_decision(soft: np.ndarray, cfg: RunConfig) -> dd.MaskSet:
    if cfg.postprocess:
        return postprocess_masks(soft)
    return dd.MaskSet((soft >= 0.5).astype(np.uint8))


def _tabular_dev_report(cfg: RunConfig, ens: Ensemble, dev: dd.Dataset,
                        seed: int) -> MetricsReport:
    feats = np.stack([s.features for s in dev.samples])
    truths = [s.label for s in dev.samples]
    raw = np.atleast_1d(ensemble_predict(ens, feats))
    preds = [_decide_grade(float(r), cfg) for r in raw]
    values = {
        ("qwk", ""): qwk(confusion_matrix(truths, preds)),
        ("accuracy", ""): accuracy(preds, truths),
    }
    return MetricsReport(cfg.task, values, seed, cfg.digest())


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = _out_dir(args)
    if args.task == "segmentation":
        d = dd.gen_seg_dataset(args.n, size=args.size, seed=args.seed,
                               id_offset=args.id_offset)
        dd.write_seg_dataset(out, d)
        print(f"wrote {len(d)} images to {out}")
    else:
        d = dd.gen_ordinal_dataset(args.n, noise=args.noise, dim=args.dim,
                                   seed=args.seed, task=args.task,
                                   labeled=not args.unlabeled,
                                   id_offset=args.id_offset)
        path = out / "data.csv"
        dd.write_dataset_csv(path, d)
        counts = dd.largest_remainder_counts(args.n, dd.DEFAULT_GRADE_PROPORTIONS)
        print(f"wrote {len(d)} samples to {path}")
        for c, k in enumerate(counts):
            print(f"class {c}: {k}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    train = _load_data(cfg, _require(cfg.train_path, "[data] train"))
    tcfg = cfg.train_config(args.seed)
    aug = _aug_or_none(cfg)
    if cfg.ensemble_k > 1:
        ens = train_deep_ensemble(train, tcfg, k=cfg.ensemble_k,
                                  base_seed=args.seed, aug=aug)
        manifest = save_ensemble(out, ens)
        print(f"trained ensemble of {cfg.ensemble_k}; manifest {manifest}")
    else:
        model = fit(cfg.task, train, tcfg, aug=aug)
        path = out / "model.ckpt"
        save_checkpoint(path, model)
        ens = Ensemble((model,), (args.seed,))
        print(f"trained single model; checkpoint {path}")
    _maybe_dev_report(cfg, ens, args.seed, out)
    return 0


def cmd_rpl(args) -> int:
    cfg = load_config(args.config)
    if cfg.task == "segmentation":
        raise ConfigError("rpl pseudo-labels the ordinal tasks only, not segmentation")
    out = _out_dir(args)
    labeled = _load_data(cfg, _require(cfg.train_path, "[data] train"))
    unlabeled = _load_data(cfg, _require(cfg.unlabeled_path, "[data] unlabeled"))
    tcfg = cfg.train_config(args.seed)
    rcfg = RPLConfig(base=tcfg, rounds=cfg.rpl_rounds)
    model = rpl_train(labeled, unlabeled, rcfg, audit_path=out / "audit.csv")
    path = out / "model.ckpt"
    save_checkpoint(path, model)
    print(f"reliable pseudo labeling over {cfg.rpl_rounds} rounds; checkpoint {path}")
    print(f"audit log {out / 'audit.csv'}")
    _maybe_dev_report(cfg, Ensemble((model,), (args.seed,)), args.seed, out)
    return 0


def _maybe_dev_report(cfg: RunConfig, ens: Ensemble, seed: int, out: Path) -> None:
    if cfg.dev_path is None:
        return
    dev = _load_data(cfg, cfg.dev_path)
    _check_model_fits(ens, cfg, dev)
    if cfg.task == "segmentation":
        scores = []
        for s in dev.samples:
            soft = _predict_soft_masks(ens, s.image, cfg.tta)
            scores.append(mean_dsc(_seg_decision(soft, cfg).channels, s.masks.channels))
        report = MetricsReport(cfg.task, {("mean_dsc", ""): float(np.mean(scores))},
                               seed, cfg.digest())
    else:
        report = _tabular_dev_report(cfg, ens, dev, seed)
    write_report_csv(out / "report.csv", report)
    write_report_json(out / "report.json", report)
    for (metric, cls), v in sorted(report.values.items()):
        label = f"{metric}/{cls}" if cls else metric
        print(f"dev {label}: {v:.4f}")


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    ens = _load_model_or_ensemble(_require(cfg.model_path, "[data] model"))
    inputs = _load_data(cfg, _require(cfg.dev_path, "[data] dev"))
    _check_model_fits(ens, cfg, inputs)
    print(f"pipeline: {_pipeline_description(cfg, len(ens.members))}")
    if cfg.task == "segmentation":
        rows = []
        for s in inputs.samples:
            soft = _predict_soft_masks(ens, s.image, cfg.tta)
            stem = out / f"pred_{s.id:05d}"
            dd.write_mask_set(stem, _seg_decision(soft, cfg))
            rows.append([s.id, stem.name])
        _write_csv(out / "predictions.csv", ["id", "stem"], rows)
    else:
        feats = np.stack([s.features for s in inputs.samples])
        raw = np.atleast_1d(ensemble_predict(ens, feats))
        if cfg.tta != "none":
            print("note: test-time augmentation has no effect on feature vectors")
        rows = [[s.id, _decide_grade(float(r), cfg)]
                for s, r in zip(inputs.samples, raw)]
        _write_csv(out / "predictions.csv", ["id", "prediction"], rows)
    print(f"wrote predictions for {len(inputs)} samples to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    truth = _load_data(cfg, _require(cfg.dev_path, "[data] dev"))
    pred_path = Path(_require(cfg.predictions_path, "[data] predictions"))
    if cfg.task == "segmentation":
        values = _evaluate_segmentation(truth, pred_path)
    else:
        values = _evaluate_tabular(truth, pred_path)
    report = MetricsReport(cfg.task, values, args.seed, cfg.digest())
    write_report_csv(out / "report.csv", report)
    write_report_json(out / "report.json", report)
    for (metric, cls), v in sorted(values.items()):
        label = f"{metric}/{cls}" if cls else metric
        print(f"{label}: {v:.4f}")
    return 0


def _read_predictions(path: Path, column: str, parse) -> dict:
    """``predictions.csv`` as {id: parse(value of column)}; FormatError if malformed."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["id", column]:
            raise dd.FormatError(f"unexpected prediction columns in {path}")
        try:
            return {int(r["id"]): parse(r[column]) for r in reader}
        except (ValueError, TypeError) as exc:
            raise dd.FormatError(f"{path}: malformed prediction row ({exc})") from exc


def _evaluate_tabular(truth: dd.Dataset, pred_path: Path) -> dict:
    by_id = _read_predictions(pred_path, "prediction", lambda v: dd.validate_label(int(v)))
    truths, preds = [], []
    for s in truth.samples:
        if s.id not in by_id:
            raise dd.DataError(f"no prediction for sample {s.id}")
        truths.append(s.label)
        preds.append(by_id[s.id])
    return {
        ("qwk", ""): qwk(confusion_matrix(truths, preds)),
        ("accuracy", ""): accuracy(preds, truths),
    }


def _evaluate_segmentation(truth: dd.Dataset, pred_dir: Path) -> dict:
    by_id = _read_predictions(pred_dir / "predictions.csv", "stem", str)
    dscs, ious = [], []
    for s in truth.samples:
        if s.id not in by_id:
            raise dd.DataError(f"no prediction for sample {s.id}")
        pred = dd.read_mask_set(pred_dir / by_id[s.id])
        dscs.append(mean_dsc(pred.channels, s.masks.channels))
        ious.append(mean_iou(pred.channels, s.masks.channels))
    return {
        ("mean_dsc", ""): float(np.mean(dscs)),
        ("mean_iou", ""): float(np.mean(ious)),
    }


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def _tabular_arms(cfg: RunConfig, seed: int) -> dict[str, float]:
    """One seed's dev QWK for each incremental arm of the ordinal tasks.

    TTA averages input transforms, none of which exist for plain feature
    vectors, so the +tta arm passes the +rpl predictions through unchanged.
    The +post arm applies the quality operating thresholds; for DR grading
    the mask-guided edit needs a segmentation model, so it is also a
    pass-through here.
    """
    tcfg = cfg.train_config(seed)
    labeled = dd.gen_ordinal_dataset(cfg.n_labeled, noise=cfg.noise, dim=cfg.dim,
                                     seed=derive_seed(seed, 1), task=cfg.task)
    unlabeled = dd.gen_ordinal_dataset(cfg.n_unlabeled, noise=cfg.noise, dim=cfg.dim,
                                       seed=derive_seed(seed, 2), task=cfg.task,
                                       labeled=False, id_offset=10_000)
    train, dev = dd.split_train_dev(labeled, cfg.split_ratio, seed=derive_seed(seed, 3))
    feats = np.stack([s.features for s in dev.samples])
    truths = [s.label for s in dev.samples]
    k = cfg.ensemble_k

    def score(raw: np.ndarray, post: bool = False) -> float:
        if post and cfg.task == "quality":
            preds = [quality_decision(float(r)) for r in raw]
        else:
            preds = list(regressor_class(raw))
        return qwk(confusion_matrix(truths, preds))

    single = fit(cfg.task, train, tcfg)
    sup_ens = train_deep_ensemble(train, tcfg, k=k, base_seed=derive_seed(seed, 10))
    pl_ens = Ensemble(
        tuple(naive_pl_train(train, unlabeled,
                             replace(tcfg, seed=derive_seed(seed, 20, i)))
              for i in range(k)),
        tuple(derive_seed(seed, 20, i) for i in range(k)),
    )
    rpl_ens = Ensemble(
        tuple(rpl_train(train, unlabeled,
                        RPLConfig(base=replace(tcfg, seed=derive_seed(seed, 30, i)),
                                  rounds=cfg.rpl_rounds))
              for i in range(k)),
        tuple(derive_seed(seed, 30, i) for i in range(k)),
    )
    raw_rpl = np.atleast_1d(ensemble_predict(rpl_ens, feats))
    return {
        "baseline": score(np.atleast_1d(single.predict_scalar(feats))),
        "+ensemble": score(np.atleast_1d(ensemble_predict(sup_ens, feats))),
        "+pl": score(np.atleast_1d(ensemble_predict(pl_ens, feats))),
        "+rpl": score(raw_rpl),
        "+tta": score(raw_rpl),
        "+post": score(raw_rpl, post=True),
    }


def _segmentation_arms(cfg: RunConfig, seed: int) -> dict[str, float]:
    """One seed's dev mean-DSC for each incremental segmentation arm."""
    tcfg = cfg.train_config(seed)
    train = dd.gen_seg_dataset(cfg.n_labeled, size=cfg.size, seed=derive_seed(seed, 1))
    dev = dd.gen_seg_dataset(cfg.n_dev, size=cfg.size, seed=derive_seed(seed, 2))
    single = fit("segmentation", train, tcfg)
    ens = train_deep_ensemble(train, tcfg, k=cfg.ensemble_k,
                              base_seed=derive_seed(seed, 10))

    def dsc(soft: np.ndarray, truth: dd.MaskSet, post: bool = False) -> float:
        binary = postprocess_masks(soft) if post \
            else dd.MaskSet((soft >= 0.5).astype(np.uint8))
        return mean_dsc(binary.channels, truth.channels)

    # The +tta and +post arms score the same rotation-TTA soft masks, and the
    # identity rotation of that TTA reuses the +ensemble prediction.
    scores = {arm: [] for arm in SEGMENTATION_ARMS}
    for s in dev.samples:
        v = s.image.values
        plain = np.asarray(ensemble_predict(ens, v))
        tta = tta_rotate_seg(
            lambda img: plain if np.array_equal(img, v) else ensemble_predict(ens, img), v)
        scores["baseline"].append(dsc(segment_soft(single, s.image), s.masks))
        scores["+ensemble"].append(dsc(plain, s.masks))
        scores["+tta"].append(dsc(tta, s.masks))
        scores["+post"].append(dsc(tta, s.masks, post=True))
    return {arm: float(np.mean(vals)) for arm, vals in scores.items()}


TABULAR_ARMS = ("baseline", "+ensemble", "+pl", "+rpl", "+tta", "+post")
SEGMENTATION_ARMS = ("baseline", "+ensemble", "+tta", "+post")


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    seeds = args.seeds
    if cfg.task == "segmentation":
        arm_names, run_arms, metric = SEGMENTATION_ARMS, _segmentation_arms, "mean_dsc"
    else:
        arm_names, run_arms, metric = TABULAR_ARMS, _tabular_arms, "qwk"
    per_seed = [run_arms(cfg, seed) for seed in seeds]
    rows = []
    for arm in arm_names:
        vals = np.array([r[arm] for r in per_seed])
        rows.append([arm, metric, repr(float(vals.mean())), repr(float(vals.std()))])
        print(f"{arm:10s} {metric} mean {vals.mean():.4f} stddev {vals.std():.4f}")
    _write_csv(out / "ablation.csv", ["arm", "metric", "mean", "stddev"], rows)
    print(f"wrote {out / 'ablation.csv'} ({len(rows)} arms over {len(seeds)} seeds)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed list {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drtricks",
        description="Desk-scale training tricks for retinal image analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--task", required=True, choices=dd.TASKS)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--dim", type=int, default=8)
    synth.add_argument("--noise", type=float, default=0.5)
    synth.add_argument("--size", type=int, default=64)
    synth.add_argument("--unlabeled", action="store_true",
                       help="strip labels (build an unlabeled pool)")
    synth.add_argument("--id-offset", type=int, default=0,
                       help="first sample id (keeps ids disjoint across files)")
    synth.set_defaults(func=cmd_synth)

    for name, func, help_text in (
        ("train", cmd_train, "train a supervised model or deep ensemble"),
        ("rpl", cmd_rpl, "train with reliable pseudo labeling"),
        ("predict", cmd_predict, "run the prediction pipeline"),
        ("evaluate", cmd_evaluate, "score predictions against ground truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    ablate = sub.add_parser("ablate", help="run the trick-by-trick comparison")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--seeds", type=_seed_list, required=True,
                        help="comma-separated seed list, e.g. 0,1,2")
    ablate.add_argument("--out", required=True)
    ablate.set_defaults(func=cmd_ablate)
    return parser


CONFIG_ERRORS = (ConfigError, dd.DataError, CheckpointError,
                 FileNotFoundError, NotADirectoryError, PermissionError)
NUMERICAL_ERRORS = (TrainingDivergedError, EnsembleMemberError,
                    MetricError, UndefinedKappaError, FloatingPointError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
