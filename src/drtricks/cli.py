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
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as dd
from .config import ORDINAL, ConfigError, RunConfig, check_task, load_config
from .ensemble import (Ensemble, EnsembleMemberError, ensemble_predict,
                       load_ensemble, map_members, save_ensemble, train_deep_ensemble,
                       tta_rotate_seg)
from .metrics import (MetricError, UndefinedKappaError, accuracy, confusion_matrix,
                      mean_dsc, mean_iou, qwk)
from .models import (SEG_FEATURE_DIM, CheckpointError, TrainingDivergedError,
                     derive_seed, fit, load_checkpoint, regressor_class, save_checkpoint)
from .postprocess import postprocess_masks, quality_decision
from .ssl import RPLConfig, naive_pl_train, rpl_train


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _require(value, what: str):
    if value is None:
        raise ConfigError(f"this command needs {what} in the config file")
    return value


def _load_data(cfg: RunConfig, path: str, masks: bool = True) -> dd.Dataset | dd.Table:
    """The task's data set at ``path``; ``masks`` false skips the mask files."""
    if cfg.task == "segmentation":
        return dd.read_seg_dataset(path, masks=masks)
    return dd.read_dataset_csv(path, cfg.task)


def _truths(data: dd.Dataset | dd.Table) -> list:
    """Each sample's ground truth in order, its label or mask set; None if it has none."""
    if isinstance(data, dd.Table):
        return [None if label < 0 else label for label in data.labels.tolist()]
    return [s.masks for s in data.samples]


def _load_dev(cfg: RunConfig, scored: bool = True) -> dd.Dataset | dd.Table:
    """The ``[data] dev`` set that the pipeline decides on; a DataError if it
    holds no sample, or if it is ``scored`` and a sample has no ground truth
    (``predict`` scores nothing, and skips the mask files). Rotation TTA needs
    square images, so under it a DataError names the first that is not."""
    dev = _load_data(cfg, _require(cfg.dev_path, "[data] dev"), scored)
    if not len(dev):
        raise dd.DataError("the dev set holds no samples")
    unlabeled = [i for i, t in zip(dev.ids.tolist(), _truths(dev)) if t is None]
    if scored and unlabeled:
        raise dd.DataError(f"sample {unlabeled[0]} has no ground truth to score against")
    if cfg.tta == "rotate":
        for s in dev.samples:
            h, w = s.image.shape
            if h != w:
                raise dd.DataError(f"sample {s.id}: rotation TTA needs a square image, "
                                   f"got {h}x{w}")
    return dev


def _check_width(train: dd.Dataset | dd.Table, other, what: str) -> None:
    """ConfigError if ``other`` is a table of another width than the table ``train``."""
    if isinstance(other, dd.Table) and other.features.shape[1] != train.features.shape[1]:
        raise ConfigError(f"the {what} has {other.features.shape[1]} features per sample; "
                          f"the training data has {train.features.shape[1]}")


def _load_model_or_ensemble(path: str) -> Ensemble:
    """Load a single checkpoint or an ensemble manifest as an Ensemble."""
    p = Path(path)
    if p.is_dir():
        p = p / "ensemble.json"
    if p.suffix == ".json":
        return load_ensemble(p)
    return Ensemble((load_checkpoint(p),), (0,))


def _check_model_fits(ens: Ensemble, cfg: RunConfig, data: dd.Dataset | dd.Table) -> None:
    """ConfigError unless every member's head and input width fit the task's data."""
    if cfg.task == "segmentation":
        head, width = "pixel", SEG_FEATURE_DIM
    else:
        head, width = "scalar", data.features.shape[1]
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


# ---------------------------------------------------------------------------
# decisions and scores: one path per task, shared by every command
# ---------------------------------------------------------------------------

def _outputs(task: str, tta: str, ens: Ensemble, data: dd.Dataset | dd.Table):
    """The ensemble's raw outputs over the feature vectors, or one image at a
    time its soft masks, under rotation TTA if ``tta`` is ``rotate``."""
    if task != "segmentation":
        return ensemble_predict(ens, data.features)
    predict = lambda img: ensemble_predict(ens, img)
    return (tta_rotate_seg(predict, s.image) if tta == "rotate" else predict(s.image)
            for s in data.samples)


def _decisions(task: str, post: bool, outputs):
    """One decision per output, in order. A grade: the quality thresholds
    under post, else rounding. A mask set: full post-processing under post,
    else the 0.5 threshold."""
    if task == "segmentation":
        return (postprocess_masks(soft) if post else (soft >= 0.5).astype(np.uint8)
                for soft in outputs)
    if post and task == "quality":
        return [quality_decision(r) for r in outputs]
    return [int(c) for c in regressor_class(outputs)]


def _score(task: str, truth: dd.Dataset | dd.Table, decisions) -> dict[str, float]:
    """qwk and accuracy of grades, or mean_dsc and mean_iou of mask sets.

    ``decisions`` yields one decision per sample of ``truth``, in order; no
    sample, one without a label or mask set, or a mask set of another size
    than its truth's, is a DataError.
    """
    a, b = [], []  # truth and predicted grades, or per-image DSC and IoU
    for sid, t, decision in zip(truth.ids.tolist(), _truths(truth), decisions):
        if t is None:
            raise dd.DataError(f"sample {sid} has no ground truth to score against")
        if task == "segmentation":
            (_, h, w), (_, th, tw) = decision.shape, t.shape
            if (h, w) != (th, tw):
                raise dd.DataError(f"sample {sid}: predicted masks are {h}x{w}, "
                                   f"its ground truth {th}x{tw}")
            a.append(mean_dsc(decision, t))
            b.append(mean_iou(decision, t))
        else:
            a.append(t)
            b.append(decision)
    if not a:
        raise dd.DataError("the dev set holds no samples to score")
    if task == "segmentation":
        return {"mean_dsc": float(np.mean(a)), "mean_iou": float(np.mean(b))}
    return {"qwk": qwk(confusion_matrix(a, b)), "accuracy": accuracy(b, a)}


def _write_report(cfg: RunConfig, values: dict[str, float], seed: int, out: Path,
                  prefix: str) -> None:
    """Write ``values`` to report.csv and report.json in ``out`` (a row per metric in
    name order, class empty; a MetricError first if one is not finite), then print them."""
    metrics = sorted(values.items())
    for metric, v in metrics:
        if not np.isfinite(v):
            raise MetricError(f"non-finite value for {metric}")
    digest = cfg.digest()
    dd.write_csv(out / "report.csv", ["task", "metric", "class", "value", "seed", "config_digest"],
                 ([cfg.task, m, "", repr(float(v)), seed, digest] for m, v in metrics))
    payload = {"task": cfg.task, "seed": seed, "config_digest": digest,
               "metrics": [{"metric": m, "class": "", "value": float(v)} for m, v in metrics]}
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    for metric, v in metrics:
        print(f"{prefix}{metric}: {v:.4f}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    for f in fields(RunConfig):  # --dim, --noise and --size set [synth] keys of those names
        if f.metadata["section"] == "synth" and getattr(args, f.name, f.default) != f.default:
            check_task(args.task, f"--{f.name}", f.metadata["tasks"])
    if args.unlabeled:
        check_task(args.task, "--unlabeled", ORDINAL)
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
        print(f"wrote {len(d)} samples to {path}")
        if not args.unlabeled:  # a pool's label column is empty
            counts = dd.largest_remainder_counts(args.n, dd.DEFAULT_GRADE_PROPORTIONS)
            for c, k in enumerate(counts):
                print(f"class {c}: {k}")
    return 0


def cmd_train(args) -> int:
    """``train`` fits supervised members; ``rpl`` fits each by reliable pseudo
    labeling over the ``[data] unlabeled`` pool and writes its audit log.
    Member i trains with seed + i; k = 1 saves ``model.ckpt``, k > 1 an ensemble."""
    cfg = load_config(args.config)
    rpl = args.command == "rpl"
    if rpl:
        check_task(cfg.task, "rpl", ORDINAL)
    out = _out_dir(args)
    train = _load_data(cfg, _require(cfg.train_path, "[data] train"))
    pool = _load_data(cfg, _require(cfg.unlabeled_path, "[data] unlabeled")) if rpl else None
    # read before training, so that a dev set the report cannot use fails first
    dev = None if cfg.dev_path is None else _load_dev(cfg)
    _check_width(train, pool, "unlabeled pool")
    _check_width(train, dev, "dev set")
    tcfg, k = cfg.train_config(args.seed), cfg.ensemble_k
    audits = [out / ("audit.csv" if k == 1 else f"member_{i}_audit.csv") for i in range(k)]
    member = lambda i: rpl_train(train, pool, RPLConfig(replace(tcfg, seed=args.seed + i),
                                                        cfg.rpl_rounds), audits[i])
    done = f"reliable pseudo labeling over {cfg.rpl_rounds} rounds; " if rpl else "trained "
    if k > 1:
        ens = (Ensemble(tuple(map_members(member, k)), tuple(args.seed + i for i in range(k)))
               if rpl else train_deep_ensemble(train, tcfg, k=k, base_seed=args.seed))
        print(f"{done}ensemble of {k}; manifest {save_ensemble(out, ens)}")
    else:
        ens = Ensemble((member(0) if rpl else fit(cfg.task, train, tcfg),), (args.seed,))
        save_checkpoint(out / "model.ckpt", ens.members[0])
        print(f"{done}{'' if rpl else 'single model; '}checkpoint {out / 'model.ckpt'}")
    for path in audits if rpl else ():
        print(f"audit log {path}")
    _maybe_dev_report(cfg, ens, dev, args.seed, out)
    return 0


def _maybe_dev_report(cfg: RunConfig, ens: Ensemble, dev: dd.Dataset | dd.Table | None,
                      seed: int, out: Path) -> None:
    if dev is None:
        return
    decisions = _decisions(cfg.task, cfg.postprocess, _outputs(cfg.task, cfg.tta, ens, dev))
    _write_report(cfg, _score(cfg.task, dev, decisions), seed, out, "dev ")


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    ens = _load_model_or_ensemble(_require(cfg.model_path, "[data] model"))
    inputs = _load_dev(cfg, scored=False)
    _check_model_fits(ens, cfg, inputs)
    print(f"pipeline: {_pipeline_description(cfg, len(ens.members))}")
    segmentation = cfg.task == "segmentation"
    ids = inputs.ids.tolist()
    decisions = _decisions(cfg.task, cfg.postprocess, _outputs(cfg.task, cfg.tta, ens, inputs))
    if segmentation:  # each set is written as soon as it is computed
        stems = [f"pred_{i:05d}" for i in ids]
        for stem, masks in zip(stems, decisions):
            dd.write_mask_set(out / stem, masks)
        rows = zip(ids, stems)
    else:
        rows = list(zip(ids, decisions))
    dd.write_csv(out / "predictions.csv", ["id", "stem" if segmentation else "prediction"], rows)
    print(f"wrote predictions for {len(inputs)} samples to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    truth = _load_data(cfg, _require(cfg.dev_path, "[data] dev"))
    pred_path = Path(_require(cfg.predictions_path, "[data] predictions"))
    values = _score(cfg.task, truth, _predicted(cfg.task, truth, pred_path))
    _write_report(cfg, values, args.seed, out, "")
    return 0


def _predicted(task: str, truth: dd.Dataset | dd.Table, pred_path: Path):
    """Yield the decision of each sample of ``truth``, in order, from what
    ``predict`` wrote, one sample at a time.

    For segmentation ``pred_path`` is the directory ``predict`` wrote; for
    the ordinal tasks it is its ``predictions.csv``. FormatError if malformed.
    """
    segmentation = task == "segmentation"
    path, column = ((pred_path / "predictions.csv", "stem") if segmentation
                    else (pred_path, "prediction"))
    rows = iter(dd.read_csv(path))
    if next(rows, None) != ["id", column]:
        raise dd.FormatError(f"unexpected prediction columns in {path}")
    try:  # a row of other than two fields fails to unpack; blank lines are skipped
        pairs = [(int(i), v if segmentation else dd.validate_label(int(v)))
                 for i, v in filter(None, rows)]
    except (ValueError, TypeError) as exc:
        raise dd.FormatError(f"{path}: malformed prediction row ({exc})") from exc
    by_id = {}
    for sid, decision in pairs:
        if sid in by_id:
            raise dd.FormatError(f"{path}: sample {sid} is listed more than once")
        by_id[sid] = decision
    if segmentation and any("\0" in stem for stem in by_id.values()):
        raise dd.FormatError(f"{path}: a mask set stem holds a NUL byte")
    for sid in truth.ids.tolist():
        if sid not in by_id:
            raise dd.DataError(f"no prediction for sample {sid}")
        yield dd.read_mask_set(pred_path / by_id[sid]) if segmentation else by_id[sid]


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

# Each arm in row order -> (the arm whose members it scores, tta, postprocess).
# Feature vectors have no transform to average, so +tta and +post score the
# +rpl outputs; the DR grading rule needs a segmentation model, so on grading
# +post decides as +rpl does, and on image quality applies the thresholds.
TABULAR_TABLE = {"baseline": ("baseline", "none", False),
                 "+ensemble": ("+ensemble", "none", False),
                 "+pl": ("+pl", "none", False),
                 "+rpl": ("+rpl", "none", False),
                 "+tta": ("+rpl", "none", False),
                 "+post": ("+rpl", "none", True)}
SEGMENTATION_TABLE = {"baseline": ("baseline", "none", False),
                      "+ensemble": ("+ensemble", "none", False),
                      "+tta": ("+ensemble", "rotate", False),
                      "+post": ("+ensemble", "rotate", True)}


def _ablate(cfg: RunConfig, jobs: list, table: dict, dev) -> dict[str, dict[str, float]]:
    """One seed's dev scores (``_score``'s) for each arm of ``table``, in its order.

    ``jobs`` lists every fit as ``(arm, train config, trainer)``; one
    ``map_members`` runs them in that order, and a member that fails is named
    by its arm and its index there. A trainer looks its function up when it
    is called, so a wrapper on this module's ``fit``, ``rpl_train`` or
    ``naive_pl_train`` sees every fit. Each arm is then the ``predict``
    pipeline under its own tta and postprocess settings, over its members'
    ensemble; the outputs of each (members, tta) pair are computed once.
    """
    try:
        fits = map_members(lambda j: jobs[j][2](jobs[j][1]), len(jobs))
    except EnsembleMemberError as exc:
        arm = jobs[exc.index][0]
        index = [job[0] for job in jobs[:exc.index]].count(arm)
        raise EnsembleMemberError(index, exc.args[1], arm) from exc

    def ensemble(arm: str) -> Ensemble:
        picked = [j for j, job in enumerate(jobs) if job[0] == arm]
        return Ensemble(tuple(fits[j] for j in picked), tuple(jobs[j][1].seed for j in picked))

    outputs, scores = {}, {}
    for arm, (whose, tta, post) in table.items():
        if (whose, tta) not in outputs:
            outputs[whose, tta] = list(_outputs(cfg.task, tta, ensemble(whose), dev))
        decisions = _decisions(cfg.task, post, outputs[whose, tta])
        scores[arm] = _score(cfg.task, dev, decisions)
    return scores


def _tabular_arms(cfg: RunConfig, seed: int) -> dict[str, dict[str, float]]:
    """One seed's dev QWK and accuracy for each arm of ``TABULAR_TABLE``.

    The RPL, naive-PL and supervised ensemble members and the single
    baseline fit are trained in that order: costliest first, since an RPL
    member fits T + 1 models, a PL member 2 and the others 1, so the
    workers that take them on demand finish together.
    """
    tcfg = cfg.train_config(seed)
    labeled = dd.gen_ordinal_dataset(cfg.n_labeled, noise=cfg.noise, dim=cfg.dim,
                                     seed=derive_seed(seed, 1), task=cfg.task)
    unlabeled = dd.gen_ordinal_dataset(cfg.n_unlabeled, noise=cfg.noise, dim=cfg.dim,
                                       seed=derive_seed(seed, 2), task=cfg.task,
                                       labeled=False, id_offset=cfg.n_labeled)
    train, dev = dd.split_train_dev(labeled, cfg.split_ratio, seed=derive_seed(seed, 3))
    k = cfg.ensemble_k
    supervised = lambda c: fit(cfg.task, train, c)
    jobs = ([("+rpl", replace(tcfg, seed=derive_seed(seed, 30, i)),
              lambda c: rpl_train(train, unlabeled, RPLConfig(base=c, rounds=cfg.rpl_rounds)))
             for i in range(k)]
            + [("+pl", replace(tcfg, seed=derive_seed(seed, 20, i)),
                lambda c: naive_pl_train(train, unlabeled, c)) for i in range(k)]
            + [("+ensemble", replace(tcfg, seed=derive_seed(seed, 10) + i), supervised)
               for i in range(k)]
            + [("baseline", tcfg, supervised)])
    return _ablate(cfg, jobs, TABULAR_TABLE, dev)


def _segmentation_arms(cfg: RunConfig, seed: int) -> dict[str, dict[str, float]]:
    """One seed's dev mean DSC and IoU for each arm of ``SEGMENTATION_TABLE``.

    Augmentation has no arm of its own, and ``ablate`` rejects it, so every
    arm trains without it. The k ensemble members (seeds base, base + 1, ...,
    as ``train_deep_ensemble`` gives them) are trained first, then the single
    baseline fit.
    """
    tcfg = cfg.train_config(seed)
    train = dd.gen_seg_dataset(cfg.n_labeled, size=cfg.size, seed=derive_seed(seed, 1))
    dev = dd.gen_seg_dataset(cfg.n_dev, size=cfg.size, seed=derive_seed(seed, 2))
    segmenter = lambda c: fit("segmentation", train, c)
    jobs = [("+ensemble", replace(tcfg, seed=derive_seed(seed, 10) + i), segmenter)
            for i in range(cfg.ensemble_k)] + [("baseline", tcfg, segmenter)]
    return _ablate(cfg, jobs, SEGMENTATION_TABLE, dev)


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    for f in fields(RunConfig):  # the arms set these themselves
        if f.name in ("augment", "tta", "postprocess") and getattr(cfg, f.name) != f.default:
            raise ConfigError(f"ablate sets [{f.metadata['section']}] {f.name} per arm; "
                              "leave it at its default")
    out = _out_dir(args)
    if cfg.task == "segmentation":
        run_arms, metric = _segmentation_arms, "mean_dsc"
    else:
        run_arms, metric = _tabular_arms, "qwk"
    per_seed = [run_arms(cfg, seed) for seed in args.seeds]
    rows = []
    for arm in per_seed[0]:
        vals = np.array([r[arm][metric] for r in per_seed])
        rows.append([arm, metric, repr(float(vals.mean())), repr(float(vals.std()))])
        print(f"{arm:10s} {metric} mean {vals.mean():.4f} stddev {vals.std():.4f}")
    dd.write_csv(out / "ablation.csv", ["arm", "metric", "mean", "stddev"], rows)
    print(f"wrote {out / 'ablation.csv'} ({len(rows)} arms over {len(args.seeds)} seeds)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A seed: a non-negative integer, as ``np.random.SeedSequence`` takes."""
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"negative seed {text!r}")
    return seed


def _seed_list(text: str) -> list[int]:
    seeds = [_seed(part) for part in text.split(",") if part.strip() != ""]
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed list {text!r}")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise argparse.ArgumentTypeError(f"duplicate seed {seed} in {text!r}")
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
    synth.add_argument("--seed", type=_seed, required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--dim", type=int, default=dd.SYNTH_DIM)
    synth.add_argument("--noise", type=float, default=dd.SYNTH_NOISE)
    synth.add_argument("--size", type=int, default=dd.SYNTH_SIZE)
    synth.add_argument("--unlabeled", action="store_true",
                       help="strip labels (build an unlabeled pool)")
    synth.add_argument("--id-offset", type=int, default=0,
                       help="first sample id (keeps ids disjoint across files)")
    synth.set_defaults(func=cmd_synth)

    for name, func, help_text in (
        ("train", cmd_train, "train a supervised model or deep ensemble"),
        ("rpl", cmd_train, "train with reliable pseudo labeling"),
        ("predict", cmd_predict, "run the prediction pipeline"),
        ("evaluate", cmd_evaluate, "score predictions against ground truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=_seed, required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    ablate = sub.add_parser("ablate", help="run the trick-by-trick comparison")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--seeds", type=_seed_list, required=True,
                        help="comma-separated seed list, e.g. 0,1,2")
    ablate.add_argument("--out", required=True)
    ablate.set_defaults(func=cmd_ablate)
    return parser


CONFIG_ERRORS = (ConfigError, dd.DataError, CheckpointError, OSError, MemoryError)
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
