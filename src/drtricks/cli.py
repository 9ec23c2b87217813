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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as dd
from .config import ConfigError, RunConfig, load_config
from .ensemble import (Ensemble, EnsembleMemberError, ensemble_predict,
                       load_ensemble, map_members, save_ensemble, train_deep_ensemble,
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


def _load_data(cfg: RunConfig, path: str, masks: bool = True) -> dd.Dataset:
    """The task's data set at ``path``; ``masks`` false skips the mask files."""
    if cfg.task == "segmentation":
        return dd.read_seg_dataset(path, masks=masks)
    return dd.read_dataset_csv(path, cfg.task)


def _load_dev(cfg: RunConfig, masks: bool = True) -> dd.Dataset:
    """The ``[data] dev`` set that the pipeline decides on; a DataError if it
    holds no sample. Rotation TTA needs square images, so under it a
    DataError names the first that is not."""
    dev = _load_data(cfg, _require(cfg.dev_path, "[data] dev"), masks)
    if not dev.samples:
        raise dd.DataError("the dev set holds no samples")
    if cfg.task == "segmentation" and cfg.tta == "rotate":
        for s in dev.samples:
            h, w = s.image.values.shape
            if h != w:
                raise dd.DataError(f"sample {s.id}: rotation TTA needs a square image, "
                                   f"got {h}x{w}")
    return dev


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


# ---------------------------------------------------------------------------
# decisions and scores: one path per task, shared by every command
# ---------------------------------------------------------------------------

def _grades(raw: np.ndarray, task: str, post: bool) -> list[int]:
    """Grades from raw regressor outputs: quality thresholds under post, else rounding."""
    if post and task == "quality":
        return [quality_decision(r) for r in raw]
    return [int(c) for c in regressor_class(raw)]


def _binarize(soft: np.ndarray, post: bool) -> dd.MaskSet:
    """Mask set from soft masks: full post-processing under post, else 0.5 threshold."""
    if post:
        return postprocess_masks(soft)
    return dd.MaskSet((soft >= 0.5).astype(np.uint8))


def _decisions(cfg: RunConfig, ens: Ensemble, data: dd.Dataset):
    """Yield (sample, decision) in sample order: a grade, or a mask set per image."""
    if cfg.task != "segmentation":
        raw = ensemble_predict(ens, data.feature_matrix)
        yield from zip(data.samples, _grades(raw, cfg.task, cfg.postprocess))
        return
    predict = lambda img: ensemble_predict(ens, img)
    tta = {"rotate": tta_rotate_seg, "flip": tta_flip_predict}.get(cfg.tta)
    for s in data.samples:
        soft = tta(predict, s.image) if tta else np.asarray(predict(s.image.values))
        yield s, _binarize(soft, cfg.postprocess)


def _score(task: str, pairs) -> dict[str, float]:
    """qwk and accuracy of grades, or mean_dsc and mean_iou of mask sets.

    ``pairs`` yields (truth sample, decision); no pairs, or a truth sample
    without a label or mask set, is a DataError.
    """
    a, b = [], []  # truth and predicted grades, or per-image DSC and IoU
    for s, decision in pairs:
        if not s.labeled:
            raise dd.DataError(f"sample {s.id} has no ground truth to score against")
        if task == "segmentation":
            a.append(mean_dsc(decision.channels, s.masks.channels))
            b.append(mean_iou(decision.channels, s.masks.channels))
        else:
            a.append(s.label)
            b.append(decision)
    if not a:
        raise dd.DataError("the dev set holds no samples to score")
    if task == "segmentation":
        return {"mean_dsc": float(np.mean(a)), "mean_iou": float(np.mean(b))}
    return {"qwk": qwk(confusion_matrix(a, b)), "accuracy": accuracy(b, a)}


def _write_report(cfg: RunConfig, values: dict[str, float], seed: int, out: Path,
                  prefix: str) -> None:
    report = MetricsReport(cfg.task, {(m, ""): v for m, v in values.items()},
                           seed, cfg.digest())
    write_report_csv(out / "report.csv", report)
    write_report_json(out / "report.json", report)
    for metric, v in sorted(values.items()):
        print(f"{prefix}{metric}: {v:.4f}")


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
    # read before training, so that a dev set the report cannot use fails first
    dev = None if cfg.dev_path is None else _load_dev(cfg)
    tcfg = cfg.train_config(args.seed)
    if cfg.ensemble_k > 1:
        ens = train_deep_ensemble(train, tcfg, k=cfg.ensemble_k, base_seed=args.seed)
        manifest = save_ensemble(out, ens)
        print(f"trained ensemble of {cfg.ensemble_k}; manifest {manifest}")
    else:
        model = fit(cfg.task, train, tcfg)
        path = out / "model.ckpt"
        save_checkpoint(path, model)
        ens = Ensemble((model,), (args.seed,))
        print(f"trained single model; checkpoint {path}")
    _maybe_dev_report(cfg, ens, dev, args.seed, out)
    return 0


def cmd_rpl(args) -> int:
    cfg = load_config(args.config)
    if cfg.task == "segmentation":
        raise ConfigError("rpl pseudo-labels the ordinal tasks only, not segmentation")
    out = _out_dir(args)
    labeled = _load_data(cfg, _require(cfg.train_path, "[data] train"))
    unlabeled = _load_data(cfg, _require(cfg.unlabeled_path, "[data] unlabeled"))
    dev = None if cfg.dev_path is None else _load_dev(cfg)
    if cfg.ensemble_k > 1:
        print("note: rpl trains one model; "
              f"[pipeline] ensemble_k = {cfg.ensemble_k} is ignored")
    tcfg = cfg.train_config(args.seed)
    rcfg = RPLConfig(base=tcfg, rounds=cfg.rpl_rounds)
    model = rpl_train(labeled, unlabeled, rcfg, audit_path=out / "audit.csv")
    path = out / "model.ckpt"
    save_checkpoint(path, model)
    print(f"reliable pseudo labeling over {cfg.rpl_rounds} rounds; checkpoint {path}")
    print(f"audit log {out / 'audit.csv'}")
    _maybe_dev_report(cfg, Ensemble((model,), (args.seed,)), dev, args.seed, out)
    return 0


def _maybe_dev_report(cfg: RunConfig, ens: Ensemble, dev: dd.Dataset | None, seed: int,
                      out: Path) -> None:
    if dev is None:
        return
    _check_model_fits(ens, cfg, dev)
    _write_report(cfg, _score(cfg.task, _decisions(cfg, ens, dev)), seed, out, "dev ")


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    ens = _load_model_or_ensemble(_require(cfg.model_path, "[data] model"))
    inputs = _load_dev(cfg, masks=False)  # predict never reads the masks
    _check_model_fits(ens, cfg, inputs)
    print(f"pipeline: {_pipeline_description(cfg, len(ens.members))}")
    segmentation = cfg.task == "segmentation"
    if not segmentation and cfg.tta != "none":
        print("note: test-time augmentation has no effect on feature vectors")
    rows = []
    for s, decision in _decisions(cfg, ens, inputs):
        if segmentation:  # each mask set is written before the next one is computed
            stem = out / f"pred_{s.id:05d}"
            dd.write_mask_set(stem, decision)
            decision = stem.name
        rows.append([s.id, decision])
    dd.write_csv(out / "predictions.csv", ["id", "stem" if segmentation else "prediction"], rows)
    print(f"wrote predictions for {len(inputs)} samples to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    truth = _load_data(cfg, _require(cfg.dev_path, "[data] dev"))
    pred_path = Path(_require(cfg.predictions_path, "[data] predictions"))
    values = _score(cfg.task, _predicted_pairs(cfg.task, truth, pred_path))
    _write_report(cfg, values, args.seed, out, "")
    return 0


def _predicted_pairs(task: str, truth: dd.Dataset, pred_path: Path):
    """Yield (truth sample, decision) from what ``predict`` wrote, one sample at a time.

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
        by_id = {int(i): v if segmentation else dd.validate_label(int(v))
                 for i, v in filter(None, rows)}
    except (ValueError, TypeError) as exc:
        raise dd.FormatError(f"{path}: malformed prediction row ({exc})") from exc
    if segmentation and any("\0" in stem for stem in by_id.values()):
        raise dd.FormatError(f"{path}: a mask set stem holds a NUL byte")
    for s in truth.samples:
        if s.id not in by_id:
            raise dd.DataError(f"no prediction for sample {s.id}")
        yield s, dd.read_mask_set(pred_path / by_id[s.id]) if segmentation else by_id[s.id]


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def _map_arms(member, layout: tuple[str, ...], k: int) -> list:
    """``member(j)`` for the k members of each arm in ``layout``, then for the
    single ``baseline`` fit at index ``len(layout) * k``, over one ``map_members``.

    The single fit comes last, so it runs on a core the members leave idle.
    A member that fails is named by its arm and its index there.
    """
    try:
        return map_members(member, len(layout) * k + 1)
    except EnsembleMemberError as exc:
        arm, i = divmod(exc.index, k)
        raise EnsembleMemberError(i, exc.args[1],
                                  layout[arm] if arm < len(layout) else "baseline") from exc


def _tabular_arms(cfg: RunConfig, seed: int) -> dict[str, float]:
    """One seed's dev QWK for each incremental arm of the ordinal tasks.

    TTA averages input transforms, none of which exist for plain feature
    vectors, so the +tta arm passes the +rpl predictions through unchanged.
    The +post arm applies the quality operating thresholds; for DR grading
    the mask-guided edit needs a segmentation model, so it is also a
    pass-through here. The RPL, naive-PL and supervised ensemble members and
    the single baseline fit are trained by one ``map_members``, in that
    order: costliest first, since an RPL member fits T + 1 models, a PL
    member 2 and the others 1, so the workers that take them on demand
    finish together.
    """
    tcfg = cfg.train_config(seed)
    labeled = dd.gen_ordinal_dataset(cfg.n_labeled, noise=cfg.noise, dim=cfg.dim,
                                     seed=derive_seed(seed, 1), task=cfg.task)
    unlabeled = dd.gen_ordinal_dataset(cfg.n_unlabeled, noise=cfg.noise, dim=cfg.dim,
                                       seed=derive_seed(seed, 2), task=cfg.task,
                                       labeled=False, id_offset=10_000)
    train, dev = dd.split_train_dev(labeled, cfg.split_ratio, seed=derive_seed(seed, 3))
    feats = dev.feature_matrix
    k = cfg.ensemble_k
    seeds = {"+rpl": [derive_seed(seed, 30, i) for i in range(k)],
             "+pl": [derive_seed(seed, 20, i) for i in range(k)],
             "+ensemble": [derive_seed(seed, 10) + i for i in range(k)]}
    layout = tuple(seeds)  # map index j < 3k is member j % k of arm layout[j // k]

    def member(j: int):
        if j == len(layout) * k:
            return fit(cfg.task, train, tcfg)
        arm = layout[j // k]
        member_cfg = replace(tcfg, seed=seeds[arm][j % k])
        if arm == "+ensemble":
            return fit(cfg.task, train, member_cfg)
        if arm == "+pl":
            return naive_pl_train(train, unlabeled, member_cfg)
        return rpl_train(train, unlabeled, RPLConfig(base=member_cfg, rounds=cfg.rpl_rounds))

    members = _map_arms(member, layout, k)
    single = members.pop()
    rpl_ens, pl_ens, sup_ens = (
        Ensemble(tuple(members[a * k:(a + 1) * k]), tuple(seeds[arm]))
        for a, arm in enumerate(layout))
    raw_rpl = ensemble_predict(rpl_ens, feats)
    arms = {
        "baseline": (single.predict_scalar(feats), False),
        "+ensemble": (ensemble_predict(sup_ens, feats), False),
        "+pl": (ensemble_predict(pl_ens, feats), False),
        "+rpl": (raw_rpl, False),
        "+tta": (raw_rpl, False),
        "+post": (raw_rpl, True),
    }
    return {arm: _score(cfg.task, zip(dev.samples, _grades(raw, cfg.task, post)))["qwk"]
            for arm, (raw, post) in arms.items()}


def _segmentation_arms(cfg: RunConfig, seed: int) -> dict[str, float]:
    """One seed's dev mean-DSC for each incremental segmentation arm.

    Augmentation has no arm of its own, so every arm trains without it. The
    k ensemble members (seeds base, base + 1, ..., as ``train_deep_ensemble``
    gives them) and then the single baseline fit are trained by one
    ``map_members``.
    """
    tcfg = replace(cfg.train_config(seed), augment=False)
    train = dd.gen_seg_dataset(cfg.n_labeled, size=cfg.size, seed=derive_seed(seed, 1))
    dev = dd.gen_seg_dataset(cfg.n_dev, size=cfg.size, seed=derive_seed(seed, 2))
    k = cfg.ensemble_k
    seeds = tuple(derive_seed(seed, 10) + i for i in range(k))
    cfgs = [replace(tcfg, seed=s) for s in seeds] + [tcfg]
    fits = _map_arms(lambda j: fit("segmentation", train, cfgs[j]), ("+ensemble",), k)
    single = fits.pop()
    ens = Ensemble(tuple(fits), seeds)

    # The +tta and +post arms decide from the same rotation-TTA soft masks, and
    # the identity rotation of that TTA reuses the +ensemble prediction.
    pairs = {arm: [] for arm in SEGMENTATION_ARMS}
    for s in dev.samples:
        v = s.image.values
        plain = np.asarray(ensemble_predict(ens, v))
        tta = tta_rotate_seg(
            lambda img: plain if np.array_equal(img, v) else ensemble_predict(ens, img), v)
        for arm, soft, post in (("baseline", segment_soft(single, s.image), False),
                                ("+ensemble", plain, False), ("+tta", tta, False),
                                ("+post", tta, True)):
            pairs[arm].append((s, _binarize(soft, post)))
    return {arm: _score("segmentation", p)["mean_dsc"] for arm, p in pairs.items()}


TABULAR_ARMS = ("baseline", "+ensemble", "+pl", "+rpl", "+tta", "+post")
SEGMENTATION_ARMS = ("baseline", "+ensemble", "+tta", "+post")


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    seeds = args.seeds
    if cfg.task == "segmentation":
        arm_names, run_arms, metric = SEGMENTATION_ARMS, _segmentation_arms, "mean_dsc"
        if cfg.augment:
            print("note: ablate trains every arm without augmentation; "
                  "[train] augment = true is ignored")
    else:
        arm_names, run_arms, metric = TABULAR_ARMS, _tabular_arms, "qwk"
    per_seed = [run_arms(cfg, seed) for seed in seeds]
    rows = []
    for arm in arm_names:
        vals = np.array([r[arm] for r in per_seed])
        rows.append([arm, metric, repr(float(vals.mean())), repr(float(vals.std()))])
        print(f"{arm:10s} {metric} mean {vals.mean():.4f} stddev {vals.std():.4f}")
    dd.write_csv(out / "ablation.csv", ["arm", "metric", "mean", "stddev"], rows)
    print(f"wrote {out / 'ablation.csv'} ({len(rows)} arms over {len(seeds)} seeds)")
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
        ("rpl", cmd_rpl, "train with reliable pseudo labeling"),
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


CONFIG_ERRORS = (ConfigError, dd.DataError, CheckpointError, OSError)
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
