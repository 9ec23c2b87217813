"""Metamorphic relations of the commands: how an output must move, or stay,
when the input moves in a way that should not matter.

Each relation is exact (byte equality, or equal decisions per id), so none
needs an oracle for the right answer. The last section is a reference check
instead: each ablation arm against its pipeline written out from the library.
"""
import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drtricks import cli
from drtricks.cli import main
from drtricks.config import RunConfig
from drtricks.data import (gen_ordinal_dataset, gen_seg_dataset, read_pgm, split_train_dev,
                           write_pgm)
from drtricks.ensemble import Ensemble, ensemble_predict, train_deep_ensemble, tta_rotate_seg
from drtricks.metrics import confusion_matrix, mean_dsc, qwk
from drtricks.models import derive_seed, fit, regressor_class, segment_soft
from drtricks.postprocess import postprocess_masks, quality_decision
from drtricks.ssl import RPLConfig, naive_pl_train, rpl_train

CONFIG = """\
[run]
task = {task}

[data]
{data}
[train]
epochs = {epochs}
lr = {lr}
batch_size = 16
{train}
[pipeline]
{pipeline}"""


def _config(path: Path, task: str, data: dict, epochs: int = 10, lr: str = "2e-3",
            train: str = "", pipeline: str = "") -> Path:
    lines = "".join(f"{key} = {value}\n" for key, value in data.items())
    path.write_text(CONFIG.format(task=task, data=lines, epochs=epochs, lr=lr, train=train,
                                  pipeline=pipeline))
    return path


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def _rewrite_rows(path: Path, edit) -> None:
    """Rewrite a CSV file as its header followed by ``edit(rows)``."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *edit(rows)])


def _offset_ids(path: Path, offset: int) -> None:
    """Add ``offset`` to the id in the first column of a CSV file's every row."""
    _rewrite_rows(path, lambda rows: [[str(int(r[0]) + offset), *r[1:]] for r in rows])


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.fixture(scope="module")
def grading(tmp_path_factory):
    """60 labeled, 300 pooled and 400 dev grading samples, with disjoint ids."""
    root = tmp_path_factory.mktemp("grading")
    for part, n, seed, extra in (("lab", 60, 0, []), ("unl", 300, 1, ["--unlabeled"]),
                                 ("dev", 400, 2, [])):
        _run("synth", "--task", "grading", "--n", n, "--seed", seed, "--out", root / part,
             "--id-offset", 10_000 * seed, *extra)
    return root


@pytest.mark.parametrize("move", ["shuffle", "offset"])
def test_rpl_ignores_the_order_and_the_ids_of_its_pool(grading, tmp_path, move):
    """Shuffling the pool's rows, or offsetting its ids by 40000, leaves the
    checkpoint, the audit log and both dev reports byte-identical."""
    pool = tmp_path / "pool.csv"
    shutil.copy(grading / "unl" / "data.csv", pool)
    if move == "shuffle":
        _rewrite_rows(pool, lambda rows: [rows[i] for i in
                                          np.random.default_rng(7).permutation(len(rows))])
    else:
        _offset_ids(pool, 40_000)
    outputs = []
    for name, unlabeled in (("plain", grading / "unl" / "data.csv"), ("moved", pool)):
        cfg = _config(tmp_path / f"{name}.ini", "grading",
                      {"train": grading / "lab" / "data.csv", "dev": grading / "dev" / "data.csv",
                       "unlabeled": unlabeled}, pipeline="rpl_rounds = 4\n")
        _run("rpl", "--config", cfg, "--seed", 0, "--out", tmp_path / name)
        outputs.append({f: (tmp_path / name / f).read_bytes()
                        for f in ("model.ckpt", "audit.csv", "report.csv", "report.json")})
    assert outputs[0] == outputs[1]


def test_grading_predict_gives_each_id_its_grade_in_any_row_order(grading, tmp_path):
    data = {"train": grading / "lab" / "data.csv", "model": tmp_path / "model" / "model.ckpt"}
    _run("train", "--config", _config(tmp_path / "train.ini", "grading", data),
         "--seed", 0, "--out", tmp_path / "model")
    shuffled = tmp_path / "shuffled.csv"
    shutil.copy(grading / "dev" / "data.csv", shuffled)
    _rewrite_rows(shuffled, lambda rows: [rows[i] for i in
                                          np.random.default_rng(3).permutation(len(rows))])
    predictions = []
    for name, dev in (("plain", grading / "dev" / "data.csv"), ("shuffled", shuffled)):
        cfg = _config(tmp_path / f"{name}.ini", "grading", {**data, "dev": dev})
        _run("predict", "--config", cfg, "--seed", 0, "--out", tmp_path / name)
        rows = _rows(tmp_path / name / "predictions.csv")
        assert [r[0] for r in rows] == [r[0] for r in _rows(dev)]  # in the input's order
        predictions.append(dict(rows))
    assert len(predictions[0]) == 400 and len(set(predictions[0].values())) == 3
    assert predictions[0] == predictions[1]


@pytest.fixture(scope="module")
def segmentation(tmp_path_factory):
    """A 2-member ensemble trained on four 32x32 images, and three dev images."""
    root = tmp_path_factory.mktemp("segmentation")
    for part, n, seed in (("seg", 4, 0), ("dev", 3, 1)):
        _run("synth", "--task", "segmentation", "--n", n, "--size", 32, "--seed", seed,
             "--out", root / part, "--id-offset", 100 * seed)
    cfg = _config(root / "train.ini", "segmentation", {"train": root / "seg"}, epochs=3,
                  lr="0.2", pipeline="ensemble_k = 2\n")
    _run("train", "--config", cfg, "--seed", 0, "--out", root / "model")
    return root


def test_segmentation_predict_writes_each_id_the_same_masks_in_any_row_order(segmentation,
                                                                             tmp_path):
    reversed_dev = tmp_path / "reversed"
    shutil.copytree(segmentation / "dev", reversed_dev)
    _rewrite_rows(reversed_dev / "index.csv", lambda rows: rows[::-1])
    trees = []
    for name, dev in (("plain", segmentation / "dev"), ("reversed", reversed_dev)):
        cfg = _config(tmp_path / f"{name}.ini", "segmentation",
                      {"dev": dev, "model": segmentation / "model"},
                      pipeline="tta = rotate\npostprocess = true\n")
        _run("predict", "--config", cfg, "--seed", 0, "--out", tmp_path / name)
        trees.append({p.name: p.read_bytes() for p in (tmp_path / name).glob("pred_*.pgm")})
    assert len(trees[0]) == 3 * 3 and trees[0] == trees[1]
    assert _rows(tmp_path / "reversed" / "predictions.csv") == \
        _rows(tmp_path / "plain" / "predictions.csv")[::-1]


def test_evaluate_of_the_ground_truth_scores_one(segmentation, tmp_path, capsys):
    """The dev set's own mask sets, named as predictions, give DSC and IoU 1."""
    rows = _rows(segmentation / "dev" / "index.csv")
    with open(tmp_path / "predictions.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["id", "stem"],
                                  *([sid, image.removesuffix(".pgm")] for sid, image, _ in rows)])
    shutil.copytree(segmentation / "dev", tmp_path, dirs_exist_ok=True)
    cfg = _config(tmp_path / "eval.ini", "segmentation",
                  {"dev": segmentation / "dev", "predictions": tmp_path})
    capsys.readouterr()
    _run("evaluate", "--config", cfg, "--seed", 0, "--out", tmp_path / "eval")
    assert capsys.readouterr().out == "mean_dsc: 1.0000\nmean_iou: 1.0000\n"
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert [(m["metric"], m["value"]) for m in report["metrics"]] == [("mean_dsc", 1.0),
                                                                       ("mean_iou", 1.0)]


@pytest.mark.parametrize("task", ["grading", "segmentation"])
def test_train_ignores_the_ids_of_its_data(grading, segmentation, tmp_path, task):
    """Offsetting every training and dev id by 7000 leaves the manifest, the
    member checkpoints and the dev report byte-identical. For segmentation
    the fit augments and the dev report runs rotation TTA, so neither may
    draw from an id."""
    if task == "grading":
        root, parts, table = grading, {"train": "lab", "dev": "dev"}, "data.csv"
        settings = {"pipeline": "ensemble_k = 2\n"}
    else:
        root, parts, table = segmentation, {"train": "seg", "dev": "dev"}, "index.csv"
        settings = {"epochs": 3, "lr": "0.2", "train": "augment = true\n",
                    "pipeline": "ensemble_k = 2\ntta = rotate\n"}
    moved = tmp_path / "moved"
    for part in parts.values():
        shutil.copytree(root / part, moved / part)
        _offset_ids(moved / part / table, 7000)
    outputs = []
    for name, base in (("plain", root), ("moved", moved)):
        data = {key: base / part / table if task == "grading" else base / part
                for key, part in parts.items()}
        cfg = _config(tmp_path / f"{name}.ini", task, data, **settings)
        _run("train", "--config", cfg, "--seed", 0, "--out", tmp_path / name)
        outputs.append({f: (tmp_path / name / f).read_bytes() for f in (
            "ensemble.json", "member_0.ckpt", "member_1.ckpt", "report.csv", "report.json")})
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def rotation(tmp_path_factory):
    """A 2-member ensemble trained on ten 64x64 images, twenty dev images, and
    the same dev images rotated by 90 degrees."""
    root = tmp_path_factory.mktemp("rotation")
    for part, n, seed in (("seg", 10, 0), ("dev", 20, 1)):
        _run("synth", "--task", "segmentation", "--n", n, "--size", 64, "--seed", seed,
             "--out", root / part)
    cfg = _config(root / "train.ini", "segmentation", {"train": root / "seg"}, epochs=20,
                  lr="0.2", pipeline="ensemble_k = 2\n")
    _run("train", "--config", cfg, "--seed", 0, "--out", root / "model")
    shutil.copytree(root / "dev", root / "rotated")
    for _sid, image, _masks in _rows(root / "dev" / "index.csv"):
        write_pgm(root / "rotated" / image, np.rot90(read_pgm(root / "dev" / image)))
    return root


@pytest.mark.parametrize("pipeline", ["", "postprocess = true\n",
                                      "tta = rotate\npostprocess = true\n"],
                         ids=["plain", "post", "rotate_post"])
def test_segmentation_predict_rotates_each_mask_with_its_image(rotation, tmp_path, pipeline):
    """Predicting on the dev images rotated by 90 degrees writes each mask
    rotated by 90 degrees. The features are box means, so this holds only up to
    float ties: a summed-area table adds a rotated raster in another order, and
    the soft masks differ by about 1e-14. So the test pins the number of
    pixels that differ on this fixed set (0), not a tolerance on soft values."""
    masks = []
    for name in ("dev", "rotated"):
        cfg = _config(tmp_path / f"{name}.ini", "segmentation",
                      {"dev": rotation / name, "model": rotation / "model"}, pipeline=pipeline)
        _run("predict", "--config", cfg, "--seed", 0, "--out", tmp_path / name)
        masks.append({p.name: read_pgm(p) for p in (tmp_path / name).glob("pred_*.pgm")})
    assert len(masks[0]) == 20 * 3 and masks[0].keys() == masks[1].keys()
    assert sum(int((np.rot90(m) != masks[1][f]).sum()) for f, m in masks[0].items()) == 0
    assert sum(m.any() for m in masks[0].values()) == 16  # not vacuous: NP on 16 images


# ---------------------------------------------------------------------------
# The ablation's arm table against each arm's pipeline written out by hand
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("task", ["grading", "quality"])
def test_each_tabular_arm_scores_as_its_pipeline_written_out(task):
    """Each arm of a one-seed ordinal ablation equals its pipeline built from
    the library, with every member refitted from its derived seed: on grading
    +tta and +post round as +rpl does, and on quality +post applies the
    operating thresholds."""
    seed = 5
    cfg = RunConfig(task=task, n_labeled=40, n_unlabeled=60, epochs=5, lr=2e-3,
                    batch_size=16, ensemble_k=2, rpl_rounds=2)
    tcfg = cfg.train_config(seed)
    labeled = gen_ordinal_dataset(40, seed=derive_seed(seed, 1), task=task)
    pool = gen_ordinal_dataset(60, seed=derive_seed(seed, 2), task=task, labeled=False,
                               id_offset=40)
    train, dev = split_train_dev(labeled, 0.8, seed=derive_seed(seed, 3))

    def ensemble(seeds, trainer):
        return Ensemble(tuple(trainer(replace(tcfg, seed=s)) for s in seeds), tuple(seeds))

    rpl = ensemble([derive_seed(seed, 30, i) for i in range(2)],
                   lambda c: rpl_train(train, pool, RPLConfig(base=c, rounds=2)))
    pl = ensemble([derive_seed(seed, 20, i) for i in range(2)],
                  lambda c: naive_pl_train(train, pool, c))
    supervised = ensemble([derive_seed(seed, 10) + i for i in range(2)],
                          lambda c: fit(task, train, c))
    score = lambda grades: qwk(confusion_matrix(dev.labels, grades))
    raw_rpl = ensemble_predict(rpl, dev.features)
    expected = {
        "baseline": score(regressor_class(fit(task, train, tcfg).predict_scalar(dev.features))),
        "+ensemble": score(regressor_class(ensemble_predict(supervised, dev.features))),
        "+pl": score(regressor_class(ensemble_predict(pl, dev.features))),
        "+rpl": score(regressor_class(raw_rpl)),
        "+tta": score(regressor_class(raw_rpl)),
        "+post": score([quality_decision(r) for r in raw_rpl] if task == "quality"
                       else regressor_class(raw_rpl)),
    }
    assert {arm: v["qwk"] for arm, v in cli._tabular_arms(cfg, seed).items()} == expected
    if task == "quality":  # not vacuous: the thresholds decide otherwise than rounding
        assert expected["+post"] != expected["+rpl"]


def test_each_segmentation_arm_scores_as_its_pipeline_written_out():
    """Each arm of a one-seed segmentation ablation equals its pipeline built
    from the library, as acceptance criterion 8 builds it."""
    seed = 2
    cfg = RunConfig(task="segmentation", n_labeled=6, n_dev=4, size=32, epochs=20, lr=0.2,
                    batch_size=8, ensemble_k=2)
    tcfg = cfg.train_config(seed)
    train = gen_seg_dataset(6, 32, seed=derive_seed(seed, 1))
    dev = gen_seg_dataset(4, 32, seed=derive_seed(seed, 2))
    single = fit("segmentation", train, tcfg)
    ens = train_deep_ensemble(train, tcfg, k=2, base_seed=derive_seed(seed, 10))
    binary = lambda soft: (soft >= 0.5).astype(np.uint8)
    dscs = {arm: [] for arm in ("baseline", "+ensemble", "+tta", "+post")}
    for s in dev.samples:
        tta = tta_rotate_seg(lambda img: ensemble_predict(ens, img), s.image)
        for arm, masks in (("baseline", binary(segment_soft(single, s.image))),
                           ("+ensemble", binary(ensemble_predict(ens, s.image))),
                           ("+tta", binary(tta)), ("+post", postprocess_masks(tta))):
            dscs[arm].append(mean_dsc(masks, s.masks))
    expected = {arm: float(np.mean(v)) for arm, v in dscs.items()}
    arms = cli._segmentation_arms(cfg, seed)
    assert {arm: v["mean_dsc"] for arm, v in arms.items()} == expected
    assert expected["+post"] != expected["+tta"]  # not vacuous: post-processing moves DSC
