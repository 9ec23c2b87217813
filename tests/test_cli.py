"""Config parsing, digests, and the command-line workflows."""
import csv
import hashlib
import inspect
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import TWO_CPUS, overflowing_model
from drtricks import cli, ensemble, ssl
from drtricks.cli import main
from drtricks.config import ConfigError, RunConfig, load_config
from drtricks.data import (
    TASKS,
    Dataset,
    Sample,
    gen_ordinal_dataset,
    gen_seg_dataset,
    write_mask_set,
    write_pgm,
    write_seg_dataset,
)
from drtricks.models import MLP, derive_seed, save_checkpoint

BASE_CONFIG = """\
[run]
task = {task}

[data]
train = {train}
dev = {dev}
unlabeled = {unlabeled}
model = {model}
predictions = {predictions}

[train]
epochs = 10
lr = {lr}
batch_size = 16
{train_extra}
[pipeline]
ensemble_k = {k}
{rpl_rounds}{extra}"""


def write_config(tmp_path, **kw):
    """``BASE_CONFIG`` under ``kw``; ``rpl_rounds`` (3 unless given) only for the ordinal tasks."""
    kw.setdefault("task", "grading")
    kw.setdefault("rpl_rounds", None if kw["task"] == "segmentation" else 3)
    kw["rpl_rounds"] = "" if kw["rpl_rounds"] is None else f"rpl_rounds = {kw['rpl_rounds']}\n"
    kw.setdefault("train", tmp_path / "labeled" / "data.csv")
    kw.setdefault("dev", tmp_path / "dev" / "data.csv")
    kw.setdefault("unlabeled", tmp_path / "unlab" / "data.csv")
    kw.setdefault("model", tmp_path / "model" / "model.ckpt")
    kw.setdefault("predictions", tmp_path / "preds" / "predictions.csv")
    kw.setdefault("k", 1)
    kw.setdefault("extra", "")
    kw.setdefault("lr", "2e-3")
    kw.setdefault("train_extra", "")
    path = tmp_path / "run.ini"
    # surrogate escapes become raw bytes, so a case can write bytes that are not UTF-8
    path.write_bytes(BASE_CONFIG.format(**kw).encode(errors="surrogateescape"))
    return path


@pytest.fixture
def workspace(tmp_path):
    assert main(["synth", "--task", "grading", "--n", "60", "--seed", "0",
                 "--out", str(tmp_path / "labeled")]) == 0
    assert main(["synth", "--task", "grading", "--n", "80", "--seed", "1",
                 "--out", str(tmp_path / "unlab"), "--unlabeled",
                 "--id-offset", "10000"]) == 0
    assert main(["synth", "--task", "grading", "--n", "60", "--seed", "2",
                 "--out", str(tmp_path / "dev"), "--id-offset", "20000"]) == 0
    return tmp_path


# every RunConfig field but task -> an INI line that sets it to a value other
# than its default, and that value
NON_DEFAULT = {
    "train_path": ("train = t.csv", "t.csv"), "dev_path": ("dev = d.csv", "d.csv"),
    "unlabeled_path": ("unlabeled = u.csv", "u.csv"), "model_path": ("model = m.ckpt", "m.ckpt"),
    "predictions_path": ("predictions = p.csv", "p.csv"),
    "dim": ("dim = 5", 5), "noise": ("noise = 0.25", 0.25), "size": ("size = 48", 48),
    "n_labeled": ("n_labeled = 30", 30), "n_unlabeled": ("n_unlabeled = 70", 70),
    "n_dev": ("n_dev = 4", 4), "split_ratio": ("split_ratio = 0.6", 0.6),
    "lr": ("lr = 0.01", 0.01), "weight_decay": ("weight_decay = 0.5", 0.5),
    "batch_size": ("batch_size = 3", 3), "epochs": ("epochs = 9", 9),
    "alpha": ("alpha = 0.75", 0.75), "aux": ("aux = focal", "focal"),
    "hidden": ("hidden = 7", 7), "dropout": ("dropout = 0.1", 0.1),
    "augment": ("augment = true", True), "ensemble_k": ("ensemble_k = 3", 3),
    "rpl_rounds": ("rpl_rounds = 2", 2), "tta": ("tta = rotate", "rotate"),
    "postprocess": ("postprocess = true", True),
}
# task -> the fields it reads, besides task itself: the [data] paths and the
# shared settings; the image side, the dev set size, the dice/aux loss,
# augmentation and TTA for segmentation; the feature vectors, the unlabeled
# pool, the split, the MLP and RPL for the ordinal tasks; the quality
# thresholds of post-processing for quality
_SHARED = {"train_path", "dev_path", "unlabeled_path", "model_path", "predictions_path",
           "n_labeled", "lr", "weight_decay", "batch_size", "epochs", "ensemble_k"}
_ORDINAL = {"dim", "noise", "n_unlabeled", "split_ratio", "hidden", "dropout", "rpl_rounds"}
READ_BY = {"segmentation": _SHARED | {"size", "n_dev", "alpha", "aux", "augment", "tta",
                                      "postprocess"},
           "quality": _SHARED | _ORDINAL | {"postprocess"},
           "grading": _SHARED | _ORDINAL}
# (task, field) of every field that the task does not read, from the schema
UNREAD = [(task, f.name) for f in fields(RunConfig) for task in TASKS
          if task not in f.metadata["tasks"]]


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\ntask = grading\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\ntask = grading\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_task_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nepochs = 5\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_bad_values_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\ntask = grading\n[pipeline]\ntta = mirror\n")
        with pytest.raises(ConfigError):
            load_config(p)
        p.write_text("[run]\ntask = grading\n[train]\nepochs = soon\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_defaults_loaded(self, tmp_path):
        p = tmp_path / "min.ini"
        p.write_text("[run]\ntask = quality\n")
        cfg = load_config(p)
        assert cfg.task == "quality"
        assert cfg.ensemble_k == 1 and cfg.tta == "none"
        assert cfg.train_config(7).seed == 7

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        cfg = load_config(path)
        assert (cfg.task, cfg.tta, cfg.ensemble_k, cfg.postprocess) == ("grading", "none", 5, False)

    def test_every_field_set_from_ini_reads_back(self, tmp_path):
        """One config per task sets every key that task reads, and no other,
        to a value other than its default; each reads back as written, with
        its type. Every field is read by some task."""
        defaults = {f.name: f.default for f in fields(RunConfig)}
        assert set(NON_DEFAULT) | {"task"} == defaults.keys()
        assert set().union(*READ_BY.values()) == set(NON_DEFAULT)
        for task in TASKS:
            sections: dict[str, str] = {}
            for f in fields(RunConfig):
                if f.name in READ_BY[task]:
                    sections[f.metadata["section"]] = (sections.get(f.metadata["section"], "")
                                                       + NON_DEFAULT[f.name][0] + "\n")
            p = tmp_path / f"{task}.ini"
            p.write_text(f"[run]\ntask = {task}\n" + "".join(
                f"[{section}]\n{lines}" for section, lines in sections.items()))
            expected = {name: NON_DEFAULT[name][1] for name in READ_BY[task]}
            cfg = load_config(p)
            got = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
            assert got == defaults | expected | {"task": task}
            assert all(type(got[k]) is type(v) for k, v in expected.items())
            assert all(defaults[k] != v for k, v in expected.items())
            assert {f.name for f in fields(RunConfig)
                    if task in f.metadata["tasks"]} == READ_BY[task] | {"task"}

    @pytest.mark.parametrize("task, name", UNREAD, ids=[f"{t}-{n}" for t, n in UNREAD])
    def test_a_key_its_task_does_not_read_is_config_error(self, tmp_path, capsys, task, name):
        f = next(f for f in fields(RunConfig) if f.name == name)
        section, key = f.metadata["section"], f.metadata["key"] or f.name
        p = tmp_path / "unread.ini"
        p.write_text(f"[run]\ntask = {task}\n[{section}]\n{NON_DEFAULT[name][0]}\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2
        readers = " and ".join(f.metadata["tasks"])
        assert capsys.readouterr().err == (f"error: [{section}] {key} applies to {readers} "
                                           f"only, not task {task!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task", ["grading", "quality"])
    def test_augment_rejected_on_tabular_tasks(self, tmp_path, capsys, task):
        p = tmp_path / "aug.ini"
        p.write_text(f"[run]\ntask = {task}\n[train]\naugment = true\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: [train] augment applies to segmentation "
                                           f"only, not task {task!r}\n")

    @pytest.mark.parametrize("setting", ["alpha = 7", "aux = focal", "alpha = 7\naux = focal"],
                             ids=["alpha", "aux", "both"])
    @pytest.mark.parametrize("task", ["grading", "quality"])
    def test_alpha_and_aux_rejected_for_ordinal_tasks(self, tmp_path, capsys, task, setting):
        p = tmp_path / "ordinal.ini"
        p.write_text(f"[run]\ntask = {task}\n[train]\n{setting}\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2
        key = setting.split()[0]  # with both set, the first field is named
        assert capsys.readouterr().err == (f"error: [train] {key} applies to segmentation "
                                           f"only, not task {task!r}\n")

    @pytest.mark.parametrize("setting", ["hidden = 8", "dropout = 0.1"], ids=["hidden", "dropout"])
    def test_hidden_and_dropout_rejected_for_segmentation(self, tmp_path, capsys, setting):
        p = tmp_path / "seg.ini"
        p.write_text(f"[run]\ntask = segmentation\n[train]\n{setting}\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"error: [train] {setting.split()[0]} applies to "
                                           "quality and grading only, not task 'segmentation'\n")

    def test_digest_changes_iff_semantic_field_changes(self):
        a = RunConfig(task="grading")
        same = RunConfig(task="grading", train_path="/somewhere/else.csv")
        different = RunConfig(task="grading", epochs=7)
        assert a.digest() == same.digest()  # paths are not semantic
        assert a.digest() != different.digest()
        assert a.digest() != RunConfig(task="quality").digest()


class TestSynth:
    def test_grading_counts_echoed(self, tmp_path, capsys):
        assert main(["synth", "--task", "grading", "--n", "611", "--seed", "0",
                     "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "class 0: 329" in out
        assert "class 1: 212" in out
        assert "class 2: 70" in out

    def test_an_unlabeled_pool_echoes_no_class_counts(self, tmp_path, capsys):
        assert main(["synth", "--task", "grading", "--n", "40", "--seed", "0",
                     "--out", str(tmp_path / "d"), "--unlabeled"]) == 0
        assert capsys.readouterr().out == f"wrote 40 samples to {tmp_path / 'd' / 'data.csv'}\n"

    def test_same_seed_identical_files(self, tmp_path):
        for d in ("a", "b"):
            main(["synth", "--task", "grading", "--n", "60", "--seed", "5",
                  "--out", str(tmp_path / d)])
        assert (tmp_path / "a" / "data.csv").read_bytes() == \
               (tmp_path / "b" / "data.csv").read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--task", "grading", "--n", "60",
                  "--out", str(tmp_path / "d")])
        assert exc.value.code == 2

    def test_an_allocation_that_cannot_be_made_exits_2_with_one_line(self, tmp_path, capsys):
        # 728 TiB: more than any address space holds, so NumPy refuses it untouched
        assert main(["synth", "--task", "segmentation", "--n", "1", "--seed", "0",
                     "--size", "10000000", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 728. TiB") and err.count("\n") == 1

    def test_segmentation_synth(self, tmp_path):
        assert main(["synth", "--task", "segmentation", "--n", "3", "--seed", "0",
                     "--size", "32", "--out", str(tmp_path / "seg")]) == 0
        assert (tmp_path / "seg" / "index.csv").exists()

    @pytest.mark.parametrize("task, flag, readers", [
        ("segmentation", ["--unlabeled"], "quality and grading"),
        ("segmentation", ["--dim", "5"], "quality and grading"),
        ("segmentation", ["--noise", "0.25"], "quality and grading"),
        ("quality", ["--size", "48"], "segmentation"),
        ("grading", ["--size", "48"], "segmentation"),
    ], ids=["segmentation-unlabeled", "segmentation-dim", "segmentation-noise", "quality-size",
            "grading-size"])
    def test_a_flag_its_task_ignores_is_usage_error(self, tmp_path, capsys, task, flag, readers):
        assert main(["synth", "--task", task, "--n", "30", "--seed", "0", *flag,
                     "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == (f"error: {flag[0]} applies to {readers} only, "
                                           f"not task {task!r}\n")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("task, flags", [
        ("segmentation", ["--dim", "8", "--noise", "0.5"]), ("grading", ["--size", "64"])],
        ids=["segmentation", "grading"])
    def test_a_flag_its_task_ignores_may_hold_its_default(self, tmp_path, task, flags):
        assert main(["synth", "--task", task, "--n", "30", "--seed", "0", *flags,
                     "--out", str(tmp_path / "d")]) == 0

    def test_defaults_equal_run_config_and_generators(self):
        args = cli.build_parser().parse_args(
            ["synth", "--task", "grading", "--n", "1", "--seed", "0", "--out", "d"])
        config = {f.name: f.default for f in fields(RunConfig)}
        generators = {**inspect.signature(gen_ordinal_dataset).parameters,
                      **inspect.signature(gen_seg_dataset).parameters}
        for name in ("dim", "noise", "size"):
            assert getattr(args, name) == config[name] == generators[name].default, name


class TestWorkflows:
    def test_train_predict_evaluate(self, workspace, capsys):
        cfg = write_config(workspace)
        assert main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / "model")]) == 0
        assert (workspace / "model" / "model.ckpt").exists()
        assert (workspace / "model" / "report.csv").exists()

        assert main(["predict", "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / "preds")]) == 0
        out = capsys.readouterr().out
        assert "pipeline: single -> tta(off) -> round -> post(off)" in out

        assert main(["evaluate", "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / "eval")]) == 0
        rows = list(csv.DictReader(open(workspace / "eval" / "report.csv")))
        metrics = {r["metric"]: float(r["value"]) for r in rows}
        assert set(metrics) == {"qwk", "accuracy"}

    def test_perfect_predictions_score_one(self, workspace, capsys):
        cfg = write_config(workspace,
                           predictions=workspace / "perfect.csv")
        truth = list(csv.reader(open(workspace / "dev" / "data.csv")))
        with open(workspace / "perfect.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "prediction"])
            for row in truth[1:]:
                w.writerow([row[0], row[-1]])
        assert main(["evaluate", "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / "eval")]) == 0
        rows = list(csv.DictReader(open(workspace / "eval" / "report.csv")))
        metrics = {r["metric"]: float(r["value"]) for r in rows}
        assert metrics["qwk"] == 1.0
        assert metrics["accuracy"] == 1.0

    def test_rpl_emits_audit_rounds(self, workspace):
        cfg = write_config(workspace)
        assert main(["rpl", "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / "rpl")]) == 0
        rows = list(csv.DictReader(open(workspace / "rpl" / "audit.csv")))
        assert sorted({int(r["round"]) for r in rows}) == [1, 2, 3]

    def test_rpl_with_k_3_trains_three_members(self, workspace, capsys):
        for k in (1, 3):
            cfg = write_config(workspace, k=k)
            capsys.readouterr()
            assert main(["rpl", "--config", str(cfg), "--seed", "0",
                         "--out", str(workspace / f"rpl{k}")]) == 0
        out, rpl1, rpl3 = capsys.readouterr().out, workspace / "rpl1", workspace / "rpl3"
        assert set(_files(rpl3)) == {"ensemble.json", "report.csv", "report.json",
                                     *(f"member_{i}{suffix}" for i in range(3)
                                       for suffix in (".ckpt", "_audit.csv"))}
        assert out.startswith("reliable pseudo labeling over 3 rounds; ensemble of 3; "
                              f"manifest {rpl3 / 'ensemble.json'}\n")
        assert all(f"audit log {rpl3 / f'member_{i}_audit.csv'}\n" in out for i in range(3))
        assert (rpl3 / "member_0.ckpt").read_bytes() == (rpl1 / "model.ckpt").read_bytes()
        assert (rpl3 / "member_0_audit.csv").read_bytes() == (rpl1 / "audit.csv").read_bytes()
        assert (rpl3 / "member_1.ckpt").read_bytes() != (rpl1 / "model.ckpt").read_bytes()

    def test_ensemble_training_writes_manifest(self, workspace):
        cfg = write_config(workspace, k=2, model=workspace / "ens")
        assert main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / "ens")]) == 0
        assert (workspace / "ens" / "ensemble.json").exists()
        assert main(["predict", "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / "preds")]) == 0

    def test_missing_data_path_is_config_error(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[run]\ntask = grading\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2

    def test_unknown_key_exit_code(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[run]\ntask = grading\nbogus = 1\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2


ABLATE_CONFIG = """\
[run]
task = {task}

[synth]
n_labeled = {n_labeled}
{synth}
[train]
epochs = 5
lr = {lr}
batch_size = 8

[pipeline]
ensemble_k = 2
{pipeline}"""
# task -> the [synth] and [pipeline] lines of the keys that only its kind of task reads
ABLATE_TASK_KEYS = {"grading": {"synth": "n_unlabeled = 60\nnoise = 0.5\n",
                                "pipeline": "rpl_rounds = 2\n"},
                    "segmentation": {"synth": "n_dev = 2\nsize = 32\n", "pipeline": ""}}


def ablate_config(task: str, n_labeled: int, lr: str) -> str:
    return ABLATE_CONFIG.format(task=task, n_labeled=n_labeled, lr=lr, **ABLATE_TASK_KEYS[task])


class TestAblate:
    def test_grading_six_rows_and_determinism(self, tmp_path):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ablate_config(task="grading", n_labeled=40, lr="2e-3"))
        for d in ("a", "b"):
            assert main(["ablate", "--config", str(cfg), "--seeds", "0,1",
                         "--out", str(tmp_path / d)]) == 0
        a = (tmp_path / "a" / "ablation.csv").read_bytes()
        b = (tmp_path / "b" / "ablation.csv").read_bytes()
        assert a == b
        rows = list(csv.DictReader(open(tmp_path / "a" / "ablation.csv")))
        assert [r["arm"] for r in rows] == ["baseline", "+ensemble", "+pl",
                                            "+rpl", "+tta", "+post"]
        assert all(r["metric"] == "qwk" for r in rows)

    def test_a_labeled_set_past_10000_samples_runs(self, tmp_path, cpus):
        # the pool is numbered from n_labeled on, so no labeled id can fall in it
        cpus(1)
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ablate_config(task="grading", n_labeled=10001, lr="2e-3")
                       .replace("n_unlabeled = 60", "n_unlabeled = 30")
                       .replace("epochs = 5", "epochs = 1")
                       .replace("ensemble_k = 2", "ensemble_k = 1")
                       .replace("rpl_rounds = 2", "rpl_rounds = 1"))
        assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                     "--out", str(tmp_path / "a")]) == 0
        rows = list(csv.DictReader(open(tmp_path / "a" / "ablation.csv")))
        assert len(rows) == 6 and all(np.isfinite(float(r["mean"])) for r in rows)

    def test_segmentation_four_rows(self, tmp_path):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ablate_config(task="segmentation", n_labeled=4,
                                            lr="0.2"))
        assert main(["ablate", "--config", str(cfg), "--seeds", "3",
                     "--out", str(tmp_path / "seg")]) == 0
        rows = list(csv.DictReader(open(tmp_path / "seg" / "ablation.csv")))
        assert [r["arm"] for r in rows] == ["baseline", "+ensemble", "+tta", "+post"]
        assert all(r["metric"] == "mean_dsc" for r in rows)
        assert all(np.isfinite(float(r["mean"])) for r in rows)

    def test_segmentation_without_dev_images_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ablate_config(task="segmentation", n_labeled=4, lr="0.2")
                       .replace("n_dev = 2", "n_dev = 0"))
        assert main(["ablate", "--config", str(cfg), "--seeds", "3",
                     "--out", str(tmp_path / "seg")]) == 2
        # the generator rejects the empty dev set before any member trains
        assert capsys.readouterr().err == "error: need n >= 1\n"
        assert not (tmp_path / "seg" / "ablation.csv").exists()

    @pytest.mark.parametrize("seeds", [",", " , ,", ""])
    def test_empty_seed_list_is_usage_error(self, tmp_path, capsys, seeds):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ablate_config(task="grading", n_labeled=40, lr="2e-3"))
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(cfg), "--seeds", seeds,
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "empty seed list" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_seed_list_is_usage_error(self, tmp_path):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ablate_config(task="grading", n_labeled=40, lr="2e-3"))
        for seeds in ("zero", "-1", "0,-1", "1,-2,3", "1.5", "0,0", "1,2,1"):
            with pytest.raises(SystemExit) as exc:
                main(["ablate", "--config", str(cfg), "--seeds", seeds,
                      "--out", str(tmp_path / "x")])
            assert exc.value.code == 2, seeds
        assert not (tmp_path / "x").exists()

    def test_a_repeated_seed_is_named(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(tmp_path / "abl.ini"), "--seeds", "0,0",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "argument --seeds: duplicate seed 0 in '0,0'\n" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        for argv in (["train", "--config", str(write_config(tmp_path))],
                     ["synth", "--task", "grading", "--n", "30"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--seed", "-1", "--out", str(tmp_path / "x")])
            assert exc.value.code == 2
            assert "argument --seed: negative seed '-1'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("task, section, line", [
        ("segmentation", "train", "augment = true"), ("segmentation", "pipeline", "tta = rotate"),
        ("segmentation", "pipeline", "postprocess = true"),
        ("quality", "pipeline", "postprocess = true")],
        ids=["segmentation-augment", "segmentation-tta", "segmentation-postprocess",
             "quality-postprocess"])
    def test_a_setting_its_arms_override_is_config_error(self, tmp_path, capsys, task,
                                                         section, line):
        text = ablate_config(task="grading" if task == "quality" else task, n_labeled=4,
                             lr="0.2").replace("task = grading", f"task = {task}")
        cfg = tmp_path / "abl.ini"
        cfg.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert main(["ablate", "--config", str(cfg), "--seeds", "3",
                     "--out", str(tmp_path / "out")]) == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == (f"error: ablate sets [{section}] {key} per arm; "
                                           "leave it at its default\n")
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Members trained over one or two worker processes give the same outputs
# ---------------------------------------------------------------------------

def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


TTA_POST = "tta = rotate\npostprocess = true\n"  # ablate rejects them: its arms set both


def _seg_config(tmp_path: Path, dev: Path, k: int, lr: float = 0.2, model: str = "") -> Path:
    """A segmentation config over ``tmp_path / "seg"`` and ``dev`` with k members,
    rotation TTA and post-processing; ``model`` is an optional ``[data]`` line."""
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=lr)
                   .replace("[train]", f"dev = {dev}\n{model}\n[train]")
                   + f"\n[pipeline]\nensemble_k = {k}\n{TTA_POST}")
    return cfg


def _seg_workspace(tmp_path: Path, lr: float, k: int = 3, n: int = 4, size: int = 32,
                   model: str = "") -> Path:
    for part, seed in (("seg", 0), ("dev", 1)):
        assert main(["synth", "--task", "segmentation", "--n", str(n), "--size", str(size),
                     "--seed", str(seed), "--out", str(tmp_path / part),
                     "--id-offset", str(100 * seed)]) == 0
    return _seg_config(tmp_path, tmp_path / "dev", k, lr, model)


class TestWorkers:
    @pytest.mark.parametrize("task, command", [
        ("grading", "ablate"), ("grading", "train"), ("grading", "rpl"),
        ("segmentation", "ablate"), ("segmentation", "train"),
        ("augmented_segmentation", "train")])
    def test_one_and_two_cpus_write_the_same_bytes(self, workspace, capsys, cpus,
                                                   command, task):
        k = 2 if task == "augmented_segmentation" else 3
        if task == "grading":
            cfg = write_config(workspace, k=k,
                               extra="[synth]\nn_labeled = 40\nn_unlabeled = 60\n")
        else:
            cfg = _seg_workspace(workspace, lr=0.2, k=k)
            if task == "augmented_segmentation":  # each member augments in its own worker
                cfg.write_text(cfg.read_text().replace("batch_size = 4",
                                                       "batch_size = 4\naugment = true"))
            if command == "ablate":
                cfg.write_text(cfg.read_text().replace(TTA_POST, ""))
        seeds = ["--seeds", "0,1"] if command == "ablate" else ["--seed", "0"]
        outputs = []
        for ncpu in (1, 2):
            cpus(ncpu)
            capsys.readouterr()
            out = workspace / f"cpus{ncpu}"
            assert main([command, "--config", str(cfg), *seeds, "--out", str(out)]) == 0
            outputs.append((_files(out), capsys.readouterr().out.replace(str(out), "OUT")))
        assert outputs[0] == outputs[1]
        expected = {"ablation.csv"} if command == "ablate" else {
            "ensemble.json", *(f"member_{i}.ckpt" for i in range(k)), "report.csv",
            "report.json", *(f"member_{i}_audit.csv" for i in range(k) if command == "rpl")}
        assert set(outputs[0][0]) == expected

    def test_a_failing_rpl_member_exits_3_and_saves_no_model(self, workspace, capsys, cpus,
                                                              monkeypatch):
        original = cli.rpl_train

        def failing_second_member(labeled, pool, cfg, audit_path):
            if cfg.base.seed == 1:  # member 1 of seed 0
                raise FloatingPointError("overflow")
            return original(labeled, pool, cfg, audit_path)

        monkeypatch.setattr(cli, "rpl_train", failing_second_member)
        cfg = write_config(workspace, k=3)
        for ncpu in (1, 2):
            cpus(ncpu)
            out = workspace / f"out{ncpu}"
            assert main(["rpl", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 3
            assert capsys.readouterr().err == "numerical failure: member 1 failed: overflow\n"
            assert not list(out.glob("*.ckpt")) and not (out / "ensemble.json").exists()

    def test_saturating_ensemble_exits_3_with_one_line_on_any_cpus(self, tmp_path, capsys,
                                                                   cpus):
        cfg = _seg_workspace(tmp_path, lr=1e9)
        errors = []
        for ncpu in (1, 2):
            cpus(ncpu)
            capsys.readouterr()
            assert main(["train", "--config", str(cfg), "--seed", "0",
                         "--out", str(tmp_path / f"out{ncpu}")]) == 3
            errors.append(capsys.readouterr().err)
            with pytest.raises(ChildProcessError):  # every worker was reaped
                os.waitpid(-1, os.WNOHANG)
        assert errors[0] == errors[1]
        assert errors[0].startswith("numerical failure: member 0 failed: ")
        assert errors[0].count("\n") == 1 and "overflow" in errors[0]
        assert not (tmp_path / "out2" / "ensemble.json").exists()

    @pytest.mark.parametrize("trainer, arm, key", [("naive_pl_train", "+pl", 20),
                                                   ("rpl_train", "+rpl", 30)])
    def test_ablate_names_the_arm_of_a_failing_member(self, tmp_path, capsys, cpus,
                                                      monkeypatch, trainer, arm, key):
        original = getattr(cli, trainer)

        def failing_second_member(*args):
            cfg = args[-1] if trainer == "naive_pl_train" else args[-1].base
            if cfg.seed == derive_seed(0, key, 1):
                raise FloatingPointError("overflow")
            return original(*args)

        monkeypatch.setattr(cli, trainer, failing_second_member)
        cfg = write_config(tmp_path, k=3, extra="[synth]\nn_labeled = 40\nn_unlabeled = 60\n")
        errors = []
        for ncpu in (1, 2):
            cpus(ncpu)
            assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                         "--out", str(tmp_path / f"out{ncpu}")]) == 3
            errors.append(capsys.readouterr().err)
        assert errors == [f"numerical failure: {arm} member 1 failed: overflow\n"] * 2

    def test_ablate_names_the_lowest_failing_member_of_its_layout(self, tmp_path, capsys,
                                                                 cpus, monkeypatch):
        failing = {derive_seed(0, 20, 0), derive_seed(0, 30, 2)}  # +pl 0 and +rpl 2

        def failing_members(original):
            def trainer(*args):
                cfg = getattr(args[-1], "base", args[-1])  # an RPLConfig or a TrainConfig
                if cfg.seed in failing:
                    raise FloatingPointError("overflow")
                return original(*args)
            return trainer

        for trainer_name in ("naive_pl_train", "rpl_train"):
            monkeypatch.setattr(cli, trainer_name, failing_members(getattr(cli, trainer_name)))
        cfg = write_config(tmp_path, k=3, extra="[synth]\nn_labeled = 40\nn_unlabeled = 60\n")
        errors = []
        for ncpu in (1, 2):
            cpus(ncpu)
            assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                         "--out", str(tmp_path / f"out{ncpu}")]) == 3
            errors.append(capsys.readouterr().err)
        # the RPL members come first in the layout of the map
        assert errors == ["numerical failure: +rpl member 2 failed: overflow\n"] * 2

    @pytest.mark.parametrize("task", ["grading", "segmentation"])
    def test_ablate_names_a_failing_baseline(self, workspace, capsys, cpus, monkeypatch,
                                             task):
        original = cli.fit

        def failing_baseline(task, data, cfg):
            if cfg.seed == 0:  # the ablate seed: only the single fit trains with it
                raise FloatingPointError("overflow")
            return original(task, data, cfg)

        monkeypatch.setattr(cli, "fit", failing_baseline)
        if task == "grading":
            cfg = write_config(workspace, k=2,
                               extra="[synth]\nn_labeled = 40\nn_unlabeled = 60\n")
        else:
            cfg = _seg_workspace(workspace, lr=0.2, k=2)
            cfg.write_text(cfg.read_text().replace(TTA_POST, "")
                           + "\n[synth]\nn_labeled = 4\nn_dev = 2\nsize = 32\n")
        errors = []
        for ncpu in (1, 2):
            cpus(ncpu)
            assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                         "--out", str(workspace / f"out{ncpu}")]) == 3
            errors.append(capsys.readouterr().err)
        assert errors == ["numerical failure: baseline member 0 failed: overflow\n"] * 2


# ---------------------------------------------------------------------------
# bad input ends with exit 2 (or 3 when numerical) and one line on stderr
# ---------------------------------------------------------------------------

def _checkpoint(ws: Path, edit) -> dict:
    path = ws / "bad.ckpt"
    save_checkpoint(path, MLP([8, 32, 1], "scalar"))
    path.write_bytes(edit(path.read_bytes()))
    return {"model": path}


def _manifest(ws: Path, text: str) -> dict:
    (ws / "ens").mkdir()
    (ws / "ens" / "ensemble.json").write_text(text)
    return {"model": ws / "ens"}


def _predictions(ws: Path, text: bytes) -> dict:
    (ws / "bad_preds.csv").write_bytes(text)
    return {"predictions": ws / "bad_preds.csv"}


def _train_csv(ws: Path, text: bytes, k: int = 1) -> dict:
    (ws / "bad_train.csv").write_bytes(text)
    return {"train": ws / "bad_train.csv", "k": k}


def _dev_csv(ws: Path, text: bytes) -> dict:
    (ws / "bad_dev.csv").write_bytes(text)
    return {"dev": ws / "bad_dev.csv"}


def _unlabeled_dev(ws: Path) -> dict:
    """The dev CSV with the first sample's label left empty, and a prediction per sample."""
    lines = (ws / "dev" / "data.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ","
    ids = [line.split(",", 1)[0] for line in lines[1:]]
    return {**_dev_csv(ws, ("\n".join(lines) + "\n").encode()),
            **_predictions(ws, ("id,prediction\n" + "".join(f"{i},0\n" for i in ids)).encode())}


def _dev_ids(ws: Path) -> list[str]:
    lines = (ws / "dev" / "data.csv").read_text().splitlines()[1:]
    return [line.split(",", 1)[0] for line in lines]


def _dev_header(ws: Path) -> bytes:
    """The dev CSV's header line: a training CSV with it is as wide as the dev set."""
    return (ws / "dev" / "data.csv").read_bytes().split(b"\n", 1)[0] + b"\n"


def _unlabeled_training_row(ws: Path) -> dict:
    """A training CSV of the first dev row with its label left empty."""
    header, row = (ws / "dev" / "data.csv").read_text().splitlines()[:2]
    return _train_csv(ws, f"{header}\n{row.rsplit(',', 1)[0]},\n".encode())


def _wide_predictions(ws: Path) -> dict:
    """A prediction for every dev sample, each row with a third field."""
    return _predictions(ws, ("id,prediction\n" + "".join(f"{i},1,7\n" for i in _dev_ids(ws)))
                        .encode())


def _predictions_listing_an_id_twice(ws: Path) -> dict:
    """A prediction for every dev sample, then a contradicting one for the first."""
    ids = _dev_ids(ws)
    return _predictions(ws, ("id,prediction\n" + "".join(f"{i},0\n" for i in ids)
                             + f"{ids[0]},2\n").encode())


def _segmentation_predictions(ws: Path, rows) -> dict:
    """A segmentation dev set whose predictions.csv has a row per item of
    ``rows(truth)``, where ``truth`` lists (id, stem) of the truth mask sets."""
    dev = _segmentation_dev(ws)["dev"]
    truth = [(sid, image.removesuffix(".pgm")) for sid, image, _ in
             (line.split(",") for line in (dev / "index.csv").read_text().splitlines()[1:])]
    (dev / "predictions.csv").write_text(
        "id,stem\n" + "".join(",".join(row) + "\n" for row in rows(truth)))
    return {"task": "segmentation", "dev": dev, "predictions": dev}


def _wide_segmentation_predictions(ws: Path) -> dict:
    """Predictions naming the truth mask sets, each row with a third field."""
    return _segmentation_predictions(ws, lambda truth: [(*row, "7") for row in truth])


def _segmentation_predictions_listing_an_id_twice(ws: Path) -> dict:
    """Predictions naming the truth mask sets, then the first id with the second's."""
    return _segmentation_predictions(ws, lambda truth: [*truth, (truth[0][0], truth[1][1])])


def _segmentation_predictions_of_another_size(ws: Path) -> dict:
    """Empty predicted mask sets for the 32x32 dev images, the first 33x32."""
    dev = _segmentation_dev(ws)["dev"]
    (ws / "bigpreds").mkdir()
    for sid, rows in ((0, 33), (1, 32)):
        write_mask_set(ws / "bigpreds" / f"pred_{sid}", np.zeros((3, rows, 32), np.uint8))
    (ws / "bigpreds" / "predictions.csv").write_text("id,stem\n0,pred_0\n1,pred_1\n")
    return {"task": "segmentation", "dev": dev, "predictions": ws / "bigpreds"}


def _unlabeled_segmentation_dev(ws: Path) -> dict:
    """Labeled training images; a dev copy whose first image has no mask set, with
    predictions that name the truth masks still on disk."""
    train, dev = _segmentation_dev(ws)["dev"], ws / "segunl"
    shutil.copytree(train, dev)
    rows = [line.split(",") for line in (dev / "index.csv").read_text().splitlines()]
    rows[1][2] = "0"
    (dev / "index.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    (dev / "predictions.csv").write_text("id,stem\n" + "".join(
        f"{sid},{image.removesuffix('.pgm')}\n" for sid, image, _ in rows[1:]))
    return {"task": "segmentation", "train": train, "dev": dev, "predictions": dev}


def _unmasked_segmentation_train(ws: Path) -> dict:
    """Training images of which the first has no mask set; a labeled dev set."""
    case = _unlabeled_segmentation_dev(ws)
    return {**case, "train": case["dev"], "dev": case["train"]}


def _empty_segmentation_dev(ws: Path) -> dict:
    (ws / "segempty").mkdir()
    (ws / "segempty" / "index.csv").write_text("id,image,has_masks\n")
    return {"task": "segmentation", "train": _segmentation_dev(ws)["dev"],
            "dev": ws / "segempty"}


def _index_not_utf8(ws: Path) -> dict:
    (ws / "segbad").mkdir()
    (ws / "segbad" / "index.csv").write_bytes(b"id,image,has_masks\n0,\xff.pgm,0\n")
    return {"task": "segmentation", "train": ws / "segbad"}


def _index_image_name_with_nul(ws: Path) -> dict:
    (ws / "segnul").mkdir()
    (ws / "segnul" / "index.csv").write_text("id,image,has_masks\n0,a\0b.pgm,0\n")
    return {"task": "segmentation", "train": ws / "segnul"}


def _index_image_name_too_long(ws: Path) -> dict:
    (ws / "seglong").mkdir()
    (ws / "seglong" / "index.csv").write_text(f"id,image,has_masks\n0,{'a' * 300}.pgm,0\n")
    return {"task": "segmentation", "train": ws / "seglong"}


def _nul_segmentation_predictions(ws: Path) -> dict:
    """Predictions naming the truth mask sets, the first stem with a NUL byte in it."""
    return _segmentation_predictions(ws, lambda truth: [
        (sid, stem[:3] + "\0" + stem[3:] if i == 0 else stem)
        for i, (sid, stem) in enumerate(truth)])


def _first_id(path: Path, sid: int) -> dict:
    """Give the first sample of a dataset CSV or index.csv the id ``sid``; no
    config override."""
    rows = path.read_text().splitlines()
    rows[1] = f"{sid}," + rows[1].split(",", 1)[1]
    path.write_text("\n".join(rows) + "\n")
    return {}


def _index_id_past_int64(ws: Path) -> dict:
    case = _segmentation_train(ws)
    _first_id(case["train"] / "index.csv", 2**63)
    return case


def _mask_channels_of_different_sizes(ws: Path) -> dict:
    case = _segmentation_train(ws)
    write_pgm(case["train"] / "sample_00000_np.pgm", np.zeros((33, 32), np.uint8))
    return case


def _five_feature_dev(ws: Path) -> dict:
    assert main(["synth", "--task", "grading", "--n", "30", "--seed", "3", "--dim", "5",
                 "--out", str(ws / "dev5")]) == 0
    return {"dev": ws / "dev5" / "data.csv"}


def _segmentation_dev(ws: Path) -> dict:
    assert main(["synth", "--task", "segmentation", "--n", "2", "--size", "32",
                 "--seed", "3", "--out", str(ws / "segdev")]) == 0
    return {"task": "segmentation", "dev": ws / "segdev"}


def _segmentation_train(ws: Path) -> dict:
    """Two labeled images, both the training data and the dev set."""
    case = _segmentation_dev(ws)
    return {**case, "train": case["dev"]}


def _pixel_checkpoint(ws: Path) -> dict:
    save_checkpoint(ws / "pixel.ckpt", MLP([4, 3], "pixel"))
    return {"model": ws / "pixel.ckpt"}


def _head_of(ws: Path, model: MLP, member: bool = False) -> dict:
    """``model`` saved as the checkpoint to predict with, or as the one member of a manifest."""
    if not member:
        save_checkpoint(ws / "head.ckpt", model)
        return {"model": ws / "head.ckpt"}
    case = _manifest(ws, '{"members": [{"path": "member_0.ckpt", "seed": 0}]}')
    save_checkpoint(ws / "ens" / "member_0.ckpt", model)
    return case


# case -> (command, config overrides written by the case[, text the message must hold])
BAD_INPUTS = {
    "checkpoint_10_bytes": ("predict", lambda ws: _checkpoint(ws, lambda b: b[:10])),
    "checkpoint_30_bytes": ("predict", lambda ws: _checkpoint(ws, lambda b: b[:30])),
    "checkpoint_200_bytes": ("predict", lambda ws: _checkpoint(ws, lambda b: b[:200])),
    "checkpoint_head_code_0": ("predict",
                               lambda ws: _checkpoint(ws, lambda b: b[:4] + b"\0" + b[5:])),
    "checkpoint_parameter_nan": (
        "predict", lambda ws: _checkpoint(ws, lambda b: b[:-8] + struct.pack("<d", np.nan))),
    "checkpoint_parameter_inf": (
        "predict", lambda ws: _checkpoint(ws, lambda b: b[:-8] + struct.pack("<d", np.inf))),
    "manifest_open_brace": ("predict", lambda ws: _manifest(ws, "{")),
    "manifest_without_members": ("predict", lambda ws: _manifest(ws, '{"x": 1}')),
    "prediction_not_integer": ("evaluate", lambda ws: _predictions(ws, b"id,prediction\n0,x\n")),
    "prediction_row_with_third_field": ("evaluate", _wide_predictions),
    "segmentation_prediction_row_with_third_field": ("evaluate", _wide_segmentation_predictions),
    "prediction_columns_misnamed": (
        "evaluate", lambda ws: _predictions(ws, b"id,grade\n20000,1\n"),
        "unexpected prediction columns"),
    "prediction_missing_for_a_dev_sample": (
        "evaluate", lambda ws: _predictions(ws, b"id,prediction\n20000,1\n"),
        "no prediction for sample 20001"),
    "prediction_listed_twice": ("evaluate", _predictions_listing_an_id_twice,
                                "bad_preds.csv: sample 20000 is listed more than once"),
    "segmentation_prediction_listed_twice": (
        "evaluate", _segmentation_predictions_listing_an_id_twice,
        "predictions.csv: sample 0 is listed more than once"),
    "segmentation_predicted_masks_of_another_size": (
        "evaluate", _segmentation_predictions_of_another_size,
        "sample 0: predicted masks are 33x32, its ground truth 32x32"),
    "evaluate_dev_csv_header_only": (
        "evaluate", lambda ws: {**_dev_csv(ws, _dev_header(ws)),
                                **_predictions(ws, b"id,prediction\n")},
        "the dev set holds no samples to score"),
    # as wide as the dev set, so that no width check comes first
    "training_csv_header_only": ("train", lambda ws: _train_csv(ws, _dev_header(ws)),
                                 "training data must be nonempty"),
    "training_csv_header_only_ensemble": (
        "train", lambda ws: _train_csv(ws, _dev_header(ws), k=2), "training data must be nonempty"),
    "training_csv_empty_label": ("train", _unlabeled_training_row,
                                 "training requires labeled samples"),
    "training_csv_misnamed_feature_columns": (
        "train", lambda ws: _train_csv(ws, b"id,feat_1,label\n0,0.5,1\n"),
        "malformed feature columns"),
    "segmentation_training_image_without_masks": (
        "train", _unmasked_segmentation_train, "segmentation training requires images with masks"),
    "mask_channels_of_different_sizes": ("train", _mask_channels_of_different_sizes,
                                         "mask channel dimensions disagree"),
    # a checkpoint that does not fit the task's data
    "dev_report_narrower_than_model": ("train", _five_feature_dev),
    "rpl_dev_report_narrower_than_model": ("rpl", _five_feature_dev),
    "ensemble_dev_report_narrower_than_model": (
        "train", lambda ws: {**_five_feature_dev(ws), "k": 2}),
    "rpl_pool_narrower_than_training_data": (
        "rpl", lambda ws: {"unlabeled": _five_feature_dev(ws)["dev"]}),
    "predict_input_narrower_than_model": (
        "predict", lambda ws: {**_checkpoint(ws, lambda b: b), **_five_feature_dev(ws)}),
    "scalar_checkpoint_under_segmentation": (
        "predict", lambda ws: {**_checkpoint(ws, lambda b: b), **_segmentation_dev(ws)}),
    "pixel_checkpoint_under_grading": ("predict", _pixel_checkpoint),
    # a checkpoint whose output width does not fit its head
    "pixel_checkpoint_of_2_outputs": (
        "predict", lambda ws: {**_segmentation_dev(ws), **_head_of(ws, MLP([4, 2], "pixel"))},
        "the pixel head has 2 outputs; it needs 3"),
    "scalar_checkpoint_of_2_outputs": (
        "predict", lambda ws: _head_of(ws, MLP([8, 32, 2], "scalar")),
        "the scalar head has 2 outputs; it needs 1"),
    "ensemble_member_of_2_outputs": (
        "predict", lambda ws: _head_of(ws, MLP([8, 32, 2], "scalar"), member=True),
        "member_0.ckpt: the scalar head has 2 outputs; it needs 1"),
    "dev_csv_header_only": (
        "predict", lambda ws: {**_checkpoint(ws, lambda b: b), **_dev_csv(ws, b"id,feat_0,label\n")}),
    # a dev sample without ground truth cannot be scored
    "dev_report_unlabeled_sample": ("train", _unlabeled_dev),
    "rpl_dev_report_unlabeled_sample": ("rpl", _unlabeled_dev),
    "evaluate_unlabeled_sample": ("evaluate", _unlabeled_dev),
    "segmentation_dev_report_unmasked_sample": ("train", _unlabeled_segmentation_dev),
    "segmentation_evaluate_unmasked_sample": ("evaluate", _unlabeled_segmentation_dev),
    "segmentation_dev_report_empty_dev": ("train", _empty_segmentation_dev),
    "segmentation_predict_empty_dev": (
        "predict", lambda ws: {**_empty_segmentation_dev(ws), **_pixel_checkpoint(ws)}),
    # a sample id outside the int64 range
    "training_csv_id_past_int64": (
        "train", lambda ws: _first_id(ws / "labeled" / "data.csv", 2**63)),
    "training_csv_id_below_int64": (
        "train", lambda ws: _first_id(ws / "labeled" / "data.csv", -2**63 - 1)),
    "rpl_pool_id_past_uint64": ("rpl", lambda ws: _first_id(ws / "unlab" / "data.csv", 2**64 + 4)),
    # rejected before any model is fitted
    "rpl_pool_id_in_the_training_data": (
        "rpl", lambda ws: _first_id(ws / "unlab" / "data.csv", 7),
        "sample id 7 is in both the labeled data and the unlabeled pool"),
    "index_csv_id_past_int64": ("train", _index_id_past_int64),
    # byte 0xff is not UTF-8
    "config_not_utf8": ("train", lambda ws: {"extra": "# \udcff\n"}),
    "dataset_csv_not_utf8": ("train", lambda ws: _train_csv(ws, b"id,feat_0,label\n0,\xff,1\n")),
    "index_csv_not_utf8": ("train", _index_not_utf8),
    "predictions_csv_not_utf8": (
        "evaluate", lambda ws: _predictions(ws, b"id,prediction\n20000,\xff\n")),
    # a path that names a directory
    "training_csv_is_a_directory": ("train", lambda ws: {"train": ws / "labeled"}),
    "predict_dev_is_a_directory": (
        "predict", lambda ws: {**_checkpoint(ws, lambda b: b), "dev": ws / "dev"}),
    "manifest_member_path_empty": (
        "predict", lambda ws: _manifest(ws, '{"members": [{"path": "", "seed": 0}]}')),
    # a path that holds a NUL byte, which no file name can
    "config_data_path_with_nul": ("train", lambda ws: {"train": "a\0b"}),
    "index_csv_image_name_with_nul": ("train", _index_image_name_with_nul),
    "manifest_member_path_with_nul": (
        "predict", lambda ws: _manifest(ws, '{"members": [{"path": "a\\u0000b", "seed": 0}]}')),
    "segmentation_prediction_stem_with_nul": ("evaluate", _nul_segmentation_predictions),
    # what the operating system refuses, or the JSON parser cannot nest
    "index_csv_image_name_too_long": ("train", _index_image_name_too_long),
    "manifest_nested_too_deep": ("predict", lambda ws: _manifest(ws, "[" * 100_000)),
    # the csv module refuses a field over 131072 characters
    "dataset_csv_field_over_csv_limit": (
        "train", lambda ws: _train_csv(ws, b"id,feat_0,label\n0," + b"1" * 140_000 + b",1\n")),
    # a feature vector needs at least one feature
    "training_csv_without_feature_columns": ("train", lambda ws: _train_csv(ws, b"id,label\n0,1\n")),
    "ablate_synth_dim_0": ("ablate", lambda ws: {"extra": "[synth]\ndim = 0\n"}),
    "ablate_synth_dim_minus_2": ("ablate", lambda ws: {"extra": "[synth]\ndim = -2\n"}),
    # training settings outside their range
    "lr_nan": ("train", lambda ws: {"lr": "nan"}),
    "lr_inf": ("train", lambda ws: {"lr": "inf"}),
    "weight_decay_minus_1": ("train", lambda ws: {"train_extra": "weight_decay = -1\n"}),
    "weight_decay_inf": ("train", lambda ws: {"train_extra": "weight_decay = inf\n"}),
    "alpha_nan": ("train", lambda ws: {**_segmentation_train(ws), "train_extra": "alpha = nan\n"},
                  "alpha must be non-negative and finite"),
    # config values outside their range
    "config_task_bogus": ("train", lambda ws: {"task": "bogus"}, "unknown task 'bogus'"),
    "ensemble_k_0": ("train", lambda ws: {"k": 0}, "ensemble_k must be >= 1"),
    "rpl_rounds_0": ("rpl", lambda ws: {"rpl_rounds": 0}, "rpl_rounds must be >= 1"),
    "split_ratio_1": ("ablate", lambda ws: {"extra": "[synth]\nsplit_ratio = 1\n"},
                      "split_ratio must be in (0, 1)"),
    "postprocess_maybe": ("predict", lambda ws: {"extra": "postprocess = maybe\n"},
                          "postprocess: expected a boolean"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(workspace, capsys, case):
    command, corrupt, *message = BAD_INPUTS[case]
    cfg = write_config(workspace, **corrupt(workspace))
    capsys.readouterr()
    seed = ["--seeds", "0"] if command == "ablate" else ["--seed", "0"]
    out = workspace / "out"
    assert main([command, "--config", str(cfg), *seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(text in err for text in message), err
    assert not out.exists() or not any(out.iterdir())


def test_masks_of_another_size_than_their_image_name_the_sample(workspace, capsys):
    case = _segmentation_train(workspace)
    for channel in ("irma", "np", "nv"):
        write_pgm(case["dev"] / f"sample_00001_{channel}.pgm", np.zeros((10, 10), np.uint8))
    cfg = write_config(workspace, **case)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "0",
                 "--out", str(workspace / "out")]) == 2
    assert capsys.readouterr().err == (f"error: {case['dev'] / 'index.csv'}: sample 1: "
                                       "mask shape does not match image shape\n")


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_synth_dim_below_one_is_usage_error(tmp_path, capsys, dim):
    assert main(["synth", "--task", "grading", "--n", "40", "--seed", "0", "--dim", dim,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "data.csv").exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_segmentation_synth_of_no_image_is_config_error(tmp_path, capsys, n):
    assert main(["synth", "--task", "segmentation", "--n", n, "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: need n >= 1\n"
    assert not (tmp_path / "out" / "index.csv").exists()


@pytest.mark.parametrize("setting", ["batch_size = 0", "batch_size = -1", "hidden = 0"],
                         ids=["batch_size_0", "batch_size_minus_1", "hidden_0"])
def test_bad_train_setting_is_config_error(workspace, capsys, setting):
    cfg = write_config(workspace)
    cfg.write_text(cfg.read_text().replace("batch_size = 16", setting))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "0",
                 "--out", str(workspace / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert setting.split()[0] in err
    assert not (workspace / "out" / "model.ckpt").exists()


@pytest.mark.parametrize("task", ["grading", "quality", "segmentation"])
def test_dev_report_and_evaluate_agree(workspace, task):
    """train's dev report and evaluate over predict's output give the same metric rows."""
    # grading has no post-processing of its own to run
    kw = {"task": task, "extra": "" if task == "grading" else "postprocess = true\n"}
    if task == "quality":
        for part, seed, offset in (("qlab", "0", "0"), ("qdev", "2", "20000")):
            assert main(["synth", "--task", "quality", "--n", "60", "--seed", seed,
                         "--out", str(workspace / part), "--id-offset", offset]) == 0
        kw.update(train=workspace / "qlab" / "data.csv", dev=workspace / "qdev" / "data.csv")
    elif task == "segmentation":
        seg = _segmentation_dev(workspace)["dev"]
        kw.update(train=seg, dev=seg, predictions=workspace / "preds",
                  extra="postprocess = true\ntta = rotate\n")
    cfg = write_config(workspace, **kw)
    for command, out in (("train", "model"), ("predict", "preds"), ("evaluate", "eval")):
        assert main([command, "--config", str(cfg), "--seed", "0",
                     "--out", str(workspace / out)]) == 0

    def metric_rows(out: str) -> list[tuple[str, str]]:
        with open(workspace / out / "report.csv", newline="") as fh:
            return [(r["metric"], r["value"]) for r in csv.DictReader(fh)]

    assert metric_rows("model") == metric_rows("eval")


SEG_CONFIG = """\
[run]
task = segmentation

[data]
train = {train}
unlabeled = {train}

[train]
epochs = 3
lr = {lr}
batch_size = 4
"""


def test_short_index_row_is_config_error(tmp_path, capsys):
    (tmp_path / "seg").mkdir()
    (tmp_path / "seg" / "index.csv").write_text("id,image,has_masks\n0,sample_00000.pgm\n")
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=0.2))
    assert main(["train", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_segmentation_dev_report_over_no_image_is_config_error(tmp_path, capsys):
    assert main(["synth", "--task", "segmentation", "--n", "3", "--size", "32",
                 "--seed", "0", "--out", str(tmp_path / "seg")]) == 0
    (tmp_path / "dev").mkdir()
    (tmp_path / "dev" / "index.csv").write_text("id,image,has_masks\n")
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=0.2)
                   .replace("[train]", f"dev = {tmp_path / 'dev'}\n\n[train]"))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: the dev set holds no samples\n"
    assert not any((tmp_path / "out").iterdir())  # nothing was fitted or saved


@pytest.mark.parametrize("command", ["train", "rpl"])
def test_ordinal_dev_report_over_no_sample_fails_before_training(workspace, capsys, command):
    header = (workspace / "dev" / "data.csv").read_text().splitlines()[0]
    (workspace / "dev" / "data.csv").write_text(header + "\n")
    capsys.readouterr()
    assert main([command, "--config", str(write_config(workspace)), "--seed", "0",
                 "--out", str(workspace / "out")]) == 2
    assert capsys.readouterr().err == "error: the dev set holds no samples\n"
    assert not any((workspace / "out").iterdir())


@pytest.mark.parametrize("offset", ["9223372036854775808", "18446744073709551620",
                                    "-9223372036854775809"])
@pytest.mark.parametrize("task", ["grading", "segmentation"])
def test_synth_of_an_id_outside_int64_is_config_error(tmp_path, capsys, task, offset):
    size = ["--size", "32"] if task == "segmentation" else []
    assert main(["synth", "--task", task, "--n", "30", *size, "--seed", "0",
                 "--out", str(tmp_path / "out"), "--id-offset", offset]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample id ") and err.count("\n") == 1
    assert not any((tmp_path / "out").iterdir())


def test_segmentation_rpl_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=0.2))
    assert main(["rpl", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: rpl applies to quality and grading only, "
                                       "not task 'segmentation'\n")
    assert not (tmp_path / "out").exists()


def test_saturated_segmenter_training_exits_3(tmp_path, capsys):
    assert main(["synth", "--task", "segmentation", "--n", "4", "--size", "32",
                 "--seed", "0", "--out", str(tmp_path / "seg")]) == 0
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=1e9))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "overflow" in err
    assert not (tmp_path / "out" / "model.ckpt").exists()


@pytest.mark.parametrize("k", [1, 2])
def test_masks_that_zero_every_class_weight_exit_2(tmp_path, capsys, k):
    # every channel covers 63 of 64 pixels, so each weight is log(64 / 64) = 0
    masks = np.ones((3, 8, 8), dtype=np.uint8)
    masks[:, 0, 0] = 0
    rng = np.random.default_rng(0)
    write_seg_dataset(tmp_path / "seg", Dataset(tuple(
        Sample(id=i, image=rng.uniform(0, 1, (8, 8)), masks=masks)
        for i in range(4))))
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=0.2)
                   + f"\n[pipeline]\nensemble_k = {k}\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample 0: all-zero class weights") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "predict"])
def test_rotation_tta_on_a_non_square_dev_image_exits_2(tmp_path, capsys, command):
    rng = np.random.default_rng(0)
    write_seg_dataset(tmp_path / "dev", Dataset(tuple(
        Sample(id=50 + i, image=rng.uniform(0, 1, shape),
               masks=rng.integers(0, 2, (3, *shape)))
        for i, shape in enumerate([(16, 16), (16, 20), (20, 16)]))))
    assert main(["synth", "--task", "segmentation", "--n", "4", "--size", "32",
                 "--seed", "0", "--out", str(tmp_path / "seg")]) == 0
    save_checkpoint(tmp_path / "pixel.ckpt", MLP([4, 3], "pixel"))
    cfg = _seg_config(tmp_path, tmp_path / "dev", k=2, model=f"model = {tmp_path / 'pixel.ckpt'}")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: sample 51: rotation TTA needs a square image, got 16x20\n"
    assert not any((tmp_path / "out").iterdir())  # train fitted and saved nothing


def _trained_seg_workspace(tmp_path: Path, size: int) -> Path:
    """A 2-member ensemble trained on 6 images of the given size (the dev set
    has 6 too); its config runs rotation TTA and post-processing."""
    cfg = _seg_workspace(tmp_path, lr=0.2, k=2, n=6, size=size,
                         model=f"model = {tmp_path / 'model' / 'ensemble.json'}")
    cfg.write_text(cfg.read_text().replace("epochs = 3", "epochs = 10"))
    assert main(["train", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "model")]) == 0
    return cfg


def _masks_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("pred_*.pgm")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# SHA-256 of the mask PGMs that predict writes from a trained ensemble under
# rotation TTA and post-processing: every rewrite of the inference path must
# keep these bytes (NumPy 2.4 on x86-64).
PREDICTED_MASK_DIGESTS = {
    33: "0cd2e3456e1112243fd117aca234c13686178e8351c3b6a161fe55908c9a113e",
    64: "eb0282b19e58b7a8d140de99188f5f29fcd1b07a0a4eb480b7cd6d5b82fa4b23",
}


@pytest.mark.parametrize("size", sorted(PREDICTED_MASK_DIGESTS))
def test_predicted_masks_keep_their_bytes(tmp_path, size):
    cfg = _trained_seg_workspace(tmp_path, size)
    assert main(["predict", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "preds")]) == 0
    assert _masks_digest(tmp_path / "preds") == PREDICTED_MASK_DIGESTS[size]


# SHA-256 of rpl's checkpoint and audit log and of a one-seed grading
# ablate's table: every rewrite of the pseudo-labeling path must keep these
# bytes (NumPy 2.4 on x86-64).
PSEUDO_LABELING_DIGESTS = {
    "rpl/model.ckpt": "11cf9a465e8e6b3bb3f6d20175c89eff53e96ff5fd0e8f728a9f429076f4bc0e",
    "rpl/audit.csv": "c9b2d0d720dc27c0bba7416f8ce751d6c54427779b321f4bb39ee753aad70621",
    "ablate/ablation.csv": "24bea7c7b0cae65929f787e046d2bb0db4126a515ff6a855d3722f408fe0cbb8",
}


def test_pseudo_labeling_outputs_keep_their_bytes(workspace):
    assert main(["rpl", "--config", str(write_config(workspace)), "--seed", "0",
                 "--out", str(workspace / "rpl")]) == 0
    cfg = workspace / "abl.ini"
    cfg.write_text(ablate_config(task="grading", n_labeled=40, lr="2e-3"))
    assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                 "--out", str(workspace / "ablate")]) == 0
    assert {name: hashlib.sha256((workspace / name).read_bytes()).hexdigest()
            for name in PSEUDO_LABELING_DIGESTS} == PSEUDO_LABELING_DIGESTS


def test_predict_reads_no_dev_mask(tmp_path):
    cfg = _trained_seg_workspace(tmp_path, 33)
    outputs = []
    for run in ("with", "without"):
        assert main(["predict", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / run)]) == 0
        outputs.append(_files(tmp_path / run))
        for mask in (tmp_path / "dev").glob("sample_*_*.pgm"):
            mask.unlink()
    assert len(outputs[0]) == 6 * 3 + 1 and outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# predict writes each mask set in the caller, as soon as it is computed
# ---------------------------------------------------------------------------

def _tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for name, data in _files(directory).items():
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def _predict_on(cfg: Path, out: Path) -> int:
    return main(["predict", "--config", str(cfg), "--seed", "0", "--out", str(out)])


class TestMaskWriter:
    @TWO_CPUS
    @pytest.mark.parametrize("pipeline", ["tta = rotate\npostprocess = true\n", "tta = none\n"],
                             ids=["rotate_post", "none"])
    def test_one_and_two_cpus_write_the_same_tree(self, tmp_path, cpus, pipeline):
        cfg = _trained_seg_workspace(tmp_path, 33)
        cfg.write_text(cfg.read_text().replace("tta = rotate\npostprocess = true\n", pipeline))
        digests = []
        for ncpu in (1, 2):
            cpus(ncpu)
            assert _predict_on(cfg, tmp_path / f"cpus{ncpu}") == 0
            digests.append(_tree_sha256(tmp_path / f"cpus{ncpu}"))
        assert digests[0] == digests[1]

    @TWO_CPUS
    def test_a_failed_write_exits_2_alike_on_one_and_two_cpus(self, tmp_path, capsys, cpus):
        cfg = _trained_seg_workspace(tmp_path, 33)
        results = []
        for ncpu in (1, 2):
            cpus(ncpu)
            out = tmp_path / f"out{ncpu}"
            (out / "pred_00101_np.pgm").mkdir(parents=True)  # the second dev image's NP mask
            capsys.readouterr()
            assert _predict_on(cfg, out) == 2
            with pytest.raises(ChildProcessError):  # the helper was reaped
                os.waitpid(-1, os.WNOHANG)
            results.append((capsys.readouterr().err.replace(str(out), "OUT"), _files(out)))
        assert results[0] == results[1]
        err, files = results[0]
        assert err == "error: [Errno 21] Is a directory: 'OUT/pred_00101_np.pgm'\n"
        # the first mask set and the mask before the failing one; no predictions.csv
        assert set(files) == {"pred_00100_irma.pgm", "pred_00100_np.pgm", "pred_00100_nv.pgm",
                              "pred_00101_irma.pgm"}

    @TWO_CPUS
    def test_a_failing_caller_leaves_the_sets_it_made(self, tmp_path, capsys, cpus,
                                                       monkeypatch):
        cfg = _trained_seg_workspace(tmp_path, 33)
        original, calls = cli.tta_rotate_seg, []

        def failing_third_image(predict, image):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("overflow")
            return original(predict, image)

        monkeypatch.setattr(cli, "tta_rotate_seg", failing_third_image)
        trees = []
        for ncpu in (1, 2):
            cpus(ncpu)
            calls.clear()
            capsys.readouterr()
            assert _predict_on(cfg, tmp_path / f"out{ncpu}") == 3
            assert capsys.readouterr().err == "numerical failure: overflow\n"
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            trees.append(_files(tmp_path / f"out{ncpu}"))
        assert trees[0] == trees[1]
        assert sorted(trees[0]) == [f"pred_0010{i}_{ch}.pgm" for i in (0, 1)
                                    for ch in ("irma", "np", "nv")]

    @pytest.mark.parametrize("ncpu", [1, pytest.param(2, marks=TWO_CPUS)])
    def test_predict_starts_no_process(self, tmp_path, cpus, monkeypatch, ncpu):
        cfg = _trained_seg_workspace(tmp_path, 33)
        cpus(ncpu)

        def refuse(*args, **kwargs):
            raise AssertionError(f"predict started a process on {ncpu} CPUs")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        assert _predict_on(cfg, tmp_path / "preds") == 0
        assert _masks_digest(tmp_path / "preds") == PREDICTED_MASK_DIGESTS[33]


def _cli_env() -> dict:
    """The environment of a ``drtricks.cli`` subprocess that imports this tree's source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.mark.parametrize("lr", ["1e30", "1e200"])
def test_diverging_scalar_fit_prints_one_line(workspace, lr):
    # NumPy's warnings go to a real stderr only outside pytest's capture
    result = subprocess.run(
        [sys.executable, "-m", "drtricks.cli", "train", "--config",
         str(write_config(workspace, lr=lr)), "--seed", "0", "--out", str(workspace / "out")],
        env=_cli_env(), capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stderr.startswith("numerical failure: non-finite training loss at epoch")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("command, ncpu", [("train", 1), ("rpl", 1), ("ablate", 1),
                                           pytest.param("ablate", 2, marks=TWO_CPUS)])
def test_fits_to_an_overflowing_checkpoint_exit_3_with_one_line(workspace, capsys, recwarn,
                                                                 cpus, monkeypatch,
                                                                 command, ncpu):
    """Every fit returns a model whose forward pass overflows: the dev report,
    the pseudo labels and the ablation's RPL member each end in one line."""
    huge = lambda task, data, cfg: overflowing_model(workspace / "huge.ckpt", 8)
    for module in (cli, ensemble, ssl):
        monkeypatch.setattr(module, "fit", huge)
    cpus(ncpu)
    cfg = write_config(workspace, k=2, extra="[synth]\nn_labeled = 40\nn_unlabeled = 60\n")
    seeds = ["--seeds", "0"] if command == "ablate" else ["--seed", "0"]
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *seeds, "--out", str(workspace / "out")]) == 3
    member = {"ablate": "+rpl member 0 failed: ", "rpl": "member 0 failed: "}.get(command, "")
    assert capsys.readouterr().err == f"numerical failure: {member}non-finite model output\n"
    assert not recwarn.list


@pytest.mark.parametrize("command", ["predict", "train", "rpl", "ablate"])
def test_a_forward_pass_that_overflows_prints_one_line(tmp_path, command):
    """``predict`` reads a checkpoint whose theta is scaled by 1e170. The
    others fit to such weights: lr 1e30 over 5 epochs of one 45-sample batch
    ends near 1e170 with only finite losses, so the fit itself does not fail."""
    for part, n, seed, extra in (("labeled", 45, 3, []), ("dev", 30, 4, []),
                                 ("unlab", 60, 5, ["--unlabeled"])):
        assert main(["synth", "--task", "grading", "--n", str(n), "--seed", str(seed),
                     "--out", str(tmp_path / part), "--id-offset", str(1000 * seed),
                     *extra]) == 0
    overflowing_model(tmp_path / "huge.ckpt", 8)
    cfg = write_config(tmp_path, lr="1e30", k=2, rpl_rounds=2, model=tmp_path / "huge.ckpt",
                       extra="[synth]\nn_labeled = 45\nn_unlabeled = 60\n")
    cfg.write_text(cfg.read_text().replace("epochs = 10", "epochs = 5")
                   .replace("batch_size = 16", "batch_size = 64"))
    seeds = ["--seeds", "0"] if command == "ablate" else ["--seed", "0"]
    # NumPy's warnings go to a real stderr only outside pytest's capture
    result = subprocess.run(
        [sys.executable, "-m", "drtricks.cli", command, "--config", str(cfg), *seeds,
         "--out", str(tmp_path / "out")], env=_cli_env(), capture_output=True, text=True)
    member = {"ablate": "+rpl member 0 failed: ", "rpl": "member 0 failed: "}.get(command, "")
    assert (result.returncode, result.stderr) == (
        3, f"numerical failure: {member}non-finite model output\n")
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_segmentation_ablate_predicts_six_times_per_dev_image(monkeypatch):
    calls = []
    original = cli.ensemble_predict

    def counting(e, x):
        calls.append(1)
        return original(e, x)

    monkeypatch.setattr(cli, "ensemble_predict", counting)
    cfg = RunConfig(task="segmentation", n_labeled=4, n_dev=3, size=32, epochs=2,
                    lr=0.2, ensemble_k=2)
    arms = cli._segmentation_arms(cfg, 3)
    assert list(arms) == list(cli.SEGMENTATION_TABLE)
    # the baseline and +ensemble once each, then the four TTA rotations
    assert len(calls) == 6 * cfg.n_dev


def test_grading_ablate_predicts_once_per_ensemble(monkeypatch):
    sizes = []
    original = cli.ensemble_predict

    def counting(e, x):
        sizes.append(len(e.members))
        return original(e, x)

    monkeypatch.setattr(cli, "ensemble_predict", counting)
    cfg = RunConfig(task="grading", n_labeled=40, n_unlabeled=60, epochs=5, lr=2e-3,
                    batch_size=16, ensemble_k=2, rpl_rounds=2)
    arms = cli._tabular_arms(cfg, 3)
    assert list(arms) == list(cli.TABULAR_TABLE)
    # baseline, +ensemble, +pl and +rpl once each: +tta and +post reuse +rpl's
    assert sizes == [1, 2, 2, 2]
