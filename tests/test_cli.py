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

from drtricks import cli
from drtricks.cli import main
from drtricks.config import ConfigError, RunConfig, load_config
from drtricks.data import (
    Dataset,
    Image,
    MaskSet,
    Sample,
    gen_ordinal_dataset,
    gen_seg_dataset,
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
rpl_rounds = 3
{extra}"""


def write_config(tmp_path, **kw):
    kw.setdefault("train", tmp_path / "labeled" / "data.csv")
    kw.setdefault("dev", tmp_path / "dev" / "data.csv")
    kw.setdefault("unlabeled", tmp_path / "unlab" / "data.csv")
    kw.setdefault("model", tmp_path / "model" / "model.ckpt")
    kw.setdefault("predictions", tmp_path / "preds" / "predictions.csv")
    kw.setdefault("k", 1)
    kw.setdefault("task", "grading")
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
        """Two configs, one segmentation and one ordinal, set every field to a
        non-default value: ``augment`` applies to segmentation only, and
        ``hidden`` and ``dropout`` to the ordinal tasks only."""
        template = (
            "[run]\ntask = {task}\n"
            "[data]\ntrain = t.csv\ndev = d.csv\nunlabeled = u.csv\nmodel = m.ckpt\n"
            "predictions = p.csv\n"
            "[synth]\ndim = 5\nnoise = 0.25\nsize = 48\nn_labeled = 30\nn_unlabeled = 70\n"
            "n_dev = 4\nsplit_ratio = 0.6\n"
            "[train]\nlr = 0.01\nweight_decay = 0.5\nbatch_size = 3\nepochs = 9\n"
            "alpha = 0.75\naux = focal\n{task_keys}"
            "[pipeline]\nensemble_k = 3\nrpl_rounds = 2\ntta = rotate\npostprocess = true\n")
        shared = dict(
            train_path="t.csv", dev_path="d.csv",
            unlabeled_path="u.csv", model_path="m.ckpt", predictions_path="p.csv",
            dim=5, noise=0.25, size=48, n_labeled=30, n_unlabeled=70, n_dev=4,
            split_ratio=0.6, lr=0.01, weight_decay=0.5, batch_size=3, epochs=9,
            alpha=0.75, aux="focal", ensemble_k=3, rpl_rounds=2, tta="rotate", postprocess=True)
        defaults = {f.name: f.default for f in fields(RunConfig)}
        read_back = set()
        for task, task_keys, task_fields in (
                ("segmentation", "augment = true\n", dict(augment=True)),
                ("grading", "hidden = 7\ndropout = 0.1\n", dict(hidden=7, dropout=0.1))):
            p = tmp_path / f"{task}.ini"
            p.write_text(template.format(task=task, task_keys=task_keys))
            expected = {**shared, "task": task, **task_fields}
            cfg = load_config(p)
            got = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
            assert got == defaults | expected
            assert all(type(got[k]) is type(v) for k, v in expected.items())
            assert all(defaults[k] != v for k, v in expected.items())
            read_back |= expected.keys()
        assert read_back == defaults.keys()

    @pytest.mark.parametrize("task", ["grading", "quality"])
    def test_augment_rejected_on_tabular_tasks(self, tmp_path, capsys, task):
        p = tmp_path / "aug.ini"
        p.write_text(f"[run]\ntask = {task}\n[train]\naugment = true\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "augment applies to segmentation only" in err

    @pytest.mark.parametrize("setting", ["hidden = 8", "dropout = 0.1"], ids=["hidden", "dropout"])
    def test_hidden_and_dropout_rejected_for_segmentation(self, tmp_path, capsys, setting):
        p = tmp_path / "seg.ini"
        p.write_text(f"[run]\ntask = segmentation\n[train]\n{setting}\n")
        assert main(["train", "--config", str(p), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "apply to the ordinal tasks only" in err

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

    def test_segmentation_synth(self, tmp_path):
        assert main(["synth", "--task", "segmentation", "--n", "3", "--seed", "0",
                     "--size", "32", "--out", str(tmp_path / "seg")]) == 0
        assert (tmp_path / "seg" / "index.csv").exists()

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

    def test_rpl_notes_that_ensemble_k_is_ignored(self, workspace, capsys):
        note = "note: rpl trains one model; [pipeline] ensemble_k = 3 is ignored\n"
        for k in (1, 3):
            cfg = write_config(workspace, k=k)
            capsys.readouterr()
            assert main(["rpl", "--config", str(cfg), "--seed", "0",
                         "--out", str(workspace / f"rpl{k}")]) == 0
            assert capsys.readouterr().out.count(note) == (k == 3)
        assert (workspace / "rpl3" / "model.ckpt").read_bytes() == \
            (workspace / "rpl1" / "model.ckpt").read_bytes()
        assert not (workspace / "rpl3" / "member_0.ckpt").exists()

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
n_unlabeled = 60
n_dev = 2
size = 32
noise = 0.5

[train]
epochs = 5
lr = {lr}
batch_size = 8

[pipeline]
ensemble_k = 2
rpl_rounds = 2
"""


class TestAblate:
    def test_grading_six_rows_and_determinism(self, tmp_path):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ABLATE_CONFIG.format(task="grading", n_labeled=40, lr="2e-3"))
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

    def test_segmentation_four_rows(self, tmp_path):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ABLATE_CONFIG.format(task="segmentation", n_labeled=4,
                                            lr="0.2"))
        assert main(["ablate", "--config", str(cfg), "--seeds", "3",
                     "--out", str(tmp_path / "seg")]) == 0
        rows = list(csv.DictReader(open(tmp_path / "seg" / "ablation.csv")))
        assert [r["arm"] for r in rows] == ["baseline", "+ensemble", "+tta", "+post"]
        assert all(r["metric"] == "mean_dsc" for r in rows)
        assert all(np.isfinite(float(r["mean"])) for r in rows)

    def test_segmentation_without_dev_images_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ABLATE_CONFIG.format(task="segmentation", n_labeled=4, lr="0.2")
                       .replace("n_dev = 2", "n_dev = 0"))
        assert main(["ablate", "--config", str(cfg), "--seeds", "3",
                     "--out", str(tmp_path / "seg")]) == 2
        # the generator rejects the empty dev set before any member trains
        assert capsys.readouterr().err == "error: need n >= 1\n"
        assert not (tmp_path / "seg" / "ablation.csv").exists()

    @pytest.mark.parametrize("seeds", [",", " , ,", ""])
    def test_empty_seed_list_is_usage_error(self, tmp_path, capsys, seeds):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ABLATE_CONFIG.format(task="grading", n_labeled=40, lr="2e-3"))
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(cfg), "--seeds", seeds,
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "empty seed list" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_seed_list_is_usage_error(self, tmp_path):
        cfg = tmp_path / "abl.ini"
        cfg.write_text(ABLATE_CONFIG.format(task="grading", n_labeled=40, lr="2e-3"))
        for seeds in ("zero", "-1", "0,-1", "1,-2,3", "1.5"):
            with pytest.raises(SystemExit) as exc:
                main(["ablate", "--config", str(cfg), "--seeds", seeds,
                      "--out", str(tmp_path / "x")])
            assert exc.value.code == 2, seeds
        assert not (tmp_path / "x").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        for argv in (["train", "--config", str(write_config(tmp_path))],
                     ["synth", "--task", "grading", "--n", "30"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--seed", "-1", "--out", str(tmp_path / "x")])
            assert exc.value.code == 2
            assert "argument --seed: negative seed '-1'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    def test_segmentation_notes_that_augment_is_ignored(self, tmp_path, capsys):
        plain = ABLATE_CONFIG.format(task="segmentation", n_labeled=4, lr="0.2")
        aug = plain.replace("batch_size = 8", "batch_size = 8\naugment = true")
        for name, text in (("plain", plain), ("aug", aug)):
            (tmp_path / f"{name}.ini").write_text(text)
            assert main(["ablate", "--config", str(tmp_path / f"{name}.ini"), "--seeds", "3",
                         "--out", str(tmp_path / name)]) == 0
        out = capsys.readouterr().out
        assert out.count("note: ablate trains every arm without augmentation; "
                         "[train] augment = true is ignored\n") == 1
        assert ((tmp_path / "plain" / "ablation.csv").read_bytes()
                == (tmp_path / "aug" / "ablation.csv").read_bytes())


# ---------------------------------------------------------------------------
# Members trained over one or two worker processes give the same outputs
# ---------------------------------------------------------------------------

def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _seg_config(tmp_path: Path, dev: Path, k: int, lr: float = 0.2, model: str = "") -> Path:
    """A segmentation config over ``tmp_path / "seg"`` and ``dev`` with k members,
    rotation TTA and post-processing; ``model`` is an optional ``[data]`` line."""
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=lr)
                   .replace("[train]", f"dev = {dev}\n{model}\n[train]")
                   + f"\n[pipeline]\nensemble_k = {k}\ntta = rotate\npostprocess = true\n")
    return cfg


def _seg_workspace(tmp_path: Path, lr: float, k: int = 3, n: int = 4, size: int = 32,
                   model: str = "") -> Path:
    for part, seed in (("seg", 0), ("dev", 1)):
        assert main(["synth", "--task", "segmentation", "--n", str(n), "--size", str(size),
                     "--seed", str(seed), "--out", str(tmp_path / part),
                     "--id-offset", str(100 * seed)]) == 0
    return _seg_config(tmp_path, tmp_path / "dev", k, lr, model)


class TestWorkers:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("task", ["grading", "segmentation"])
    def test_one_and_two_cpus_write_the_same_bytes(self, workspace, capsys, cpus,
                                                   command, task):
        if task == "grading":
            cfg = write_config(workspace, k=3,
                               extra="[synth]\nn_labeled = 40\nn_unlabeled = 60\n")
        else:
            cfg = _seg_workspace(workspace, lr=0.2)
        seeds = ["--seed", "0"] if command == "train" else ["--seeds", "0,1"]
        outputs = []
        for ncpu in (1, 2):
            cpus(ncpu)
            capsys.readouterr()
            out = workspace / f"cpus{ncpu}"
            assert main([command, "--config", str(cfg), *seeds, "--out", str(out)]) == 0
            outputs.append((_files(out), capsys.readouterr().out.replace(str(out), "OUT")))
        assert outputs[0] == outputs[1]
        expected = {"ablation.csv"} if command == "ablate" else {
            "ensemble.json", "member_0.ckpt", "member_1.ckpt", "member_2.ckpt",
            "report.csv", "report.json"}
        assert set(outputs[0][0]) == expected

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
            cfg.write_text(cfg.read_text() + "\n[synth]\nn_labeled = 4\nn_dev = 2\nsize = 32\n")
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


def _wide_predictions(ws: Path) -> dict:
    """A prediction for every dev sample, each row with a third field."""
    ids = [line.split(",", 1)[0] for line in (ws / "dev" / "data.csv").read_text().splitlines()[1:]]
    return _predictions(ws, ("id,prediction\n" + "".join(f"{i},1,7\n" for i in ids)).encode())


def _wide_segmentation_predictions(ws: Path) -> dict:
    """Predictions naming the truth mask sets, each row with a third field."""
    dev = _segmentation_dev(ws)["dev"]
    rows = [line.split(",") for line in (dev / "index.csv").read_text().splitlines()[1:]]
    (dev / "predictions.csv").write_text("id,stem\n" + "".join(
        f"{sid},{image.removesuffix('.pgm')},7\n" for sid, image, _ in rows))
    return {"task": "segmentation", "dev": dev, "predictions": dev}


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
    dev = _segmentation_dev(ws)["dev"]
    rows = [line.split(",") for line in (dev / "index.csv").read_text().splitlines()[1:]]
    stems = [image.removesuffix(".pgm") for _sid, image, _ in rows]
    stems[0] = stems[0][:3] + "\0" + stems[0][3:]
    (dev / "predictions.csv").write_text("id,stem\n" + "".join(
        f"{sid},{stem}\n" for (sid, _image, _), stem in zip(rows, stems)))
    return {"task": "segmentation", "dev": dev, "predictions": dev}


def _first_id(path: Path, sid: int) -> dict:
    """Give the first sample of a dataset CSV or index.csv the id ``sid``; no
    config override."""
    rows = path.read_text().splitlines()
    rows[1] = f"{sid}," + rows[1].split(",", 1)[1]
    path.write_text("\n".join(rows) + "\n")
    return {}


def _index_id_past_int64(ws: Path) -> dict:
    seg = _segmentation_dev(ws)["dev"]
    _first_id(seg / "index.csv", 2**63)
    return {"task": "segmentation", "train": seg, "dev": seg}


def _five_feature_dev(ws: Path) -> dict:
    assert main(["synth", "--task", "grading", "--n", "30", "--seed", "3", "--dim", "5",
                 "--out", str(ws / "dev5")]) == 0
    return {"dev": ws / "dev5" / "data.csv"}


def _segmentation_dev(ws: Path) -> dict:
    assert main(["synth", "--task", "segmentation", "--n", "2", "--size", "32",
                 "--seed", "3", "--out", str(ws / "segdev")]) == 0
    return {"task": "segmentation", "dev": ws / "segdev"}


def _pixel_checkpoint(ws: Path) -> dict:
    save_checkpoint(ws / "pixel.ckpt", MLP([4, 3], "pixel"))
    return {"model": ws / "pixel.ckpt"}


# case -> (command, config overrides written by the case)
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
    "training_csv_header_only": ("train", lambda ws: _train_csv(ws, b"id,feat_0,label\n")),
    "training_csv_header_only_ensemble": (
        "train", lambda ws: _train_csv(ws, b"id,feat_0,label\n", k=2)),
    # a checkpoint that does not fit the task's data
    "dev_report_narrower_than_model": ("train", _five_feature_dev),
    "predict_input_narrower_than_model": (
        "predict", lambda ws: {**_checkpoint(ws, lambda b: b), **_five_feature_dev(ws)}),
    "scalar_checkpoint_under_segmentation": (
        "predict", lambda ws: {**_checkpoint(ws, lambda b: b), **_segmentation_dev(ws)}),
    "pixel_checkpoint_under_grading": ("predict", _pixel_checkpoint),
    "dev_csv_header_only": (
        "predict", lambda ws: {**_checkpoint(ws, lambda b: b), **_dev_csv(ws, b"id,feat_0,label\n")}),
    # a dev sample without ground truth cannot be scored
    "dev_report_unlabeled_sample": ("train", _unlabeled_dev),
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
    "alpha_nan": ("train", lambda ws: {"train_extra": "alpha = nan\n"}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(workspace, capsys, case):
    command, corrupt = BAD_INPUTS[case]
    cfg = write_config(workspace, **corrupt(workspace))
    capsys.readouterr()
    seed = ["--seeds", "0"] if command == "ablate" else ["--seed", "0"]
    assert main([command, "--config", str(cfg), *seed, "--out", str(workspace / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    kw = {"task": task, "extra": "postprocess = true\n"}
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
    assert main(["synth", "--task", task, "--n", "30", "--size", "32", "--seed", "0",
                 "--out", str(tmp_path / "out"), "--id-offset", offset]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample id ") and err.count("\n") == 1
    assert not any((tmp_path / "out").iterdir())


def test_segmentation_rpl_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "seg.ini"
    cfg.write_text(SEG_CONFIG.format(train=tmp_path / "seg", lr=0.2))
    assert main(["rpl", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert "ordinal tasks only" in capsys.readouterr().err
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
        Sample(id=i, image=Image(rng.uniform(0, 1, (8, 8))), masks=MaskSet(masks))
        for i in range(4)), "segmentation"))
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
        Sample(id=50 + i, image=Image(rng.uniform(0, 1, shape)),
               masks=MaskSet(rng.integers(0, 2, (3, *shape))))
        for i, shape in enumerate([(16, 16), (16, 20), (20, 16)])), "segmentation"))
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
    cfg.write_text(ABLATE_CONFIG.format(task="grading", n_labeled=40, lr="2e-3"))
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


@pytest.mark.parametrize("lr", ["1e30", "1e200"])
def test_diverging_scalar_fit_prints_one_line(workspace, lr):
    # NumPy's warnings go to a real stderr only outside pytest's capture
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run(
        [sys.executable, "-m", "drtricks.cli", "train", "--config",
         str(write_config(workspace, lr=lr)), "--seed", "0", "--out", str(workspace / "out")],
        env=env, capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stderr.startswith("numerical failure: non-finite training loss at epoch")
    assert result.stderr.count("\n") == 1


def test_segmentation_ablate_predicts_four_times_per_dev_image(monkeypatch):
    calls = []
    original = cli.ensemble_predict

    def counting(e, x):
        calls.append(1)
        return original(e, x)

    monkeypatch.setattr(cli, "ensemble_predict", counting)
    cfg = RunConfig(task="segmentation", n_labeled=4, n_dev=3, size=32, epochs=2,
                    lr=0.2, ensemble_k=2)
    arms = cli._segmentation_arms(cfg, 3)
    assert set(arms) == set(cli.SEGMENTATION_ARMS)
    assert len(calls) == 4 * cfg.n_dev
