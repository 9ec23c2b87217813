"""Config parsing, digests, and the command-line workflows."""
import csv
from pathlib import Path

import numpy as np
import pytest

from drtricks.cli import main
from drtricks.config import ConfigError, RunConfig, load_config

BASE_CONFIG = """\
[run]
task = grading

[data]
train = {train}
dev = {dev}
unlabeled = {unlabeled}
model = {model}
predictions = {predictions}

[train]
epochs = 10
lr = 2e-3
batch_size = 16

[pipeline]
ensemble_k = {k}
rpl_rounds = 3
"""


def write_config(tmp_path, **kw):
    kw.setdefault("train", tmp_path / "labeled" / "data.csv")
    kw.setdefault("dev", tmp_path / "dev" / "data.csv")
    kw.setdefault("unlabeled", tmp_path / "unlab" / "data.csv")
    kw.setdefault("model", tmp_path / "model" / "model.ckpt")
    kw.setdefault("predictions", tmp_path / "preds" / "predictions.csv")
    kw.setdefault("k", 1)
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG.format(**kw))
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
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(cfg), "--seeds", "zero",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
