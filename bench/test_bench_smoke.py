"""Tiny runs of every workload: each declared metric appears with its unit."""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import calibration
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "seg_pipeline": dict(n_train=2, n_dev=2, epochs=1, ensemble_k=2),
    "grading_ablate": dict(n_labeled=30, n_unlabeled=30, epochs=1, ensemble_k=2, rpl_rounds=2),
    "seg_augment": dict(n_train=2, n_dev=2, epochs=1),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, tmp_path, monkeypatch):
    # Calibration readings cost 0.2 s each; at REF_S speed times are unscaled.
    monkeypatch.setattr(calibration, "reference_s", lambda: calibration.REF_S)
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    # One set-up probe (a fresh interpreter) on the cheapest set-up only.
    probes = 1 if name == "grading_ablate" else 0
    result, record = run.measure(workload, seed=0, seconds=0, trace=trace,
                                 work=tmp_path, import_s=0.5, probes=probes)
    assert result["correct"], record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    if not probes:
        expected.pop("setup_s", None)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        member_predictions = values["ensemble.member_predictions_per_image"]
        assert member_predictions == {"seg_pipeline": 4 * 2, "seg_augment": 2,
                                      "grading_ablate": 0}[name]
        assert (values["augment.augment.calls"] > 0) == (name == "seg_augment")
        assert (values["ssl.pseudo_label.calls"] > 0) == (name == "grading_ablate")
    else:
        # tiny models may score 0 on the dev set; every time, rate and size is positive
        assert all(v > 0 for k, v in values.items() if k != "dev_score"), values


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "seg_pipeline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
