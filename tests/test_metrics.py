"""Overlap scores, kappa, AUC, accuracy, and the report files."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtricks import cli
from drtricks.config import RunConfig
from drtricks.metrics import (
    MetricError,
    UndefinedKappaError,
    _average_ranks,
    accuracy,
    auc_macro_ovr,
    confusion_matrix,
    dsc,
    iou,
    mean_dsc,
    mean_iou,
    qwk,
)


def direct_quadratic_kappa(cm: np.ndarray) -> float:
    """Independent textbook implementation used as the oracle."""
    cm = np.asarray(cm, dtype=float)
    n = cm.sum()
    c = cm.shape[0]
    observed = 0.0
    expected = 0.0
    row = cm.sum(axis=1)
    col = cm.sum(axis=0)
    for i in range(c):
        for j in range(c):
            w = ((i - j) ** 2) / ((c - 1) ** 2)
            observed += w * cm[i, j] / n
            expected += w * row[i] * col[j] / (n * n)
    return 1.0 - observed / expected


class TestOverlap:
    def test_dsc_examples(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        a[0, :4] = 1
        b = np.zeros((6, 6), dtype=np.uint8)
        b[0, 2:4] = 1
        b[1, :2] = 1
        assert dsc(a, a) == 1.0
        assert dsc(a, b) == pytest.approx(0.5)
        assert dsc(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0

    def test_iou_examples(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        a[0, :4] = 1
        b = np.zeros((6, 6), dtype=np.uint8)
        b[0, 2:4] = 1
        b[1, :2] = 1
        assert iou(a, a) == 1.0
        assert iou(a, b) == pytest.approx(2 / 6)
        assert iou(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_iou_never_exceeds_dsc(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, (7, 7))
        b = rng.integers(0, 2, (7, 7))
        assert iou(a, b) <= dsc(a, b) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, (6, 6))
        b = rng.integers(0, 2, (6, 6))
        perm = rng.permutation(36)
        ap = a.ravel()[perm].reshape(6, 6)
        bp = b.ravel()[perm].reshape(6, 6)
        assert dsc(a, b) == dsc(ap, bp)
        assert iou(a, b) == iou(ap, bp)

    def test_mean_is_channel_mean(self):
        rng = np.random.default_rng(4)
        p = rng.integers(0, 2, (3, 5, 5))
        g = rng.integers(0, 2, (3, 5, 5))
        assert mean_dsc(p, g) == pytest.approx(np.mean([dsc(p[c], g[c])
                                                        for c in range(3)]))
        assert mean_iou(p, g) == pytest.approx(np.mean([iou(p[c], g[c])
                                                        for c in range(3)]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError):
            dsc(np.zeros((4, 4)), np.zeros((5, 5)))


class TestConfusionAndKappa:
    def test_confusion_matrix_layout(self):
        cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2])
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_perfect_diagonal_is_one(self):
        assert qwk(np.diag([5, 3, 2])) == pytest.approx(1.0)

    def test_spec_matrix_matches_direct_kappa(self):
        cm = np.array([[5, 0, 0], [0, 0, 5], [0, 0, 5]])
        assert qwk(cm) == pytest.approx(direct_quadratic_kappa(cm), abs=1e-12)

    def test_independence_is_zero(self):
        marg = np.array([4.0, 2.0, 2.0])
        cm = np.outer(marg, marg) / marg.sum()
        assert qwk(cm) == pytest.approx(0.0, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedKappaError):
            qwk(np.array([[7, 0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricError):
            qwk(np.zeros((3, 3)))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_transpose_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        cm = rng.integers(0, 9, (3, 3))
        cm[0, 1] += 1  # guarantee two classes in the marginals
        cm[1, 0] += 1
        assert qwk(cm) == pytest.approx(qwk(cm.T), abs=1e-12)


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1, 0.0], [0.8, 0.1, 0.1],
                           [0.1, 0.9, 0.0], [0.0, 0.1, 0.9]])
        truths = [0, 0, 1, 2]
        val, skipped = auc_macro_ovr(scores, truths)
        assert val == pytest.approx(1.0)
        assert skipped == []

    def test_all_ties_half(self):
        scores = np.zeros((6, 3))
        val, _ = auc_macro_ovr(scores, [0, 0, 1, 1, 2, 2])
        assert val == pytest.approx(0.5)

    def test_four_sample_hand_case_vs_pairwise(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        positives = np.array([False, False, True, True])
        wins = 0.0
        for sp in scores[positives]:
            for sn in scores[~positives]:
                wins += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
        oracle = wins / 4.0
        full = np.stack([-scores, scores, np.zeros(4)], axis=1)
        val, skipped = auc_macro_ovr(full, [0, 0, 1, 1])
        assert skipped == [2]
        # class 0 uses -scores (same ordering story), class 1 uses scores
        assert val == pytest.approx(oracle)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(30, 3))
        truths = rng.integers(0, 3, 30).tolist()
        truths[0], truths[1], truths[2] = 0, 1, 2
        a, _ = auc_macro_ovr(scores, truths)
        b, _ = auc_macro_ovr(np.exp(scores) * 3.0 + 1.0, truths)
        assert a == pytest.approx(b, abs=1e-12)

    def test_missing_class_skipped_and_reported(self):
        scores = np.random.default_rng(1).normal(size=(10, 3))
        val, skipped = auc_macro_ovr(scores, [0, 1] * 5)
        assert skipped == [2]
        assert 0.0 <= val <= 1.0

    def test_no_evaluable_class_rejected(self):
        with pytest.raises(MetricError):
            auc_macro_ovr(np.zeros((4, 3)), [0, 0, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
        st.lists(st.sampled_from([-1.5, 0.0, 0.25, 3.0]), min_size=1, max_size=40),
    ))
    def test_average_ranks_equal_scipy_rankdata(self, values):
        from scipy.stats import rankdata

        x = np.array(values)
        assert _average_ranks(x).tobytes() == rankdata(x).tobytes()

    def test_average_ranks_propagate_nan(self):
        assert np.isnan(_average_ranks(np.array([0.3, np.nan, 0.1]))).all()

    def test_cli_import_leaves_scipy_stats_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = ("import sys, drtricks.cli; "
                "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestAccuracy:
    def test_examples(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
        assert accuracy([0, 0, 0], [1, 1, 1]) == 0.0
        assert accuracy([0, 1, 2, 2], [0, 1, 2, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            accuracy([], [])


class TestReport:
    """``cli._write_report`` writes one row per metric to report.csv and report.json."""

    CFG = RunConfig(task="grading")

    def write(self, tmp_path, values):
        cli._write_report(self.CFG, values, 3, tmp_path, "dev ")

    def test_non_finite_rejected(self, tmp_path):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(MetricError, match="qwk"):
                self.write(tmp_path, {"accuracy": 0.5, "qwk": bad})
            assert list(tmp_path.iterdir()) == []  # neither file is written

    def test_csv_roundtrip(self, tmp_path, capsys):
        self.write(tmp_path, {"qwk": 1 / 3, "accuracy": 0.5})
        digest = self.CFG.digest()
        assert (tmp_path / "report.csv").read_bytes() == (
            "task,metric,class,value,seed,config_digest\r\n"
            f"grading,accuracy,,0.5,3,{digest}\r\n"
            f"grading,qwk,,0.3333333333333333,3,{digest}\r\n").encode()
        assert capsys.readouterr().out == "dev accuracy: 0.5000\ndev qwk: 0.3333\n"

    def test_json_mirror(self, tmp_path):
        self.write(tmp_path, {"qwk": 1 / 3, "accuracy": 0.5})
        text = (tmp_path / "report.json").read_text()
        payload = json.loads(text)
        assert list(payload) == ["task", "seed", "config_digest", "metrics"]
        assert text.endswith("}\n") and text.startswith('{\n  "task": "grading",\n')
        assert (payload["task"], payload["seed"], payload["config_digest"]) == (
            "grading", 3, self.CFG.digest())
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = [(r["metric"], r["class"], float(r["value"])) for r in csv.DictReader(fh)]
        assert [(m["metric"], m["class"], m["value"]) for m in payload["metrics"]] == rows
        assert rows == [("accuracy", "", 0.5), ("qwk", "", 1 / 3)]
