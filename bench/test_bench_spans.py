"""Span arithmetic of the benchmark's tracer, on hand-made spans."""
from collections import Counter

import pytest

from spans import busy, concat, covered, layer_metrics, pass_wall, self_times


def test_covered_merges_overlaps_and_gaps():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.8)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ["cli.train", 0.0, 10.0, -1],
        ["models.fit", 1.0, 4.0, 0],
        ["models.MLP.forward", 2.0, 3.0, 1],
        ["models.fit", 3.0, 6.0, 0],   # overlaps its sibling: covered once
        ["metrics.qwk", 9.0, 10.5, 0],  # clipped to the parent's interval
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 1.5])
    # the self times of a fully nested tree add up to the root's duration
    nested = spans[:3]
    assert sum(self_times(nested)) == pytest.approx(10.0)


def test_busy_counts_nested_spans_of_one_layer_once():
    spans = [
        ["data.read_seg_dataset", 0.0, 4.0, -1],
        ["data.read_image", 1.0, 2.0, 0],
        ["data.read_pgm", 1.2, 1.8, 1],
        ["data.read_pgm", 5.0, 6.0, -1],
    ]
    assert busy(spans, {"data.read_seg_dataset", "data.read_image", "data.read_pgm"}) \
        == pytest.approx(5.0)


def test_concat_shifts_parent_indices():
    first = ([["cli.synth", 0.0, 1.0, -1]], Counter(bytes_written=10))
    second = ([["cli.train", 2.0, 5.0, -1], ["models.fit", 2.5, 4.0, 0]], Counter(bytes_written=5))
    spans, counters = concat(first, second)
    assert [s[3] for s in spans] == [-1, -1, 1]
    assert counters["bytes_written"] == 15
    assert pass_wall(spans) == pytest.approx(4.0)


def test_layer_metrics_group_self_times_and_ratios():
    spans = [
        ["cli.predict", 0.0, 10.0, -1],
        ["models.segment_soft", 1.0, 3.0, 0],
        ["models.MLP.forward", 1.5, 2.5, 1],
        ["models.MLP._forward_cached", 1.6, 2.4, 2],
        ["models.segment_soft", 4.0, 5.0, 0],
        ["models.segment_soft", 20.0, 21.0, -1],  # outside `predict`: not counted
    ]
    metrics = layer_metrics(spans, Counter(predict_images=1, selected=30, pooled=120))
    assert metrics["models.forward.self_s"] == pytest.approx(1.0)
    assert metrics["ensemble.member_predictions_per_image"] == 2.0
    assert metrics["ssl.selected_ratio"] == pytest.approx(0.25)
    assert metrics["cli.predict.busy_s"] == pytest.approx(10.0)
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 3.0)
    assert metrics["augment.augment.calls"] == 0.0
