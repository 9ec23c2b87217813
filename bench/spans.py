"""Span tracing of drtricks from the outside.

A :class:`Tracer` replaces every binding of drtricks' public functions and
methods (``fit`` is bound in ``models``, ``cli``, ``ensemble`` and ``ssl``)
with a wrapper that records a span: name, start, end and the span that was
open when it started. Spans stay in memory until :meth:`Tracer.take`.
Nothing inside ``src/`` is changed; uninstalling restores every binding.

:func:`layer_metrics` turns one pass's spans and counters into the
per-layer figures listed in ``LAYER_METRICS``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
import types
from collections import Counter
from pathlib import Path

MODULES = ("data", "augment", "models", "ssl", "ensemble", "postprocess",
           "metrics", "config", "cli")
# Private, but it is the segmenter's forward pass during training.
PRIVATE_TRACED = frozenset({"models.MLP._forward_cached"})

# Span name of one `drtricks <command>` run, opened by the benchmark itself.
COMMANDS = ("synth", "train", "predict", "evaluate", "ablate")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(path) -> int:
    return os.path.getsize(path)


def _count_fit(counters, args, kwargs, result):
    data, cfg = _arg(args, kwargs, 1, "data"), _arg(args, kwargs, 2, "cfg")
    counters["image_epochs"] += len(data) * cfg.epochs


def _count_pool(counters, args, kwargs, result):
    counters["pooled"] += len(_arg(args, kwargs, 1, "unlabeled"))


def _count_selected(counters, args, kwargs, result):
    counters["selected"] += len(result)


def _bytes(key, index, name, suffix=None):
    def hook(counters, args, kwargs, result):
        path = Path(_arg(args, kwargs, index, name))
        counters[key] += _file_size(path / suffix if suffix else path)
    return hook


# Counters taken at the same boundaries as the spans.
HOOKS = {
    "models.fit": _count_fit,
    "ssl.pseudo_label": _count_pool,
    "ssl.select_reliable": _count_selected,
    "data.read_pgm": _bytes("bytes_read", 0, "path"),
    "data.read_dataset_csv": _bytes("bytes_read", 0, "path"),
    "data.read_seg_dataset": _bytes("bytes_read", 0, "directory", "index.csv"),
    "data.write_pgm": _bytes("bytes_written", 0, "path"),
    "data.write_dataset_csv": _bytes("bytes_written", 0, "path"),
    "data.write_seg_dataset": _bytes("bytes_written", 0, "directory", "index.csv"),
}


class Tracer:
    """Records spans around drtricks calls while installed.

    ``only`` limits tracing to the named functions (e.g. ``{"models.fit"}``);
    ``None`` traces every public function and method. Spans are lists
    ``[name, start, end, parent_index]`` with parent -1 at the top level.
    """

    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one CLI command."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def take(self) -> tuple[list[list], Counter]:
        """Return and clear the spans and counters recorded so far."""
        spans, counters = self.spans[:], self.counters.copy()
        self.spans.clear()
        self.counters.clear()
        return spans, counters

    # -- installing -----------------------------------------------------------

    def _wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"drtricks.{m}") for m in MODULES}
        wrapped = {}  # id(original function) -> wrapper, shared by all bindings
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__ \
                        and not attr.startswith("_") and self._wanted(f"{short}.{attr}"):
                    wrapped[id(value)] = self._wrap(value, f"{short}.{attr}")
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for method, fn in list(vars(value).items()):
                        name = f"{short}.{value.__name__}.{method}"
                        if isinstance(fn, types.FunctionType) and self._wanted(name) \
                                and (not method.startswith("_") or name in PRIVATE_TRACED):
                            self._patch(value, method, self._wrap(fn, name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and isinstance(value, types.FunctionType):
                    self._patch(mod, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        inner = [(max(spans[k][1], start), min(spans[k][2], end)) for k in kids]
        out.append((end - start) - covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def busy(spans, names) -> float:
    """Wall time during which at least one span with one of ``names`` was open."""
    return covered([(s[1], s[2]) for s in spans if s[0] in names])


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def pass_wall(spans) -> float:
    """Time of the commands of one pass: the top-level command spans."""
    return sum(s[2] - s[1] for s in spans
               if s[3] < 0 and s[0].removeprefix("cli.") in COMMANDS)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_LOSSES = ("models.seg_total_loss", "models.weighted_dice_loss", "models.class_weights",
           "models.bce_loss", "models.focal_loss", "models.smooth_l1",
           "models.cross_entropy")
_READS = ("data.read_pgm", "data.read_image", "data.read_mask_set",
          "data.read_dataset_csv", "data.read_seg_dataset")
_WRITES = ("data.write_pgm", "data.write_image", "data.write_mask_set",
           "data.write_dataset_csv", "data.write_seg_dataset")

# (metric, stat, span names); units live in BENCHMARK.json. "calls" counts
# spans, "self_s" sums self time, "busy_s" is the union of the spans'
# intervals, "prefix:" sums self time over every span of one module and
# "counter:" reads a counter taken by HOOKS.
LAYER_METRICS = [
    ("models.fit.calls", "calls", ("models.fit",)),
    ("models.fit.busy_s", "busy_s", ("models.fit",)),
    ("models.adamw_step.calls", "calls", ("models.AdamW.step",)),
    ("models.adamw_step.self_s", "self_s", ("models.AdamW.step",)),
    ("models.forward.self_s", "self_s",
     ("models.MLP.forward", "models.MLP._forward_cached")),
    ("models.loss.self_s", "self_s", _LOSSES),
    ("models.backward.self_s", "self_s", ("models.MLP.backward",)),
    ("models.seg_features.calls", "calls", ("models.seg_features",)),
    ("models.seg_features.self_s", "self_s", ("models.seg_features",)),
    ("models.checkpoint.busy_s", "busy_s",
     ("models.save_checkpoint", "models.load_checkpoint")),
    ("ensemble.tta_rotate_seg.calls", "calls", ("ensemble.tta_rotate_seg",)),
    ("ensemble.tta_rotate_seg.self_s", "self_s", ("ensemble.tta_rotate_seg",)),
    ("ensemble.ensemble_predict.self_s", "self_s", ("ensemble.ensemble_predict",)),
    ("ensemble.member_predictions_per_image", "member_predictions", ()),
    ("ensemble.train_deep_ensemble.busy_s", "busy_s",
     ("ensemble.train_deep_ensemble",)),
    ("ssl.pseudo_label.calls", "calls", ("ssl.pseudo_label",)),
    ("ssl.pseudo_label.self_s", "self_s", ("ssl.pseudo_label",)),
    ("ssl.select_reliable.self_s", "self_s", ("ssl.select_reliable",)),
    ("ssl.rpl_train.busy_s", "busy_s", ("ssl.rpl_train",)),
    ("ssl.selected_ratio", "selected_ratio", ()),
    ("postprocess.postprocess_masks.self_s", "self_s",
     ("postprocess.postprocess_masks", "postprocess.reconcile_irma_nv")),
    ("postprocess.dilate.self_s", "self_s", ("postprocess.dilate",)),
    ("augment.augment.calls", "calls", ("augment.augment",)),
    ("augment.augment.self_s", "self_s",
     ("augment.augment", "augment.resize_bilinear", "augment.build_pipeline")),
    ("data.read.busy_s", "busy_s", _READS),
    ("data.write.busy_s", "busy_s", _WRITES),
    ("data.bytes_read", "counter:bytes_read", ()),
    ("data.bytes_written", "counter:bytes_written", ()),
    ("data.generate.busy_s", "busy_s",
     ("data.gen_seg_dataset", "data.gen_ordinal_dataset")),
    ("metrics.self_s", "prefix:metrics.", ()),
    ("config.load_config.busy_s", "busy_s", ("config.load_config",)),
    *[(f"cli.{c}.busy_s", "busy_s", (f"cli.{c}",)) for c in COMMANDS],
    ("cli.self_s", "prefix:cli.", ()),
]


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer figures of one traced stretch of work (see LAYER_METRICS)."""
    selfs = self_times(spans)
    out = {}
    for name, stat, names in LAYER_METRICS:
        if stat == "calls":
            value = float(sum(1 for s in spans if s[0] in names))
        elif stat == "self_s":
            value = sum(t for s, t in zip(spans, selfs) if s[0] in names)
        elif stat == "busy_s":
            value = busy(spans, names)
        elif stat.startswith("prefix:"):
            prefix = stat.removeprefix("prefix:")
            value = sum(t for s, t in zip(spans, selfs) if s[0].startswith(prefix))
        elif stat.startswith("counter:"):
            value = float(counters[stat.removeprefix("counter:")])
        elif stat == "selected_ratio":
            value = counters["selected"] / counters["pooled"] if counters["pooled"] else 0.0
        elif stat == "member_predictions":
            members = sum(1 for i, s in enumerate(spans) if s[0] == "models.segment_soft"
                          and has_ancestor(spans, i, "cli.predict"))
            images = counters["predict_images"]
            value = members / images if images else 0.0
        else:  # pragma: no cover - table and code disagree
            raise ValueError(stat)
        out[name] = value
    return out


def concat(first, second):
    """Join two (spans, counters) recordings, shifting the second's parent indices."""
    (spans_a, counters_a), (spans_b, counters_b) = first, second
    shift = len(spans_a)
    joined = spans_a + [[n, s, e, p + shift if p >= 0 else -1] for n, s, e, p in spans_b]
    return joined, counters_a + counters_b


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
