"""Core data types, synthetic dataset generators, splitting, and file I/O.

Images are grayscale rasters normalized to [0, 1]; lesion masks carry three
binary channels (IRMA, NP, NV). A segmentation ``Dataset`` is a tuple of
image ``Sample``s. An ordinal data set (quality or grading) is a ``Table``
of arrays: ids, a feature matrix and labels in {0, 1, 2}, -1 for none, so
selecting samples is one row gather. All generators take an explicit seed
and own their RNG; every type is immutable after construction.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

NUM_CLASSES = 3
LESION_CHANNELS = ("irma", "np", "nv")
IRMA, NP, NV = 0, 1, 2

#: Grade class proportions of the reference cohort (normal / NPDR / PDR).
DEFAULT_GRADE_PROPORTIONS = (329 / 611, 212 / 611, 70 / 611)

#: Defaults of the synthetic generators, shared by ``synth`` and ``[synth]``:
#: feature dimension and noise of the ordinal tasks, image side of segmentation.
SYNTH_DIM, SYNTH_NOISE, SYNTH_SIZE = 8, 0.5, 64

TASKS = ("segmentation", "quality", "grading")


class DataError(ValueError):
    """Invalid in-memory data (range, shape, or invariant violations)."""


class FormatError(DataError):
    """Malformed file content (bad header, dimensions, or pixel values)."""


def _frozen(arr: np.ndarray, dtype=None) -> np.ndarray:
    # C order whatever the input's layout: sums over a raster follow memory
    # order, so a transposed view would otherwise train different weights.
    out = np.array(arr, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


def validate_label(value: int) -> int:
    if value not in (0, 1, 2):
        raise DataError(f"ordinal label must be in {{0, 1, 2}}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Table:
    """An ordinal data set (quality or grading) as arrays, one row per sample:
    unique int64 ``ids``, an (n, dim) float64 ``features`` matrix with dim >= 1,
    and int64 ``labels`` in {0, 1, 2}, where -1 means "no label"."""

    task: str
    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.task not in TASKS[1:]:
            raise DataError(f"unknown ordinal task {self.task!r}")
        try:
            ids = np.asarray(self.ids, dtype=np.int64)
        except OverflowError:
            bad = next(i for i in self.ids if not -2**63 <= i < 2**63)
            raise DataError(f"sample id {bad} is outside the 64-bit integer range") from None
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        n = len(ids)
        if features.ndim != 2 or features.shape[1] < 1 or len(features) != n \
                or labels.shape != (n,):
            raise DataError("a table needs one feature row and one label per id")
        if len(set(ids.tolist())) != n:
            raise DataError("sample ids must be unique within a dataset")
        if not np.isfinite(features).all():
            raise DataError("features must be finite")
        bad = labels[(labels < -1) | (labels > 2)]
        if bad.size:
            raise DataError(f"ordinal label must be in {{0, 1, 2}}, got {bad[0]}")
        for name, value in (("ids", ids), ("features", features), ("labels", labels)):
            object.__setattr__(self, name, _frozen(value))

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows, labels=None) -> Table:
        """The rows ``rows`` in that order, labeled ``labels`` if given."""
        return Table(self.task, self.ids[rows], self.features[rows],
                     self.labels[rows] if labels is None else labels)


@dataclass(frozen=True)
class Sample:
    """One segmentation image, stored as a read-only C-ordered float64 raster
    in [0, 1] of at least 8x8. If it is labeled, ``masks`` is its lesion mask
    set: a read-only C-ordered (3, H, W) uint8 array of 0s and 1s, stacked
    IRMA, NP, NV."""

    id: int
    image: np.ndarray
    masks: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        v = np.asarray(self.image, dtype=np.float64)
        if v.ndim != 2:
            raise DataError(f"image must be 2-D, got shape {v.shape}")
        if v.shape[0] < 8 or v.shape[1] < 8:
            raise DataError(f"image must be at least 8x8, got {v.shape}")
        if not np.isfinite(v).all() or v.min() < 0.0 or v.max() > 1.0:
            raise DataError("image values must be finite and in [0, 1]")
        if not -2**63 <= self.id < 2**63:
            raise DataError(f"sample id {self.id} is outside the 64-bit integer range")
        object.__setattr__(self, "image", _frozen(v))
        if self.masks is None:
            return
        m = np.asarray(self.masks)
        if m.ndim != 3 or m.shape[0] != NUM_CLASSES:
            raise DataError(f"mask set must have shape (3, H, W), got {m.shape}")
        if m.shape[1:] != v.shape:
            raise DataError("mask shape does not match image shape")
        if not ((m == 0) | (m == 1)).all():  # np.isin's verdicts, about 10x faster
            raise DataError("mask pixels must be 0 or 1")
        object.__setattr__(self, "masks", _frozen(m, np.uint8))


@dataclass(frozen=True)
class Dataset:
    """Ordered, id-unique collection of segmentation samples."""

    samples: tuple[Sample, ...]
    task = "segmentation"  # a class constant, not a field: every image data set is one

    def __post_init__(self) -> None:
        samples = tuple(self.samples)
        ids = [s.id for s in samples]
        if len(set(ids)) != len(ids):
            raise DataError("sample ids must be unique within a dataset")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @cached_property
    def ids(self) -> np.ndarray:
        """The sample ids in sample order, built once and read-only."""
        ids = np.array([s.id for s in self.samples], dtype=np.int64)
        ids.setflags(write=False)
        return ids


# ---------------------------------------------------------------------------
# normalization and splitting
# ---------------------------------------------------------------------------

def normalize_image(raw: np.ndarray) -> np.ndarray:
    """Map an integer raster with values in [0, 255] to a [0, 1] float64 raster."""
    arr = np.asarray(raw)
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise DataError("raw pixel values must lie in [0, 255]")
    return arr.astype(np.float64) / 255.0


def largest_remainder_counts(n: int, proportions: Sequence[float]) -> list[int]:
    """Apportion n into integer counts summing exactly to n."""
    props = np.asarray(proportions, dtype=np.float64)
    if props.min() < 0 or not math.isclose(props.sum(), 1.0, rel_tol=1e-9):
        raise DataError("proportions must be non-negative and sum to 1")
    exact = props * n
    counts = np.floor(exact).astype(int)
    remainder = exact - counts
    short = n - int(counts.sum())
    # ties broken by class index (stable sort on descending remainder)
    order = np.argsort(-remainder, kind="stable")
    for k in order[:short]:
        counts[k] += 1
    return counts.tolist()


def split_train_dev(d: Table, ratio: float, seed: int) -> tuple[Table, Table]:
    """Deterministic split into (train, dev), stratified on the ordinal labels.

    Every sample must be labeled. Per-class train counts are floored and the
    shortfall is distributed in class-index order. Both parts keep the rows
    in ``d``'s order.
    """
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    target = round(ratio * len(d))
    if (d.labels < 0).any():
        raise DataError("stratified split requires every sample labeled")
    classes = sorted(set(d.labels.tolist()))
    by_class = {k: np.flatnonzero(d.labels == k) for k in classes}
    for k in classes:
        if len(by_class[k]) < 2:
            raise DataError(f"class {k} has fewer than 2 samples; cannot stratify")

    takes = {k: int(math.floor(ratio * len(by_class[k]))) for k in classes}
    short = target - sum(takes.values())
    for k in classes:
        if short <= 0:
            break
        if takes[k] < len(by_class[k]) - 1:
            takes[k] += 1
            short -= 1

    in_train = np.zeros(len(d), dtype=bool)
    for k in classes:
        perm = rng.permutation(len(by_class[k]))
        in_train[by_class[k][perm[: takes[k]]]] = True
    return d.take(np.flatnonzero(in_train)), d.take(np.flatnonzero(~in_train))


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

def ordinal_class_centers(dim: int) -> np.ndarray:
    """Colinear class centers c_k = k * u, with u = (1, ..., 1) / sqrt(dim), so
    grades embed ordinally."""
    u = np.ones(dim) / math.sqrt(dim)
    return np.stack([k * u for k in range(NUM_CLASSES)])


def gen_ordinal_dataset(
    n: int,
    noise: float = SYNTH_NOISE,
    dim: int = SYNTH_DIM,
    seed: int = 0,
    task: str = "grading",
    labeled: bool = True,
    id_offset: int = 0,
) -> Table:
    """Gaussian blobs around colinear class centers with ordinal labels.

    Class counts follow ``DEFAULT_GRADE_PROPORTIONS`` exactly (largest-remainder
    apportionment). ``labeled=False`` strips the labels but keeps the same
    geometry, for building unlabeled pools.
    """
    if n < 30:
        raise DataError("need n >= 30")
    if noise < 0:
        raise DataError("noise must be non-negative")
    if dim < 1:
        raise DataError("feature dimension must be >= 1")
    rng = np.random.default_rng(seed)
    counts = largest_remainder_counts(n, DEFAULT_GRADE_PROPORTIONS)
    centers = ordinal_class_centers(dim)
    labels = np.repeat(np.arange(NUM_CLASSES), counts)
    rng.shuffle(labels)
    feats = centers[labels] + noise * rng.standard_normal((n, dim))
    return Table(task, range(id_offset, id_offset + n), feats,
                 labels if labeled else np.full(n, -1))


def _disk(size: int, cy: int, cx: int, r: int) -> np.ndarray:
    yy, xx = np.ogrid[:size, :size]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _fading_disk(size: int, cy: int, cx: int, r: int) -> np.ndarray:
    """Disk intensity fading to zero before the labeled rim.

    The outer ~20% of the radius carries no signal, so a trained segmenter
    under-covers the labeled disk by a couple of pixels and boundary
    dilation genuinely recovers it.
    """
    yy, xx = np.ogrid[:size, :size]
    d2 = ((yy - cy) ** 2 + (xx - cx) ** 2) / (r * r)
    return np.clip(1.0 - d2 / 0.65, 0.0, 1.0)


def gen_seg_dataset(
    n: int,
    size: int = SYNTH_SIZE,
    seed: int = 0,
    artifact_fraction: float = 0.2,
    id_offset: int = 0,
) -> Dataset:
    """Synthetic lesion images: large bright NP blobs, small IRMA/NV dots.

    A configurable fraction of images carries only bright stripe artifacts
    and an empty mask, mimicking signal-reduction artifacts. NP components
    are strictly larger in pixel area than NV components by construction
    (NP disks keep a full-radius margin from the border; NV dot centers are
    kept far enough apart that dots never merge).
    """
    if n < 1:
        raise DataError("need n >= 1")
    if size < 32:
        raise DataError("need size >= 32")
    if not 0.0 <= artifact_fraction <= 1.0:
        raise DataError("artifact_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        img = np.clip(rng.normal(0.12, 0.04, (size, size)), 0.0, 1.0)
        masks = np.zeros((NUM_CLASSES, size, size), dtype=np.uint8)
        if rng.random() < artifact_fraction:
            for _ in range(rng.integers(1, 3)):
                width = int(rng.integers(2, 6))
                pos = int(rng.integers(0, size - width))
                if rng.random() < 0.5:
                    img[pos : pos + width, :] += 0.30
                else:
                    img[:, pos : pos + width] += 0.30
        else:
            # NP: unions of large disks, centers kept a full radius inside.
            # Intensity fades toward each disk rim so boundary pixels are dim
            # (models tend to under-segment the rim; dilation recovers it).
            np_intensity = np.zeros((size, size))
            for _ in range(rng.integers(1, 3)):
                r0 = int(rng.integers(8, 15))
                cy = int(rng.integers(r0, size - r0))
                cx = int(rng.integers(r0, size - r0))
                for _ in range(rng.integers(1, 3)):
                    r = int(rng.integers(8, min(15, r0 + 1)))
                    dy = int(rng.integers(-3, 4))
                    dx = int(rng.integers(-3, 4))
                    y = min(max(cy + dy, r), size - 1 - r)
                    x = min(max(cx + dx, r), size - 1 - r)
                    masks[NP][_disk(size, y, x, r)] = 1
                    np_intensity = np.maximum(np_intensity, _fading_disk(size, y, x, r))
            img += 0.40 * np_intensity
            # IRMA: tiny mid-bright dots; NV: larger, brighter dots.
            # Brightness and local-mean signatures differ so the two
            # small-lesion classes are separable from per-pixel features.
            for _ in range(rng.integers(2, 7)):
                cy = int(rng.integers(0, size))
                cx = int(rng.integers(0, size))
                d = _disk(size, cy, cx, 1)
                masks[IRMA][d] = 1
                img[d] += 0.62
            centers: list[tuple[int, int]] = []
            for _ in range(rng.integers(1, 5)):
                for _attempt in range(20):
                    cy = int(rng.integers(0, size))
                    cx = int(rng.integers(0, size))
                    if all((cy - y) ** 2 + (cx - x) ** 2 > 100 for y, x in centers):
                        centers.append((cy, cx))
                        d = _disk(size, cy, cx, 3)
                        masks[NV][d] = 1
                        img[d] += 0.85
                        break
        samples.append(
            Sample(
                id=id_offset + i,
                image=np.clip(img, 0.0, 1.0),
                masks=masks,
            )
        )
    return Dataset(tuple(samples))


# ---------------------------------------------------------------------------
# file I/O: PGM rasters, mask sets, tabular CSV, segmentation directories
# ---------------------------------------------------------------------------

def write_pgm(path: Path | str, arr: np.ndarray) -> None:
    """Write a uint8 raster as binary PGM (P5, maxval 255)."""
    a = np.asarray(arr, dtype=np.uint8)
    if a.ndim != 2:
        raise DataError("PGM raster must be 2-D")
    Path(path).write_bytes(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode() + a.tobytes())


def read_pgm(path: Path | str) -> np.ndarray:
    """Read a binary PGM (P5) raster into a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5") or not (data[2:3].isspace() or data[2:3] == b"#"):
        raise FormatError(f"{path}: not a binary PGM (missing P5 magic)")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric PGM header field") from exc
    if maxval != 255:
        raise FormatError(f"{path}: expected maxval 255, got {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: PGM dimensions {width}x{height} are not positive")
    body = data[pos : pos + width * height]
    if len(body) != width * height:
        raise FormatError(f"{path}: pixel payload does not match dimensions")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width)


def write_image(path: Path | str, image: np.ndarray) -> None:
    write_pgm(path, np.rint(image * 255.0).astype(np.uint8))


def read_image(path: Path | str) -> np.ndarray:
    return normalize_image(read_pgm(path))


def _mask_paths(stem: Path | str) -> list[Path]:
    stem = Path(stem)
    return [stem.with_name(stem.name + f"_{ch}.pgm") for ch in LESION_CHANNELS]


def write_mask_set(stem: Path | str, masks: np.ndarray) -> list[Path]:
    """Write a (3, H, W) uint8 mask set of 0s and 1s as one binary PGM per
    channel, suffixed _irma/_np/_nv."""
    paths = _mask_paths(stem)
    for path, channel in zip(paths, masks):
        write_pgm(path, channel * np.uint8(255))
    return paths


def read_mask_set(stem: Path | str) -> np.ndarray:
    """Read the three channel PGMs back as a (3, H, W) uint8 array; pixels
    >= 128 are 1, the rest 0."""
    rasters = []
    shapes = set()
    for path in _mask_paths(stem):
        raw = read_pgm(path)
        # hand-made fixtures may carry near-binary values; threshold at 128
        rasters.append((raw >= 128).astype(np.uint8))
        shapes.add(raw.shape)
    if len(shapes) != 1:
        raise FormatError(f"{stem}: mask channel dimensions disagree")
    return np.stack(rasters)


def read_csv(path: Path | str) -> list[list[str]]:
    """A CSV file's rows; FormatError unless it is UTF-8 text the csv module parses."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise FormatError(f"{path}: malformed CSV ({exc})") from exc


def write_csv(path: Path | str, header: list[str], rows) -> None:
    """Write ``header``, then each of ``rows``, as CSV lines."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(path: Path | str, d: Table) -> None:
    """Tabular dataset as CSV: id,feat_0..feat_{D-1},label (label may be empty)."""
    write_csv(path, ["id", *[f"feat_{j}" for j in range(d.features.shape[1])], "label"],
              ([i, *map(repr, row), "" if label < 0 else label] for i, row, label
               in zip(d.ids.tolist(), d.features.tolist(), d.labels.tolist())))


def read_dataset_csv(path: Path | str, task: str) -> Table:
    rows = read_csv(path)
    if not rows:
        raise FormatError(f"{path}: empty CSV")
    header = rows[0]
    if not header or header[0] != "id" or header[-1] != "label":
        raise FormatError(f"{path}: expected header id,feat_*,label")
    dim = len(header) - 2
    if dim < 1:
        raise FormatError(f"{path}: no feature column")
    if [h for h in header[1:-1]] != [f"feat_{j}" for j in range(dim)]:
        raise FormatError(f"{path}: malformed feature columns")
    ids, features, labels = [], [], []
    for row in rows[1:]:
        if len(row) != len(header):
            raise FormatError(f"{path}: row width mismatch")
        try:
            ids.append(int(row[0]))
            features.append([float(v) for v in row[1:-1]])
            label = None if row[-1] == "" else int(row[-1])
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        labels.append(-1 if label is None else validate_label(label))
    return Table(task, ids, np.array(features).reshape(len(ids), dim), labels)


def write_seg_dataset(directory: Path | str, d: Dataset) -> None:
    """Segmentation dataset as a directory of PGMs plus an index.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for s in d.samples:
        name = f"sample_{s.id:05d}"
        write_image(directory / f"{name}.pgm", s.image)
        if s.masks is not None:
            write_mask_set(directory / name, s.masks)
        rows.append([s.id, f"{name}.pgm", int(s.masks is not None)])
    write_csv(directory / "index.csv", ["id", "image", "has_masks"], rows)


def read_seg_dataset(directory: Path | str, masks: bool = True) -> Dataset:
    """The images of a ``write_seg_dataset`` directory, with their mask sets
    unless ``masks`` is false: then no mask file is opened."""
    directory = Path(directory)
    index = directory / "index.csv"
    if not index.exists():
        raise FormatError(f"{directory}: missing index.csv")
    rows = read_csv(index)
    if not rows or rows[0] != ["id", "image", "has_masks"]:
        raise FormatError(f"{directory}: malformed index.csv header")
    samples = []
    for row in rows[1:]:
        try:  # exactly three fields: an integer id, the image name, and 0 or 1
            sid, image_name, has_masks = row
            sid, has_masks = int(sid), ("0", "1").index(has_masks)
        except ValueError as exc:
            raise FormatError(f"{index}: malformed row {row!r}") from exc
        if "\0" in image_name:
            raise FormatError(f"{index}: image name {image_name!r} holds a NUL byte")
        image = read_image(directory / image_name)
        mask_set = None
        if has_masks and masks:
            mask_set = read_mask_set(directory / Path(image_name).stem)
        try:
            samples.append(Sample(id=sid, image=image, masks=mask_set))
        except DataError as exc:
            raise DataError(f"{index}: sample {sid}: {exc}") from exc
    return Dataset(tuple(samples))
