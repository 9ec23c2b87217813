"""Two-stage augmentation sampler for segmentation training.

Every call applies exactly one pixel operator from each of the two pixel
families (brightness-like and texture-like), then each geometric operator
independently with its configured probability, in declared order. Geometric
operators transform image and masks jointly (nearest neighbor for masks);
pixel operators never touch masks. Outputs stay in [0, 1].
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Image, MaskSet

PIXEL_KINDS = ("brightness_contrast", "gamma", "sharpen", "blur", "downscale")
GEOMETRIC_KINDS = ("flip", "shift_scale_rotate", "grid_distortion",
                   "coarse_dropout", "affine")


@dataclass(frozen=True)
class AugOp:
    kind: str
    params: dict
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PIXEL_KINDS + GEOMETRIC_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class AugPipeline:
    """One op is drawn uniformly from each pixel family per call."""

    omega_set: tuple[AugOp, ...]
    psi_set: tuple[AugOp, ...]
    geometric_set: tuple[AugOp, ...]

    def __post_init__(self) -> None:
        if not self.omega_set or not self.psi_set:
            raise ValueError("both pixel-operator families must be nonempty")


def build_pipeline() -> AugPipeline:
    """Operator lists and parameters of the segmentation training pipeline."""
    omega = (
        AugOp("brightness_contrast", {"brightness_limit": 0.2, "contrast_limit": 0.2}),
        AugOp("gamma", {"gamma_limit": (80, 120)}),
    )
    psi = (
        AugOp("sharpen", {"alpha": (0.2, 0.5), "lightness": (0.5, 1.0)}),
        AugOp("blur", {"blur_limit": 3}),
        AugOp("downscale", {"scale_min": 0.7, "scale_max": 0.9}),
    )
    geometric = (
        AugOp("flip", {"directions": ("horizontal", "vertical")}, 0.5),
        AugOp("shift_scale_rotate",
              {"shift_limit": 0.2, "scale_limit": 0.1, "rotate_limit": 90}, 0.5),
        AugOp("grid_distortion", {"num_steps": 5, "distort_limit": 0.3}, 0.2),
        AugOp("coarse_dropout",
              {"max_height": 128, "min_height": 32, "max_width": 128,
               "min_width": 32, "max_holes": 3}, 0.2),
        AugOp("affine", {"scale": (0.8, 1.2)}, 0.5),
    )
    return AugPipeline(omega, psi, geometric)


# ---------------------------------------------------------------------------
# resampling helpers
#
# NumPy versions of ``scipy.ndimage.map_coordinates`` (orders 0 and 1) and of
# ``uniform_filter(size=3)``, both in ``reflect`` mode, that give the same
# bits: the same coordinate folds, weights and order of additions.
# ---------------------------------------------------------------------------

def _fold_reflect(c: np.ndarray, n: int) -> np.ndarray:
    """Source coordinates folded into [-1, n) by the ``reflect`` rule.

    -c-1 below 0 and 2n-c-1 from n up; beyond [-n, 2n) a modulo by 2n comes
    first. The result may fall in [-1, 0) or [n-1, n), whose neighbours are the
    one-pixel edge padding of ``_pad_edge``.
    """
    if n == 1:
        return np.zeros_like(c)
    sz2 = 2.0 * n
    lo, hi = c.min(), c.max()
    out = c.copy()
    if lo < 0.0:
        np.subtract(-1.0, c, out=out, where=c < 0.0)
    if hi >= n:
        np.subtract(sz2 - 1.0, c, out=out, where=c >= n)
    if lo < -n or hi >= sz2:
        far = (c < -n) | (c >= sz2)
        x = c[far]
        neg = x < 0.0
        x = np.where(x < -sz2, sz2 * np.trunc(-x / sz2) + x, x)
        x = np.where(x >= sz2, x - sz2 * np.trunc(x / sz2), x)
        out[far] = np.where(neg, np.where(x < -n, x + sz2, -x - 1.0),
                            np.where(x >= n, sz2 - x - 1.0, x))
    return out


def _sampler(src_y: np.ndarray, src_x: np.ndarray, shape) -> tuple:
    """Gather plan for sampling an (h, w) raster at (src_y, src_x).

    Returns the flat index of the top-left bilinear neighbour in the
    edge-padded raster, the weights ``wy0, wy1, wx0, wx1`` (``w0 = 1 - frac``
    and ``w1 = 1 - w0``) and the flat index of the nearest pixel,
    ``floor(c + 0.5)``. One plan serves the image and every mask channel.
    """
    h, w = shape
    stride = w + 2
    fy, fx = _fold_reflect(src_y, h), _fold_reflect(src_x, w)
    y0, x0 = np.floor(fy), np.floor(fx)
    wy0 = np.subtract(1.0, fy - y0)
    wx0 = np.subtract(1.0, fx - x0)
    y0 *= stride  # flat indices are exact integers in float64
    y0 += x0
    corner = y0.astype(np.intp)
    corner += stride + 1
    fy += 0.5
    np.floor(fy, out=fy)
    fy *= stride
    fx += 0.5
    np.floor(fx, out=fx)
    fy += fx
    nearest = fy.astype(np.intp)
    nearest += stride + 1
    return corner, (wy0, 1.0 - wy0, wx0, 1.0 - wx0), nearest


def _read_only(sampler: tuple) -> tuple:
    corner, weights, nearest = sampler
    for a in (corner, *weights, nearest):
        a.flags.writeable = False
    return sampler


def _pad_edge(a: np.ndarray) -> np.ndarray:
    """``a`` with its last two axes padded by one repeated edge pixel."""
    h, w = a.shape[-2:]
    p = np.empty(a.shape[:-2] + (h + 2, w + 2), dtype=a.dtype)
    p[..., 1:-1, 1:-1] = a
    p[..., 0, 1:-1] = a[..., 0, :]
    p[..., -1, 1:-1] = a[..., -1, :]
    p[..., 0] = p[..., 1]
    p[..., -1] = p[..., -2]
    return p


def _bilinear(values: np.ndarray, sampler: tuple) -> np.ndarray:
    """Order-1 samples: 0.0 + v00 wy0 wx0 + v01 wy0 wx1 + v10 wy1 wx0 + v11 wy1 wx1."""
    corner, (wy0, wy1, wx0, wx1), _ = sampler
    p = _pad_edge(values).ravel()
    stride = values.shape[1] + 2
    out = p.take(corner)
    out *= wy0
    out *= wx0
    out += 0.0  # as 0.0 + x: turns -0.0 into +0.0
    # the other three neighbours: the same indices into shifted views
    for shift, wy, wx in ((1, wy0, wx1), (stride, wy1, wx0), (stride + 1, wy1, wx1)):
        t = p[shift:].take(corner)
        t *= wy
        t *= wx
        out += t
    return out


def _nearest(masks: np.ndarray, sampler: tuple) -> np.ndarray:
    """Order-0 samples of every (3, H, W) mask channel in one gather."""
    flat = _pad_edge(masks).reshape(masks.shape[0], -1)
    return np.take(flat, sampler[2], axis=-1)


@functools.lru_cache(maxsize=8)
def _grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinates of every pixel, (H, W) each, read-only."""
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    yy.flags.writeable = xx.flags.writeable = False
    return yy, xx


@functools.lru_cache(maxsize=64)
def _resize_sampler(h: int, w: int, out_h: int, out_w: int) -> tuple:
    yy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    return _read_only(_sampler(*np.meshgrid(yy, xx, indexing="ij"), (h, w)))


@functools.lru_cache(maxsize=8)
def _node_sampler(h: int, w: int, k: int) -> tuple:
    """Samples a (k, k) grid of distortion nodes at every pixel of an (h, w) image.

    The node coordinates span [0, k-1] exactly, where the ``nearest`` and
    ``reflect`` modes agree: both read the edge pixel past the last node.
    """
    yy, xx = _grid(h, w)
    node_y = yy / (h - 1) * (k - 1)
    node_x = xx / (w - 1) * (k - 1)
    return _read_only(_sampler(node_y, node_x, (k, k)))


def resize_bilinear(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize (reflect mode at the border), used by downscale."""
    h, w = values.shape
    return _bilinear(values, _resize_sampler(h, w, out_h, out_w))


def _affine_sources(shape, angle_deg: float, scale: float, ty: float, tx: float):
    """Source coordinates for an inverse-mapped rotation/scale/shift about center."""
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = _grid(h, w)
    yq = yy - cy - ty
    xq = xx - cx - tx
    th = math.radians(angle_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    src_y = (cos_t * yq + sin_t * xq) / scale + cy
    src_x = (-sin_t * yq + cos_t * xq) / scale + cx
    return src_y, src_x


def _running_mean3(v: np.ndarray) -> np.ndarray:
    """Size-3 moving mean along axis 0 with the border reflected.

    SciPy's running sum: the first window added left to right, then a
    cumulative sum of e[k+2] - e[k-1] over the extended rows e, each sum
    divided by 3.
    """
    e = np.concatenate([v[:1], v, v[-1:]])
    s = np.empty(v.shape)
    s[0] = ((0.0 + e[0]) + e[1]) + e[2]
    np.subtract(e[3:], e[:-3], out=s[1:])
    np.cumsum(s, axis=0, out=s)
    s /= 3.0
    return s


def _box_blur3(values: np.ndarray) -> np.ndarray:
    """3x3 box mean (``uniform_filter(size=3, mode="reflect")``): axis 0, then 1."""
    return np.ascontiguousarray(_running_mean3(_running_mean3(values).T).T)


# ---------------------------------------------------------------------------
# operator implementations
# ---------------------------------------------------------------------------

def _apply_pixel(op: AugOp, img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    p = op.params
    if op.kind == "brightness_contrast":
        b = rng.uniform(-p["brightness_limit"], p["brightness_limit"])
        c = rng.uniform(-p["contrast_limit"], p["contrast_limit"])
        out = img * (1.0 + c) + b
    elif op.kind == "gamma":
        lo, hi = p["gamma_limit"]
        g = rng.uniform(lo, hi) / 100.0
        out = np.power(img, g)
    elif op.kind == "sharpen":
        a = rng.uniform(*p["alpha"])
        rng.uniform(*p["lightness"])  # drawn for stream stability; see pipeline docs
        out = img * (1.0 - a) + a * (2.0 * img - _box_blur3(img))
    elif op.kind == "blur":
        out = _box_blur3(img)
    elif op.kind == "downscale":
        s = rng.uniform(p["scale_min"], p["scale_max"])
        h, w = img.shape
        dh, dw = max(int(round(h * s)), 1), max(int(round(w * s)), 1)
        out = resize_bilinear(resize_bilinear(img, dh, dw), h, w)
    else:  # pragma: no cover
        raise ValueError(op.kind)
    return np.clip(out, 0.0, 1.0)


def _apply_geometric(op: AugOp, img: np.ndarray, masks: Optional[np.ndarray],
                     rng: np.random.Generator):
    p = op.params
    if op.kind == "flip":
        direction = p["directions"][rng.integers(len(p["directions"]))]
        axis = 1 if direction == "horizontal" else 0
        img = np.flip(img, axis=axis)
        if masks is not None:
            masks = np.flip(masks, axis=axis + 1)
        return np.ascontiguousarray(img), None if masks is None else np.ascontiguousarray(masks)

    if op.kind in ("shift_scale_rotate", "affine"):
        if op.kind == "shift_scale_rotate":
            angle = rng.uniform(-p["rotate_limit"], p["rotate_limit"])
            scale = 1.0 + rng.uniform(-p["scale_limit"], p["scale_limit"])
            ty = rng.uniform(-p["shift_limit"], p["shift_limit"]) * img.shape[0]
            tx = rng.uniform(-p["shift_limit"], p["shift_limit"]) * img.shape[1]
        else:
            angle, ty, tx = 0.0, 0.0, 0.0
            scale = rng.uniform(*p["scale"])
        s = _sampler(*_affine_sources(img.shape, angle, scale, ty, tx), img.shape)
        img = np.clip(_bilinear(img, s), 0.0, 1.0)
        return img, None if masks is None else _nearest(masks, s)

    if op.kind == "grid_distortion":
        k = p["num_steps"]
        h, w = img.shape
        cell = max(h, w) / (k - 1)
        dy_nodes = rng.uniform(-p["distort_limit"], p["distort_limit"], (k, k)) * cell
        dx_nodes = rng.uniform(-p["distort_limit"], p["distort_limit"], (k, k)) * cell
        nodes = _node_sampler(h, w, k)
        dy, dx = _bilinear(dy_nodes, nodes), _bilinear(dx_nodes, nodes)
        yy, xx = _grid(h, w)
        s = _sampler(yy + dy, xx + dx, img.shape)
        img = np.clip(_bilinear(img, s), 0.0, 1.0)
        return img, None if masks is None else _nearest(masks, s)

    if op.kind == "coarse_dropout":
        # occlusion only; masks keep their labels
        img = img.copy()
        h, w = img.shape
        holes = int(rng.integers(1, p["max_holes"] + 1))
        for _ in range(holes):
            hh = int(rng.integers(p["min_height"], p["max_height"] + 1))
            ww = int(rng.integers(p["min_width"], p["max_width"] + 1))
            hh, ww = min(hh, h), min(ww, w)
            y0 = int(rng.integers(0, h - hh + 1))
            x0 = int(rng.integers(0, w - ww + 1))
            img[y0 : y0 + hh, x0 : x0 + ww] = 0.0
        return img, masks

    raise ValueError(op.kind)  # pragma: no cover


def augment(
    image: Image,
    pipeline: AugPipeline,
    rng: np.random.Generator,
    masks: Optional[MaskSet] = None,
) -> tuple[Image, Optional[MaskSet]]:
    """One augmented draw: one omega op, one psi op, then geometric ops in order."""
    img = np.asarray(image.values, dtype=np.float64)
    m = None if masks is None else np.asarray(masks.channels, dtype=np.uint8)

    omega = pipeline.omega_set[rng.integers(len(pipeline.omega_set))]
    img = _apply_pixel(omega, img, rng)
    psi = pipeline.psi_set[rng.integers(len(pipeline.psi_set))]
    img = _apply_pixel(psi, img, rng)

    for op in pipeline.geometric_set:
        if rng.random() < op.probability:
            img, m = _apply_geometric(op, img, m, rng)

    return Image(img), None if m is None else MaskSet(m)
