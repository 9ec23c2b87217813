"""Two-stage augmentation sampler for segmentation training.

Every call applies exactly one pixel operator from each of the two pixel
families (brightness-like and texture-like), then each geometric operator
independently with its configured probability, in declared order. Geometric
operators transform image and masks jointly (nearest neighbor for masks);
pixel operators never touch masks. Outputs stay in [0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

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
# ---------------------------------------------------------------------------

def _resize(values: np.ndarray, out_h: int, out_w: int, order: int) -> np.ndarray:
    h, w = values.shape
    yy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    coords = np.meshgrid(yy, xx, indexing="ij")
    return ndimage.map_coordinates(values, coords, order=order, mode="reflect")


def resize_bilinear(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize (reflect mode at the border), used by downscale."""
    return _resize(values, out_h, out_w, order=1)


def _warp(values: np.ndarray, src_y: np.ndarray, src_x: np.ndarray, order: int) -> np.ndarray:
    return ndimage.map_coordinates(values, [src_y, src_x], order=order, mode="reflect")


def _affine_sources(shape, angle_deg: float, scale: float, ty: float, tx: float):
    """Source coordinates for an inverse-mapped rotation/scale/shift about center."""
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    yq = yy - cy - ty
    xq = xx - cx - tx
    th = math.radians(angle_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    src_y = (cos_t * yq + sin_t * xq) / scale + cy
    src_x = (-sin_t * yq + cos_t * xq) / scale + cx
    return src_y, src_x


def _box_blur3(values: np.ndarray) -> np.ndarray:
    return ndimage.uniform_filter(values, size=3, mode="reflect")


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
        src_y, src_x = _affine_sources(img.shape, angle, scale, ty, tx)
        img = np.clip(_warp(img, src_y, src_x, order=1), 0.0, 1.0)
        if masks is not None:
            masks = np.stack([_warp(m.astype(float), src_y, src_x, order=0)
                              for m in masks]).astype(np.uint8)
        return img, masks

    if op.kind == "grid_distortion":
        k = p["num_steps"]
        h, w = img.shape
        cell = max(h, w) / (k - 1)
        dy_nodes = rng.uniform(-p["distort_limit"], p["distort_limit"], (k, k)) * cell
        dx_nodes = rng.uniform(-p["distort_limit"], p["distort_limit"], (k, k)) * cell
        yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                             indexing="ij")
        node_y = yy / (h - 1) * (k - 1)
        node_x = xx / (w - 1) * (k - 1)
        dy = ndimage.map_coordinates(dy_nodes, [node_y, node_x], order=1, mode="nearest")
        dx = ndimage.map_coordinates(dx_nodes, [node_y, node_x], order=1, mode="nearest")
        img = np.clip(_warp(img, yy + dy, xx + dx, order=1), 0.0, 1.0)
        if masks is not None:
            masks = np.stack([_warp(m.astype(float), yy + dy, xx + dx, order=0)
                              for m in masks]).astype(np.uint8)
        return img, masks

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
