"""The segmentation training augmentation: one draw per sample per epoch.

``augment`` applies one brightness-like operator (ω) and one texture-like
operator (ψ), each drawn uniformly, then each geometric operator with its
probability, in the order of the table. Geometric operators move image and
masks together (bilinear for the image, nearest neighbour for the masks,
``reflect`` at the border); pixel operators never touch masks. Outputs
stay in [0, 1]: each pixel operator's result and each warped image is
clipped. Names follow Albumentations.

=====  ===================  ==============================================  ======
stage  operator             draws and parameters                            chance
=====  ===================  ==============================================  ======
ω      brightness_contrast  b, c ~ U(-0.2, 0.2); v (1 + c) + b              1/2
ω      gamma                g ~ U(80, 120) / 100; v ** g                    1/2
ψ      sharpen              a ~ U(0.2, 0.5), then a lightness ~ U(0.5, 1)   1/3
                            drawn and unused; (1 - a) v + a (2 v - box(v))
ψ      blur                 3x3 box mean, box(v)                            1/3
ψ      downscale            s ~ U(0.7, 0.9); bilinear to round(s H) x       1/3
                            round(s W) and back
geo    flip                 horizontal or vertical, 1/2 each                0.5
geo    shift_scale_rotate   angle ~ U(-90, 90) degrees, scale 1 +           0.5
                            U(-0.1, 0.1), shift U(-0.2, 0.2) x side per
                            axis, about the centre
geo    grid_distortion      5x5 nodes, each moved U(-0.3, 0.3) x cell per   0.2
                            axis (cell = max(H, W) / 4), bilinear between
geo    coarse_dropout       1-3 holes of 32-128 px a side, clipped to the   0.2
                            image; zeroed in the image, masks keep labels
geo    affine               scale ~ U(0.8, 1.2) about the centre            0.5
=====  ===================  ==============================================  ======
"""
from __future__ import annotations

import functools
import math

import numpy as np


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
# the pipeline (see the table in the module docstring)
# ---------------------------------------------------------------------------

def _brightness_contrast(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    b = rng.uniform(-0.2, 0.2)
    c = rng.uniform(-0.2, 0.2)
    return img * (1.0 + c) + b


def _gamma(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.power(img, rng.uniform(80, 120) / 100.0)


def _sharpen(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(0.2, 0.5)
    rng.uniform(0.5, 1.0)  # the lightness: drawn, unused, keeps the stream
    return img * (1.0 - a) + a * (2.0 * img - _box_blur3(img))


def _blur(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return _box_blur3(img)  # draws nothing


def _downscale(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    s = rng.uniform(0.7, 0.9)
    h, w = img.shape
    dh, dw = max(int(round(h * s)), 1), max(int(round(w * s)), 1)
    return resize_bilinear(resize_bilinear(img, dh, dw), h, w)


def _warp(img: np.ndarray, masks: np.ndarray, src_y: np.ndarray, src_x: np.ndarray):
    """Image and masks sampled at (src_y, src_x) through one shared plan."""
    s = _sampler(src_y, src_x, img.shape)
    return np.clip(_bilinear(img, s), 0.0, 1.0), _nearest(masks, s)


def _flip(img: np.ndarray, masks: np.ndarray, rng: np.random.Generator):
    axis = (1, 0)[rng.integers(2)]  # horizontal, vertical
    return (np.ascontiguousarray(np.flip(img, axis=axis)),
            np.ascontiguousarray(np.flip(masks, axis=axis + 1)))


def _shift_scale_rotate(img: np.ndarray, masks: np.ndarray, rng: np.random.Generator):
    angle = rng.uniform(-90, 90)
    scale = 1.0 + rng.uniform(-0.1, 0.1)
    ty = rng.uniform(-0.2, 0.2) * img.shape[0]
    tx = rng.uniform(-0.2, 0.2) * img.shape[1]
    return _warp(img, masks, *_affine_sources(img.shape, angle, scale, ty, tx))


def _grid_distortion(img: np.ndarray, masks: np.ndarray, rng: np.random.Generator):
    k = 5
    h, w = img.shape
    cell = max(h, w) / (k - 1)
    dy_nodes = rng.uniform(-0.3, 0.3, (k, k)) * cell
    dx_nodes = rng.uniform(-0.3, 0.3, (k, k)) * cell
    nodes = _node_sampler(h, w, k)
    yy, xx = _grid(h, w)
    return _warp(img, masks, yy + _bilinear(dy_nodes, nodes), xx + _bilinear(dx_nodes, nodes))


def _coarse_dropout(img: np.ndarray, masks: np.ndarray, rng: np.random.Generator):
    img = img.copy()
    h, w = img.shape
    for _ in range(int(rng.integers(1, 4))):
        hh = min(int(rng.integers(32, 129)), h)
        ww = min(int(rng.integers(32, 129)), w)
        y0 = int(rng.integers(0, h - hh + 1))
        x0 = int(rng.integers(0, w - ww + 1))
        img[y0 : y0 + hh, x0 : x0 + ww] = 0.0
    return img, masks  # occlusion only: the masks keep their labels


def _affine(img: np.ndarray, masks: np.ndarray, rng: np.random.Generator):
    scale = rng.uniform(0.8, 1.2)
    return _warp(img, masks, *_affine_sources(img.shape, 0.0, scale, 0.0, 0.0))


def augment(values: np.ndarray, channels: np.ndarray,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One augmented draw of an (H, W) float64 image and its (3, H, W) uint8 masks."""
    values = np.clip((_brightness_contrast, _gamma)[rng.integers(2)](values, rng), 0.0, 1.0)
    values = np.clip((_sharpen, _blur, _downscale)[rng.integers(3)](values, rng), 0.0, 1.0)
    if rng.random() < 0.5:
        values, channels = _flip(values, channels, rng)
    if rng.random() < 0.5:
        values, channels = _shift_scale_rotate(values, channels, rng)
    if rng.random() < 0.2:
        values, channels = _grid_distortion(values, channels, rng)
    if rng.random() < 0.2:
        values, channels = _coarse_dropout(values, channels, rng)
    if rng.random() < 0.5:
        values, channels = _affine(values, channels, rng)
    return values, channels
