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
    one-pixel edge padding of ``_pad_edge``. The result is a new array.
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


def _axis_plan(c: np.ndarray, n: int) -> tuple:
    """Per source coordinate on an axis of n pixels: the floor of its folded
    value, the weight ``1 - frac`` of that pixel, and the nearest pixel
    ``floor(folded + 0.5)``; the pixels as whole numbers in float64."""
    f = _fold_reflect(c, n)
    lower = np.floor(f)
    weight = 1.0 - (f - lower)
    f += 0.5
    np.floor(f, out=f)
    return lower, weight, f


def _flat_index(y: np.ndarray, x: np.ndarray, stride: int) -> np.ndarray:
    """Flat indices ``(y + 1) * stride + x + 1`` into the edge-padded raster,
    from planes of whole numbers in float64; overwrites ``y``.
    Every step is exact, so the order of the additions does not matter."""
    y *= stride
    y += stride + 1
    y += x
    return y.astype(np.intp)


def _sampler(src_y: np.ndarray, src_x: np.ndarray, shape) -> tuple:
    """Gather plan for sampling an (h, w) raster at the planes (src_y, src_x).

    Returns the flat index of the top-left bilinear neighbour in the
    edge-padded raster, the weights ``wy0, wy1, wx0, wx1`` (``w0 = 1 - frac``
    and ``w1 = 1 - w0``) and the flat index of the nearest pixel,
    ``floor(c + 0.5)``. One plan serves the image and every mask channel.
    """
    h, w = shape
    stride = w + 2
    y0, wy0, ny = _axis_plan(src_y, h)
    x0, wx0, nx = _axis_plan(src_x, w)
    return (_flat_index(y0, x0, stride), (wy0, 1.0 - wy0, wx0, 1.0 - wx0),
            _flat_index(ny, nx, stride))


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


def _axes(h: int, w: int) -> np.ndarray:
    """The y and x coordinates of every pixel of an (h, w) raster, as two planes."""
    return np.indices((h, w), dtype=float)


@functools.lru_cache(maxsize=64)
def _resize_sampler(h: int, w: int, out_h: int, out_w: int) -> tuple:
    yy, xx = _axes(out_h, out_w)
    yy = (yy + 0.5) * (h / out_h) - 0.5
    xx = (xx + 0.5) * (w / out_w) - 0.5
    return _read_only(_sampler(yy, xx, (h, w)))


@functools.lru_cache(maxsize=8)
def _node_sampler(h: int, w: int, k: int) -> tuple:
    """Samples a (k, k) grid of distortion nodes at every pixel of an (h, w) image.

    The node coordinates span [0, k-1] exactly, where the ``nearest`` and
    ``reflect`` modes agree: both read the edge pixel past the last node.
    """
    yy, xx = _axes(h, w)
    return _read_only(_sampler(yy / (h - 1) * (k - 1), xx / (w - 1) * (k - 1), (k, k)))


def resize_bilinear(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize (reflect mode at the border), used by downscale."""
    h, w = values.shape
    return _bilinear(values, _resize_sampler(h, w, out_h, out_w))


def _affine_sources(shape, angle_deg: float, scale: float, ty: float, tx: float):
    """Source coordinates for an inverse-mapped rotation/scale/shift about center:
    ``(cos yq + sin xq) / scale + cy`` and ``(-sin yq + cos xq) / scale + cx``
    with ``yq = y - cy - ty`` and ``xq = x - cx - tx``.

    ``yq`` is never -0.0, so at a zero angle ``1.0 yq + 0.0 xq`` is ``yq``
    bit for bit, and likewise for x: a pure scale needs no path of its own.
    """
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = _axes(h, w)
    yq = yy - cy - ty
    xq = xx - cx - tx
    th = math.radians(angle_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    src_y = (cos_t * yq + sin_t * xq) / scale + cy
    src_x = (-sin_t * yq + cos_t * xq) / scale + cx
    return src_y, src_x


def _running_sum3(e: np.ndarray) -> np.ndarray:
    """Size-3 running sums down the rows of ``e``, (n + 2, m) -> (n, m).

    SciPy's running sum: the first window added left to right, then a
    cumulative sum of e[k+2] - e[k-1]. The cumulative sum runs over pairs of
    columns viewed as one complex number each, whose addition is the two
    float additions: the same bits in half the steps. An odd width gets a
    zero column to pair with.
    """
    n, m = e.shape[0] - 2, e.shape[1]
    s = np.empty((n, m + m % 2))
    s[:, m:] = 0.0
    s[0, :m] = ((0.0 + e[0]) + e[1]) + e[2]
    np.subtract(e[3:], e[:-3], out=s[1:, :m])
    pairs = s.view(np.complex128)
    np.add.accumulate(pairs, axis=0, out=pairs)
    return s[:, :m]


def _box_blur3(values: np.ndarray) -> np.ndarray:
    """3x3 box mean (``uniform_filter(size=3, mode="reflect")``): axis 0, then 1.

    Each axis extends the border by one reflected (repeated) pixel, takes the
    running sums and divides them by 3. The first division writes the means
    transposed, extended for the second axis; the second writes them back.
    """
    h, w = values.shape
    sums = _running_sum3(np.concatenate([values[:1], values, values[-1:]]))
    e = np.empty((w + 2, h))
    np.divide(sums.T, 3.0, out=e[1:-1])
    e[0], e[-1] = e[1], e[-2]
    out = np.empty((h, w))
    np.divide(_running_sum3(e).T, 3.0, out=out)
    return out


# ---------------------------------------------------------------------------
# the pipeline (see the table in the module docstring)
# ---------------------------------------------------------------------------

def _brightness_contrast(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    b = rng.uniform(-0.2, 0.2)
    c = rng.uniform(-0.2, 0.2)
    out = img * (1.0 + c)
    out += b
    return out


def _gamma(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.power(img, rng.uniform(80, 120) / 100.0)


def _sharpen(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(0.2, 0.5)
    rng.uniform(0.5, 1.0)  # the lightness: drawn, unused, keeps the stream
    detail = 2.0 * img
    detail -= _box_blur3(img)
    detail *= a  # a * detail, bit for bit
    out = img * (1.0 - a)
    out += detail
    return out


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
    out = _bilinear(img, s)
    return np.clip(out, 0.0, 1.0, out=out), _nearest(masks, s)


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
    src_y, src_x = _bilinear(dy_nodes, nodes), _bilinear(dx_nodes, nodes)
    yy, xx = _axes(h, w)
    src_y += yy  # y + dy, bit for bit
    src_x += xx
    return _warp(img, masks, src_y, src_x)


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
    # every pixel operator returns a new array, which is clipped in place
    values = (_brightness_contrast, _gamma)[rng.integers(2)](values, rng)
    np.clip(values, 0.0, 1.0, out=values)
    values = (_sharpen, _blur, _downscale)[rng.integers(3)](values, rng)
    np.clip(values, 0.0, 1.0, out=values)
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
