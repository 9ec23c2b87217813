"""The segmentation augmentation pipeline and its operators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtricks.augment import (
    _affine,
    _bilinear,
    _blur,
    _box_blur3,
    _brightness_contrast,
    _coarse_dropout,
    _downscale,
    _flip,
    _gamma,
    _grid_distortion,
    _nearest,
    _node_sampler,
    _sampler,
    _sharpen,
    _shift_scale_rotate,
    augment,
    resize_bilinear,
)
from drtricks.data import gen_seg_dataset


class PinnedRng:
    """Stands in for a Generator in one operator: ``uniform`` returns the point
    ``t`` of the way from low to high, ``integers`` its lowest value."""

    def __init__(self, t):
        self.t = t

    def uniform(self, low, high, size=None):
        return low + self.t * (high - low)

    def integers(self, low, high=None):
        return 0 if high is None else low


class GatedRng:
    """A Generator whose ``random()``, the draw of every geometric gate, returns
    ``gate``: 0.0 opens every gate, 0.99 closes them all. Every other draw
    comes from ``default_rng(seed)``."""

    def __init__(self, seed, gate):
        self.generator = np.random.default_rng(seed)
        self.gate = gate

    def random(self):
        return self.gate

    def __getattr__(self, name):
        return getattr(self.generator, name)


def raster_samples(n, shape, seed):
    """(image, masks) pairs: whole synthetic images for a square ``shape`` given
    as one int, else centred (h, w) crops of 64x64 ones."""
    if isinstance(shape, int):
        return [(s.image, s.masks)
                for s in gen_seg_dataset(n, shape, seed=seed).samples]
    h, w = shape
    y0, x0 = (64 - h) // 2, (64 - w) // 2
    return [(np.ascontiguousarray(s.image[y0 : y0 + h, x0 : x0 + w]),
             np.ascontiguousarray(s.masks[:, y0 : y0 + h, x0 : x0 + w]))
            for s in gen_seg_dataset(n, 64, seed=seed).samples]


# Off-square rasters catch a resampling plan that swaps rows and columns,
# which every square case lets through.
OFF_SQUARE = [(33, 47), (47, 33), (8, 64)]


def shape_id(shape):
    return str(shape) if isinstance(shape, int) else "x".join(map(str, shape))


def delta_masks(h, w, channel, y, x):
    masks = np.zeros((3, h, w), dtype=np.uint8)
    masks[channel, y, x] = 1
    return masks


class TestAugment:
    def test_identity_draws_leave_image_unchanged(self):
        # brightness 0, contrast 0 and gamma exponent 1.0: the middle of each range
        v = np.random.default_rng(0).uniform(0.1, 0.9, (16, 16))
        out = _gamma(_brightness_contrast(v, PinnedRng(0.5)), PinnedRng(0.5))
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_horizontal_flip_definition(self):
        values = np.zeros((8, 8))
        values[:2, :2] = [[0.1, 0.2], [0.3, 0.4]]
        out, out_masks = _flip(values, delta_masks(8, 8, 0, 0, 0), PinnedRng(0.0))
        np.testing.assert_allclose(out[0, -2:], [0.2, 0.1])
        np.testing.assert_allclose(out[1, -2:], [0.4, 0.3])
        assert out_masks[0, 0, -1] == 1

    def test_gamma_example(self):
        # exponent at the top of its range, 1.2: 0.25**1.2
        out = _gamma(np.full((8, 8), 0.25), PinnedRng(1.0))
        assert out[0, 0] == pytest.approx(0.25 ** 1.2, rel=1e-12)
        assert out[0, 0] == pytest.approx(0.18946457, rel=1e-6)

    def test_fixed_seed_reproducible(self):
        sample = gen_seg_dataset(1, 32, seed=0).samples[0]
        a = augment(sample.image, sample.masks, np.random.default_rng(42))
        b = augment(sample.image, sample.masks, np.random.default_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("seed", range(8))
    def test_masks_stay_binary_and_images_in_range(self, seed):
        sample = gen_seg_dataset(1, 32, seed=seed).samples[0]
        out, masks = augment(sample.image, sample.masks,
                             np.random.default_rng(seed))
        assert out.dtype == np.float64 and masks.dtype == np.uint8
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.isin(masks, (0, 1)).all()

    def test_geometric_alignment_of_delta(self):
        # a delta image and a delta mask at the same pixel stay co-located
        values = np.zeros((16, 16))
        values[5, 9] = 1.0
        masks = delta_masks(16, 16, 1, 5, 9)
        checked = 0
        for seed in range(10):
            out, out_masks = _shift_scale_rotate(values, masks, np.random.default_rng(seed))
            if out_masks[1].sum() == 0:
                continue  # delta warped out of frame
            img_peak = np.unravel_index(np.argmax(out), out.shape)
            mask_pos = np.argwhere(out_masks[1])
            assert (np.abs(mask_pos - np.asarray(img_peak)).sum(axis=1) <= 1).any()
            checked += 1
        assert checked > 0

    def test_coarse_dropout_bounds(self):
        masks = np.zeros((3, 200, 200), dtype=np.uint8)
        for seed in range(4):
            out, _ = _coarse_dropout(np.ones((200, 200)), masks, np.random.default_rng(seed))
            zeroed = int((out == 0.0).sum())
            assert 32 * 32 <= zeroed <= 3 * 128 * 128  # 1-3 holes of 32-128 px a side
            # a hole larger than the image is clipped to it
            small, _ = _coarse_dropout(np.ones((16, 16)), masks[:, :16, :16],
                                       np.random.default_rng(seed))
            assert (small == 0.0).all()

    def test_coarse_dropout_leaves_masks_untouched(self):
        masks = np.ones((3, 16, 16), dtype=np.uint8)
        _, out_masks = _coarse_dropout(np.ones((16, 16)), masks, np.random.default_rng(0))
        np.testing.assert_array_equal(out_masks, np.ones((3, 16, 16)))

    def test_zero_probability_geometric_never_fires(self):
        # every gate closed: a draw is its two pixel operators alone
        v = np.random.default_rng(3).uniform(0, 1, (12, 12))
        masks = delta_masks(12, 12, 2, 3, 4)
        out, out_masks = augment(v, masks, GatedRng(5, 0.99))
        rng = np.random.default_rng(5)
        pixel = np.clip((_brightness_contrast, _gamma)[rng.integers(2)](v, rng), 0.0, 1.0)
        pixel = np.clip((_sharpen, _blur, _downscale)[rng.integers(3)](pixel, rng), 0.0, 1.0)
        assert out.tobytes() == pixel.tobytes()
        assert out_masks is masks


class TestResize:
    def test_identity_resize(self):
        v = np.random.default_rng(0).uniform(0, 1, (9, 9))
        np.testing.assert_allclose(resize_bilinear(v, 9, 9), v, atol=1e-12)

    def test_constant_preserved(self):
        v = np.full((10, 10), 0.37)
        np.testing.assert_allclose(resize_bilinear(v, 17, 23), 0.37, atol=1e-12)


# ---------------------------------------------------------------------------
# reference pipeline with scipy.ndimage resampling: the same operators,
# parameters and random draws as ``augment``, with ``map_coordinates``
# (reflect mode; order 1 for the image, order 0 for each mask channel) and
# ``uniform_filter`` doing the resampling
# ---------------------------------------------------------------------------

def _map(values, src_y, src_x, order, mode="reflect"):
    from scipy import ndimage

    return ndimage.map_coordinates(values, [src_y, src_x], order=order, mode=mode)


def _blur3(values):
    from scipy import ndimage

    return ndimage.uniform_filter(values, size=3, mode="reflect")


def _resize(values, out_h, out_w):
    h, w = values.shape
    yy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    return _map(values, *np.meshgrid(yy, xx, indexing="ij"), order=1)


def _pixel_grid(h, w):
    return np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")


def _warp_all(img, masks, src_y, src_x):
    img = np.clip(_map(img, src_y, src_x, order=1), 0.0, 1.0)
    masks = np.stack([_map(m.astype(float), src_y, src_x, order=0)
                      for m in masks]).astype(np.uint8)
    return img, masks


def _rotate_scale_shift(img, masks, angle, scale, ty, tx):
    h, w = img.shape
    yy, xx = _pixel_grid(h, w)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yq, xq = yy - cy - ty, xx - cx - tx
    th = math.radians(angle)
    cos_t, sin_t = math.cos(th), math.sin(th)
    return _warp_all(img, masks, (cos_t * yq + sin_t * xq) / scale + cy,
                     (-sin_t * yq + cos_t * xq) / scale + cx)


def scipy_flip(img, masks, rng):
    axis = 1 if rng.integers(2) == 0 else 0  # horizontal, vertical
    return (np.ascontiguousarray(np.flip(img, axis=axis)),
            np.ascontiguousarray(np.flip(masks, axis=axis + 1)))


def scipy_shift_scale_rotate(img, masks, rng):
    angle = rng.uniform(-90, 90)
    scale = 1.0 + rng.uniform(-0.1, 0.1)
    ty = rng.uniform(-0.2, 0.2) * img.shape[0]
    tx = rng.uniform(-0.2, 0.2) * img.shape[1]
    return _rotate_scale_shift(img, masks, angle, scale, ty, tx)


def scipy_grid_distortion(img, masks, rng):
    h, w = img.shape
    cell = max(h, w) / 4
    dy_nodes = rng.uniform(-0.3, 0.3, (5, 5)) * cell
    dx_nodes = rng.uniform(-0.3, 0.3, (5, 5)) * cell
    yy, xx = _pixel_grid(h, w)
    nodes = (yy / (h - 1) * 4, xx / (w - 1) * 4)
    dy = _map(dy_nodes, *nodes, order=1, mode="nearest")
    dx = _map(dx_nodes, *nodes, order=1, mode="nearest")
    return _warp_all(img, masks, yy + dy, xx + dx)


def scipy_coarse_dropout(img, masks, rng):
    img = img.copy()
    h, w = img.shape
    for _ in range(int(rng.integers(1, 4))):
        hh = min(int(rng.integers(32, 129)), h)
        ww = min(int(rng.integers(32, 129)), w)
        y0, x0 = int(rng.integers(0, h - hh + 1)), int(rng.integers(0, w - ww + 1))
        img[y0 : y0 + hh, x0 : x0 + ww] = 0.0
    return img, masks


def scipy_affine(img, masks, rng):
    return _rotate_scale_shift(img, masks, 0.0, rng.uniform(0.8, 1.2), 0.0, 0.0)


def scipy_augment(img, masks, rng):
    """Reference ``augment``, written out."""
    if rng.integers(2) == 0:  # brightness_contrast
        b = rng.uniform(-0.2, 0.2)
        c = rng.uniform(-0.2, 0.2)
        img = img * (1.0 + c) + b
    else:  # gamma
        img = np.power(img, rng.uniform(80, 120) / 100.0)
    img = np.clip(img, 0.0, 1.0)
    psi = rng.integers(3)
    if psi == 0:  # sharpen
        a = rng.uniform(0.2, 0.5)
        rng.uniform(0.5, 1.0)
        img = img * (1.0 - a) + a * (2.0 * img - _blur3(img))
    elif psi == 1:  # blur
        img = _blur3(img)
    else:  # downscale
        s = rng.uniform(0.7, 0.9)
        h, w = img.shape
        dh, dw = max(int(round(h * s)), 1), max(int(round(w * s)), 1)
        img = _resize(_resize(img, dh, dw), h, w)
    img = np.clip(img, 0.0, 1.0)
    for probability, op in ((0.5, scipy_flip), (0.5, scipy_shift_scale_rotate),
                            (0.2, scipy_grid_distortion), (0.2, scipy_coarse_dropout),
                            (0.5, scipy_affine)):
        if rng.random() < probability:
            img, masks = op(img, masks, rng)
    return img, masks


# ---------------------------------------------------------------------------
# bit equality with scipy.ndimage (SciPy is a test-only dependency)
# ---------------------------------------------------------------------------

@st.composite
def raster_and_sources(draw):
    """A raster of 1-70 pixels a side and source coordinates in [-2n, 3n) per axis."""
    h, w = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, (h, w))
    src_y = rng.uniform(-2 * h, 3 * h, (9, 11))
    src_x = rng.uniform(-2 * w, 3 * w, (9, 11))
    # exact integers and half-integers, where the folds and floors switch
    src_y.flat[:20] = rng.integers(-2 * h, 3 * h, 20) / draw(st.sampled_from([1, 2]))
    src_x.flat[20:40] = rng.integers(-2 * w, 3 * w, 20) / draw(st.sampled_from([1, 2]))
    return values, src_y, src_x


class TestScipyEquality:
    """The NumPy resampling gives SciPy's bits.

    Source coordinates are drawn from [-2n, 3n). SciPy's own fold is 1 ulp
    off at exact multiples of 2n at or below -4n (for example -4n), a case the
    pipeline never reaches: its sources lie within about [-0.6n, 1.6n].
    """

    @settings(max_examples=150, deadline=None)
    @given(raster_and_sources())
    def test_map_coordinates_reflect_order_1(self, case):
        from scipy import ndimage

        values, src_y, src_x = case
        expected = ndimage.map_coordinates(values, [src_y, src_x], order=1, mode="reflect")
        got = _bilinear(values, _sampler(src_y, src_x, values.shape))
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(raster_and_sources())
    def test_map_coordinates_reflect_order_0(self, case):
        from scipy import ndimage

        values, src_y, src_x = case
        masks = np.stack([values < 0.3, values > 0.5, values > 0.9]).astype(np.uint8)
        expected = np.stack([
            ndimage.map_coordinates(m.astype(float), [src_y, src_x], order=0,
                                    mode="reflect").astype(np.uint8)
            for m in masks])
        got = _nearest(masks, _sampler(src_y, src_x, values.shape))
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(8, 70), st.integers(8, 70), st.integers(2, 9),
           st.integers(0, 2**32 - 1))
    def test_grid_nodes_nearest_mode(self, h, w, k, seed):
        from scipy import ndimage

        nodes = np.random.default_rng(seed).uniform(-5.0, 5.0, (k, k))
        yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                             indexing="ij")
        coords = [yy / (h - 1) * (k - 1), xx / (w - 1) * (k - 1)]
        expected = ndimage.map_coordinates(nodes, coords, order=1, mode="nearest")
        assert _bilinear(nodes, _node_sampler(h, w, k)).tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_uniform_filter_size_3(self, h, w, seed):
        from scipy import ndimage

        values = np.random.default_rng(seed).uniform(0.0, 1.0, (h, w))
        expected = ndimage.uniform_filter(values, size=3, mode="reflect")
        got = _box_blur3(values)
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("size", [64, 33, *OFF_SQUARE], ids=shape_id)
    @pytest.mark.parametrize("always", [False, True])
    def test_augment_equals_scipy_reference(self, size, always):
        seed = size if isinstance(size, int) else size[0] * 100 + size[1]
        samples = raster_samples(6, size, seed)
        if always:  # every geometric op on every draw
            rng, ref_rng = GatedRng(seed, 0.0), GatedRng(seed, 0.0)
        else:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(750):
            values, channels = samples[i % len(samples)]
            img, masks = augment(values, channels, rng)
            ref_img, ref_masks = scipy_augment(values, channels, ref_rng)
            assert img.tobytes() == ref_img.tobytes()
            assert masks.tobytes() == ref_masks.tobytes()
        assert rng.uniform() == ref_rng.uniform()  # same number of draws

    WARP_OPS = pytest.mark.parametrize("op, ref", [
        (_flip, scipy_flip), (_shift_scale_rotate, scipy_shift_scale_rotate),
        (_grid_distortion, scipy_grid_distortion), (_affine, scipy_affine),
    ], ids=["flip", "shift_scale_rotate", "grid_distortion", "affine"])

    @staticmethod
    def check_warp_op(op, ref, samples):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for i in range(60):
            values, channels = samples[i % len(samples)]
            img, masks = op(values, channels, rng)
            ref_img, ref_masks = ref(values, channels, ref_rng)
            assert img.tobytes() == ref_img.tobytes()
            assert masks.tobytes() == ref_masks.tobytes()
        assert rng.random() == ref_rng.random()

    @WARP_OPS
    def test_warp_op_equals_scipy_reference(self, op, ref):
        self.check_warp_op(op, ref, raster_samples(3, 33, seed=1))

    @WARP_OPS
    @pytest.mark.parametrize("shape", OFF_SQUARE, ids=shape_id)
    def test_warp_op_equals_scipy_reference_off_square(self, op, ref, shape):
        self.check_warp_op(op, ref, raster_samples(3, shape, seed=1))
