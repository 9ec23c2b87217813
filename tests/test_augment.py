"""Augmentation pipeline construction and operator behavior."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtricks.augment import (
    AugOp,
    AugPipeline,
    _bilinear,
    _box_blur3,
    _nearest,
    _node_sampler,
    _sampler,
    augment,
    build_pipeline,
    resize_bilinear,
)
from drtricks.data import Image, MaskSet, gen_seg_dataset


def identity_pixel_pipeline(geometric=()):
    """Pixel ops whose parameter draws collapse to the identity transform."""
    omega = (AugOp("brightness_contrast", {"brightness_limit": 0.0,
                                           "contrast_limit": 0.0}),)
    psi = (AugOp("gamma", {"gamma_limit": (100, 100)}),)
    return AugPipeline(omega, psi, tuple(geometric))


class TestBuildPipeline:
    def test_segmentation_geometric_size(self):
        ops = build_pipeline().geometric_set
        assert [op.kind for op in ops] == ["flip", "shift_scale_rotate", "grid_distortion",
                                           "coarse_dropout", "affine"]

    def test_pixel_families(self):
        p = build_pipeline()
        assert {op.kind for op in p.omega_set} == {"brightness_contrast", "gamma"}
        assert {op.kind for op in p.psi_set} == {"sharpen", "blur", "downscale"}

    def test_rotation_limits_per_task(self):
        ops = {op.kind: op for op in build_pipeline().geometric_set}
        assert ops["shift_scale_rotate"].params["rotate_limit"] == 90


class TestAugOpValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AugOp("solarize", {})

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            AugOp("flip", {"directions": ("horizontal",)}, probability=1.5)

    def test_pipeline_needs_both_pixel_families(self):
        with pytest.raises(ValueError):
            AugPipeline((), (AugOp("blur", {"blur_limit": 3}),), ())


class TestAugment:
    def test_identity_draws_leave_image_unchanged(self):
        img = Image(np.random.default_rng(0).uniform(0.1, 0.9, (16, 16)))
        out, _ = augment(img, identity_pixel_pipeline(), np.random.default_rng(1))
        np.testing.assert_allclose(out.values, img.values, atol=1e-12)

    def test_horizontal_flip_definition(self):
        values = np.zeros((8, 8))
        values[:2, :2] = [[0.1, 0.2], [0.3, 0.4]]
        masks = np.zeros((3, 8, 8), dtype=np.uint8)
        masks[0, 0, 0] = 1
        flip = AugOp("flip", {"directions": ("horizontal",)}, probability=1.0)
        out, out_masks = augment(Image(values), identity_pixel_pipeline([flip]),
                                 np.random.default_rng(0), masks=MaskSet(masks))
        np.testing.assert_allclose(out.values[0, -2:], [0.2, 0.1])
        np.testing.assert_allclose(out.values[1, -2:], [0.4, 0.3])
        assert out_masks.channels[0, 0, -1] == 1

    def test_gamma_example(self):
        # exponent pinned at 1.2: 0.25**1.2
        omega = (AugOp("brightness_contrast", {"brightness_limit": 0.0,
                                               "contrast_limit": 0.0}),)
        psi = (AugOp("gamma", {"gamma_limit": (120, 120)}),)
        img = Image(np.full((8, 8), 0.25))
        out, _ = augment(img, AugPipeline(omega, psi, ()), np.random.default_rng(0))
        assert out.values[0, 0] == pytest.approx(0.25 ** 1.2, rel=1e-12)
        assert out.values[0, 0] == pytest.approx(0.18946457, rel=1e-6)

    def test_fixed_seed_reproducible(self):
        pipe = build_pipeline()
        d = __import__("drtricks.data", fromlist=["gen_seg_dataset"])
        sample = d.gen_seg_dataset(1, 32, seed=0).samples[0]
        a = augment(sample.image, pipe, np.random.default_rng(42), masks=sample.masks)
        b = augment(sample.image, pipe, np.random.default_rng(42), masks=sample.masks)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[1].channels, b[1].channels)

    @pytest.mark.parametrize("seed", range(8))
    def test_masks_stay_binary_and_images_in_range(self, seed):
        from drtricks.data import gen_seg_dataset
        pipe = build_pipeline()
        sample = gen_seg_dataset(1, 32, seed=seed).samples[0]
        out, masks = augment(sample.image, pipe, np.random.default_rng(seed),
                             masks=sample.masks)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0
        assert np.isin(masks.channels, (0, 1)).all()

    def test_geometric_alignment_of_delta(self):
        # a delta image and a delta mask at the same pixel stay co-located
        values = np.zeros((16, 16))
        values[5, 9] = 1.0
        masks = np.zeros((3, 16, 16), dtype=np.uint8)
        masks[1, 5, 9] = 1
        ssr = AugOp("shift_scale_rotate",
                    {"shift_limit": 0.1, "scale_limit": 0.05, "rotate_limit": 30},
                    probability=1.0)
        for seed in range(10):
            out, out_masks = augment(Image(values), identity_pixel_pipeline([ssr]),
                                     np.random.default_rng(seed), masks=MaskSet(masks))
            if out_masks.channels[1].sum() == 0:
                continue  # delta warped out of frame
            img_peak = np.unravel_index(np.argmax(out.values), out.values.shape)
            mask_pos = np.argwhere(out_masks.channels[1])
            assert (np.abs(mask_pos - np.asarray(img_peak)).sum(axis=1) <= 1).any()

    def test_coarse_dropout_bounds(self):
        op = AugOp("coarse_dropout", {"max_height": 4, "min_height": 2,
                                      "max_width": 4, "min_width": 2,
                                      "max_holes": 3}, probability=1.0)
        img = Image(np.ones((16, 16)))
        out, _ = augment(img, identity_pixel_pipeline([op]), np.random.default_rng(0))
        zeroed = int((out.values == 0.0).sum())
        assert 0 < zeroed <= 3 * 16  # at most max_holes rectangles of 4x4

    def test_coarse_dropout_leaves_masks_untouched(self):
        op = AugOp("coarse_dropout", {"max_height": 8, "min_height": 4,
                                      "max_width": 8, "min_width": 4,
                                      "max_holes": 2}, probability=1.0)
        masks = np.ones((3, 16, 16), dtype=np.uint8)
        _, out_masks = augment(Image(np.ones((16, 16))), identity_pixel_pipeline([op]),
                               np.random.default_rng(0), masks=MaskSet(masks))
        np.testing.assert_array_equal(out_masks.channels, masks)

    def test_zero_probability_geometric_never_fires(self):
        flip = AugOp("flip", {"directions": ("horizontal",)}, probability=0.0)
        img = Image(np.random.default_rng(3).uniform(0, 1, (12, 12)))
        out, _ = augment(img, identity_pixel_pipeline([flip]), np.random.default_rng(5))
        np.testing.assert_allclose(out.values, img.values, atol=1e-12)


class TestResize:
    def test_identity_resize(self):
        v = np.random.default_rng(0).uniform(0, 1, (9, 9))
        np.testing.assert_allclose(resize_bilinear(v, 9, 9), v, atol=1e-12)

    def test_constant_preserved(self):
        v = np.full((10, 10), 0.37)
        np.testing.assert_allclose(resize_bilinear(v, 17, 23), 0.37, atol=1e-12)


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

    @pytest.mark.parametrize("size", [64, 33])
    @pytest.mark.parametrize("always", [False, True])
    def test_augment_equals_scipy_reference(self, size, always):
        pipe = build_pipeline()
        if always:  # every geometric op on every draw
            pipe = AugPipeline(pipe.omega_set, pipe.psi_set,
                               tuple(AugOp(op.kind, op.params) for op in pipe.geometric_set))
        samples = gen_seg_dataset(6, size, seed=size).samples
        rng, ref_rng = np.random.default_rng(size), np.random.default_rng(size)
        for i in range(750):
            s = samples[i % len(samples)]
            img, masks = augment(s.image, pipe, rng, masks=s.masks)
            ref_img, ref_masks = scipy_augment(s.image.values, pipe, ref_rng,
                                               s.masks.channels)
            assert img.values.tobytes() == ref_img.tobytes()
            assert masks.channels.tobytes() == ref_masks.tobytes()
        assert rng.random() == ref_rng.random()  # same number of draws


def scipy_augment(img, pipeline, rng, masks):
    """Reference augmentation with scipy.ndimage resampling.

    The same operators, parameters and random draws as ``augment``, with
    ``map_coordinates`` (reflect mode; order 1 for the image, order 0 for each
    mask channel) and ``uniform_filter`` doing the resampling.
    """
    from scipy import ndimage

    def warp(values, src_y, src_x, order):
        return ndimage.map_coordinates(values, [src_y, src_x], order=order, mode="reflect")

    def resize(values, out_h, out_w):
        h, w = values.shape
        yy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
        xx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
        return warp(values, *np.meshgrid(yy, xx, indexing="ij"), order=1)

    def blur(values):
        return ndimage.uniform_filter(values, size=3, mode="reflect")

    def pixel(op, img):
        p = op.params
        if op.kind == "brightness_contrast":
            b = rng.uniform(-p["brightness_limit"], p["brightness_limit"])
            c = rng.uniform(-p["contrast_limit"], p["contrast_limit"])
            out = img * (1.0 + c) + b
        elif op.kind == "gamma":
            out = np.power(img, rng.uniform(*p["gamma_limit"]) / 100.0)
        elif op.kind == "sharpen":
            a = rng.uniform(*p["alpha"])
            rng.uniform(*p["lightness"])
            out = img * (1.0 - a) + a * (2.0 * img - blur(img))
        elif op.kind == "blur":
            out = blur(img)
        else:  # downscale
            s = rng.uniform(p["scale_min"], p["scale_max"])
            h, w = img.shape
            dh, dw = max(int(round(h * s)), 1), max(int(round(w * s)), 1)
            out = resize(resize(img, dh, dw), h, w)
        return np.clip(out, 0.0, 1.0)

    def warp_all(img, masks, src_y, src_x):
        img = np.clip(warp(img, src_y, src_x, order=1), 0.0, 1.0)
        masks = np.stack([warp(m.astype(float), src_y, src_x, order=0)
                          for m in masks]).astype(np.uint8)
        return img, masks

    img = pixel(pipeline.omega_set[rng.integers(len(pipeline.omega_set))], img)
    img = pixel(pipeline.psi_set[rng.integers(len(pipeline.psi_set))], img)
    h, w = img.shape
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    for op in pipeline.geometric_set:
        if not rng.random() < op.probability:
            continue
        p = op.params
        if op.kind == "flip":
            axis = 1 if p["directions"][rng.integers(len(p["directions"]))] == "horizontal" else 0
            img = np.ascontiguousarray(np.flip(img, axis=axis))
            masks = np.ascontiguousarray(np.flip(masks, axis=axis + 1))
        elif op.kind in ("shift_scale_rotate", "affine"):
            if op.kind == "shift_scale_rotate":
                angle = rng.uniform(-p["rotate_limit"], p["rotate_limit"])
                scale = 1.0 + rng.uniform(-p["scale_limit"], p["scale_limit"])
                ty = rng.uniform(-p["shift_limit"], p["shift_limit"]) * h
                tx = rng.uniform(-p["shift_limit"], p["shift_limit"]) * w
            else:
                angle, ty, tx = 0.0, 0.0, 0.0
                scale = rng.uniform(*p["scale"])
            cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
            yq, xq = yy - cy - ty, xx - cx - tx
            th = math.radians(angle)
            cos_t, sin_t = math.cos(th), math.sin(th)
            img, masks = warp_all(img, masks, (cos_t * yq + sin_t * xq) / scale + cy,
                                  (-sin_t * yq + cos_t * xq) / scale + cx)
        elif op.kind == "grid_distortion":
            k = p["num_steps"]
            cell = max(h, w) / (k - 1)
            dy_nodes = rng.uniform(-p["distort_limit"], p["distort_limit"], (k, k)) * cell
            dx_nodes = rng.uniform(-p["distort_limit"], p["distort_limit"], (k, k)) * cell
            nodes = [yy / (h - 1) * (k - 1), xx / (w - 1) * (k - 1)]
            dy = ndimage.map_coordinates(dy_nodes, nodes, order=1, mode="nearest")
            dx = ndimage.map_coordinates(dx_nodes, nodes, order=1, mode="nearest")
            img, masks = warp_all(img, masks, yy + dy, xx + dx)
        else:  # coarse_dropout
            img = img.copy()
            for _ in range(int(rng.integers(1, p["max_holes"] + 1))):
                hh = min(int(rng.integers(p["min_height"], p["max_height"] + 1)), h)
                ww = min(int(rng.integers(p["min_width"], p["max_width"] + 1)), w)
                y0, x0 = int(rng.integers(0, h - hh + 1)), int(rng.integers(0, w - ww + 1))
                img[y0 : y0 + hh, x0 : x0 + ww] = 0.0
    return img, masks
