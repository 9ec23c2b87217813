"""Augmentation pipeline construction and operator behavior."""
import numpy as np
import pytest

from drtricks.augment import (
    AugOp,
    AugPipeline,
    augment,
    build_pipeline,
    resize_bilinear,
)
from drtricks.data import Image, MaskSet


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
