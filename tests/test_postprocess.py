"""Decision-rule post-processing: dilation, channel reconciliation, thresholds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtricks.data import IRMA, NP, NV
from drtricks.postprocess import (
    dilate,
    grade_postedit,
    postprocess_masks,
    quality_decision,
    reconcile_irma_nv,
)


def brute_force_dilate(mask: np.ndarray, k: int) -> np.ndarray:
    h, w = mask.shape
    r = k // 2
    out = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            window = mask[max(y - r, 0): y + r + 1, max(x - r, 0): x + r + 1]
            out[y, x] = window.max()
    return out


class TestDilate:
    def test_k1_identity(self):
        m = np.random.default_rng(0).integers(0, 2, (10, 10)).astype(np.uint8)
        np.testing.assert_array_equal(dilate(m, 1), m)

    def test_single_pixel_grows_to_block(self):
        m = np.zeros((11, 11), dtype=np.uint8)
        m[5, 5] = 1
        out = dilate(m, 5)
        assert out.sum() == 25
        assert out[3:8, 3:8].all()

    def test_extensivity(self):
        m = np.random.default_rng(1).integers(0, 2, (12, 12)).astype(np.uint8)
        out = dilate(m, 3)
        assert ((out - m) >= 0).all()

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            dilate(np.zeros((8, 8), dtype=np.uint8), 4)
        with pytest.raises(ValueError):
            dilate(np.zeros((8, 8), dtype=np.uint8), 0)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            dilate(np.full((8, 8), 2), 3)

    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([1, 3, 5, 7]),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_maximum_filter(self, h, w, k, density, seed):
        from scipy import ndimage

        m = (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)
        expected = ndimage.maximum_filter(m, size=k, mode="constant", cval=0)
        got = dilate(m, k)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_each_non_binary_value_rejected(self, bad):
        m = np.zeros((8, 8))
        m[3, 4] = bad
        with pytest.raises(ValueError):
            dilate(m, 3)

    def test_bool_and_float_masks_accepted(self):
        m = np.zeros((9, 9), dtype=bool)
        m[4, 4] = True
        np.testing.assert_array_equal(dilate(m, 3), dilate(m.astype(float), 3))
        assert dilate(m, 3).sum() == 9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_twice_k_equals_once_2k_minus_1(self, seed):
        m = np.random.default_rng(seed).integers(0, 2, (14, 14)).astype(np.uint8)
        np.testing.assert_array_equal(dilate(dilate(m, 3), 3), dilate(m, 5))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = (rng.uniform(size=(9, 13)) < 0.2).astype(np.uint8)
            for k in (1, 3, 5):
                np.testing.assert_array_equal(dilate(m, k), brute_force_dilate(m, k))


class TestReconcile:
    def base(self):
        soft = np.zeros((3, 4, 4))
        masks = np.zeros((3, 4, 4), dtype=np.uint8)
        return soft, masks

    def test_nv_more_confident_wins(self):
        soft, masks = self.base()
        masks[IRMA, 1, 1] = masks[NV, 1, 1] = 1
        soft[IRMA, 1, 1], soft[NV, 1, 1] = 0.6, 0.9
        out = reconcile_irma_nv(soft, masks)
        assert out[IRMA, 1, 1] == 0
        assert out[NV, 1, 1] == 1

    def test_irma_only_untouched(self):
        soft, masks = self.base()
        masks[IRMA, 2, 2] = 1
        soft[IRMA, 2, 2] = 0.2
        out = reconcile_irma_nv(soft, masks)
        assert out[IRMA, 2, 2] == 1

    def test_tie_keeps_irma(self):
        soft, masks = self.base()
        masks[IRMA, 0, 0] = masks[NV, 0, 0] = 1
        soft[IRMA, 0, 0] = soft[NV, 0, 0] = 0.7
        out = reconcile_irma_nv(soft, masks)
        assert out[IRMA, 0, 0] == 1
        assert out[NV, 0, 0] == 0

    def test_np_channel_passes_through(self):
        soft, masks = self.base()
        masks[NP] = 1
        masks[IRMA, 1, 1] = masks[NV, 1, 1] = 1
        out = reconcile_irma_nv(soft, masks)
        np.testing.assert_array_equal(out[NP], masks[NP])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_no_joint_positive_afterward(self, seed):
        rng = np.random.default_rng(seed)
        soft = rng.uniform(0, 1, (3, 6, 6))
        masks = rng.integers(0, 2, (3, 6, 6)).astype(np.uint8)
        out = reconcile_irma_nv(soft, masks)
        assert not (out[IRMA] & out[NV]).any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconcile_irma_nv(np.zeros((3, 4, 4)), np.zeros((3, 5, 5), dtype=np.uint8))


class TestQualityDecision:
    def test_boundaries(self):
        assert quality_decision(0.53) == 0
        assert quality_decision(0.54) == 1
        assert quality_decision(1.49) == 1
        assert quality_decision(1.5) == 2
        assert quality_decision(-3.0) == 0
        assert quality_decision(10.0) == 2

    def test_monotone(self):
        xs = np.linspace(-2, 4, 400)
        decisions = [quality_decision(x) for x in xs]
        assert decisions == sorted(decisions)


class TestGradePostedit:
    def masks(self, irma=0, np_count=0, nv=0):
        m = np.zeros((3, 8, 8), dtype=np.uint8)
        m[IRMA].flat[:irma] = 1
        m[NP].flat[:np_count] = 1
        m[NV].flat[:nv] = 1
        return m

    def test_nv_forces_pdr(self):
        assert grade_postedit(1, self.masks(nv=1)) == 2
        assert grade_postedit(0, self.masks(nv=3)) == 2

    def test_all_empty_forces_normal(self):
        assert grade_postedit(1, self.masks()) == 0
        assert grade_postedit(2, self.masks()) == 0

    def test_np_without_nv_unchanged(self):
        assert grade_postedit(1, self.masks(np_count=5)) == 1

    def test_pdr_with_nv_stays_pdr(self):
        assert grade_postedit(2, self.masks(nv=2)) == 2

    def test_invalid_grade_rejected(self):
        with pytest.raises(ValueError):
            grade_postedit(3, self.masks())


class TestPostprocessMasks:
    def test_binarize_dilate_reconcile_order(self):
        soft = np.zeros((3, 9, 9))
        soft[NP, 4, 4] = 0.9          # one confident NP pixel -> 5x5 after dilation
        soft[IRMA, 0, 0] = 0.8
        soft[NV, 0, 0] = 0.6          # conflict resolved toward IRMA
        out = postprocess_masks(soft)
        assert out[NP].sum() == 25
        assert out[IRMA, 0, 0] == 1
        assert out[NV, 0, 0] == 0

    def test_threshold_applied(self):
        soft = np.full((3, 8, 8), 0.49)
        assert postprocess_masks(soft).sum() == 0
        soft = np.full((3, 8, 8), 0.51)
        out = postprocess_masks(soft)
        assert out[NP].all()
