"""Data types, splitting, synthetic generators, and file round-trips."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtricks.data import (
    DEFAULT_GRADE_PROPORTIONS,
    DataError,
    Dataset,
    FormatError,
    Image,
    MaskSet,
    Sample,
    SoftMaskSet,
    gen_ordinal_dataset,
    gen_seg_dataset,
    largest_remainder_counts,
    normalize_image,
    ordinal_class_centers,
    read_dataset_csv,
    read_mask_set,
    read_pgm,
    read_seg_dataset,
    relabeled,
    split_train_dev,
    validate_label,
    write_dataset_csv,
    write_mask_set,
    write_pgm,
    write_seg_dataset,
)


def make_tabular(labels, dim=4, id_offset=0, task="grading"):
    rng = np.random.default_rng(0)
    samples = tuple(
        Sample(id=id_offset + i, features=rng.normal(size=dim), label=lab)
        for i, lab in enumerate(labels)
    )
    return Dataset(samples, task)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_image_bounds_enforced(self):
        with pytest.raises(DataError):
            Image(np.full((8, 8), 1.5))
        with pytest.raises(DataError):
            Image(np.full((4, 8), 0.5))  # too small
        with pytest.raises(DataError):
            Image(np.full((8,), 0.5))  # not 2-D

    def test_image_values_frozen(self):
        img = Image(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            img.values[0, 0] = 1.0

    def test_mask_set_binary_only(self):
        MaskSet(np.zeros((3, 8, 8), dtype=np.uint8))
        with pytest.raises(DataError):
            MaskSet(np.full((3, 8, 8), 2))
        with pytest.raises(DataError):
            MaskSet(np.zeros((2, 8, 8)))

    @pytest.mark.parametrize("value, ok", [
        (2, False), (-1, False), (0.5, False), (np.nan, False), (True, True), (1.0, True),
    ])
    def test_mask_set_pixel_verdicts(self, value, ok):
        c = np.zeros((3, 8, 8), dtype=np.asarray(value).dtype)
        c[1, 2, 3] = value
        assert ok == bool(np.isin(c, (0, 1)).all())  # the check it replaced
        if ok:
            assert MaskSet(c).channels[1, 2, 3] == 1
        else:
            with pytest.raises(DataError):
                MaskSet(c)

    def test_rasters_stored_c_contiguous(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, (12, 10))
        masks = (rng.random((10, 12, 3)) < 0.3).astype(np.uint8)
        for v, m in ((values.T, masks.transpose(2, 1, 0)),
                     (np.asfortranarray(values.T), np.asfortranarray(masks.transpose(2, 1, 0)))):
            img, ms = Image(v), MaskSet(m)
            assert img.values.flags.c_contiguous and ms.channels.flags.c_contiguous
            np.testing.assert_array_equal(img.values, v)
            np.testing.assert_array_equal(ms.channels, m)

    def test_soft_mask_range(self):
        SoftMaskSet(np.full((3, 8, 8), 0.5))
        with pytest.raises(DataError):
            SoftMaskSet(np.full((3, 8, 8), 1.1))

    def test_label_domain(self):
        assert [validate_label(v) for v in (0, 1, 2)] == [0, 1, 2]
        for bad in (-1, 3, 1.5):
            with pytest.raises(DataError):
                validate_label(bad)

    def test_sample_needs_exactly_one_input(self):
        with pytest.raises(DataError):
            Sample(id=0)
        with pytest.raises(DataError):
            Sample(id=0, features=np.ones(3), image=Image(np.zeros((8, 8))))

    def test_dataset_rejects_duplicate_ids(self):
        s = Sample(id=1, features=np.ones(3), label=0)
        with pytest.raises(DataError):
            Dataset((s, s), "grading")

    def test_dataset_rejects_mixed_dims(self):
        a = Sample(id=0, features=np.ones(3), label=0)
        b = Sample(id=1, features=np.ones(4), label=0)
        with pytest.raises(DataError):
            Dataset((a, b), "grading")

    def test_feature_matrix_is_one_read_only_stack(self):
        d = make_tabular([0, 1, 2, 1], dim=3)
        m = d.feature_matrix
        assert m.tobytes() == np.stack([s.features for s in d.samples]).tobytes()
        assert m.shape == (4, 3) and not m.flags.writeable
        assert d.feature_matrix is m

    def test_ids_are_one_read_only_array(self):
        d = make_tabular([0, 1, 2], id_offset=70)
        assert d.ids.tolist() == [70, 71, 72] and not d.ids.flags.writeable
        assert d.ids is d.ids

    @pytest.mark.parametrize("sid", [2**63, 2**63 + 5, 2**64 + 4, -2**63 - 1])
    def test_ids_outside_int64_rejected(self, sid):
        with pytest.raises(DataError, match="outside the 64-bit integer range"):
            Sample(id=sid, features=np.zeros(2))

    def test_ids_are_int64_to_the_bounds(self):
        d = Dataset(tuple(Sample(id=i, features=np.zeros(2)) for i in (2**63 - 1, -2**63, 3)),
                    "grading")
        assert d.ids.dtype == np.int64 and d.ids.tolist() == [2**63 - 1, -2**63, 3]
        assert Dataset((), "grading").ids.dtype == np.int64

    def test_feature_matrix_of_images_rejected(self):
        with pytest.raises(DataError):
            gen_seg_dataset(1, 16, seed=0).feature_matrix

    def test_relabeled_copies_every_field_but_the_label(self):
        samples = list(make_tabular([0, None, 2], dim=3).samples)
        out = relabeled(samples, 1)
        assert [s.label for s in out] == [1, 1, 1]
        for before, after in zip(samples, out):
            assert after is not before and after.id == before.id
            assert after.features is before.features
            assert (after.image, after.masks) == (None, None)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_relabeled_rejects_a_bad_label(self, bad):
        with pytest.raises(DataError):
            relabeled(make_tabular([0]).samples, bad)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

class TestNormalizeImage:
    def test_boundaries(self):
        raw = np.zeros((8, 8), dtype=np.uint8)
        raw[0, 0] = 255
        raw[0, 1] = 128
        img = normalize_image(raw)
        assert img.values[0, 0] == 1.0
        assert img.values[1, 1] == 0.0
        assert img.values[0, 1] == pytest.approx(128 / 255)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            normalize_image(np.full((8, 8), 256))
        with pytest.raises(DataError):
            normalize_image(np.full((8, 8), -1))


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

class TestSplit:
    def test_100_samples_ratio_08(self):
        d = make_tabular([i % 2 for i in range(100)])
        train, dev = split_train_dev(d, 0.8, seed=0)
        assert (len(train), len(dev)) == (80, 20)

    def test_same_seed_identical(self):
        d = make_tabular([i % 3 for i in range(90)])
        a = split_train_dev(d, 0.8, seed=7)
        b = split_train_dev(d, 0.8, seed=7)
        assert [s.id for s in a[0].samples] == [s.id for s in b[0].samples]
        assert [s.id for s in a[1].samples] == [s.id for s in b[1].samples]

    def test_stratified_counts_50_30_20(self):
        labels = [0] * 50 + [1] * 30 + [2] * 20
        train, _dev = split_train_dev(make_tabular(labels), 0.8, seed=3)
        per_class = [sum(1 for s in train.samples if s.label == k) for k in range(3)]
        assert per_class == [40, 24, 16]

    def test_exact_partition(self):
        d = make_tabular([i % 3 for i in range(61)])
        train, dev = split_train_dev(d, 0.8, seed=11)
        ids = sorted([s.id for s in train.samples] + [s.id for s in dev.samples])
        assert ids == sorted(s.id for s in d.samples)

    def test_small_class_rejected(self):
        d = make_tabular([0] * 20 + [2])
        with pytest.raises(DataError):
            split_train_dev(d, 0.8, seed=0)

    def test_bad_ratio_rejected(self):
        d = make_tabular([0, 0, 1, 1])
        for ratio in (0.0, 1.0, -0.2):
            with pytest.raises(DataError):
                split_train_dev(d, ratio, seed=0)


# ---------------------------------------------------------------------------
# apportionment and ordinal generator
# ---------------------------------------------------------------------------

class TestOrdinalGenerator:
    def test_reference_cohort_counts(self):
        assert largest_remainder_counts(611, DEFAULT_GRADE_PROPORTIONS) == [329, 212, 70]
        d = gen_ordinal_dataset(611, seed=4)
        counts = [d.labels().count(k) for k in range(3)]
        assert counts == [329, 212, 70]

    @given(st.integers(min_value=30, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_apportionment_sums_to_n(self, n):
        assert sum(largest_remainder_counts(n, DEFAULT_GRADE_PROPORTIONS)) == n

    def test_noise_zero_sits_on_centers(self):
        d = gen_ordinal_dataset(30, noise=0.0, dim=5, seed=1)
        centers = ordinal_class_centers(5)
        for s in d.samples:
            np.testing.assert_allclose(s.features, centers[s.label], atol=1e-12)

    def test_centers_are_ordinal(self):
        c = ordinal_class_centers(8)
        assert np.linalg.norm(c[0] - c[1]) < np.linalg.norm(c[0] - c[2])

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            gen_ordinal_dataset(40, noise=-0.1)

    def test_unlabeled_pool_has_no_labels(self):
        d = gen_ordinal_dataset(40, labeled=False, seed=2)
        assert all(lab is None for lab in d.labels())

    def test_determinism(self):
        a = gen_ordinal_dataset(60, seed=9)
        b = gen_ordinal_dataset(60, seed=9)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.features, sb.features)
            assert sa.label == sb.label


# ---------------------------------------------------------------------------
# segmentation generator
# ---------------------------------------------------------------------------

class TestSegGenerator:
    def test_determinism(self):
        a = gen_seg_dataset(5, 32, seed=3)
        b = gen_seg_dataset(5, 32, seed=3)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.image.values, sb.image.values)
            np.testing.assert_array_equal(sa.masks.channels, sb.masks.channels)

    def test_np_components_larger_than_nv(self):
        from scipy import ndimage
        d = gen_seg_dataset(30, 48, seed=5)
        for s in d.samples:
            np_lbl, np_n = ndimage.label(s.masks.channels[1])
            nv_lbl, nv_n = ndimage.label(s.masks.channels[2])
            if np_n == 0 or nv_n == 0:
                continue
            np_areas = ndimage.sum_labels(np.ones_like(np_lbl), np_lbl,
                                          index=range(1, np_n + 1))
            nv_areas = ndimage.sum_labels(np.ones_like(nv_lbl), nv_lbl,
                                          index=range(1, nv_n + 1))
            assert np_areas.min() > nv_areas.max()

    def test_mean_np_fraction_in_band(self):
        d = gen_seg_dataset(100, 64, seed=6)
        fracs = [s.masks.channels[1].mean() for s in d.samples]
        assert 0.02 < np.mean(fracs) < 0.30

    def test_artifact_images_have_empty_masks(self):
        d = gen_seg_dataset(50, 32, seed=7, artifact_fraction=1.0)
        assert all(s.masks.channels.sum() == 0 for s in d.samples)

    def test_values_stay_in_unit_range(self):
        d = gen_seg_dataset(20, 32, seed=8)
        for s in d.samples:
            assert 0.0 <= s.image.values.min() and s.image.values.max() <= 1.0

    def test_minimum_size_enforced(self):
        with pytest.raises(DataError):
            gen_seg_dataset(5, 16)

    @pytest.mark.parametrize("n", [0, -5])
    def test_empty_dataset_rejected(self, n):
        with pytest.raises(DataError, match="need n >= 1"):
            gen_seg_dataset(n, 32)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

class TestIO:
    def test_pgm_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).integers(0, 256, (12, 9), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", arr)
        np.testing.assert_array_equal(read_pgm(tmp_path / "a.pgm"), arr)

    def test_mask_roundtrip_and_suffixes(self, tmp_path):
        rng = np.random.default_rng(1)
        masks = MaskSet(rng.integers(0, 2, (3, 10, 10), dtype=np.uint8))
        paths = write_mask_set(tmp_path / "m", masks)
        assert [p.name for p in paths] == ["m_irma.pgm", "m_np.pgm", "m_nv.pgm"]
        back = read_mask_set(tmp_path / "m")
        np.testing.assert_array_equal(back.channels, masks.channels)

    def test_mask_read_threshold_128(self, tmp_path):
        raw = np.zeros((8, 8), dtype=np.uint8)
        raw[0, 0] = 255
        raw[0, 1] = 127
        raw[0, 2] = 128
        for ch in ("irma", "np", "nv"):
            write_pgm(tmp_path / f"m_{ch}.pgm", raw)
        masks = read_mask_set(tmp_path / "m")
        assert masks.channels[0, 0, 0] == 1
        assert masks.channels[0, 0, 1] == 0
        assert masks.channels[0, 0, 2] == 1

    def test_pgm_rejects_bad_maxval(self, tmp_path):
        (tmp_path / "b.pgm").write_bytes(b"P5\n4 4\n65535\n" + bytes(16))
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "b.pgm")

    def test_pgm_rejects_truncated_payload(self, tmp_path):
        (tmp_path / "t.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "t.pgm")

    @pytest.mark.parametrize("dims, payload", [(b"-5 -5", 25), (b"-1 -16", 16), (b"0 4", 0)])
    def test_pgm_rejects_dimensions_that_are_not_positive(self, tmp_path, dims, payload):
        (tmp_path / "n.pgm").write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(payload))
        with pytest.raises(FormatError, match="not positive"):
            read_pgm(tmp_path / "n.pgm")

    def test_pgm_rejects_wrong_magic(self, tmp_path):
        (tmp_path / "w.pgm").write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "w.pgm")

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        d = gen_ordinal_dataset(40, seed=2)
        write_dataset_csv(tmp_path / "d.csv", d)
        back = read_dataset_csv(tmp_path / "d.csv", "grading")
        for sa, sb in zip(d.samples, back.samples):
            assert sa.id == sb.id and sa.label == sb.label
            np.testing.assert_array_equal(sa.features, sb.features)

    def test_csv_roundtrip_unlabeled(self, tmp_path):
        d = gen_ordinal_dataset(40, seed=2, labeled=False)
        write_dataset_csv(tmp_path / "u.csv", d)
        back = read_dataset_csv(tmp_path / "u.csv", "grading")
        assert all(lab is None for lab in back.labels())

    def test_csv_rejects_malformed_header(self, tmp_path):
        (tmp_path / "bad.csv").write_text("sample,feat_0,label\n1,0.5,0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(tmp_path / "bad.csv", "grading")

    @pytest.mark.parametrize("body", ["\n1,0.5,0\n", "id,feat_0,label\nx,0.5,0\n",
                                      "id,feat_0,label\n1,nan?,0\n",
                                      "id,feat_0,label\n1,0.5,two\n"])
    def test_csv_rejects_malformed_values(self, tmp_path, body):
        (tmp_path / "bad.csv").write_text(body)
        with pytest.raises(FormatError):
            read_dataset_csv(tmp_path / "bad.csv", "grading")

    @pytest.mark.parametrize("row", ["1,sample_00001.pgm", "1", "x,sample_00001.pgm,0",
                                     "1,sample_00001.pgm,maybe"])
    def test_seg_dataset_rejects_malformed_index_row(self, tmp_path, row):
        (tmp_path / "seg").mkdir()
        (tmp_path / "seg" / "index.csv").write_text(f"id,image,has_masks\n{row}\n")
        with pytest.raises(FormatError):
            read_seg_dataset(tmp_path / "seg")

    def test_seg_dataset_roundtrip(self, tmp_path):
        d = gen_seg_dataset(4, 32, seed=4)
        write_seg_dataset(tmp_path / "seg", d)
        back = read_seg_dataset(tmp_path / "seg")
        for sa, sb in zip(d.samples, back.samples):
            assert sa.id == sb.id
            # images pass through 8-bit quantization
            assert np.abs(sa.image.values - sb.image.values).max() <= 0.5 / 255
            np.testing.assert_array_equal(sa.masks.channels, sb.masks.channels)

    def test_readers_reject_an_id_outside_int64(self, tmp_path):
        (tmp_path / "d.csv").write_text("id,feat_0,label\n18446744073709551620,0.5,1\n")
        with pytest.raises(DataError, match="outside the 64-bit integer range"):
            read_dataset_csv(tmp_path / "d.csv", "grading")
        write_seg_dataset(tmp_path / "seg", gen_seg_dataset(1, 32, seed=0))
        index = tmp_path / "seg" / "index.csv"
        index.write_text(index.read_text().replace("\n0,", "\n9223372036854775808,"))
        with pytest.raises(DataError, match="outside the 64-bit integer range"):
            read_seg_dataset(tmp_path / "seg")

    def test_seg_dataset_missing_index(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            read_seg_dataset(tmp_path / "empty")

