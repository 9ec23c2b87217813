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
    Sample,
    Table,
    gen_ordinal_dataset,
    gen_seg_dataset,
    largest_remainder_counts,
    ordinal_class_centers,
    read_dataset_csv,
    read_image,
    read_mask_set,
    read_pgm,
    read_seg_dataset,
    split_train_dev,
    validate_label,
    write_dataset_csv,
    write_mask_set,
    write_pgm,
    write_seg_dataset,
)


def make_tabular(labels, dim=4, id_offset=0, task="grading"):
    rng = np.random.default_rng(0)
    return Table(task, np.arange(len(labels)) + id_offset, rng.normal(size=(len(labels), dim)),
                 labels)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_image_bounds_enforced(self):
        with pytest.raises(DataError, match="finite and in"):
            Sample(id=0, image=np.full((8, 8), 1.5))
        with pytest.raises(DataError, match="finite and in"):
            Sample(id=0, image=np.full((8, 8), np.nan))
        with pytest.raises(DataError, match="at least 8x8"):
            Sample(id=0, image=np.full((4, 8), 0.5))
        with pytest.raises(DataError, match="must be 2-D"):
            Sample(id=0, image=np.full((8,), 0.5))

    def test_image_values_frozen(self):
        raw = np.zeros((8, 8), dtype=np.uint8)
        img = Sample(id=0, image=raw).image
        raw[0, 0] = 1
        assert img.dtype == np.float64 and img[0, 0] == 0.0
        with pytest.raises(ValueError):
            img[0, 0] = 1.0

    def test_mask_set_binary_only(self):
        image = np.zeros((8, 8))
        Sample(id=0, image=image, masks=np.zeros((3, 8, 8), dtype=np.uint8))
        with pytest.raises(DataError, match="mask pixels must be 0 or 1"):
            Sample(id=0, image=image, masks=np.full((3, 8, 8), 2))
        with pytest.raises(DataError, match=r"mask set must have shape \(3, H, W\)"):
            Sample(id=0, image=image, masks=np.zeros((2, 8, 8)))
        with pytest.raises(DataError, match=r"mask set must have shape \(3, H, W\)"):
            Sample(id=0, image=image, masks=np.zeros((4, 8, 8), dtype=np.uint8))
        with pytest.raises(DataError, match="mask shape does not match image shape"):
            Sample(id=0, image=image, masks=np.zeros((3, 8, 9), dtype=np.uint8))

    @pytest.mark.parametrize("value, ok", [
        (2, False), (-1, False), (0.5, False), (np.nan, False), (True, True), (1.0, True),
    ])
    def test_mask_set_pixel_verdicts(self, value, ok):
        c = np.zeros((3, 8, 8), dtype=np.asarray(value).dtype)
        c[1, 2, 3] = value
        assert ok == bool(np.isin(c, (0, 1)).all())  # the check it replaced
        if ok:
            masks = Sample(id=0, image=np.zeros((8, 8)), masks=c).masks
            assert masks.dtype == np.uint8 and masks[1, 2, 3] == 1
        else:
            with pytest.raises(DataError, match="mask pixels must be 0 or 1"):
                Sample(id=0, image=np.zeros((8, 8)), masks=c)

    def test_rasters_stored_c_contiguous(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, (12, 10))
        masks = (rng.random((12, 10, 3)) < 0.3).astype(np.uint8)
        for v, m in ((values.T, masks.transpose(2, 1, 0)),
                     (np.asfortranarray(values.T), np.asfortranarray(masks.transpose(2, 1, 0)))):
            s = Sample(id=0, image=v, masks=m)
            assert s.image.flags.c_contiguous and s.masks.flags.c_contiguous
            assert not s.masks.flags.writeable
            np.testing.assert_array_equal(s.image, v)
            np.testing.assert_array_equal(s.masks, m)

    def test_label_domain(self):
        assert [validate_label(v) for v in (0, 1, 2)] == [0, 1, 2]
        for bad in (-1, 3, 1.5):
            with pytest.raises(DataError):
                validate_label(bad)

    def test_dataset_rejects_duplicate_ids(self):
        with pytest.raises(DataError, match="unique"):
            Table("grading", [1, 1], np.ones((2, 3)), [0, 0])
        s = Sample(id=1, image=np.zeros((8, 8)))
        with pytest.raises(DataError, match="unique"):
            Dataset((s, s))

    def test_table_arrays_are_read_only_copies(self):
        feats, labels = np.ones((4, 3)), np.array([0, 1, 2, -1])
        d = Table("grading", [5, 6, 7, 8], feats, labels)
        feats[0, 0], labels[0] = 9.0, 2
        assert d.features[0, 0] == 1.0 and d.labels[0] == 0
        assert d.features.dtype == np.float64 and d.labels.dtype == np.int64
        assert not (d.ids.flags.writeable or d.features.flags.writeable
                    or d.labels.flags.writeable)
        assert len(d) == 4

    def test_ids_are_one_read_only_array(self):
        d = make_tabular([0, 1, 2], id_offset=70)
        assert d.ids.tolist() == [70, 71, 72] and not d.ids.flags.writeable
        assert d.ids is d.ids
        images = gen_seg_dataset(2, 32, seed=0, id_offset=70)
        assert images.ids.tolist() == [70, 71] and not images.ids.flags.writeable
        assert images.ids is images.ids

    @pytest.mark.parametrize("sid", [2**63, 2**63 + 5, 2**64 + 4, -2**63 - 1])
    def test_ids_outside_int64_rejected(self, sid):
        with pytest.raises(DataError, match=f"sample id {sid} is outside the 64-bit"):
            Table("grading", [0, sid], np.zeros((2, 2)), [-1, -1])
        with pytest.raises(DataError, match="outside the 64-bit integer range"):
            Sample(id=sid, image=np.zeros((8, 8)))

    def test_ids_are_int64_to_the_bounds(self):
        d = Table("grading", [2**63 - 1, -2**63, 3], np.zeros((3, 2)), [-1, -1, -1])
        assert d.ids.dtype == np.int64 and d.ids.tolist() == [2**63 - 1, -2**63, 3]
        assert Table("grading", [], np.zeros((0, 2)), []).ids.dtype == np.int64
        assert Dataset(()).ids.dtype == np.int64

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_table_rejects_a_non_finite_feature(self, value):
        feats = np.zeros((3, 2))
        feats[1, 1] = value
        with pytest.raises(DataError, match="finite"):
            Table("grading", [0, 1, 2], feats, [0, 1, 2])

    @pytest.mark.parametrize("label", [-2, 3, 2**40])
    def test_table_rejects_a_label_outside_its_range(self, label):
        with pytest.raises(DataError, match=f"got {label}"):
            Table("grading", [0, 1], np.zeros((2, 2)), [0, label])

    @pytest.mark.parametrize("ids, feats, labels", [
        ([0, 1], np.zeros((3, 2)), [0, 0]),  # one feature row too many
        ([0, 1], np.zeros((2, 2)), [0]),  # a label short
        ([0, 1], np.zeros(2), [0, 0]),  # features not a matrix
        ([0, 1], np.zeros((2, 0)), [0, 0]),  # no feature column
    ], ids=["extra_row", "short_labels", "flat_features", "no_feature_column"])
    def test_table_rejects_columns_that_disagree(self, ids, feats, labels):
        with pytest.raises(DataError, match="one feature row and one label per id"):
            Table("grading", ids, feats, labels)

    def test_table_is_ordinal_only(self):
        with pytest.raises(DataError, match="unknown ordinal task"):
            Table("segmentation", [0], np.zeros((1, 2)), [0])

    def test_take_with_and_without_new_labels(self):
        d = make_tabular([0, -1, 2, 1], dim=3, id_offset=10)
        part = d.take(np.array([3, 0]))
        assert part.task == "grading" and part.ids.tolist() == [13, 10]
        assert part.labels.tolist() == [1, 0]
        assert part.features.tobytes() == d.features[[3, 0]].tobytes()
        relabel = d.take([1, 2], np.array([2, 2]))
        assert relabel.ids.tolist() == [11, 12] and relabel.labels.tolist() == [2, 2]
        assert d.labels.tolist() == [0, -1, 2, 1]  # the source keeps its labels
        with pytest.raises(DataError, match="unique"):
            d.take([1, 1])
        with pytest.raises(DataError, match="got 3"):
            d.take([0], [3])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

class TestNormalizeImage:
    def test_boundaries(self, tmp_path):
        raw = np.arange(256, dtype=np.uint8).reshape(16, 16)
        write_pgm(tmp_path / "a.pgm", raw)
        img = read_image(tmp_path / "a.pgm")
        assert img.dtype == np.float64
        assert img[0, 0] == 0.0
        assert img[15, 15] == 1.0
        assert img[8, 0] == pytest.approx(128 / 255)
        assert img.tobytes() == (raw.astype(np.float64) / 255.0).tobytes()


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
        assert a[0].ids.tolist() == b[0].ids.tolist()
        assert a[1].ids.tolist() == b[1].ids.tolist()

    def test_stratified_counts_50_30_20(self):
        labels = [0] * 50 + [1] * 30 + [2] * 20
        train, _dev = split_train_dev(make_tabular(labels), 0.8, seed=3)
        per_class = [int((train.labels == k).sum()) for k in range(3)]
        assert per_class == [40, 24, 16]

    def test_exact_partition(self):
        d = make_tabular([i % 3 for i in range(61)])
        train, dev = split_train_dev(d, 0.8, seed=11)
        ids = sorted(train.ids.tolist() + dev.ids.tolist())
        assert ids == d.ids.tolist()
        # each part keeps the source order, and each row its features and label
        for part in (train, dev):
            assert part.ids.tolist() == sorted(part.ids.tolist())
            rows = part.ids - d.ids[0]
            assert part.features.tobytes() == d.features[rows].tobytes()
            assert part.labels.tolist() == d.labels[rows].tolist()

    def test_small_class_rejected(self):
        d = make_tabular([0] * 20 + [2])
        with pytest.raises(DataError):
            split_train_dev(d, 0.8, seed=0)

    def test_unlabeled_sample_rejected(self):
        with pytest.raises(DataError, match="every sample labeled"):
            split_train_dev(make_tabular([0, 0, 1, 1, -1]), 0.5, seed=0)

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
        counts = [d.labels.tolist().count(k) for k in range(3)]
        assert counts == [329, 212, 70]

    @given(st.integers(min_value=30, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_apportionment_sums_to_n(self, n):
        assert sum(largest_remainder_counts(n, DEFAULT_GRADE_PROPORTIONS)) == n

    def test_noise_zero_sits_on_centers(self):
        d = gen_ordinal_dataset(30, noise=0.0, dim=5, seed=1)
        centers = ordinal_class_centers(5)
        np.testing.assert_allclose(d.features, centers[d.labels], atol=1e-12)

    def test_centers_are_ordinal(self):
        c = ordinal_class_centers(8)
        assert np.linalg.norm(c[0] - c[1]) < np.linalg.norm(c[0] - c[2])

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            gen_ordinal_dataset(40, noise=-0.1)

    def test_unlabeled_pool_has_no_labels(self):
        d = gen_ordinal_dataset(40, labeled=False, seed=2)
        assert d.labels.tolist() == [-1] * 40

    def test_determinism(self):
        a = gen_ordinal_dataset(60, seed=9)
        b = gen_ordinal_dataset(60, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# segmentation generator
# ---------------------------------------------------------------------------

class TestSegGenerator:
    def test_determinism(self):
        a = gen_seg_dataset(5, 32, seed=3)
        b = gen_seg_dataset(5, 32, seed=3)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.masks, sb.masks)

    def test_np_components_larger_than_nv(self):
        from scipy import ndimage
        d = gen_seg_dataset(30, 48, seed=5)
        for s in d.samples:
            np_lbl, np_n = ndimage.label(s.masks[1])
            nv_lbl, nv_n = ndimage.label(s.masks[2])
            if np_n == 0 or nv_n == 0:
                continue
            np_areas = ndimage.sum_labels(np.ones_like(np_lbl), np_lbl,
                                          index=range(1, np_n + 1))
            nv_areas = ndimage.sum_labels(np.ones_like(nv_lbl), nv_lbl,
                                          index=range(1, nv_n + 1))
            assert np_areas.min() > nv_areas.max()

    def test_mean_np_fraction_in_band(self):
        d = gen_seg_dataset(100, 64, seed=6)
        fracs = [s.masks[1].mean() for s in d.samples]
        assert 0.02 < np.mean(fracs) < 0.30

    def test_artifact_images_have_empty_masks(self):
        d = gen_seg_dataset(50, 32, seed=7, artifact_fraction=1.0)
        assert all(s.masks.sum() == 0 for s in d.samples)

    def test_values_stay_in_unit_range(self):
        d = gen_seg_dataset(20, 32, seed=8)
        for s in d.samples:
            assert 0.0 <= s.image.min() and s.image.max() <= 1.0

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
        masks = rng.integers(0, 2, (3, 10, 10), dtype=np.uint8)
        paths = write_mask_set(tmp_path / "m", masks)
        assert [p.name for p in paths] == ["m_irma.pgm", "m_np.pgm", "m_nv.pgm"]
        back = read_mask_set(tmp_path / "m")
        np.testing.assert_array_equal(back, masks)

    def test_mask_read_threshold_128(self, tmp_path):
        raw = np.zeros((8, 8), dtype=np.uint8)
        raw[0, 0] = 255
        raw[0, 1] = 127
        raw[0, 2] = 128
        for ch in ("irma", "np", "nv"):
            write_pgm(tmp_path / f"m_{ch}.pgm", raw)
        masks = read_mask_set(tmp_path / "m")
        assert masks[0, 0, 0] == 1
        assert masks[0, 0, 1] == 0
        assert masks[0, 0, 2] == 1

    def test_pgm_header_comment_lines_are_skipped(self, tmp_path):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        (tmp_path / "c.pgm").write_bytes(b"P5\n# made by hand\n4 3\n# maxval next\n255\n"
                                         + arr.tobytes())
        np.testing.assert_array_equal(read_pgm(tmp_path / "c.pgm"), arr)

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

    def test_pgm_magic_must_end_at_whitespace_or_comment(self, tmp_path):
        (tmp_path / "m.pgm").write_bytes(b"P58 8\n255\n" + bytes(64))
        with pytest.raises(FormatError, match="missing P5 magic"):
            read_pgm(tmp_path / "m.pgm")
        (tmp_path / "c.pgm").write_bytes(b"P5# by hand\n8 8\n255\n" + bytes(64))
        assert read_pgm(tmp_path / "c.pgm").shape == (8, 8)

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        d = gen_ordinal_dataset(40, seed=2)
        write_dataset_csv(tmp_path / "d.csv", d)
        back = read_dataset_csv(tmp_path / "d.csv", "grading")
        assert back.ids.tolist() == d.ids.tolist()
        assert back.labels.tolist() == d.labels.tolist()
        assert back.features.tobytes() == d.features.tobytes()

    def test_csv_roundtrip_unlabeled(self, tmp_path):
        d = gen_ordinal_dataset(40, seed=2, labeled=False)
        write_dataset_csv(tmp_path / "u.csv", d)
        back = read_dataset_csv(tmp_path / "u.csv", "grading")
        assert back.labels.tolist() == [-1] * 40
        assert (tmp_path / "u.csv").read_text().splitlines()[1].endswith(",")

    def test_csv_header_only_is_an_empty_table(self, tmp_path):
        (tmp_path / "e.csv").write_text("id,feat_0,feat_1,label\n")
        back = read_dataset_csv(tmp_path / "e.csv", "grading")
        assert len(back) == 0 and back.features.shape == (0, 2)

    @pytest.mark.parametrize("label", ["-1", "3"])
    def test_csv_rejects_a_label_outside_0_to_2(self, tmp_path, label):
        # -1 is only the in-memory code for "no label"; a file says that with an empty field
        (tmp_path / "l.csv").write_text(f"id,feat_0,label\n1,0.5,{label}\n")
        with pytest.raises(DataError, match=f"ordinal label must be in {{0, 1, 2}}, got {label}"):
            read_dataset_csv(tmp_path / "l.csv", "grading")

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
                                     "1,sample_00001.pgm,maybe", "100,sample_00100.pgm,7,junk",
                                     "100,sample_00100.pgm,-1", "100,sample_00100.pgm,1,",
                                     "100,sample_00100.pgm,2"])
    def test_seg_dataset_rejects_malformed_index_row(self, tmp_path, row):
        (tmp_path / "seg").mkdir()
        (tmp_path / "seg" / "index.csv").write_text(f"id,image,has_masks\n{row}\n")
        with pytest.raises(FormatError, match="index.csv: malformed row"):
            read_seg_dataset(tmp_path / "seg")

    def test_seg_dataset_roundtrip(self, tmp_path):
        d = gen_seg_dataset(4, 32, seed=4)
        write_seg_dataset(tmp_path / "seg", d)
        back = read_seg_dataset(tmp_path / "seg")
        for sa, sb in zip(d.samples, back.samples):
            assert sa.id == sb.id
            # images pass through 8-bit quantization
            assert np.abs(sa.image - sb.image).max() <= 0.5 / 255
            np.testing.assert_array_equal(sa.masks, sb.masks)

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

