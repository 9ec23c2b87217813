"""Pseudo labeling buckets, the growing selection schedule, and RPL training."""
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overflowing_model
from drtricks.data import Table, gen_ordinal_dataset
from drtricks.models import (NUM_CLASSES, MLP, TrainConfig, fit, regressor_class,
                             round_half_away)
from drtricks.ssl import (
    PseudoBuckets,
    _audit_rows,
    confidence_regressor,
    naive_pl_train,
    pseudo_label,
    rpl_train,
    select_reliable,
)


def constant_regressor(value: float) -> MLP:
    m = MLP([2, 1], "scalar")
    m.weights[0][:] = 0.0
    m.biases[0][:] = value
    return m


def feature_passthrough_regressor() -> MLP:
    """Scalar head returning the first feature component."""
    m = MLP([2, 1], "scalar")
    m.weights[0][:] = [[1.0], [0.0]]
    m.biases[0][:] = 0.0
    return m


def pool_of(pairs) -> Table:
    """An unlabeled pool of (id, first feature) pairs, in that order; the second feature is 0."""
    pairs = list(pairs)
    ids = [i for i, _ in pairs]
    feats = np.array([[v, 0.0] for _, v in pairs]).reshape(len(ids), 2)
    return Table("grading", ids, feats, [-1] * len(ids))


def unlabeled_from(values):
    return pool_of(enumerate(values))


EMPTY = Table("grading", [], np.zeros((0, 2)), [])


class TestConfidence:
    def test_regressor_examples(self):
        assert confidence_regressor(1.0) == 0.0
        assert confidence_regressor(1.4) == pytest.approx(-0.4)
        assert confidence_regressor(0.5) == pytest.approx(-0.5)

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_regressor_confidence_bounds(self, raw):
        c = confidence_regressor(raw)
        assert -0.5 <= c <= 0.0

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_array_form_matches_per_value_distance(self, values):
        expected = [-abs(float(round_half_away(r)) - r) for r in values]
        assert confidence_regressor(np.array(values)).tobytes() == \
            np.array(expected, dtype=np.float64).tobytes()


def bucket(buckets: PseudoBuckets, k: int) -> list[tuple[int, float]]:
    """Class k's run of the buckets as (pool row, confidence) pairs."""
    ends = [0, *buckets.ends.tolist()]
    return [(int(buckets.order[j]), float(buckets.confs[j]))
            for j in range(ends[k], ends[k + 1])]


def bucket_ids(buckets: PseudoBuckets, k: int) -> list[int]:
    return [int(buckets.pool.ids[row]) for row, _ in bucket(buckets, k)]


class TestPseudoLabel:
    def test_regressor_bucketing_example(self):
        buckets = pseudo_label(feature_passthrough_regressor(),
                               unlabeled_from([0.1, 1.9, 2.2]))
        assert bucket_ids(buckets, 0) == [0]
        assert bucket(buckets, 1) == []
        two = bucket(buckets, 2)
        # both 1.9 and 2.2 round to class 2, ordered by distance 0.1 < 0.2
        assert bucket_ids(buckets, 2) == [1, 2]
        assert two[0][1] == pytest.approx(-0.1)
        assert two[1][1] == pytest.approx(-0.2)

    def test_buckets_partition_pool(self):
        data = gen_ordinal_dataset(80, seed=0, labeled=False)
        model = fit("grading", gen_ordinal_dataset(60, seed=1),
                    TrainConfig(epochs=15, lr=2e-3, seed=0))
        buckets = pseudo_label(model, data)
        assert buckets.pool is data and buckets.ends[-1] == 80
        seen = [i for k in range(3) for i in bucket_ids(buckets, k)]
        assert sorted(seen) == data.ids.tolist()

    def test_within_bucket_confidence_sorted(self):
        data = gen_ordinal_dataset(80, seed=2, labeled=False)
        model = fit("grading", gen_ordinal_dataset(60, seed=3),
                    TrainConfig(epochs=15, lr=2e-3, seed=0))
        buckets = pseudo_label(model, data)
        for k in range(3):
            confs = [c for _, c in bucket(buckets, k)]
            assert confs == sorted(confs, reverse=True)

    def test_empty_pool_is_fine(self):
        buckets = pseudo_label(constant_regressor(1.0), EMPTY)
        assert buckets.order.size == buckets.confs.size == 0
        assert buckets.ends.tolist() == [0, 0, 0]

    def test_a_non_finite_output_raises_without_warnings(self, tmp_path, recwarn):
        model = overflowing_model(tmp_path / "huge.ckpt", 2)
        with pytest.raises(FloatingPointError, match="^non-finite model output$"):
            pseudo_label(model, unlabeled_from([0.1, 1.9, 2.2, -0.7]))
        assert not recwarn.list

    def test_ties_broken_by_ascending_id(self):
        buckets = pseudo_label(constant_regressor(0.9), unlabeled_from([0, 0, 0]))
        assert bucket_ids(buckets, 1) == [0, 1, 2]

    def test_ties_broken_by_ascending_id_in_any_pool_order(self):
        # 1.2 - 1 and 1 - 0.8 are the same float, so four samples tie
        pool = [(5, 1.2), (3, 0.8), (9, 1.2), (1, 0.8), (4, 1.0)]
        buckets = pseudo_label(feature_passthrough_regressor(), pool_of(pool))
        assert bucket_ids(buckets, 1) == [4, 1, 3, 5, 9]


class TestSelectReliable:
    def make_buckets(self, sizes):
        """Buckets of the given sizes over a pool in bucket order, confidences
        falling by 0.01 within each bucket."""
        n = sum(sizes)
        pool = Table("grading", np.arange(n) + 100, np.arange(2.0 * n).reshape(n, 2), [-1] * n)
        confs = np.concatenate([1.0 - np.arange(size) * 0.01 for size in sizes])
        return PseudoBuckets(pool, np.arange(len(pool)), confs, np.cumsum(sizes))

    def test_final_round_takes_everything(self):
        buckets = self.make_buckets([7, 13, 4])
        assert len(select_reliable(buckets, 5, 5)) == 24

    def test_first_round_floor_fraction(self):
        buckets = self.make_buckets([50, 0, 0])
        assert len(select_reliable(buckets, 1, 5)) == 10

    def test_empty_bucket_selects_none(self):
        buckets = self.make_buckets([0, 0, 0])
        chosen = select_reliable(buckets, 1, 5)
        assert len(chosen) == 0 and chosen.features.shape == (0, 2)

    def test_monotone_in_round(self):
        buckets = self.make_buckets([17, 9, 3])
        counts = [len(select_reliable(buckets, t, 5)) for t in range(1, 6)]
        assert counts == sorted(counts)
        assert counts[-1] == 29

    def test_selection_respects_confidence_order(self):
        buckets = self.make_buckets([20, 10, 5])
        for t in range(1, 5):
            chosen = set(select_reliable(buckets, t, 5).ids.tolist())
            for k in range(3):
                confs = [(buckets.pool.ids[row], c) for row, c in bucket(buckets, k)]
                sel = [c for i, c in confs if i in chosen]
                rej = [c for i, c in confs if i not in chosen]
                if sel and rej:
                    assert min(sel) >= max(rej)

    def test_selected_labels_match_bucket_class(self):
        buckets = self.make_buckets([3, 3, 3])
        assert select_reliable(buckets, 5, 5).labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_selection_gathers_bucket_rows_with_their_class(self):
        buckets = self.make_buckets([4, 3, 2])
        chosen = select_reliable(buckets, 5, 5)
        rows = [row for k in range(3) for row, _ in bucket(buckets, k)]
        pool = buckets.pool
        assert chosen.ids.tolist() == pool.ids[rows].tolist()
        assert chosen.labels.tolist() == [k for k in range(3) for _ in bucket(buckets, k)]
        assert chosen.features.tobytes() == pool.features[rows].tobytes()
        assert not chosen.features.flags.writeable and pool.labels.tolist() == [-1] * 9

    def test_round_index_bounds(self):
        buckets = self.make_buckets([3, 3, 3])
        with pytest.raises(ValueError):
            select_reliable(buckets, 0, 5)
        with pytest.raises(ValueError):
            select_reliable(buckets, 6, 5)

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=3, max_size=3),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_selected_count_formula(self, sizes, t):
        buckets = self.make_buckets(sizes)
        expected = sum((t * n) // 5 for n in sizes)
        chosen = select_reliable(buckets, t, 5)
        assert len(chosen) == len(chosen.ids) == expected


# The per-sample loop that the array code replaced, kept as its oracle: per
# class, (pool row, confidence) pairs by descending confidence, then id.

def reference_pseudo_label(model: MLP, unlabeled: Table) -> dict:
    entries = {k: [] for k in range(NUM_CLASSES)}
    if len(unlabeled) > 0:
        raw = model.predict_scalar(unlabeled.features)
        preds, confs = regressor_class(raw), confidence_regressor(raw)
        for j in np.lexsort((unlabeled.ids, -confs)):
            entries[int(preds[j])].append((int(j), float(confs[j])))
    return {k: tuple(v) for k, v in entries.items()}


def reference_select_reliable(entries: dict, t: int, rounds: int) -> list[tuple[int, int]]:
    """(pool row, class) of each selected sample, in selection order."""
    selected = []
    for k in sorted(entries):
        take = (t * len(entries[k])) // rounds
        selected.extend((row, k) for row, _conf in entries[k][:take])
    return selected


def reference_audit_rows(entries: dict, t: int, rounds: int) -> list[list]:
    rows = []
    for k in sorted(entries):
        take = (t * len(entries[k])) // rounds
        min_conf = repr(entries[k][take - 1][1]) if take else ""
        rows.append([t, k, len(entries[k]), take, min_conf])
    return rows


# exact ties (1.2 and 0.8 lie equally far from 1), halves, and outputs
# outside the label range 0..2, beside arbitrary finite values
RAW_OUTPUTS = st.one_of(
    st.sampled_from([-1.5, -0.5, -0.2, 0.0, 0.5, 0.8, 1.0, 1.2, 1.5, 2.5, 3.7]),
    st.floats(min_value=-4, max_value=6, allow_nan=False))


class TestMatchesPerSampleLoop:
    @given(st.lists(st.tuples(st.integers(min_value=-10**6, max_value=10**6), RAW_OUTPUTS),
                    max_size=40, unique_by=lambda pair: pair[0]),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_same_selection_and_audit_as_the_loop(self, pool, rounds):
        # the pool keeps hypothesis's order: shuffled, non-contiguous ids
        unlabeled = pool_of(pool)
        model = feature_passthrough_regressor()
        buckets = pseudo_label(model, unlabeled)
        entries = reference_pseudo_label(model, unlabeled)
        for k in range(NUM_CLASSES):
            assert [(row, repr(c)) for row, c in bucket(buckets, k)] == \
                [(row, repr(c)) for row, c in entries[k]]
        for t in range(1, rounds + 1):
            got = select_reliable(buckets, t, rounds)
            want = reference_select_reliable(entries, t, rounds)
            rows = [row for row, _k in want]
            assert got.ids.tolist() == unlabeled.ids[rows].tolist()
            assert got.labels.tolist() == [k for _row, k in want]
            assert got.features.tobytes() == unlabeled.features[rows].tobytes()
            assert _audit_rows(buckets, t, rounds) == reference_audit_rows(entries, t, rounds)

    def test_empty_pool_matches(self):
        buckets = pseudo_label(constant_regressor(1.0), EMPTY)
        entries = reference_pseudo_label(constant_regressor(1.0), EMPTY)
        assert len(select_reliable(buckets, 1, 1)) == 0
        assert reference_select_reliable(entries, 1, 1) == []
        assert _audit_rows(buckets, 1, 1) == reference_audit_rows(entries, 1, 1)


class TestRplTrain:
    CFG = TrainConfig(epochs=10, lr=2e-3, batch_size=16, seed=0)

    def test_t1_equals_naive_pl(self):
        labeled = gen_ordinal_dataset(48, seed=0)
        unlabeled = gen_ordinal_dataset(100, seed=1, labeled=False, id_offset=1000)
        a = rpl_train(labeled, unlabeled, self.CFG, 1)
        b = naive_pl_train(labeled, unlabeled, self.CFG)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_empty_pool_equals_supervised(self):
        labeled = gen_ordinal_dataset(48, seed=0)
        from drtricks.models import derive_seed
        from dataclasses import replace
        model = rpl_train(labeled, EMPTY, self.CFG, 5)
        supervised = fit("grading", labeled,
                         replace(self.CFG, seed=derive_seed(self.CFG.seed, 0)))
        assert model.theta.tobytes() == supervised.theta.tobytes()

    def test_deterministic(self):
        labeled = gen_ordinal_dataset(48, seed=2)
        unlabeled = gen_ordinal_dataset(80, seed=3, labeled=False, id_offset=1000)
        a = rpl_train(labeled, unlabeled, self.CFG, 3)
        b = rpl_train(labeled, unlabeled, self.CFG, 3)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            rpl_train(EMPTY, EMPTY, self.CFG, 5)

    def test_audit_log_rounds(self, tmp_path):
        labeled = gen_ordinal_dataset(48, seed=4)
        unlabeled = gen_ordinal_dataset(60, seed=5, labeled=False, id_offset=1000)
        rpl_train(labeled, unlabeled, self.CFG, 5, audit_path=tmp_path / "audit.csv")
        with open(tmp_path / "audit.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted({int(r["round"]) for r in rows}) == [1, 2, 3, 4, 5]
        assert len(rows) == 15  # 5 rounds x 3 classes
        by_round = {}
        for r in rows:
            by_round.setdefault(int(r["round"]), 0)
            by_round[int(r["round"])] += int(r["selected"])
        # bucket sizes total the pool each round; selection reaches 100% at T
        last = rows[-3:]
        assert sum(int(r["bucket_size"]) for r in last) == 60
        assert sum(int(r["selected"]) for r in last) == 60

    def test_rpl_config_validation(self):
        with pytest.raises(ValueError, match="^need at least one round$"):
            rpl_train(gen_ordinal_dataset(48, seed=0), EMPTY, self.CFG, 0)

    def test_strip_labels_feeds_pool(self):
        labeled = gen_ordinal_dataset(48, seed=6)
        pool = gen_ordinal_dataset(40, seed=7, id_offset=1000, labeled=False)
        model = rpl_train(labeled, pool, self.CFG, 2)
        assert model.head == "scalar"

    def test_each_round_trains_on_the_labeled_rows_then_the_selected(self, monkeypatch):
        import drtricks.ssl as ssl

        real_fit, seen = ssl.fit, []
        monkeypatch.setattr(ssl, "fit", lambda task, data, cfg: seen.append(data)
                            or real_fit(task, data, cfg))
        labeled = gen_ordinal_dataset(40, seed=2)
        pool = gen_ordinal_dataset(50, seed=3, labeled=False, id_offset=1000)
        rpl_train(labeled, pool, self.CFG, 2)
        assert [len(d) for d in seen] == [40, 40 + 25, 40 + 50]
        last = seen[-1]
        assert last.ids[:40].tolist() == labeled.ids.tolist()
        assert last.features[:40].tobytes() == labeled.features.tobytes()
        assert last.labels[:40].tolist() == labeled.labels.tolist()
        assert sorted(last.ids[40:].tolist()) == pool.ids.tolist()
        assert min(last.labels.tolist()) >= 0
