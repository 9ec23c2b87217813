"""Deep ensembles, member training over worker processes, flip/rotation TTA,
and ensemble manifests."""
import hashlib
import os
import pickle
import threading
import time

import numpy as np
import pytest

from drtricks.data import DataError, Image, gen_ordinal_dataset, gen_seg_dataset
from drtricks.ensemble import (
    Ensemble,
    EnsembleMemberError,
    ensemble_predict,
    load_ensemble,
    map_members,
    save_ensemble,
    tta_flip_predict,
    tta_rotate_seg,
    train_deep_ensemble,
)
from drtricks import ensemble, models
from drtricks.models import MLP, CheckpointError, TrainConfig, fit, segment_soft


def constant_scalar(value: float) -> MLP:
    m = MLP([4, 1], "scalar")
    m.weights[0][:] = 0.0
    m.biases[0][:] = value
    return m


def threshold_oracle(img: np.ndarray) -> np.ndarray:
    """Rotation-equivariant per-pixel rule: soft masks from the raw value."""
    v = np.asarray(img, dtype=np.float64)
    return np.stack([np.clip(v, 0, 1), np.clip(v ** 2, 0, 1),
                     np.clip(1.0 - v, 0, 1)])


class TestEnsembleType:
    def test_needs_members(self):
        with pytest.raises(ValueError):
            Ensemble((), ())

    def test_mixed_heads_rejected(self):
        with pytest.raises(ValueError):
            Ensemble((MLP([4, 1], "scalar"), MLP([4, 3], "pixel")), (0, 1))

    def test_seed_count_must_match(self):
        with pytest.raises(ValueError):
            Ensemble((MLP([2, 1], "scalar"),), (0, 1))


class TestTrainDeepEnsemble:
    def test_members_distinct_and_deterministic(self):
        data = gen_ordinal_dataset(48, seed=0)
        cfg = TrainConfig(epochs=5, lr=2e-3, seed=0)
        a = train_deep_ensemble(data, cfg, k=3, base_seed=10)
        b = train_deep_ensemble(data, cfg, k=3, base_seed=10)
        assert a.seeds == (10, 11, 12)
        for ma, mb in zip(a.members, b.members):
            assert ma.theta.tobytes() == mb.theta.tobytes()
        flat = [m.theta for m in a.members]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(flat[i], flat[j])

    def test_k1_matches_single_fit(self):
        from dataclasses import replace
        data = gen_ordinal_dataset(48, seed=1)
        cfg = TrainConfig(epochs=5, lr=2e-3, seed=7)
        ens = train_deep_ensemble(data, cfg, k=1)
        single = fit("grading", data, replace(cfg, seed=7))
        assert ens.members[0].theta.tobytes() == single.theta.tobytes()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            train_deep_ensemble(gen_ordinal_dataset(40, seed=0),
                                TrainConfig(epochs=1), k=0)


    def test_cpu_count_does_not_change_members(self, cpus):
        data = gen_seg_dataset(4, 32, seed=0)
        cfg = TrainConfig(epochs=2, lr=0.2, batch_size=2, seed=0)
        cpus(1)
        one = train_deep_ensemble(data, cfg, k=3, base_seed=5)
        cpus(2)
        two = train_deep_ensemble(data, cfg, k=3, base_seed=5)
        assert one.seeds == two.seeds == (5, 6, 7)
        for a, b in zip(one.members, two.members):
            assert a.theta.tobytes() == b.theta.tobytes()
            assert all(np.shares_memory(w, b.theta) for w in b.weights + b.biases)


TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wait_for(path):
    deadline = time.monotonic() + 10
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def _failing_at(indices, exc=FloatingPointError("overflow")):
    def task(i):
        if i in indices:
            raise exc
        return i
    return task


class TestMapMembers:
    def test_one_cpu_runs_in_order_in_the_caller(self, cpus):
        cpus(1)
        seen = []
        assert map_members(lambda i: seen.append(i) or os.getpid(), 4) == [os.getpid()] * 4
        assert seen == [0, 1, 2, 3]

    @TWO_CPUS
    def test_results_in_member_order_and_caller_trains_its_share(self, cpus):
        cpus(2)
        out = map_members(lambda i: (i * i, os.getpid()), 5)
        assert [r[0] for r in out] == [0, 1, 4, 9, 16]
        pids = [r[1] for r in out]
        assert pids[0] == os.getpid()  # the caller trains member 0 itself
        assert len(set(pids) - {os.getpid()}) <= 1
        _assert_no_child_left()

    @TWO_CPUS
    def test_each_worker_pinned_to_its_own_cpu_and_mask_restored(self, cpus):
        cpus(2)
        before = os.sched_getaffinity(0)
        first, second = sorted(before)
        out = map_members(lambda i: (os.getpid(), os.sched_getaffinity(0)), 40)
        cpus_of = {}  # pid -> the CPUs it ran every one of its members on
        for pid, affinity in out:
            assert cpus_of.setdefault(pid, affinity) == affinity
        assert cpus_of.pop(os.getpid()) == {first}
        assert list(cpus_of.values()) in ([], [{second}])
        assert os.sched_getaffinity(0) == before

    @TWO_CPUS
    def test_a_free_worker_takes_the_next_member(self, cpus, tmp_path):
        cpus(2)
        started = tmp_path / "member 4 started"

        def task(i):
            if i == 4:
                started.touch()
            if i == 0:  # the caller is busy until the last member has started
                deadline = time.monotonic() + 10
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                return started.exists(), os.getpid()
            return True, os.getpid()

        out = map_members(task, 5)
        assert out[0] == (True, os.getpid())
        assert len({pid for _ok, pid in out[1:]}) == 1 and out[1][1] != os.getpid()
        _assert_no_child_left()

    @pytest.mark.parametrize("ncpu", [1, 2])
    def test_more_members_than_one_pipe_buffer_of_indices(self, cpus, ncpu):
        cpus(ncpu)
        n = 20_000  # 4-byte indices: 80 kB, more than a 64 KiB pipe holds
        assert map_members(lambda i: i, n) == list(range(n))
        _assert_no_child_left()

    @TWO_CPUS
    def test_no_thread_is_started(self, cpus, tmp_path):
        cpus(2)
        held, counted = tmp_path / "member 1 started", tmp_path / "member 0 counted"

        def task(i):
            if i == 0:  # the child is held in member 1 while the caller counts
                _wait_for(held)
                count = threading.active_count()
                counted.touch()
                return count
            if i == 1:
                held.touch()
                _wait_for(counted)
            return i

        before = threading.active_count()
        n = 20_000
        out = map_members(task, n)
        assert out[0] == before
        assert out[1:] == list(range(1, n))
        assert threading.active_count() == before
        _assert_no_child_left()

    @TWO_CPUS
    def test_a_worker_that_dies_in_a_member_is_named(self, cpus, tmp_path):
        cpus(2)
        dying = tmp_path / "member 1 about to exit"

        def task(i):
            if i == 0:  # the caller waits here while the child dies in member 1
                _wait_for(dying)
                time.sleep(0.2)
            elif i == 1:
                dying.touch()
                os._exit(7)
            return i

        with pytest.raises(RuntimeError, match="^a worker ended without the result of member 1$"):
            map_members(task, 6)
        _assert_no_child_left()

    @TWO_CPUS
    @pytest.mark.parametrize("failing, exc", [
        (set(), None), ({0}, FloatingPointError("overflow")),
        ({1}, FloatingPointError("overflow")), ({0}, KeyboardInterrupt())],
        ids=["success", "caller_fails", "worker_fails", "caller_interrupted"])
    def test_no_file_descriptor_left_open(self, cpus, failing, exc):
        cpus(2)
        before = len(os.listdir("/proc/self/fd"))
        if failing:
            with pytest.raises((EnsembleMemberError, KeyboardInterrupt)):
                map_members(_failing_at(failing, exc), 8)
        else:
            assert map_members(_failing_at(failing), 8) == list(range(8))
        assert len(os.listdir("/proc/self/fd")) == before
        _assert_no_child_left()

    @TWO_CPUS
    def test_each_member_runs_exactly_once(self, cpus, tmp_path):
        cpus(2)

        def task(i):  # a second run of member i fails to create its file again
            os.close(os.open(tmp_path / str(i), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return i

        n = 5_000
        assert map_members(task, n) == list(range(n))
        assert len(os.listdir(tmp_path)) == n
        _assert_no_child_left()

    @TWO_CPUS
    def test_a_large_result_does_not_stall_its_worker(self, cpus, tmp_path):
        cpus(2)
        started = tmp_path / "member 3 started"

        def task(i):
            if i == 0:  # the caller waits for the child to reach its next member
                deadline = time.monotonic() + 10
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                return started.exists()
            if i == 3:
                started.touch()
            return MLP([8, 2048, 1], "scalar", seed=i)  # ~150 kB pickled, over a pipe's buffer

        out = map_members(task, 4)
        assert out[0] is True
        assert out[1].theta.tobytes() == MLP([8, 2048, 1], "scalar", seed=1).theta.tobytes()
        _assert_no_child_left()

    @TWO_CPUS
    def test_workers_capped_at_members(self):
        assert map_members(lambda i: os.getpid(), 1) == [os.getpid()]
        assert map_members(lambda i: i, 0) == []

    @pytest.mark.parametrize("failing, lowest", [({3, 4}, 3), ({2, 3}, 2), ({1, 4}, 1),
                                                 ({4}, 4), ({0, 1}, 0)])
    @pytest.mark.parametrize("ncpu", [1, 2])
    def test_lowest_failing_member_raised(self, cpus, failing, lowest, ncpu):
        cpus(ncpu)
        with pytest.raises(EnsembleMemberError) as info:
            map_members(_failing_at(failing), 5)
        assert info.value.index == lowest
        assert str(info.value) == f"member {lowest} failed: overflow"
        _assert_no_child_left()

    @TWO_CPUS
    def test_lower_failure_wins_when_it_ends_last(self, cpus, tmp_path):
        cpus(2)
        one, two = tmp_path / "member 1 started", tmp_path / "member 2 failed"

        def task(i):
            if i == 0:
                _wait_for(one)  # so the child holds member 1
            elif i == 1:
                one.touch()
                _wait_for(two)
                raise FloatingPointError("lower")
            elif i == 2:
                two.touch()
                raise FloatingPointError("higher")
            return i

        with pytest.raises(EnsembleMemberError) as info:
            map_members(task, 4)
        assert str(info.value) == "member 1 failed: lower"
        _assert_no_child_left()

    @pytest.mark.parametrize("ncpu", [1, 2])
    def test_other_errors_raised_as_they_are(self, cpus, ncpu):
        cpus(ncpu)
        with pytest.raises(DataError, match="^bad member data$"):
            map_members(_failing_at({1}, DataError("bad member data")), 3)

    def test_member_error_survives_pickle(self):
        back = pickle.loads(pickle.dumps(EnsembleMemberError(3, FloatingPointError("nan"))))
        assert (back.index, str(back)) == (3, "member 3 failed: nan")
        back = pickle.loads(pickle.dumps(EnsembleMemberError(1, "nan", "+rpl")))
        assert (back.index, str(back)) == (1, "+rpl member 1 failed: nan")

    @TWO_CPUS
    @pytest.mark.parametrize("exc", [FloatingPointError("overflow"), KeyboardInterrupt()])
    def test_caller_failure_kills_a_busy_child(self, cpus, exc):
        cpus(2)

        def task(i):
            if i == 0:
                raise exc
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises((EnsembleMemberError, KeyboardInterrupt)):
            map_members(task, 2)
        assert time.monotonic() - start < 10
        _assert_no_child_left()


class TestEnsemblePredict:
    def test_identical_members_equal_single(self):
        m = constant_scalar(1.3)
        e = Ensemble((m, m, m), (0, 0, 0))
        assert ensemble_predict(e, np.zeros((1, 4))) == pytest.approx(1.3)

    def test_scalar_mean(self):
        e = Ensemble((constant_scalar(1.0), constant_scalar(2.0)), (0, 1))
        assert ensemble_predict(e, np.zeros((1, 4))) == pytest.approx(1.5)

    def test_batch_mean_is_member_order_mean(self):
        feats = np.stack([s.features for s in gen_ordinal_dataset(40, seed=0).samples])
        members = tuple(MLP([8, 6, 1], "scalar", seed=s) for s in range(3))
        expected = members[0].predict_scalar(feats)
        for m in members[1:]:
            expected = expected + m.predict_scalar(feats)
        out = ensemble_predict(Ensemble(members, (0, 1, 2)), feats)
        assert out.shape == (40,)
        assert out.tobytes() == (expected / 3).tobytes()

    def test_pixel_ensemble_is_member_order_mean_of_segment_soft(self):
        members = tuple(MLP([4, 3], "pixel", seed=s) for s in range(5))
        img = np.random.default_rng(4).uniform(0, 1, (12, 17))
        expected = segment_soft(members[0], img)
        for m in members[1:]:
            expected = expected + segment_soft(m, img)
        expected = expected / len(members)
        e = Ensemble(members, tuple(range(5)))
        for x in (img, Image(img)):
            out = ensemble_predict(e, x)
            assert out.shape == (3, 12, 17) and out.flags.c_contiguous
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 5])
    def test_features_computed_once_per_call(self, k, monkeypatch):
        calls = []
        original = models.seg_features

        def counting(image):
            calls.append(1)
            return original(image)

        monkeypatch.setattr(models, "seg_features", counting)
        monkeypatch.setattr(ensemble, "seg_features", counting)
        e = Ensemble(tuple(MLP([4, 3], "pixel", seed=s) for s in range(k)), tuple(range(k)))
        img = np.random.default_rng(5).uniform(0, 1, (16, 16))
        ensemble_predict(e, img)
        assert len(calls) == 1
        tta_rotate_seg(lambda v: ensemble_predict(e, v), img)
        assert len(calls) == 1 + 4


class TestFlipTta:
    def test_constant_model_unchanged(self):
        predict = lambda img: threshold_oracle(np.full_like(img, 0.5))
        img = np.random.default_rng(0).uniform(0, 1, (12, 12))
        out = tta_flip_predict(predict, img)
        np.testing.assert_allclose(out, threshold_oracle(np.full((12, 12), 0.5)))

    def test_mean_pixel_model_is_flip_invariant(self):
        predict = lambda img: np.full((3, *img.shape), img.mean())
        img = np.random.default_rng(1).uniform(0, 1, (10, 10))
        np.testing.assert_allclose(tta_flip_predict(predict, img), predict(img),
                                   atol=1e-12)

    def test_flip_equivariant_oracle_reproduced_exactly(self):
        # Dyadic pixel values keep the three-branch mean exact.
        img = np.random.default_rng(2).integers(0, 65, (8, 12)) / 64.0
        out = tta_flip_predict(threshold_oracle, img)
        np.testing.assert_array_equal(out, threshold_oracle(img))

    def test_delta_peak_stays_put(self):
        img = np.zeros((9, 7))
        img[2, 5] = 1.0
        out = tta_flip_predict(threshold_oracle, img)
        assert np.unravel_index(np.argmax(out[0]), img.shape) == (2, 5)

    def test_writes_into_no_branch_prediction(self):
        img = np.random.default_rng(5).uniform(0, 1, (8, 12))
        returned = []
        predict = lambda v: returned.append(threshold_oracle(v)) or returned[-1]
        out = tta_flip_predict(predict, img)
        assert out.flags.c_contiguous
        assert [r.tobytes() for r in returned] == \
            [threshold_oracle(v).tobytes() for v in (img, img[:, ::-1], img[::-1, :])]


class TestRotateTta:
    def test_equivariant_oracle_reproduced_exactly(self):
        img = np.random.default_rng(3).uniform(0, 1, (16, 16))
        out = tta_rotate_seg(threshold_oracle, img)
        np.testing.assert_array_equal(out, threshold_oracle(img))

    def test_delta_peak_stays_put(self):
        img = np.zeros((9, 9))
        img[2, 6] = 1.0
        out = tta_rotate_seg(threshold_oracle, img)
        assert np.unravel_index(np.argmax(out[0]), (9, 9)) == (2, 6)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tta_rotate_seg(threshold_oracle, np.zeros((8, 10)))

    def test_accepts_image_type(self):
        img = Image(np.random.default_rng(4).uniform(0, 1, (8, 8)))
        out = tta_rotate_seg(threshold_oracle, img)
        np.testing.assert_array_equal(out, threshold_oracle(img.values))

    def test_writes_into_no_branch_prediction(self):
        # the segmentation ablate hands back its plain prediction as the identity branch
        img = np.random.default_rng(6).uniform(0, 1, (8, 8))
        plain = threshold_oracle(img)
        predict = lambda v: plain if np.array_equal(v, img) else threshold_oracle(v)
        out = tta_rotate_seg(predict, img)
        assert out.flags.c_contiguous
        assert plain.tobytes() == threshold_oracle(img).tobytes()

    # SHA-256 of rotation TTA over a 2-member ensemble of trained segmenters.
    # The forward pass, the ensemble mean and the TTA mean are written for
    # speed, and every rewrite must keep these bits (NumPy 2.4 on x86-64).
    INFERENCE_DIGESTS = {
        33: "e5e25d1ba6864444c2e567723e258bc1e1adb7282cecb138d2076d0b89e9d7e0",
        64: "930b2fdca7902f8cd4d6da76a08d3c1443d27eeb8161879343fecff919445388",
    }

    @pytest.mark.parametrize("size", sorted(INFERENCE_DIGESTS))
    def test_ensemble_rotation_tta_keeps_its_bytes(self, size):
        cfg = TrainConfig(lr=0.2, epochs=5, batch_size=4, seed=5)
        e = train_deep_ensemble(gen_seg_dataset(6, size, seed=21), cfg, k=2)
        image = gen_seg_dataset(1, size, seed=22).samples[0].image
        out = tta_rotate_seg(lambda v: ensemble_predict(e, v), image)
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.INFERENCE_DIGESTS[size]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        data = gen_seg_dataset(4, 32, seed=0)
        cfg = TrainConfig(lr=0.2, epochs=5, batch_size=4, seed=0)
        e = train_deep_ensemble(data, cfg, k=2, base_seed=3)
        manifest = save_ensemble(tmp_path, e)
        back = load_ensemble(manifest)
        assert back.seeds == e.seeds
        img = data.samples[0].image
        np.testing.assert_array_equal(
            np.asarray(ensemble_predict(e, img.values)),
            np.asarray(ensemble_predict(back, img.values)),
        )

    @pytest.mark.parametrize("text", ["{", '{"x": 1}', '{"members": 3}', '{"members": []}',
                                      '{"members": [{"path": "m.ckpt"}]}',
                                      '{"members": [{"path": 7, "seed": 0}]}'])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        (tmp_path / "ensemble.json").write_text(text)
        with pytest.raises(CheckpointError):
            load_ensemble(tmp_path / "ensemble.json")

    @pytest.mark.parametrize("seed", ["1e400", "1.5", "2.0", "true", '"3"', "null"])
    def test_seed_that_is_no_json_integer_rejected(self, tmp_path, seed):
        (tmp_path / "ensemble.json").write_text(
            '{"members": [{"path": "m.ckpt", "seed": %s}]}' % seed)
        with pytest.raises(CheckpointError, match="is not an integer"):
            load_ensemble(tmp_path / "ensemble.json")

    def test_any_json_integer_seed_loads(self, tmp_path):
        save_ensemble(tmp_path, Ensemble((constant_scalar(1.0),), (0,)))
        seed = 2 ** 70
        (tmp_path / "ensemble.json").write_text(
            '{"members": [{"path": "member_0.ckpt", "seed": %d}]}' % seed)
        assert load_ensemble(tmp_path / "ensemble.json").seeds == (seed,)
