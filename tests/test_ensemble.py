"""Deep ensembles, flip/rotation TTA, and ensemble manifests."""
import numpy as np
import pytest

from drtricks.data import Image, gen_ordinal_dataset, gen_seg_dataset
from drtricks.ensemble import (
    Ensemble,
    ensemble_predict,
    load_ensemble,
    member_variance,
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


class TestEnsemblePredict:
    def test_identical_members_equal_single(self):
        m = constant_scalar(1.3)
        e = Ensemble((m, m, m), (0, 0, 0))
        assert ensemble_predict(e, np.zeros(4)) == pytest.approx(1.3)

    def test_scalar_mean(self):
        e = Ensemble((constant_scalar(1.0), constant_scalar(2.0)), (0, 1))
        assert ensemble_predict(e, np.zeros(4)) == pytest.approx(1.5)

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
            assert out.shape == (3, 12, 17)
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

    def test_member_variance_nonnegative(self):
        e = Ensemble((constant_scalar(1.0), constant_scalar(2.0)), (0, 1))
        assert member_variance(e, np.zeros(4)) == pytest.approx(0.25)
        same = Ensemble((constant_scalar(1.0), constant_scalar(1.0)), (0, 1))
        assert member_variance(same, np.zeros(4)) == 0.0


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
