"""Learners: losses, optimizer, training loop, and checkpoints."""
import hashlib
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtricks import models
from drtricks.augment import augment
from drtricks.data import (
    DataError,
    Dataset,
    Sample,
    Table,
    gen_ordinal_dataset,
    gen_seg_dataset,
)
from drtricks.models import (
    MLP,
    SEG_FEATURE_DIM,
    AdamW,
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    _batches,
    bce_loss,
    class_weights,
    derive_seed,
    fit,
    focal_loss,
    load_checkpoint,
    new_model,
    regressor_class,
    round_half_away,
    save_checkpoint,
    seg_features,
    seg_total_loss,
    segment_soft,
    smooth_l1,
    train,
    weighted_dice_loss,
)

W1 = np.ones(3)


def uniform_masks(y_val, yhat_val, shape=(3, 4, 4)):
    return np.full(shape, y_val, dtype=np.float64), np.full(shape, yhat_val)


# ---------------------------------------------------------------------------
# configuration and seeds
# ---------------------------------------------------------------------------

class TestConfigAndSeeds:
    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ValueError):
            TrainConfig(aux="huber")
        TrainConfig(epochs=0)  # zero epochs allowed: returns initial params

    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
        assert derive_seed(3, 1) != derive_seed(3, 2)
        assert derive_seed(3, 1) != derive_seed(4, 1)


class TestRounding:
    def test_round_half_away(self):
        assert round_half_away(1.4) == 1
        assert round_half_away(1.5) == 2
        assert round_half_away(-1.5) == -2
        assert round_half_away(0.5) == 1

    def test_regressor_class_decision(self):
        assert regressor_class(1.4) == 1
        assert regressor_class(1.5) == 2
        assert regressor_class(-0.2) == 0  # clamped to label range
        assert regressor_class(7.3) == 2
        np.testing.assert_array_equal(regressor_class(np.array([0.1, 1.9, 2.2])),
                                      [0, 2, 2])


@pytest.fixture
def generators(monkeypatch):
    """Seed -> the last generator ``np.random.default_rng`` made for it."""
    made, real = {}, np.random.default_rng

    def recording(seed=None):
        made[seed] = real(seed)
        return made[seed]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

class TestForward:
    def test_dimension_mismatch_rejected(self):
        r = MLP([4, 8, 1], "scalar")
        with pytest.raises(ValueError):
            r.predict_scalar(np.ones((2, 3)))
        with pytest.raises(ValueError):
            segment_soft(MLP([4, 3], "pixel"), np.ones((3, 4, 4)))

    def test_outputs_are_fresh_arrays(self):
        x = np.random.default_rng(0).uniform(0, 1, (64, SEG_FEATURE_DIM))
        for m in (MLP([SEG_FEATURE_DIM, 3], "pixel"), MLP([SEG_FEATURE_DIM, 8, 1], "scalar")):
            assert not np.shares_memory(m.forward(x), m.forward(x))
        image = np.random.default_rng(1).uniform(0, 1, (8, 8))
        pixel = MLP([SEG_FEATURE_DIM, 3], "pixel")
        assert not np.shares_memory(segment_soft(pixel, image), segment_soft(pixel, image))

    def test_layers_are_views_into_theta(self):
        m = MLP([3, 4, 1], "scalar", seed=0)
        assert m.theta.shape == (3 * 4 + 4 + 4 * 1 + 1,)
        m.weights[0][2, 1] = 7.0  # w0 is theta[0:12], row-major
        m.biases[0][3] = -2.0  # b0 is theta[12:16]
        m.weights[1][1, 0] = 5.0  # w1 is theta[16:20]
        m.biases[1][0] = 0.25  # b1 is theta[20]
        assert (m.theta[2 * 4 + 1], m.theta[12 + 3], m.theta[16 + 1], m.theta[20]) == \
            (7.0, -2.0, 5.0, 0.25)

    def test_forward_never_draws(self, generators):
        m = MLP([4, 16, 1], "scalar", dropout=0.5, seed=1)
        x = np.random.default_rng(2).normal(size=(5, 4))
        hidden = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        expected = (hidden @ m.weights[1] + m.biases[1])[:, 0]
        generators.clear()
        out, (_acts, keeps) = m._forward_cached(x)
        assert keeps is None and not generators
        assert m.forward(x).tobytes() == out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 64, 143, 4096])
    @pytest.mark.parametrize("dims", [[4, 3], [4, 7, 3]], ids=["linear", "hidden"])
    def test_pixel_forward_is_the_transposed_sigmoid(self, dims, n):
        rng = np.random.default_rng(n)
        m = MLP(dims, "pixel", seed=n)
        m.theta[:] = rng.normal(size=m.theta.size)  # non-zero biases too
        x = rng.uniform(0, 1, (n, 4))
        h = x
        for w, b in zip(m.weights[:-1], m.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        logits = h @ m.weights[-1] + m.biases[-1]
        expected = np.ascontiguousarray((1 / (1 + np.exp(-logits))).T).tobytes()
        # C-order rows, and the planar view that ``ensemble_predict`` hands over
        for rows in (x, np.ascontiguousarray(x.T).T):
            out = m.forward(rows)
            assert out.shape == (3, n) and out.flags.c_contiguous
            assert out.tobytes() == expected

    def test_forward_converts_its_input(self):
        m = MLP([3, 5, 1], "scalar", seed=0)
        rows = np.array([[1, -2, 3], [0, 4, -1]])
        expected = m._forward_cached(rows.astype(np.float64))[0].tobytes()
        for x in (rows.tolist(), rows, rows.astype(np.int32)):
            assert m.forward(x).tobytes() == expected
            assert m.predict_scalar(x).tobytes() == expected
        row = m._forward_cached(rows[:1].astype(np.float64))[0].tobytes()
        for x in (rows[0], rows[0].tolist()):
            assert m.forward(x).tobytes() == m.predict_scalar(x).tobytes() == row

    def test_dropout_disabled_at_inference(self):
        m = MLP([4, 16, 1], "scalar", dropout=0.5, seed=1)
        x = np.random.default_rng(2).normal(size=(5, 4))
        hidden = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        np.testing.assert_array_equal(m.predict_scalar(x), m.predict_scalar(x))
        np.testing.assert_allclose(m.predict_scalar(x),
                                   (hidden @ m.weights[1] + m.biases[1])[:, 0], atol=1e-12)


def ix_reference_features(v: np.ndarray) -> np.ndarray:
    """Feature stack from one integral image per radius read via np.ix_ gathers."""
    h, w = v.shape
    stack = [v]
    for r in (1, 2, 4):
        pad = np.zeros((h + 1, w + 1))
        pad[1:, 1:] = np.cumsum(np.cumsum(v, axis=0), axis=1)
        y0 = np.clip(np.arange(h) - r, 0, h)
        y1 = np.clip(np.arange(h) + r + 1, 0, h)
        x0 = np.clip(np.arange(w) - r, 0, w)
        x1 = np.clip(np.arange(w) + r + 1, 0, w)
        total = (pad[np.ix_(y1, x1)] - pad[np.ix_(y0, x1)]
                 - pad[np.ix_(y1, x0)] + pad[np.ix_(y0, x0)])
        stack.append(total / np.outer(y1 - y0, x1 - x0))
    return np.stack(stack, axis=-1).reshape(-1, 4)


class TestSegFeatures:
    @pytest.mark.parametrize("shape", [(64, 64), (11, 13), (5, 7), (3, 64), (64, 2),
                                       (8, 8), (1, 1)])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_bit_equal_to_gather_reference(self, shape, scale):
        img = np.random.default_rng(shape[0] * 100 + shape[1]).uniform(0, 1, shape) * scale
        expected = ix_reference_features(img).tobytes()
        for planar in (False, True):
            feats = seg_features(img, planar=planar)
            assert feats.shape == (shape[0] * shape[1], 4)
            assert feats.tobytes() == expected

    def test_box_mean_matches_brute_force(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (11, 13))
        feats = seg_features(img).reshape(11, 13, 4)
        np.testing.assert_allclose(feats[..., 0], img, atol=1e-12)
        for fi, r in enumerate((1, 2, 4), start=1):
            for y in range(11):
                for x in range(13):
                    window = img[max(y - r, 0): y + r + 1, max(x - r, 0): x + r + 1]
                    assert feats[y, x, fi] == pytest.approx(window.mean(), abs=1e-10)

    def test_segment_soft_shape_and_range(self):
        m = new_model("segmentation", 4, TrainConfig())
        out = segment_soft(m, np.random.default_rng(1).uniform(0, 1, (16, 16)))
        assert out.shape == (3, 16, 16) and out.flags.c_contiguous
        assert (out > 0).all() and (out < 1).all()


@pytest.mark.parametrize("shape", [(64, 64), (11, 13), (1, 1)])
def test_planar_features_are_the_rows_transposed(shape):
    img = np.random.default_rng(shape[1]).uniform(0, 1, shape)
    rows, planar = seg_features(img), seg_features(img, planar=True)
    assert rows.flags.c_contiguous and planar.T.flags.c_contiguous
    assert planar.shape == rows.shape and planar.tobytes() == rows.tobytes()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestDiceLoss:
    def test_perfect_overlap_near_zero(self):
        y = np.zeros((3, 4, 4))
        y[0, :2, :2] = 1
        loss, _ = weighted_dice_loss(y, y, weights=W1)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_disjoint_is_one(self):
        y = np.zeros((3, 4, 4))
        yhat = np.zeros((3, 4, 4))
        y[0, 0, 0] = 1
        yhat[0, 3, 3] = 1
        loss, _ = weighted_dice_loss(y, yhat, weights=W1)
        assert loss == pytest.approx(1.0, abs=1e-6)

    def test_half_overlap_unit_example(self):
        y = np.zeros((3, 4, 4))
        yhat = np.zeros((3, 4, 4))
        y[0, 0, :4] = 1                  # 4 ground-truth pixels
        yhat[0, 0, 2:4] = 1              # overlap 2
        yhat[0, 1, 0:2] = 1              # plus 2 disjoint -> 4 predicted
        loss, _ = weighted_dice_loss(y, yhat, weights=W1)
        assert loss == pytest.approx(1.0 - 2.0 * 2.0 / 8.0, abs=1e-6)

    def test_all_zero_weights_rejected(self):
        y = np.zeros((3, 4, 4))
        with pytest.raises(ValueError):
            weighted_dice_loss(y, y, weights=np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_dice_loss(np.zeros((3, 4, 4)), np.zeros((3, 5, 5)))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, (3, 5, 5)).astype(float)
        yhat = rng.uniform(0, 1, (3, 5, 5))
        perm = rng.permutation(25)
        yp = y.reshape(3, 25)[:, perm].reshape(3, 5, 5)
        php = yhat.reshape(3, 25)[:, perm].reshape(3, 5, 5)
        a, _ = weighted_dice_loss(y, yhat)
        b, _ = weighted_dice_loss(yp, php)
        assert a == pytest.approx(b, abs=1e-12)


class TestClassWeights:
    def test_empty_channel_value(self):
        w = class_weights(np.zeros((3, 64, 64)))
        np.testing.assert_allclose(w, np.log(4096.0), atol=1e-10)
        assert w[0] == pytest.approx(8.3178, abs=1e-4)

    def test_equal_counts_equal_weights(self):
        y = np.zeros((3, 8, 8))
        y[:, 0, :3] = 1
        w = class_weights(y)
        assert w[0] == w[1] == w[2]

    def test_rarer_class_weighs_more(self):
        y = np.zeros((3, 8, 8))
        y[0, 0, 0] = 1
        y[1, :4, :4] = 1
        w = class_weights(y)
        assert w[0] > w[1]


class TestFocalAndBce:
    def test_focal_unit_examples(self):
        y, yhat = uniform_masks(1.0, 0.5)
        assert focal_loss(y, yhat)[0] == pytest.approx(0.5 * np.log(2), abs=1e-9)
        y, yhat = uniform_masks(0.0, 0.9)
        assert focal_loss(y, yhat)[0] == pytest.approx(0.9 * -np.log(0.1), abs=1e-9)
        y, yhat = uniform_masks(1.0, 1.0)
        assert focal_loss(y, yhat)[0] == pytest.approx(0.0, abs=1e-5)

    def test_bce_unit_examples(self):
        y, yhat = uniform_masks(1.0, 0.5)
        assert bce_loss(y, yhat)[0] == pytest.approx(np.log(2), abs=1e-9)
        y, yhat = uniform_masks(0.0, 0.9)
        assert bce_loss(y, yhat)[0] == pytest.approx(-np.log(0.1), abs=1e-9)
        y = np.zeros((3, 4, 4))
        y[1, 1, 1] = 1
        assert bce_loss(y, y)[0] == pytest.approx(0.0, abs=1e-5)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_focal_below_bce_both_branches(self, p):
        # positives: (1-p)(-log p) <= -log p; negatives: p(-log(1-p)) <= -log(1-p)
        for y_val in (0.0, 1.0):
            y, yhat = uniform_masks(y_val, p)
            assert focal_loss(y, yhat)[0] <= bce_loss(y, yhat)[0] + 1e-12


class TestTotalLossAndSmoothL1:
    def test_alpha_zero_equals_dice(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, (3, 6, 6)).astype(float)
        yhat = rng.uniform(0, 1, (3, 6, 6))
        total, tgrad = seg_total_loss(y, yhat, aux="bce", alpha=0.0)
        dice, dgrad = weighted_dice_loss(y, yhat)
        assert total == pytest.approx(dice, abs=1e-12)
        np.testing.assert_allclose(tgrad, dgrad, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, (3, 6, 6)).astype(float)
        yhat = rng.uniform(0.1, 0.9, (3, 6, 6))
        total, tgrad = seg_total_loss(y, yhat, aux="focal", alpha=0.5)
        dice, dgrad = weighted_dice_loss(y, yhat)
        aux, agrad = focal_loss(y, yhat)
        assert total == pytest.approx(dice + 0.5 * aux, abs=1e-12)
        np.testing.assert_allclose(tgrad, dgrad + 0.5 * agrad, atol=1e-12)

    def test_smooth_l1_values(self):
        assert smooth_l1(1.0, 1.0)[0] == 0.0
        assert smooth_l1(1.5, 1.0)[0] == pytest.approx(0.125)
        assert smooth_l1(3.0, 1.0)[0] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# optimizer and training
# ---------------------------------------------------------------------------

class TestTraining:
    def test_adamw_decoupled_decay_shrinks_params(self):
        p = np.array([10.0])
        opt = AdamW(p, lr=0.0 + 1e-12, weight_decay=0.1)
        opt.step(np.array([0.0]))
        assert p[0] < 10.0  # decay applies even with (near) zero gradient step

    def test_separable_toy_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        feats = np.concatenate([rng.normal(-2.0, 0.3, (30, 2)),
                                rng.normal(2.0, 0.3, (30, 2))])
        labels = [0] * 30 + [1] * 30
        data = Table("grading", range(60), feats, labels)
        m = MLP([2, 16, 1], "scalar", seed=0)
        cfg = TrainConfig(lr=5e-3, epochs=200, batch_size=16, dropout=0.0, seed=0)
        train(m, data, cfg)
        preds = regressor_class(m.predict_scalar(feats))
        assert (preds == np.array(labels)).mean() == 1.0

    def test_zero_epochs_returns_initial_parameters(self):
        data = gen_ordinal_dataset(40, seed=0)
        cfg = TrainConfig(epochs=0, seed=3)
        fresh = new_model("grading", 8, cfg)
        trained = fit("grading", data, cfg)
        assert fresh.theta.tobytes() == trained.theta.tobytes()

    def test_same_seed_identical_parameters(self):
        data = gen_ordinal_dataset(40, seed=1)
        cfg = TrainConfig(epochs=10, seed=5, lr=1e-3)
        a = fit("grading", data, cfg)
        b = fit("grading", data, cfg)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_loss_nonincreasing_on_fixed_batch(self):
        # full-batch smooth-L1 descent, first 10 steps, 20 seeded trials
        good = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(16, 4))
            t = rng.normal(size=16)
            m = MLP([4, 8, 1], "scalar", dropout=0.0, seed=seed)
            opt = AdamW(m.theta, lr=1e-3, weight_decay=1e-2)
            losses = []
            for _ in range(10):
                out, cache = m._forward_cached(x)
                loss, grad = smooth_l1(out, t)
                losses.append(loss)
                opt.step(m.backward(cache, grad[:, None]))
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                good += 1
        assert good >= 19  # >= 95% of trials

    def test_segmentation_training_improves_loss(self):
        data = gen_seg_dataset(4, 32, seed=0)
        cfg0 = TrainConfig(epochs=0, seed=0)
        cfg = TrainConfig(lr=0.2, epochs=20, batch_size=4, seed=0, aux="bce")

        def total_loss(m):
            vals = []
            for s in data.samples:
                soft = segment_soft(m, s.image)
                vals.append(seg_total_loss(s.masks.astype(float), soft)[0])
            return float(np.mean(vals))

        before = total_loss(fit("segmentation", data, cfg0))
        after = total_loss(fit("segmentation", data, cfg))
        assert after < before

    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
    @pytest.mark.parametrize("aux", ["bce", "focal"])
    def test_segmenter_bit_equal_to_loss_reference(self, aux, alpha, augmented):
        data = gen_seg_dataset(5, 32, seed=4)
        # batch 2 does not divide the 5 images: the last batch is short
        cfg = TrainConfig(lr=0.2, epochs=3, batch_size=2, aux=aux, alpha=alpha, seed=6,
                          augment=augmented)
        trained = fit("segmentation", data, cfg)
        expected = reference_segmenter_fit(data, cfg)
        assert trained.theta.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("aux", ["bce", "focal"])
    def test_segmenter_bit_equal_to_loss_reference_at_edge_weights(self, aux, augmented):
        # a full channel (w < 0), one covering all pixels but one (w = 0, so
        # -2w = -0.0) and an empty one, rotated over three of the images
        data = gen_seg_dataset(5, 32, seed=4)
        samples = list(data.samples)
        for i, masks in enumerate(edge_mask_sets(32)):
            samples[i] = Sample(samples[i].id, image=samples[i].image, masks=masks)
        data = Dataset(tuple(samples))
        cfg = TrainConfig(lr=0.2, epochs=3, batch_size=2, aux=aux, alpha=0.5, seed=6,
                          augment=augmented)
        assert fit("segmentation", data, cfg).theta.tobytes() == \
            reference_segmenter_fit(data, cfg).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("aux", ["bce", "focal"])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_logit_grad_bytes_match_the_loss_gradient(self, aux, alpha, seed):
        # signed zeros included: with alpha 0 the w = 0 channel's gradient is
        # all zeros, whose signs a fit's parameters cannot show
        rng = np.random.default_rng(seed)
        masks = edge_mask_sets(8)[rng.integers(3)]
        if rng.random() < 0.5:  # perturb the edge channels now and then
            masks[:, rng.random((8, 8)) < 0.2] ^= 1
        if not class_weights(masks).any():
            masks[:, 4, 4] ^= 1
        out = rng.uniform(0.0, 1.0, (3, 64)) ** rng.choice([1.0, 40.0])  # near 0 too
        targets = models._seg_targets(masks, "sample 0")
        grad = models._seg_logit_grad(out, targets, aux, alpha, models._seg_step_buffers(64))
        _, grad_yhat = seg_total_loss(masks.astype(np.float64), out.reshape(3, 8, 8),
                                      aux=aux, alpha=alpha)
        rows = out.T
        expected = grad_yhat.reshape(3, 64).T * rows * (1.0 - rows)
        assert grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("batch_size", [16, 7])
    def test_scalar_head_bit_equal_to_per_array_reference(self, batch_size):
        data = gen_ordinal_dataset(45, seed=3)
        cfg = TrainConfig(lr=2e-3, epochs=4, batch_size=batch_size, dropout=0.3, seed=4)
        assert fit("grading", data, cfg).theta.tobytes() == \
            reference_scalar_fit(data, cfg).tobytes()

    @pytest.mark.parametrize("batch_size, dropout", [(1, 0.3), (64, 0.3), (16, 0.0)],
                             ids=["batch_1", "batch_over_n", "no_dropout"])
    def test_scalar_head_bit_equal_at_edge_batches(self, batch_size, dropout):
        data = gen_ordinal_dataset(45, seed=5)
        cfg = TrainConfig(lr=2e-3, epochs=3, batch_size=batch_size, dropout=dropout, seed=2)
        assert fit("grading", data, cfg).theta.tobytes() == \
            reference_scalar_fit(data, cfg).tobytes()

    def test_scalar_fit_leaves_the_generator_where_the_reference_does(self, generators):
        data = gen_ordinal_dataset(45, seed=3)
        cfg = TrainConfig(lr=2e-3, epochs=4, batch_size=7, dropout=0.3, seed=4)
        fit("grading", data, cfg)
        reference = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0x7EA1)))
        reference_scalar_fit(data, cfg, rng=reference)
        assert generators[derive_seed(cfg.seed, 0x7EA1)].bit_generator.state == \
            reference.bit_generator.state

    def test_deeper_net_with_short_last_batch_bit_equal_to_reference(self):
        rng = np.random.default_rng(8)
        data = Table("grading", range(11), rng.normal(size=(11, 5)), np.arange(11) % 3)
        cfg = TrainConfig(lr=2e-3, epochs=3, batch_size=4, seed=1)
        model = MLP([5, 7, 3, 1], "scalar", dropout=0.3, seed=2)
        expected = reference_scalar_fit(data, cfg, model=model)
        assert train(model, data, cfg).theta.tobytes() == expected.tobytes()

    def test_no_dropout_draws_only_the_batch_orders(self, generators):
        data = gen_ordinal_dataset(45, seed=5)
        cfg = TrainConfig(epochs=3, batch_size=16, dropout=0.0, seed=2)
        fit("grading", data, cfg)
        expected = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0x7EA1)))
        for _ in range(cfg.epochs):
            expected.permutation(len(data))
        assert generators[derive_seed(cfg.seed, 0x7EA1)].bit_generator.state == \
            expected.bit_generator.state

    def test_checkpoint_independent_of_raster_layout(self, tmp_path):
        data = gen_seg_dataset(4, 32, seed=2)

        def layouts(make):
            """The data set rebuilt from rasters in the given memory layout."""
            return Dataset(tuple(
                Sample(s.id, image=make(s.image),
                       masks=make(s.masks))
                for s in data.samples))

        def transposed_view(a):  # C-ordered values behind a transposed view
            return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)

        for augmented in (False, True):
            cfg = TrainConfig(lr=0.2, epochs=3, batch_size=2, seed=1, augment=augmented)
            written = set()
            for make in (np.ascontiguousarray, np.asfortranarray, transposed_view):
                save_checkpoint(tmp_path / "m.ckpt", fit("segmentation", layouts(make), cfg))
                written.add((tmp_path / "m.ckpt").read_bytes())
            assert len(written) == 1

    def test_nan_image_diverges_at_epoch_0(self):
        data = gen_seg_dataset(4, 32, seed=0)
        values = data.samples[2].image.copy()
        values[5, 7] = np.nan
        object.__setattr__(data.samples[2], "image", values)  # past Sample's check
        with pytest.raises(TrainingDivergedError) as exc:
            fit("segmentation", data, TrainConfig(lr=0.2, epochs=3, batch_size=2, seed=0))
        assert exc.value.epoch == 0

    def test_saturated_segmenter_raises(self):
        data = gen_seg_dataset(4, 32, seed=0)
        with pytest.raises(FloatingPointError):
            fit("segmentation", data, TrainConfig(lr=1e9, epochs=3, batch_size=4, seed=0))

    # SHA-256 of theta after these augmented fits. augment, seg_features and
    # the per-draw targets are written for speed, and every rewrite must keep
    # these bits; the SciPy reference checks augment alone. They hold for
    # NumPy 2.4 on x86-64 (the sigmoid's exp and gamma's power are NumPy's own).
    AUGMENTED_FIT_DIGESTS = {
        32: "a10465d76d995db6e4816d1a854d9fedb1f21e6c51046bbc2dee05ac2d28e957",
        33: "4147d940a4b3bcd806d3f499d8fbe357ac9a57188f9de8ff9d9375149f021ec2",
        64: "2618c486ab83531e12551be8636e2b8a24109a628d9bbae767017859323a93cd",
    }

    @pytest.mark.parametrize("size", sorted(AUGMENTED_FIT_DIGESTS))
    def test_augmented_fit_keeps_its_bytes(self, size):
        cfg = TrainConfig(lr=0.2, epochs=3, batch_size=4, augment=True, seed=5)
        theta = fit("segmentation", gen_seg_dataset(6, size, seed=21), cfg).theta
        assert hashlib.sha256(theta.tobytes()).hexdigest() == self.AUGMENTED_FIT_DIGESTS[size]

    def test_all_zero_class_weights_name_the_sample(self):
        with pytest.raises(DataError, match="^sample 40: all-zero class weights"):
            fit("segmentation", all_zero_weight_data(), TrainConfig(lr=0.2, epochs=1, seed=0))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_augmented_fit_checks_class_weights_before_epoch_0(self, epochs):
        cfg = TrainConfig(lr=0.2, epochs=epochs, seed=0, augment=True)
        with pytest.raises(DataError, match="^sample 40: all-zero class weights"):
            fit("segmentation", all_zero_weight_data(), cfg)

    def test_degenerate_augmented_draw_names_the_sample(self, monkeypatch):
        data = gen_seg_dataset(4, 32, seed=0)
        victim = data.samples[2]
        degenerate = np.ones((3, 32, 32), dtype=np.uint8)
        degenerate[:, 0, 0] = 0

        def draw(values, channels, rng):
            return values.copy(), degenerate if values is victim.image else channels

        monkeypatch.setattr(models, "augment", draw)
        cfg = TrainConfig(lr=0.2, epochs=2, batch_size=2, seed=0, augment=True)
        with pytest.raises(DataError, match=f"^sample {victim.id}, augmented at epoch 0: "
                                            "all-zero class weights"):
            fit("segmentation", data, cfg)

    @pytest.mark.parametrize("lr", [1e30, 1e200, 1e306])
    def test_diverging_scalar_fit_raises_without_warnings(self, lr):
        # the step computes a loss only past its overflow bound; it must
        # still fail at the mini-batch of a reference computing every loss,
        # with its message
        data = gen_ordinal_dataset(45, seed=3)
        for batch_size in (1, 16, 64):
            cfg = TrainConfig(lr=lr, epochs=12, batch_size=batch_size, seed=0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrainingDivergedError) as exc:
                    fit("grading", data, cfg)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(TrainingDivergedError) as ref:
                    reference_scalar_fit(data, cfg)
            assert (exc.value.epoch, str(exc.value)) == (ref.value.epoch, str(ref.value))
            if batch_size == 16:
                assert "non-finite training loss" in str(exc.value)

    def test_batch_past_the_overflow_bound_computes_its_loss(self, monkeypatch):
        # one row's features are 1e160: the residual of each batch holding it
        # squares past the float64 range, but its loss is finite
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(45, 8))
        feats[17] *= 1e160
        data = Table("grading", range(45), feats, np.arange(45) % 3)
        cfg = TrainConfig(lr=2e-3, epochs=3, batch_size=16, seed=1)
        losses = []

        def spy(pred, target):
            loss, grad = smooth_l1(pred, target)
            losses.append(loss)
            return loss, grad

        monkeypatch.setattr(models, "smooth_l1", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_scalar_fit(data, cfg)
            assert fit("grading", data, cfg).theta.tobytes() == expected.tobytes()
        # the batch holding the row, once per epoch, and no other
        assert len(losses) == cfg.epochs and all(1e150 < v < np.inf for v in losses)

    def test_scalar_fit_whose_last_step_overflows_raises(self):
        # one step: a finite loss, then AdamW's decay overflows every weight
        data = gen_ordinal_dataset(45, seed=3)
        with pytest.raises(TrainingDivergedError, match="non-finite parameters at epoch 0"):
            fit("grading", data, TrainConfig(lr=1e200, epochs=1, batch_size=64, seed=0))


def all_zero_weight_data() -> Dataset:
    """Two 8x8 samples, ids 40 and 41, whose every mask channel covers 63 of
    64 pixels: each class weight is log(64 / 64) = 0."""
    masks = np.ones((3, 8, 8), dtype=np.uint8)
    masks[:, 0, 0] = 0
    rng = np.random.default_rng(0)
    return Dataset(tuple(Sample(id=40 + i, image=rng.uniform(0, 1, (8, 8)),
                                masks=masks) for i in range(2)))


def edge_mask_sets(size: int) -> list[np.ndarray]:
    """Three (3, size, size) mask sets whose channels are, in turn, full
    (w < 0), all pixels but one (w = 0) and empty (w = log N)."""
    full = np.ones((size, size), dtype=np.uint8)
    but_one = full.copy()
    but_one[size // 2, 1] = 0
    empty = np.zeros_like(full)
    sets = [np.stack([full, but_one, empty]), np.stack([empty, full, but_one]),
            np.stack([but_one, empty, full])]
    w = class_weights(sets[0])
    assert w[0] < 0.0 and w[1] == 0.0 and w[2] > 0.0
    return sets


class PerArrayAdamW:
    """The AdamW step run array by array over separate parameter arrays."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.wd, self.eps = params, lr, weight_decay, eps
        self.b1, self.b2 = betas
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p -= self.lr * self.wd * p


def flat_parameters(weights, biases) -> np.ndarray:
    """Separate layer arrays in the ``theta`` layout w0, b0, w1, b1, ..."""
    return np.concatenate([a.ravel() for wb in zip(weights, biases) for a in wb])


def reference_scalar_fit(data, cfg, model=None, rng=None) -> np.ndarray:
    """Reference scalar-head trainer over separate per-layer arrays.

    It trains copies of ``model``'s layers (default: ``new_model``'s for
    ``cfg``) and draws from ``rng`` (default: the trainer's seed) one batch
    order per epoch and, with dropout, one mask per step and hidden layer.
    Each layer's gradient is ``acts.T @ g`` and ``g.sum(axis=0)``, and
    ``PerArrayAdamW`` steps the arrays one by one. Every step computes
    ``smooth_l1``'s loss and raises TrainingDivergedError at the first
    non-finite one, and after the last step on non-finite parameters.
    Returns the trained parameters in the ``theta`` layout; ``fit`` must
    match them byte for byte, and raise where this raises.
    """
    model = new_model(data.task, data.features.shape[1], cfg) if model is None else model
    ws = [w.copy() for w in model.weights]
    bs = [b.copy() for b in model.biases]
    opt = PerArrayAdamW(ws + bs, cfg.lr, cfg.weight_decay)
    rng = np.random.default_rng(derive_seed(cfg.seed, 0x7EA1)) if rng is None else rng
    p = model.dropout
    feats = data.features
    labels = data.labels.astype(np.float64)
    for epoch in range(cfg.epochs):
        for idx in _batches(len(data), cfg.batch_size, rng):
            acts, keeps = [feats[idx]], []
            for w, b in zip(ws[:-1], bs[:-1]):
                h = np.maximum(acts[-1] @ w + b, 0.0)
                keeps.append(1.0 if p == 0.0 else  # no draw without dropout
                             (rng.random(h.shape) >= p) / (1.0 - p))
                acts.append(h * keeps[-1])
            out = (acts[-1] @ ws[-1] + bs[-1])[:, 0]
            loss, g = smooth_l1(out, labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            g = g[:, None]
            grads_w, grads_b = [None] * len(ws), [None] * len(bs)
            for i in range(len(ws) - 1, -1, -1):
                grads_w[i] = acts[i].T @ g
                grads_b[i] = g.sum(axis=0)
                if i > 0:
                    g = g @ ws[i].T * keeps[i - 1] * (acts[i] > 0.0)
            opt.step(grads_w + grads_b)
    theta = flat_parameters(ws, bs)
    if not np.isfinite(theta).all():
        raise TrainingDivergedError(cfg.epochs - 1, "non-finite parameters")
    return theta


def reference_segmenter_fit(data, cfg) -> np.ndarray:
    """Reference segmenter trainer built from the public loss.

    Every image's gradient comes from ``seg_total_loss``, which also computes
    the loss value; the bias add and the sigmoid are broadcasts, the bias
    gradient is ``sum(axis=0)`` and ``PerArrayAdamW`` steps the weight and
    bias arrays separately. Returns the trained parameters in the ``theta``
    layout; ``fit`` must match them byte for byte.
    """
    model = new_model("segmentation", SEG_FEATURE_DIM, cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, 0x7EA1))
    w, b = model.weights[0].copy(), model.biases[0].copy()
    opt = PerArrayAdamW([w, b], cfg.lr, cfg.weight_decay)
    for _ in range(cfg.epochs):
        for idx in _batches(len(data), cfg.batch_size, rng):
            loss_sum, gw_sum, gb_sum = 0.0, np.zeros_like(w), np.zeros_like(b)
            for i in idx:
                img, masks = data.samples[i].image, data.samples[i].masks
                if cfg.augment:
                    img, masks = augment(img, masks, rng)
                f, y = seg_features(img), masks.astype(np.float64)
                out = 1.0 / (1.0 + np.exp(-(f @ w + b)))
                yhat = out.reshape(y.shape[1], y.shape[2], 3).transpose(2, 0, 1)
                loss, grad_yhat = seg_total_loss(y, yhat, aux=cfg.aux, alpha=cfg.alpha)
                loss_sum += loss
                g = grad_yhat.transpose(1, 2, 0).reshape(-1, 3) * out * (1.0 - out)
                gw_sum += f.T @ g
                gb_sum += g.sum(axis=0)
            assert np.isfinite(loss_sum)
            opt.step([gw_sum * (1.0 / len(idx)), gb_sum * (1.0 / len(idx))])
    return flat_parameters([w], [b])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        m = fit("grading", gen_ordinal_dataset(40, seed=0),
                TrainConfig(epochs=5, seed=2))
        save_checkpoint(tmp_path / "m.ckpt", m)
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert back.head == m.head and back.dims == m.dims
        assert back.dropout == m.dropout
        assert back.theta.tobytes() == m.theta.tobytes()
        save_checkpoint(tmp_path / "back.ckpt", back)
        assert (tmp_path / "back.ckpt").read_bytes() == (tmp_path / "m.ckpt").read_bytes()

    def test_payload_is_theta_in_layer_order(self, tmp_path):
        m = MLP([3, 4, 1], "scalar", seed=5)
        save_checkpoint(tmp_path / "m.ckpt", m)
        payload = (tmp_path / "m.ckpt").read_bytes()[-8 * m.theta.size:]
        assert payload == flat_parameters(m.weights, m.biases).astype("<f8").tobytes()

    def test_adamw_on_loaded_theta_moves_the_layers(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", MLP([4, 8, 1], "scalar", seed=3))
        m = load_checkpoint(tmp_path / "m.ckpt")
        before = [a.copy() for a in m.weights + m.biases]
        x = np.random.default_rng(0).normal(size=(5, 4))
        out = m.predict_scalar(x)
        AdamW(m.theta, lr=1e-2, weight_decay=0.0).step(np.ones_like(m.theta))
        for old, new in zip(before, m.weights + m.biases):
            assert np.all(new < old)
        assert not np.array_equal(m.predict_scalar(x), out)

    def test_pickle_round_trip_keeps_layers_views_into_theta(self):
        m = MLP([3, 4, 2], "pixel", dropout=0.25, seed=5)
        back = pickle.loads(pickle.dumps(m))
        assert (back.dims, back.head, back.dropout) == (m.dims, m.head, m.dropout)
        assert back.theta.tobytes() == m.theta.tobytes()
        assert all(np.shares_memory(a, back.theta) for a in back.weights + back.biases)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_trailing_garbage_rejected(self, tmp_path):
        m = MLP([2, 1], "scalar")
        save_checkpoint(tmp_path / "m.ckpt", m)
        blob = (tmp_path / "m.ckpt").read_bytes() + b"\x00"
        (tmp_path / "m.ckpt").write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("head,code", [("scalar", 1), ("pixel", 2)])
    def test_head_codes_stable(self, tmp_path, head, code):
        save_checkpoint(tmp_path / "m.ckpt", MLP([4, 3], head))
        assert (tmp_path / "m.ckpt").read_bytes()[4] == code

    def test_retired_softmax_head_code_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", MLP([4, 3], "pixel"))
        blob = bytearray((tmp_path / "m.ckpt").read_bytes())
        blob[4] = 0
        (tmp_path / "m.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="head code 0"):
            load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("keep", [0, 4, 10, 14, 18, 22, 30, 200])
    def test_truncated_rejected(self, tmp_path, keep):
        save_checkpoint(tmp_path / "m.ckpt", MLP([8, 32, 1], "scalar"))
        blob = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "m.ckpt").write_bytes(blob[:keep])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_distinct_seeds_distinct_parameters(self):
        a = new_model("grading", 8, TrainConfig(seed=0))
        b = new_model("grading", 8, TrainConfig(seed=1))
        assert not np.array_equal(a.theta, b.theta)
