"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Numeric tolerances are pinned in the asserts.
"""
import time

import numpy as np
import pytest

from drtricks.cli import main
from drtricks.data import (
    IRMA,
    NV,
    gen_ordinal_dataset,
    gen_seg_dataset,
    split_train_dev,
)
from drtricks.ensemble import ensemble_predict, train_deep_ensemble, tta_rotate_seg
from drtricks.metrics import (
    confusion_matrix,
    dsc,
    iou,
    mean_dsc,
    auc_macro_ovr,
    qwk,
)
from drtricks.models import (
    TrainConfig,
    bce_loss,
    derive_seed,
    fit,
    focal_loss,
    regressor_class,
    seg_total_loss,
    segment_soft,
    smooth_l1,
    weighted_dice_loss,
)
from drtricks.postprocess import (
    dilate,
    grade_postedit,
    postprocess_masks,
    quality_decision,
    reconcile_irma_nv,
)
from drtricks.ssl import naive_pl_train, rpl_train


def report(number: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


# ---------------------------------------------------------------------------
# criterion 1: loss values and gradients
# ---------------------------------------------------------------------------

def _fd_check(fn, x0, n_points, rng, h=1e-5):
    """Max relative error of the analytic gradient vs central differences."""
    worst = 0.0
    for _ in range(n_points):
        x = x0(rng)
        _, grad = fn(x)
        flat = x.reshape(-1)
        idx = int(rng.integers(flat.size))
        bump = np.zeros_like(flat)
        bump[idx] = h
        plus = fn((flat + bump).reshape(x.shape))[0]
        minus = fn((flat - bump).reshape(x.shape))[0]
        fd = (plus - minus) / (2 * h)
        ana = grad.reshape(-1)[idx]
        rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst


def test_criterion_1_loss_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(0)

    # unit examples, tolerance 1e-6
    y = np.zeros((3, 4, 4))
    yhat = np.zeros((3, 4, 4))
    y[0, 0, :4] = 1
    yhat[0, 0, 2:4] = 1
    yhat[0, 1, 0:2] = 1
    w1 = np.ones(3)
    exact = [
        (weighted_dice_loss(y, yhat, weights=w1)[0], 0.5),
        (weighted_dice_loss(y, y, weights=w1)[0], 0.0),
        (focal_loss(np.ones((3, 2, 2)), np.full((3, 2, 2), 0.5))[0], 0.5 * np.log(2)),
        (focal_loss(np.zeros((3, 2, 2)), np.full((3, 2, 2), 0.9))[0], -0.9 * np.log(0.1)),
        (bce_loss(np.ones((3, 2, 2)), np.full((3, 2, 2), 0.5))[0], np.log(2)),
        (bce_loss(np.zeros((3, 2, 2)), np.full((3, 2, 2), 0.9))[0], -np.log(0.1)),
        (smooth_l1(1.5, 1.0)[0], 0.125),
        (smooth_l1(3.0, 1.0)[0], 1.5),
        (smooth_l1(1.0, 1.0)[0], 0.0),
    ]
    values_ok = all(abs(a - b) <= 1e-6 for a, b in exact)

    # gradients vs central finite differences at 100 points per loss
    y_fixed = (np.random.default_rng(1).uniform(size=(3, 5, 5)) < 0.3).astype(float)
    target = np.random.default_rng(2).normal(size=12)

    def rand_soft(r):
        return r.uniform(0.05, 0.95, (3, 5, 5))

    def rand_pred(r):
        p = r.normal(size=12)
        # keep away from the smooth-L1 kink at |d| = beta
        p = np.where(np.abs(np.abs(p - target) - 1.0) < 1e-3, p + 0.01, p)
        return p

    checks = [
        _fd_check(lambda ph: weighted_dice_loss(y_fixed, ph), rand_soft, 100, rng),
        _fd_check(lambda ph: focal_loss(y_fixed, ph), rand_soft, 100, rng),
        _fd_check(lambda ph: bce_loss(y_fixed, ph), rand_soft, 100, rng),
        _fd_check(lambda ph: seg_total_loss(y_fixed, ph, aux="focal", alpha=0.5),
                  rand_soft, 100, rng),
        _fd_check(lambda ph: seg_total_loss(y_fixed, ph, aux="bce", alpha=0.5),
                  rand_soft, 100, rng),
        _fd_check(lambda p: smooth_l1(p, target), rand_pred, 100, rng),
    ]
    grads_ok = max(checks) < 1e-4
    elapsed = time.monotonic() - start
    report(1, f"loss values 1e-6, gradient rel err {max(checks):.2e} < 1e-4, "
              f"{elapsed:.1f}s < 10s",
           values_ok and grads_ok and elapsed < 10.0)


# ---------------------------------------------------------------------------
# criterion 2: metric oracles
# ---------------------------------------------------------------------------

def _count_dsc(p, g):
    inter = int((p & g).sum())
    tot = int(p.sum()) + int(g.sum())
    return 1.0 if tot == 0 else 2.0 * inter / tot


def _count_iou(p, g):
    union = int((p | g).sum())
    return 1.0 if union == 0 else int((p & g).sum()) / union


def _direct_kappa(cm):
    cm = np.asarray(cm, dtype=float)
    n = cm.sum()
    c = cm.shape[0]
    row, col = cm.sum(axis=1), cm.sum(axis=0)
    obs = sum(((i - j) ** 2) / ((c - 1) ** 2) * cm[i, j] / n
              for i in range(c) for j in range(c))
    exp = sum(((i - j) ** 2) / ((c - 1) ** 2) * row[i] * col[j] / (n * n)
              for i in range(c) for j in range(c))
    return 1.0 - obs / exp


def _pairwise_auc(scores, positives):
    wins = 0.0
    pos = scores[positives]
    neg = scores[~positives]
    for sp in pos:
        for sn in neg:
            wins += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return wins / (len(pos) * len(neg))


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(10)
    overlap_ok = True
    for _ in range(200):
        p = rng.integers(0, 2, (8, 8)).astype(bool)
        g = rng.integers(0, 2, (8, 8)).astype(bool)
        if rng.random() < 0.05:
            p[:] = g[:] = False
        overlap_ok &= abs(dsc(p, g) - _count_dsc(p, g)) <= 1e-9
        overlap_ok &= abs(iou(p, g) - _count_iou(p, g)) <= 1e-9

    kappa_ok = True
    count = 0
    while count < 200:
        cm = rng.integers(0, 20, (3, 3))
        marg = (cm.sum(axis=0) > 0).sum() > 1 or (cm.sum(axis=1) > 0).sum() > 1
        if cm.sum() == 0 or not marg:
            continue
        try:
            kappa_ok &= abs(qwk(cm) - _direct_kappa(cm)) <= 1e-9
        except Exception:
            continue
        count += 1

    auc_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 51))
        scores = np.round(rng.normal(size=n), 1)  # rounded to force ties
        truths = rng.integers(0, 3, n)
        truths[:3] = [0, 1, 2]
        full = np.stack([-np.abs(scores - c) for c in range(3)], axis=1)
        val, skipped = auc_macro_ovr(full, truths)
        per_class = [_pairwise_auc(full[:, c], truths == c)
                     for c in range(3) if c not in skipped]
        auc_ok &= val == np.mean(per_class)  # exact equality required

    report(2, "DSC/IoU vs counts 1e-9, QWK vs direct kappa 1e-9, "
              "AUC == pairwise oracle",
           overlap_ok and kappa_ok and auc_ok)


# ---------------------------------------------------------------------------
# criteria 3 and 4: RPL ordering and ensemble gain (shared experiment)
# ---------------------------------------------------------------------------

N_SEEDS = 20


@pytest.fixture(scope="module")
def ordinal_arms():
    start = time.monotonic()
    results = {"supervised": [], "pl": [], "rpl": [], "ensemble": []}
    for seed in range(N_SEEDS):
        labeled = gen_ordinal_dataset(60, noise=0.5, dim=8,
                                      seed=derive_seed(seed, 1))
        unlabeled = gen_ordinal_dataset(600, noise=0.5, dim=8, labeled=False,
                                        seed=derive_seed(seed, 2),
                                        id_offset=10_000)
        train, dev = split_train_dev(labeled, 0.8, seed=derive_seed(seed, 3))
        cfg = TrainConfig(epochs=30, lr=2e-3, batch_size=16, seed=seed)
        feats = dev.features
        truths = dev.labels.tolist()

        def dev_qwk(raw):
            preds = regressor_class(np.atleast_1d(raw))
            return qwk(confusion_matrix(truths, list(preds)))

        supervised = fit("grading", train, cfg)
        results["supervised"].append(dev_qwk(supervised.predict_scalar(feats)))
        pl = naive_pl_train(train, unlabeled, cfg)
        results["pl"].append(dev_qwk(pl.predict_scalar(feats)))
        rpl = rpl_train(train, unlabeled, cfg, 5)
        results["rpl"].append(dev_qwk(rpl.predict_scalar(feats)))
        ens = train_deep_ensemble(train, cfg, k=5, base_seed=derive_seed(seed, 10))
        results["ensemble"].append(dev_qwk(ensemble_predict(ens, feats)))
    results["elapsed"] = time.monotonic() - start
    return {k: (np.mean(v) if k != "elapsed" else v) for k, v in results.items()}


def test_criterion_3_rpl_ordering(ordinal_arms):
    sup = ordinal_arms["supervised"]
    pl = ordinal_arms["pl"]
    rpl = ordinal_arms["rpl"]
    elapsed = ordinal_arms["elapsed"]
    ok = (0.5 <= sup <= 0.8 and rpl >= pl and rpl - sup >= 0.02
          and elapsed < 300.0)
    report(3, f"mean dev-QWK supervised {sup:.4f} in [0.5, 0.8]; "
              f"RPL {rpl:.4f} >= PL {pl:.4f}; RPL-sup {rpl - sup:+.4f} >= +0.02; "
              f"{elapsed:.0f}s < 300s", ok)


def test_criterion_4_ensemble_gain(ordinal_arms):
    sup = ordinal_arms["supervised"]
    ens = ordinal_arms["ensemble"]
    report(4, f"mean dev-QWK 5-member ensemble {ens:.4f} >= single {sup:.4f}",
           ens >= sup)


# ---------------------------------------------------------------------------
# criterion 5: rotation-TTA alignment
# ---------------------------------------------------------------------------

def test_criterion_5_tta_alignment():
    def equivariant_oracle(img):
        v = np.asarray(img, dtype=np.float64)
        return np.stack([np.clip(v, 0, 1), np.clip(v ** 2, 0, 1),
                         np.clip(1.0 - v, 0, 1)])

    rng = np.random.default_rng(5)
    ok = True
    for _ in range(20):
        img = rng.uniform(0, 1, (16, 16))
        ok &= np.array_equal(tta_rotate_seg(equivariant_oracle, img),
                             equivariant_oracle(img))
    report(5, "rotation TTA reproduces an equivariant oracle exactly "
              "on 20 images", ok)


# ---------------------------------------------------------------------------
# criterion 6: post-processing decision rules
# ---------------------------------------------------------------------------

def test_criterion_6_postprocess_rules():
    table_ok = (quality_decision(0.53) == 0 and quality_decision(0.54) == 1
                and quality_decision(1.49) == 1 and quality_decision(1.5) == 2)

    def masks_with(nv=0, np_count=0):
        m = np.zeros((3, 8, 8), dtype=np.uint8)
        m[1].flat[:np_count] = 1
        m[2].flat[:nv] = 1
        return m

    postedit_ok = (grade_postedit(1, masks_with(nv=1)) == 2
                   and grade_postedit(1, masks_with()) == 0
                   and grade_postedit(1, masks_with(np_count=4)) == 1
                   and grade_postedit(2, masks_with(nv=2)) == 2
                   and grade_postedit(0, masks_with()) == 0)

    rng = np.random.default_rng(6)
    reconcile_ok = True
    for _ in range(100):
        soft = rng.uniform(0, 1, (3, 6, 6))
        binary = rng.integers(0, 2, (3, 6, 6)).astype(np.uint8)
        out = reconcile_irma_nv(soft, binary)
        reconcile_ok &= not (out[IRMA] & out[NV]).any()

    def brute_dilate(mask, k):
        h, w = mask.shape
        r = k // 2
        out = np.zeros_like(mask)
        for yy in range(h):
            for xx in range(w):
                out[yy, xx] = mask[max(yy - r, 0): yy + r + 1,
                                   max(xx - r, 0): xx + r + 1].max()
        return out

    dilate_ok = True
    for _ in range(50):
        m = (rng.uniform(size=(10, 12)) < 0.15).astype(np.uint8)
        for k in (1, 3, 5):
            dilate_ok &= np.array_equal(dilate(m, k), brute_dilate(m, k))

    report(6, "quality thresholds, grade post-edit table, IRMA/NV disjoint "
              "on 100 sets, dilation matches brute force on 50 masks",
           table_ok and postedit_ok and reconcile_ok and dilate_ok)


# ---------------------------------------------------------------------------
# criterion 7: ablation determinism
# ---------------------------------------------------------------------------

ABLATE_INI = """\
[run]
task = grading

[synth]
n_labeled = 40
n_unlabeled = 80

[train]
epochs = 8
lr = 2e-3
batch_size = 16

[pipeline]
ensemble_k = 2
rpl_rounds = 2
"""


def test_criterion_7_ablate_determinism(tmp_path):
    cfg = tmp_path / "abl.ini"
    cfg.write_text(ABLATE_INI)
    for d in ("first", "second"):
        code = main(["ablate", "--config", str(cfg), "--seeds", "0,1,2",
                     "--out", str(tmp_path / d)])
        assert code == 0
    a = (tmp_path / "first" / "ablation.csv").read_bytes()
    b = (tmp_path / "second" / "ablation.csv").read_bytes()
    report(7, "ablate run twice with the same seed list is byte-identical",
           a == b)


# ---------------------------------------------------------------------------
# criterion 8: segmentation pipeline gain
# ---------------------------------------------------------------------------

def test_criterion_8_segmentation_pipeline():
    raw_scores, full_scores = [], []
    for seed in range(10):
        train = gen_seg_dataset(40, 64, seed=100 + seed)
        dev = gen_seg_dataset(10, 64, seed=900 + seed)
        cfg = TrainConfig(lr=0.2, epochs=120, batch_size=8, seed=seed, aux="bce")
        single = fit("segmentation", train, cfg)
        ens = train_deep_ensemble(train, cfg, k=5, base_seed=seed * 10)
        predict = lambda img: ensemble_predict(ens, img)
        raw, full = [], []
        for s in dev.samples:
            soft = segment_soft(single, s.image)
            raw.append(mean_dsc((soft >= 0.5).astype(np.uint8), s.masks))
            esoft = tta_rotate_seg(predict, s.image)
            full.append(mean_dsc(postprocess_masks(esoft), s.masks))
        raw_scores.append(np.mean(raw))
        full_scores.append(np.mean(full))
    raw_mean = float(np.mean(raw_scores))
    full_mean = float(np.mean(full_scores))
    report(8, f"ensemble+rotation-TTA+post mean-DSC {full_mean:.4f} >= "
              f"raw single model {raw_mean:.4f} over 10 seeds",
           full_mean >= raw_mean)
