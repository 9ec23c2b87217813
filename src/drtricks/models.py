"""Small differentiable learners and their losses.

Desk-scale stand-ins for the full-resolution backbones: a one-hidden-layer
MLP regressor for the ordinal tasks and a per-pixel linear segmenter over a
small local-feature stack. Training uses mini-batch AdamW (decoupled weight
decay, constant learning rate).
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .augment import augment
from .data import NUM_CLASSES, DataError, Dataset, Table

EPS_CLAMP = 1e-7
DICE_EPS = 1e-6

# Head -> checkpoint code. The codes are part of the file format, so they never
# change; code 0 is retired and rejected on load.
_HEAD_CODES = {"scalar": 1, "pixel": 2}
HEADS = tuple(_HEAD_CODES)
_HEAD_BY_CODE = {code: head for head, code in _HEAD_CODES.items()}


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, message: str = "non-finite training loss"):
        super().__init__(f"{message} at epoch {epoch}")
        self.epoch = epoch


class CheckpointError(ValueError):
    """Malformed or incompatible model checkpoint."""


@dataclass
class TrainConfig:
    lr: float = 2e-4
    weight_decay: float = 1e-2
    batch_size: int = 8
    epochs: int = 150
    alpha: float = 0.5
    aux: str = "bce"
    seed: int = 0
    hidden: int = 32
    dropout: float = 0.2
    augment: bool = False  # segmentation only: one ``augment`` draw per image and epoch

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be positive and finite")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be non-negative and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be non-negative and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.aux not in ("bce", "focal"):
            raise ValueError("aux loss must be 'bce' or 'focal'")


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for sub-tasks (rounds, members, init)."""
    ss = np.random.SeedSequence((int(seed), *map(int, key)))
    return int(ss.generate_state(1)[0])


def round_half_away(x) -> np.ndarray:
    """Nearest integer with .5 rounded away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def regressor_class(raw) -> np.ndarray:
    """Class decision of a scalar regressor: round, then clamp to label range."""
    return np.clip(round_half_away(raw), 0, NUM_CLASSES - 1).astype(int)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

class MLP:
    """Fully connected net with ReLU hidden layers and a task head.

    Heads: ``scalar`` (one real output, the ordinal regressor) and ``pixel``
    (3 sigmoid outputs per feature row, used by the segmenter). A pixel
    head's ``forward`` returns them in the soft-mask layout (3, N), one
    contiguous row per channel; ``backward`` takes dLoss/dlogits as (N, 3).
    Dropout acts on hidden activations at training time only: the trainer
    draws the masks (``_dropout_masks``) and hands them to
    ``_forward_cached``, and ``forward`` applies none.
    ``weights[i]`` and ``biases[i]`` are views into one parameter vector
    ``theta``, laid out ``w0, b0, w1, b1, ...`` as in the checkpoint.
    ``backward`` writes the gradient into one vector of the same layout,
    allocated with the model and reused by every call.
    """

    def __init__(self, dims: list[int], head: str, dropout: float = 0.0, seed: int = 0):
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        if len(dims) < 2:
            raise ValueError("need at least input and output dimensions")
        self.dims = list(int(d) for d in dims)
        self.head = head
        self.dropout = float(dropout)
        rng = np.random.default_rng(seed)
        self.theta = np.zeros(sum(din * dout + dout
                                  for din, dout in zip(self.dims[:-1], self.dims[1:])))
        self.weights, self.biases = self._split(self.theta)
        self._grad = np.empty_like(self.theta)
        self._grads_w, self._grads_b = self._split(self._grad)
        for w in self.weights:
            w[:] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])

    def __reduce__(self):
        # Pickled as is, the layer views would come back as copies detached
        # from theta; send theta alone and rebuild the views around it.
        return _rebuilt, (self.dims, self.head, self.dropout, self.theta)

    def _split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``theta``."""
        weights, biases, at = [], [], 0
        for din, dout in zip(self.dims[:-1], self.dims[1:]):
            weights.append(flat[at : at + din * dout].reshape(din, dout))
            biases.append(flat[at + din * dout : at + din * dout + dout])
            at += din * dout + dout
        return weights, biases

    # -- forward ------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self._forward_cached(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        return out

    def _forward_cached(self, x: np.ndarray, keeps=None):
        """Output and backward cache for ``x``, a 2-D float64 array (``forward``
        converts other inputs); ``keeps`` holds one dropout mask per hidden
        layer (see ``_dropout_masks``), or is None for no dropout.

        The masks are drawn by the trainer, never here.
        """
        acts = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            if keeps is not None:
                h *= keeps[i]
            acts.append(h)
        if self.head == "scalar":
            h = h @ self.weights[-1]
            h += self.biases[-1]
            return h[:, 0], (acts, keeps)
        # pixel: W^T h^T is the (3, N) soft-mask layout, with the bits of
        # h @ W transposed. The sigmoid 1 / (1 + exp(-z)) runs in place on
        # -z = (-W)^T h^T - b, one contiguous row per channel: rounding is
        # sign-symmetric, so these are the bits of -(h @ W + b) but a zero's sign.
        z = np.negative(self.weights[-1]).T @ h.T
        for zj, bj in zip(z, self.biases[-1]):
            zj -= bj
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
        return z, (acts, keeps)

    def _dropout_masks(self, sizes, rng: np.random.Generator
                       ) -> Optional[list[list[np.ndarray]]]:
        """Dropout masks for consecutive batches of ``sizes`` rows, from one draw.

        Each batch gets one (rows, width) mask per hidden layer, the kept
        units scaled by 1 / (1 - p). ``Generator.random`` fills consecutive
        doubles from one stream, so the draw fills the masks batch by batch
        and, within a batch, layer by layer, with the values one draw per
        layer and batch would give in that order. None without dropout or
        without a hidden layer: then nothing is drawn.
        """
        widths = self.dims[1:-1]
        if self.dropout == 0.0 or not widths:
            return None
        keep = (rng.random(sum(sizes) * sum(widths)) >= self.dropout) / (1.0 - self.dropout)
        masks, at = [], 0
        for rows in sizes:
            batch = []
            for width in widths:
                batch.append(keep[at : at + rows * width].reshape(rows, width))
                at += rows * width
            masks.append(batch)
        return masks

    def backward(self, cache, grad_logits: np.ndarray) -> np.ndarray:
        """Gradient of ``theta`` (one vector in its layout) given dLoss/dlogits.

        The vector is the model's own buffer: the next call overwrites it.
        """
        acts, keeps = cache
        grads_w, grads_b = self._grads_w, self._grads_b
        g = grad_logits
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            np.matmul(acts[i].T, g, out=grads_w[i])
            # einsum is 3-4x faster than sum(axis=0) and adds the rows in the
            # same order for a few columns, but not for one: pixel head only.
            if i == last and self.head == "pixel":
                np.einsum("ij->j", g, out=grads_b[i])
            else:
                np.add.reduce(g, axis=0, out=grads_b[i])  # ``g.sum`` without its wrapper
            if i > 0:
                g = g @ self.weights[i].T
                if keeps is not None:
                    g *= keeps[i - 1]
                g *= acts[i] > 0.0
        return self._grad

    # -- convenience --------------------------------------------------------

    def predict_scalar(self, x: np.ndarray) -> np.ndarray:
        if self.head != "scalar":
            raise ValueError("predict_scalar requires a scalar head")
        return self.forward(x)


# ---------------------------------------------------------------------------
# segmentation features and prediction
# ---------------------------------------------------------------------------

SEG_FEATURE_RADII = (1, 2, 4)
SEG_FEATURE_DIM = 1 + len(SEG_FEATURE_RADII)


@functools.lru_cache(maxsize=8)
def _window_areas(h: int, w: int) -> np.ndarray:
    """Pixel count of every edge-clipped window, one (H, W) plane per radius."""
    def counts(n: int, r: int) -> np.ndarray:
        i = np.arange(n)
        return np.minimum(i + r + 1, n) - np.maximum(i - r, 0)

    areas = np.stack([np.outer(counts(h, r), counts(w, r)) for r in SEG_FEATURE_RADII])
    areas.flags.writeable = False
    return areas


def seg_features(image: np.ndarray, planar: bool = False) -> np.ndarray:
    """Per-pixel feature stack (H*W, 4): raw value plus box means r=1,2,4, as
    C-order rows, or with ``planar`` as the transposed view of (4, H*W) planes.

    Each box mean is the exact edge-clipped mean over the (2r+1)^2 window.
    One summed-area table serves every radius: NumPy's sequential running
    sums down the columns, then along the rows, each down a C-order array
    over pairs of lanes viewed as one complex number, whose addition is the
    two float additions (the same bits in half the steps). So the table is
    stored transposed, (W, H), with a margin of ``max(SEG_FEATURE_RADII)``
    on every side: zeros before, copies of the last row and column after,
    which clips every window corner. A window's four corners are four
    offsets into the flat table, each term one contiguous range of
    ``(W - 1) * stride + H`` entries. Training takes the rows (their layout
    sets ``MLP.backward``'s bits); ensembles the planes, shared by members.
    """
    v = np.asarray(image, dtype=np.float64)
    h, w = v.shape
    reach = max(SEG_FEATURE_RADII)
    cols = np.zeros((h, w + w % 2))
    cols[:, :w] = v
    np.add.accumulate(cols.view(np.complex128), axis=0, out=cols.view(np.complex128))
    stride = h + 1 + 2 * reach + h % 2
    table = np.zeros((w + 1 + 2 * reach, stride))
    inner = table[reach + 1 : reach + 1 + w, reach + 1 : reach + 1 + h + h % 2]
    inner[:, :h] = cols[:, :w].T
    np.add.accumulate(inner.view(np.complex128), axis=0, out=inner.view(np.complex128))
    table[reach + 1 + w :, reach + 1 : reach + 1 + h] = table[reach + w, reach + 1 : reach + 1 + h]
    table[reach + 1 :, reach + 1 + h :] = table[reach + 1 :, reach + h : reach + 1 + h]
    flat = table.ravel()
    n = (w - 1) * stride + h
    sums = np.empty(w * stride)
    total, box = sums[:n], sums.reshape(w, stride)[:, :h]
    areas = _window_areas(h, w)
    out = np.empty((SEG_FEATURE_DIM, h, w) if planar else (h, w, SEG_FEATURE_DIM))
    planes = out if planar else out.transpose(2, 0, 1)
    planes[0] = v
    for i, r in enumerate(SEG_FEATURE_RADII, start=1):
        lo, hi = reach - r, reach + r + 1
        # the image's bottom-right - top-right - bottom-left + top-left, in order
        np.subtract(flat[hi * stride + hi :][:n], flat[hi * stride + lo :][:n], out=total)
        total -= flat[lo * stride + hi :][:n]
        total += flat[lo * stride + lo :][:n]
        np.divide(box.T, areas[i - 1], out=planes[i])
    return out.reshape(SEG_FEATURE_DIM, -1).T if planar else out.reshape(-1, SEG_FEATURE_DIM)


def segment_soft(m: MLP, image: np.ndarray, feats: Optional[np.ndarray] = None) -> np.ndarray:
    """Soft lesion prediction for one image: a C-contiguous (3, H, W) array,
    the pixel head's (3, H*W) output reshaped.

    ``feats`` are the image's ``seg_features`` when the caller already has
    them: an ensemble computes them once and shares them across its members.
    """
    v = np.asarray(image, dtype=np.float64)
    out = m.forward(seg_features(v) if feats is None else feats)
    return out.reshape(NUM_CLASSES, v.shape[0], v.shape[1])


def new_model(task: str, in_dim: int, cfg: TrainConfig) -> MLP:
    """Fresh model for a task, initialized from cfg.seed."""
    init_seed = derive_seed(cfg.seed, 0xA11CE)
    if task == "segmentation":
        return MLP([SEG_FEATURE_DIM, NUM_CLASSES], "pixel", dropout=0.0, seed=init_seed)
    return MLP([in_dim, cfg.hidden, 1], "scalar", dropout=cfg.dropout, seed=init_seed)


# ---------------------------------------------------------------------------
# losses (each returns scalar loss and gradient wrt the prediction)
# ---------------------------------------------------------------------------

def _chan(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def class_weights(y) -> np.ndarray:
    """Inverse-frequency log weights: w_c = log(N_pix / (count_c + 1))."""
    yc = _chan(y)
    n_pix = yc.shape[1] * yc.shape[2]
    counts = yc.reshape(yc.shape[0], -1).sum(axis=1)
    return np.log(n_pix / (counts + 1.0))


def weighted_dice_loss(y, yhat, weights: Optional[np.ndarray] = None):
    """Class-weighted soft dice loss and its gradient wrt yhat."""
    yc, ph = _chan(y), _chan(yhat)
    if yc.shape != ph.shape:
        raise ValueError("mask shapes must match")
    w = class_weights(yc) if weights is None else np.asarray(weights, dtype=np.float64)
    if np.all(w == 0.0):
        raise ValueError("all-zero class weights make the dice denominator degenerate")
    wb = w[:, None, None]
    num = float(np.sum(wb * yc * ph))
    den = float(np.sum(wb * (yc + ph))) + DICE_EPS
    loss = 1.0 - 2.0 * num / den
    grad = -2.0 * wb * (yc * den - num) / (den * den)
    return loss, grad


def focal_loss(y, yhat):
    """Multi-label focal variant: -(1-p)log p for positives, -p log(1-p) otherwise."""
    yc, ph = _chan(y), np.clip(_chan(yhat), EPS_CLAMP, 1.0 - EPS_CLAMP)
    n = ph.size
    pos = -(1.0 - ph) * np.log(ph)
    neg = -ph * np.log(1.0 - ph)
    loss = float(np.sum(np.where(yc == 1.0, pos, neg))) / n
    dpos = np.log(ph) - (1.0 - ph) / ph
    dneg = -np.log(1.0 - ph) + ph / (1.0 - ph)
    grad = np.where(yc == 1.0, dpos, dneg) / n
    return loss, grad


def bce_loss(y, yhat):
    """Mean binary cross-entropy over pixels and channels."""
    yc, ph = _chan(y), np.clip(_chan(yhat), EPS_CLAMP, 1.0 - EPS_CLAMP)
    n = ph.size
    loss = float(-np.sum(yc * np.log(ph) + (1.0 - yc) * np.log(1.0 - ph))) / n
    grad = (ph - yc) / (ph * (1.0 - ph)) / n
    return loss, grad


def seg_total_loss(y, yhat, aux: str = "bce", alpha: float = 0.5,
                   weights: Optional[np.ndarray] = None):
    """Weighted dice plus alpha times the auxiliary (focal or bce) loss."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    dice, dice_grad = weighted_dice_loss(y, yhat, weights=weights)
    aux_fn = {"bce": bce_loss, "focal": focal_loss}[aux]
    aux_val, aux_grad = aux_fn(y, yhat)
    return dice + alpha * aux_val, dice_grad + alpha * aux_grad


def smooth_l1(pred, target):
    """Huber-style smooth L1 with beta 1 (mean over elements) and gradient wrt pred."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    d = p - t
    a = np.abs(d)
    small = a < 1.0
    vals = np.where(small, d * d / 2.0, a - 0.5)
    grads = np.where(small, d, np.sign(d))
    n = max(vals.size, 1)
    grads /= n
    return float(vals.sum()) / n, grads


# ---------------------------------------------------------------------------
# optimizer and training loop
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay, canonical moment constants.

    It updates one parameter vector in place (an ``MLP``'s ``theta``). Every
    operation is elementwise, so each element gets the bits it would get
    from a step over that element's layer alone.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, theta: np.ndarray, lr: float, weight_decay: float):
        self.theta = theta
        self.lr = lr
        self.wd = weight_decay
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self._step = np.empty_like(theta)  # the temporaries of ``step``
        self._denom = np.empty_like(theta)

    def step(self, grad: np.ndarray) -> None:
        """One update of ``theta``: ``m += (1 - b1) g``, ``v += (1 - b2) g g``,
        ``p -= lr (m / b1t) / (sqrt(v / b2t) + eps)``, ``p -= lr wd p``.

        The temporaries live in buffers allocated once per optimizer; the
        operations and their order are those of the expressions, and so are the bits.
        """
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        p, m, v, step, denom = self.theta, self.m, self.v, self._step, self._denom
        m *= self.b1
        np.multiply(grad, 1.0 - self.b1, out=step)
        m += step
        v *= self.b2
        np.multiply(grad, 1.0 - self.b2, out=step)
        step *= grad
        v += step
        np.divide(m, b1t, out=step)
        step *= self.lr
        np.divide(v, b2t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        p -= step
        np.multiply(p, self.lr * self.wd, out=step)
        p -= step


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train(model: MLP, data: Dataset | Table, cfg: TrainConfig) -> MLP:
    """Mini-batch AdamW training; deterministic for a fixed cfg.seed.

    With ``cfg.augment`` the segmenter trains on one ``augment`` draw per
    image per epoch. Raises TrainingDivergedError at the first
    mini-batch with a non-finite loss (the regressor, whose step computes
    the loss only when it may not be finite) or a non-finite
    gradient (the segmenter, whose step computes no loss value; an image
    holding a NaN fails at epoch 0), and, for the segmenter,
    FloatingPointError on overflow.
    """
    if len(data) == 0:
        raise DataError("training data must be nonempty")
    rng = np.random.default_rng(derive_seed(cfg.seed, 0x7EA1))
    opt = AdamW(model.theta, cfg.lr, cfg.weight_decay)

    if model.head == "pixel":
        # A saturated sigmoid overflows in exp long before the clipped losses
        # turn non-finite, so overflow ends the run instead of warning.
        with np.errstate(over="raise"):
            _train_segmenter(model, data, cfg, opt, rng)
        return model

    if (data.labels < 0).any():
        raise DataError("training requires labeled samples")
    # A diverging fit overflows on its way to a non-finite loss, which ends
    # the run with TrainingDivergedError; NumPy's warnings on the way would
    # only print noise before that one-line failure.
    with np.errstate(over="ignore", invalid="ignore"):
        _train_scalar(model, data.features, data.labels.astype(np.float64), cfg, opt, rng)
    return model


def _train_scalar(model, feats, labels, cfg, opt, rng) -> None:
    """A step takes the gradient of ``smooth_l1`` from the residuals
    ``d = out - y``, with its bits, and no loss value. A finite ``d @ d``
    bounds every |d| by 1.34e154, so the loss, a sum of terms of at most |d|,
    is finite. Any other batch, one with a NaN too, computes the loss and
    raises where a step computing every loss would.
    """
    n, size = len(labels), cfg.batch_size
    starts = range(0, n, size)
    sizes = [min(size, n - start) for start in starts]
    for epoch in range(cfg.epochs):
        # The epoch's order, rows and dropout masks are drawn and gathered
        # once, and each step slices them. The draws are those of the
        # per-step loop: the permutation, then one mask per step and hidden
        # layer, in that order.
        order = rng.permutation(n)
        x, y = feats[order], labels[order]
        masks = model._dropout_masks(sizes, rng)
        for b, start in enumerate(starts):
            out, cache = model._forward_cached(x[start : start + size],
                                               None if masks is None else masks[b])
            d = out - y[start : start + size]
            if (not math.isfinite(d @ d)
                    and not math.isfinite(smooth_l1(out, y[start : start + size])[0])):
                raise TrainingDivergedError(epoch)
            # smooth_l1's where(|d| < 1, d, sign d) / rows, bit for bit
            d.clip(-1.0, 1.0, out=d)
            d /= sizes[b]
            opt.step(model.backward(cache, d[:, None]))
    # The last step can overflow after the last finite loss.
    if not np.isfinite(model.theta).all():
        raise TrainingDivergedError(cfg.epochs - 1, "non-finite parameters")


def _seg_targets(channels: np.ndarray, name: str, out: Optional[np.ndarray] = None) -> tuple:
    """Per-image constants of the segmenter step, built once per training image
    (once per draw when augmenting) from its (3, H, W) masks, each in the
    (3, H*W) layout of the pixel head's output.

    ``y`` is the mask stack, ``w`` the class weights, ``wy`` is ``w * y``,
    channel by channel, ``pos`` the flat indices of each channel's positive
    pixels, 8 bytes per positive (about 3 KB for a 64x64 image whose masks
    cover 3 % of it), and ``neg2w`` is ``-2 * w``; ``w`` and ``neg2w`` are
    lists of floats. ``y`` and ``wy`` are the two halves of ``out``, a
    (2, 3, H*W) array (a fresh one if None), which an augmented fit reuses
    for every draw. Masks whose every channel covers all pixels but one
    weigh every class 0, which leaves the dice loss undefined: a DataError
    that starts with ``name``.
    """
    if out is None:
        out = np.empty((2, NUM_CLASSES, channels[0].size))
    y, wy = out
    masks = y.reshape(channels.shape)
    np.copyto(masks, channels)
    w = class_weights(masks)
    if not w.any():
        raise DataError(f"{name}: all-zero class weights make the dice denominator"
                        " degenerate (every mask channel covers all pixels but one)")
    pos = [c.nonzero()[0] for c in np.not_equal(channels, 0).reshape(NUM_CLASSES, -1)]
    for wy_c, y_c, c in zip(wy, y, w):
        np.multiply(c, y_c, out=wy_c)
    return y, w.tolist(), wy, pos, (-2.0 * w).tolist()


def _seg_step_buffers(pixels: int) -> tuple:
    """The image-sized temporaries of ``_seg_logit_grad`` for images of
    ``pixels`` = H*W pixels: five (3, H*W) planes and the (H*W, 3) logit
    gradient, allocated once per fit and image size and reused by every step.

    Freed after every step, they let glibc trim the top of the heap, and the
    next step faults their pages back in: that cost a third of the training
    throughput of a run that has not imported SciPy.
    """
    return tuple(np.empty((NUM_CLASSES, pixels)) for _ in range(5)) + (
        np.empty((pixels, NUM_CLASSES)),)


def _seg_logit_grad(out: np.ndarray, targets: tuple, aux: str, alpha: float,
                    buffers: tuple) -> np.ndarray:
    """Gradient of ``seg_total_loss`` wrt the pixel head's logits, (H*W, 3).

    ``out`` is the pixel head's (3, H*W) soft mask, in the layout of the
    targets (see ``_seg_targets``). The step performs the operations of
    ``seg_total_loss`` and of the sigmoid derivative in the same order,
    element by element, so the result is bit-identical to that path; it
    skips the loss values. Every term runs over contiguous (3, H*W) planes;
    the dice sums run over them as over the (3, H, W) masks in
    ``weighted_dice_loss``, because the order of a sum sets its bits. The
    dice term ``-2 w (y den - num) / den^2`` takes two values per channel,
    since every y is 0.0 or 1.0: ``((0.0 den - num) c) / den^2`` and
    ``((den - num) c) / den^2``, c = -2 w. Python floats round as NumPy's
    float64 ops do, signed zeros included, and a NaN ``den`` gives NaN in
    both forms, so a fill and an assignment to the positives give the bits
    of the four full-plane passes. The last product writes the result once,
    transposed, into the (H*W, 3) gradient that ``MLP.backward`` takes.
    Every temporary, the result included, lives in ``buffers`` (see
    ``_seg_step_buffers``).
    """
    y, w, wy, pos, neg2w = targets
    buf, p, q, g, t, grad = buffers
    # ``np.add.reduce`` and ``ndarray.clip`` are ``np.sum`` and ``np.clip``
    # without their Python wrappers
    np.multiply(wy, out, out=buf)
    num = float(np.add.reduce(buf, axis=None))
    np.add(y, out, out=buf)
    for row, c in zip(buf, w):  # per-row scalars beat a (3, 1) broadcast
        row *= c
    den = float(np.add.reduce(buf, axis=None)) + DICE_EPS

    out.clip(EPS_CLAMP, 1.0 - EPS_CLAMP, out=p)
    np.subtract(1.0, p, out=q)
    if aux == "bce":  # (p - y) / (p (1 - p)) / n
        np.subtract(p, y, out=g)
        q *= p
        g /= q
    else:  # focal: where(y == 1, log p - (1 - p) / p, -log(1 - p) + p / (1 - p)) / n
        np.log(p, out=g)
        np.divide(q, p, out=t)
        g -= t
        np.log(q, out=t)
        np.negative(t, out=t)
        p /= q
        t += p
        np.copyto(g, t, where=y != 1.0)
    g /= out.size
    g *= alpha

    for row, pos_c, c in zip(buf, pos, neg2w):  # dice: -2 w (y den - num) / den^2
        row.fill((0.0 * den - num) * c / (den * den))
        row[pos_c] = (den - num) * c / (den * den)
    buf += g
    buf *= out  # chain rule through the sigmoid: out (1 - out)
    np.subtract(1.0, out, out=q)
    np.multiply(buf, q, out=grad.T)
    return grad


def _train_segmenter(model, data, cfg, opt, rng) -> None:
    if any(s.masks is None for s in data.samples):
        raise DataError("segmentation training requires images with masks")
    # Per image size, allocated once per fit: the step's temporaries and the
    # targets of an augmented draw (its y and wy; see _seg_targets).
    sizes = {s.image.size for s in data.samples}
    buffers = {n: _seg_step_buffers(n) for n in sizes}
    draws = {n: np.empty((2, NUM_CLASSES, n)) for n in sizes} if cfg.augment else {}
    # Every sample's class weights are checked before the first epoch; an
    # augmented fit keeps no targets, only the check.
    plain = []
    for s in data.samples:
        targets = _seg_targets(s.masks, f"sample {s.id}", draws.get(s.image.size))
        if not cfg.augment:
            plain.append((seg_features(s.image), targets))

    for epoch in range(cfg.epochs):
        for idx in _batches(len(data), cfg.batch_size, rng):
            acc = np.zeros_like(model.theta)
            for i in idx:
                if cfg.augment:
                    s = data.samples[i]
                    values, channels = augment(s.image, s.masks, rng)
                    f = seg_features(values)
                    targets = _seg_targets(channels, f"sample {s.id}, augmented at epoch"
                                           f" {epoch}", draws[len(f)])
                else:
                    f, targets = plain[i]
                keeps = model._dropout_masks((len(f),), rng)
                out, cache = model._forward_cached(f, None if keeps is None else keeps[0])
                grad = _seg_logit_grad(out, targets, cfg.aux, cfg.alpha, buffers[len(f)])
                acc += model.backward(cache, grad)
            # p is clipped and the features are finite, so the loss is
            # non-finite exactly when the gradient is.
            if not np.isfinite(acc).all():
                raise TrainingDivergedError(epoch)
            opt.step(acc * (1.0 / len(idx)))


def fit(task: str, data: Dataset | Table, cfg: TrainConfig) -> MLP:
    """Create a fresh model for the task and train it."""
    in_dim = SEG_FEATURE_DIM if task == "segmentation" else data.features.shape[1]
    return train(new_model(task, in_dim, cfg), data, cfg)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SKL1"


def save_checkpoint(path: Path | str, model: MLP) -> None:
    """Versioned binary checkpoint: magic, head, dims, little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<BBd", _HEAD_CODES[model.head], len(model.dims), model.dropout))
        fh.write(struct.pack(f"<{len(model.dims)}I", *model.dims))
        fh.write(model.theta.astype("<f8").tobytes())


def load_checkpoint(path: Path | str) -> MLP:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    offset = 4 + struct.calcsize("<BBd")
    if len(data) < offset:
        raise CheckpointError(f"{path}: truncated header")
    head_code, n_dims, dropout = struct.unpack_from("<BBd", data, 4)
    if head_code not in _HEAD_BY_CODE:
        raise CheckpointError(f"{path}: unknown head code {head_code}")
    if n_dims < 2 or len(data) < offset + 4 * n_dims:
        raise CheckpointError(f"{path}: truncated or invalid layer dimensions")
    dims = list(struct.unpack_from(f"<{n_dims}I", data, offset))
    offset += 4 * n_dims
    n_params = sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))
    if min(dims) < 1 or len(data) != offset + 8 * n_params:
        raise CheckpointError(f"{path}: trailing or missing parameter bytes")
    head = _HEAD_BY_CODE[head_code]
    outputs = NUM_CLASSES if head == "pixel" else 1
    if dims[-1] != outputs:
        raise CheckpointError(f"{path}: the {head} head has {dims[-1]} outputs; it needs {outputs}")
    theta = np.frombuffer(data, dtype="<f8", offset=offset)
    if not np.isfinite(theta).all():
        raise CheckpointError(f"{path}: non-finite parameters")
    return _rebuilt(dims, head, dropout, theta)


def _rebuilt(dims: list[int], head: str, dropout: float, theta: np.ndarray) -> MLP:
    model = MLP(dims, head, dropout=dropout, seed=0)
    # Fill in place: the weight and bias views (and any AdamW) share theta.
    model.theta[:] = theta
    return model
