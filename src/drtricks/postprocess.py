"""Rule-based post-processing of model outputs.

Covers NP mask dilation, mutual IRMA/NV false-positive removal, the
class-specific operating thresholds for quality grades, and the
segmentation-guided edit of DR grades.
"""
from __future__ import annotations

import numpy as np

from .data import IRMA, NP, NV, validate_label

#: Operating thresholds of the quality grades: raw < low is 0, raw < high is 1, else 2.
QUALITY_LOW, QUALITY_HIGH = 0.54, 1.5


def _running_max(a: np.ndarray, k: int) -> np.ndarray:
    """Max over k consecutive rows (axis 0), centred, zeros beyond the edge."""
    n, r = a.shape[0], k // 2
    padded = np.zeros((n + 2 * r,) + a.shape[1:], np.uint8)
    padded[r : r + n] = a
    out = padded[:n].copy()
    for i in range(1, k):
        np.maximum(out, padded[i : i + n], out=out)
    return out


def dilate(mask: np.ndarray, k: int) -> np.ndarray:
    """Binary dilation: max over a k x k square window, edge-clipped.

    Separable: a running max of width k along each axis in turn.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {k}")
    m = np.asarray(mask)
    if not ((m == 0) | (m == 1)).all():  # np.isin(m, (0, 1)), about 10x faster
        raise ValueError("mask must be binary")
    out = m.astype(np.uint8)
    for axis in range(out.ndim):
        out = _running_max(out.swapaxes(0, axis), k).swapaxes(0, axis)
    return np.ascontiguousarray(out)


def reconcile_irma_nv(soft: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Resolve IRMA/NV conflicts: keep only the more confident channel.

    ``soft`` and ``masks`` are (3, H, W) soft and binary mask sets; the result
    is ``masks`` as a new uint8 array, where at pixels positive in both IRMA
    and NV the channel of strictly greater soft confidence wins and ties keep
    IRMA. The NP channel passes through.
    """
    if soft.shape != masks.shape:
        raise ValueError("soft and binary mask shapes must match")
    out = masks.astype(np.uint8)
    conflict = (masks[IRMA] == 1) & (masks[NV] == 1)
    nv_wins = conflict & (soft[NV] > soft[IRMA])
    out[IRMA][nv_wins] = 0
    out[NV][conflict & ~nv_wins] = 0
    return out


def quality_decision(raw: float) -> int:
    """Grade decision from a raw score using the operating thresholds."""
    raw = float(raw)
    if raw < QUALITY_LOW:
        return 0
    if raw < QUALITY_HIGH:
        return 1
    return 2


def grade_postedit(grade: int, masks: np.ndarray) -> int:
    """Edit a DR grade with the segmentation output.

    Any NV detection (at least one positive pixel) forces PDR; otherwise a
    fully lesion-free mask forces normal; else unchanged.
    """
    grade = validate_label(grade)
    if int(masks[NV].sum()) >= 1:
        return 2
    if int(masks.sum()) == 0:
        return 0
    return grade


def postprocess_masks(soft: np.ndarray) -> np.ndarray:
    """Full segmentation post-processing of a (3, H, W) soft mask set into a
    uint8 one: binarize at 0.5, dilate NP over a 5 x 5 square, reconcile IRMA/NV."""
    s = np.asarray(soft, dtype=np.float64)
    binary = (s >= 0.5).astype(np.uint8)
    binary[NP] = dilate(binary[NP], 5)
    return reconcile_irma_nv(s, binary)
