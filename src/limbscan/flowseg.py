"""Network-free segmentation math: flow-based mask propagation, attention
fusion of a one-channel map into multi-channel features, dice metric, and the
horizontal mask centroid. The centering servo reads `VirtualFrame.centroid`,
not `mask_centroid`; the tests hold the former to the latter as reference.

Masks are (H, W) arrays with values in {0, 1}; flow fields are (2, H, W)
with plane 0 the row displacement and plane 1 the column displacement, in
pixels. Feature maps are (C, H, W) float arrays.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyMask, InvalidParams


def _check_mask(mask: np.ndarray) -> np.ndarray:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise DimensionMismatch("mask must be 2-D")
    if not np.all((m == 0) | (m == 1)):
        raise InvalidParams("mask values must be binary")
    return m.astype(np.uint8)


def predict_mask(prev_mask: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Warp a binary mask forward through a flow field.

    Each foreground pixel p moves to p + round(flow(p)); targets landing out
    of bounds are dropped, colliding targets merge (set semantics).
    """
    m = _check_mask(prev_mask)
    f = np.asarray(flow, dtype=float)
    if f.shape != (2, *m.shape):
        raise DimensionMismatch(f"flow shape {f.shape} does not match mask {m.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidParams("flow must be finite")
    h, w = m.shape
    rows, cols = np.nonzero(m)
    tr = rows + np.rint(f[0, rows, cols]).astype(int)
    tc = cols + np.rint(f[1, rows, cols]).astype(int)
    keep = (tr >= 0) & (tr < h) & (tc >= 0) & (tc < w)
    out = np.zeros_like(m)
    out[tr[keep], tc[keep]] = 1
    return out


def attention_fuse(features: np.ndarray, attention: np.ndarray) -> np.ndarray:
    """Fuse a one-channel attention map into features:
    out = features + features * sigmoid(attention), broadcast over channels."""
    fc = np.asarray(features, dtype=float)
    fa = np.asarray(attention, dtype=float)
    if fc.ndim != 3:
        raise DimensionMismatch("features must be (C, H, W)")
    if fa.ndim == 3 and fa.shape[0] == 1:
        fa = fa[0]
    if fa.shape != fc.shape[1:]:
        raise DimensionMismatch(f"attention {fa.shape} does not match features {fc.shape}")
    gate = 1.0 / (1.0 + np.exp(-fa))
    return fc + fc * gate[None, :, :]


def dice(ground: np.ndarray, pred: np.ndarray) -> float:
    """Dice overlap 2|G∩S| / (|G|+|S|); two empty masks count as identical."""
    g = _check_mask(ground)
    s = _check_mask(pred)
    if g.shape != s.shape:
        raise DimensionMismatch("mask shapes differ")
    total = int(g.sum()) + int(s.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((g & s).sum()) / total


def dice_loss(ground: np.ndarray, pred: np.ndarray) -> float:
    return 1.0 - dice(ground, pred)


def mask_centroid(mask: np.ndarray) -> float:
    """Horizontal (column) centroid of a binary mask: first moment over area."""
    m = _check_mask(mask)
    area = int(m.sum())
    if area == 0:
        raise EmptyMask("mask has no foreground pixels")
    cols = np.arange(m.shape[1], dtype=float)
    return float((m.sum(axis=0) @ cols) / area)
