"""Motion-consistency loss: pose offsets, velocity/acceleration terms,
analytic gradients with respect to the predicted pose.

Offsets are (dx, dy, dz, sin(dtheta)). The velocity term regresses the
predicted next-to-current offset against the current-to-previous ground
truth offset; the acceleration term regresses the change of those offsets
one step further back. Component losses are summed over the 4 offset
components; per-object losses are averaged before the final 1/n_pos
normalization.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box3D, iou_matrix

DEFAULT_TAU = 0.8
DEFAULT_LAMBDA = 0.5


def smooth_l1(x: float, beta: float = 1.0) -> Tuple[float, float]:
    """Smooth L1 value and derivative at x."""
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be finite and > 0, got %r" % beta)
    ax = abs(x)
    if ax < beta:
        return 0.5 * x * x / beta, x / beta
    return ax - 0.5 * beta, math.copysign(1.0, x)


def pose_of(box: Box3D) -> Tuple[float, float, float, float]:
    x, y, z = box.center
    return (x, y, z, box.yaw)


def pose_offset(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    """Offset a - b as (dx, dy, dz, sine of the yaw difference)."""
    return np.array([a[0] - b[0], a[1] - b[1], a[2] - b[2], math.sin(a[3] - b[3])])


def match_pred_to_gt(
    preds: Sequence[Box3D], gts: Sequence[Box3D], iou_kind: str = "bev"
) -> List[Tuple[int, int]]:
    """Per prediction, the ground-truth index of highest IoU; zero-IoU pairs dropped."""
    if not preds or not gts:
        return []
    mat = iou_matrix(list(preds), list(gts), kind=iou_kind)
    pairs = []
    for i in range(len(preds)):
        j = int(np.argmax(mat[i]))
        if mat[i, j] > 0.0:
            pairs.append((i, j))
    return pairs


def offset_loss(
    p: np.ndarray, g: np.ndarray, beta: float = 1.0
) -> Tuple[float, np.ndarray]:
    """Sum of smooth-L1 over the 4 components of p - g; gradient wrt p.

    The velocity term compares pose offsets, the acceleration term changes
    of pose offsets.
    """
    r = np.asarray(p) - np.asarray(g)
    vals = np.empty(4)
    ders = np.empty(4)
    for k in range(4):
        vals[k], ders[k] = smooth_l1(float(r[k]), beta)
    return float(vals.sum()), ders


def mcl(
    pred: Box3D,
    gt_t: Box3D,
    gt_tm1: Box3D,
    gt_tm2: Optional[Box3D],
    tau: float = DEFAULT_TAU,
    beta: float = 1.0,
) -> Tuple[float, np.ndarray]:
    """Motion-consistency loss for one object and its gradient wrt the
    predicted pose (x, y, z, theta).

    gt_tm2 may be None for young tracks; the acceleration term is then
    skipped.
    """
    if not 0.0 <= tau < math.inf:
        raise ValueError("tau must be finite and >= 0, got %r" % tau)
    ids = {gt_t.track_id, gt_tm1.track_id} | ({gt_tm2.track_id} if gt_tm2 is not None else set())
    if len(ids) != 1 or None in ids:
        raise ValueError("ground-truth chain must share one track_id")
    p = pose_of(pred)
    g_t = pose_of(gt_t)
    g_tm1 = pose_of(gt_tm1)
    v_p = pose_offset(p, g_t)
    v_g = pose_offset(g_t, g_tm1)

    value, dv = offset_loss(v_p, v_g, beta)
    grad_comp = dv.copy()
    if gt_tm2 is not None:
        v_g_prev = pose_offset(g_tm1, pose_of(gt_tm2))
        a_val, da = offset_loss(v_p - v_g, v_g - v_g_prev, beta)
        value += tau * a_val
        grad_comp += tau * da
    # Chain rule through the offset: d(dtheta)/d(theta_p) = cos(theta_p - theta_g).
    grad = grad_comp.copy()
    grad[3] *= math.cos(p[3] - g_t[3])
    return value, grad


def total_loss(
    l_ori: float, l_mcl: float, lam: float = DEFAULT_LAMBDA, n_pos: int = 1
) -> float:
    """Combine the base loss and the motion term, normalized by positives."""
    if n_pos < 1:
        raise ValueError("n_pos must be >= 1 (no positive anchors)")
    return (l_ori + lam * l_mcl) / n_pos


def _by_track_id(gts: Sequence[Box3D], frame: str) -> dict:
    """The boxes with a track id, keyed by it; a repeated id is a ValueError."""
    by_id = {}
    for g in gts:
        if g.track_id in by_id:
            raise ValueError("ground truth at %s repeats track id %d" % (frame, g.track_id))
        if g.track_id is not None:
            by_id[g.track_id] = g
    return by_id


def batch_mcl(
    preds: Sequence[Box3D],
    gts_t: Sequence[Box3D],
    gts_tm1: Sequence[Box3D],
    gts_tm2: Sequence[Box3D],
    tau: float = DEFAULT_TAU,
    beta: float = 1.0,
    iou_kind: str = "bev",
):
    """Per-object losses over a frame plus their average.

    Predictions are matched to current-frame ground truth by IoU argmax;
    ground-truth chains are linked by track id, so a ground-truth list that
    repeats a track id is a ValueError. Objects with no current
    match or no t-1 history are skipped; objects without t-2 history lose
    only the acceleration term. tau, beta and iou_kind are checked first,
    so a bad value fails even when no prediction matches.
    """
    if not 0.0 <= tau < math.inf or not 0.0 < beta < math.inf:
        raise ValueError("need finite tau >= 0 and beta > 0, got %r and %r" % (tau, beta))
    if iou_kind not in ("bev", "3d"):
        raise ValueError("iou_kind must be 'bev' or '3d', got %r" % iou_kind)
    _by_track_id(gts_t, "t")
    by_id_tm1 = _by_track_id(gts_tm1, "t-1")
    by_id_tm2 = _by_track_id(gts_tm2, "t-2")
    per_object = []
    for pi, gi in match_pred_to_gt(preds, gts_t, iou_kind):
        gt = gts_t[gi]
        prev = by_id_tm1.get(gt.track_id)
        if prev is None:
            continue
        prev2 = by_id_tm2.get(gt.track_id)
        value, grad = mcl(preds[pi], gt, prev, prev2, tau=tau, beta=beta)
        per_object.append(
            {
                "pred_index": pi,
                "gt_index": gi,
                "track_id": gt.track_id,
                "value": value,
                "gradient": grad.tolist(),
                "has_acceleration_term": prev2 is not None,
            }
        )
    mean = (
        sum(o["value"] for o in per_object) / len(per_object) if per_object else 0.0
    )
    return per_object, mean
