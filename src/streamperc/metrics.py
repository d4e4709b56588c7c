"""Greedy matching, PR curves and AP-R40 over KITTI difficulty tiers
(`kitti_io.Difficulty`, re-exported here).

Evaluation at level L takes ground truth of difficulty <= L as in-scope;
stricter GT, DontCare rows with a 3D extent, and GT that never qualifies
are ignore-matched (detections hitting them are neither true nor false
positives).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List, Optional, Sequence, Tuple

from .geometry import Box3D, iou_bev, iou_3d
from .kitti_io import Difficulty, LabeledBox

N_RECALL_POSITIONS = 40
DEFAULT_IOU_THRESHOLDS = (0.7, 0.5)
DEFAULT_CLASSES = ("Car", "Pedestrian", "Cyclist")


@dataclass
class FrameMatchResult:
    # One (score, kind) record per non-ignored detection; kind is "tp"/"fp".
    det_records: List[Tuple[float, str]]
    n_in_scope_gt: int


def match_frame(
    preds: Sequence[Box3D],
    gts: Sequence[LabeledBox],
    iou_threshold: float,
    level: Difficulty,
    iou_kind: str = "bev",
    class_name: Optional[str] = None,
) -> FrameMatchResult:
    """Greedy score-ordered matching of one frame.

    Each detection claims the best unclaimed in-scope GT with IoU >=
    threshold (TP); failing that an ignorable GT (dropped from scoring);
    otherwise it is an FP.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError("iou_threshold must be in (0, 1]")
    if iou_kind not in ("bev", "3d"):
        raise ValueError("iou_kind must be 'bev' or '3d', got %r" % iou_kind)
    in_scope: List[Box3D] = []
    ignorable: List[Box3D] = []
    for g in gts:
        if g.class_name == "DontCare" and min(g.dims) <= 0.0:
            continue  # a 2D-only KITTI region (dims -1) has no box to hit
        if g.class_name == "DontCare" or class_name in (None, g.class_name):
            scoped = g.class_name != "DontCare" and g.difficulty <= level
            (in_scope if scoped else ignorable).append(g.box3d)
    # looked up per call, so a patched metrics.iou_bev/iou_3d sees every call
    iou = iou_bev if iou_kind == "bev" else iou_3d
    unclaimed = dict.fromkeys(range(len(in_scope)))  # in-scope indices, in order
    records = []
    for det in sorted(preds, key=lambda p: -p.score):
        best_gt, best_iou = None, 0.0
        for gi in unclaimed:
            v = iou(det, in_scope[gi])
            if v >= iou_threshold and v > best_iou:
                best_gt, best_iou = gi, v
        if best_gt is not None:
            del unclaimed[best_gt]
            records.append((det.score, "tp"))
            continue
        for box in ignorable:
            if iou(det, box) >= iou_threshold:
                break
        else:
            records.append((det.score, "fp"))
    return FrameMatchResult(det_records=records, n_in_scope_gt=len(in_scope))


def pr_curve(
    det_records: Sequence[Tuple[float, str]], n_gt: int
) -> List[Tuple[float, float, float]]:
    """(threshold, precision, recall) at each distinct score threshold.

    Thresholds sweep the distinct detection scores from high to low; a
    record is included when its score >= threshold, so tied scores enter
    together.
    """
    if n_gt <= 0 or not det_records:
        return []
    recs = sorted(det_records, key=lambda r: -r[0])
    points = []
    tp = fp = 0
    n = len(recs)
    for i, (score, kind) in enumerate(recs):
        if kind == "tp":
            tp += 1
        else:
            fp += 1
        if i + 1 < n and recs[i + 1][0] == score:
            continue  # more records at this threshold
        points.append((score, tp / (tp + fp), tp / n_gt))
    return points


def ap_r40(
    det_records: Sequence[Tuple[float, str]], n_gt: int
) -> Optional[float]:
    """AP at 40 recall positions {1/40, ..., 1}; None when no GT in scope."""
    if n_gt <= 0:
        return None
    points = pr_curve(det_records, n_gt)
    recalls = [rec for _, _, rec in points]
    # Recall never falls along the points, so the points reaching recall r
    # are a suffix; best[k] is the top precision from point k on.
    best = list(accumulate(reversed([prec for _, prec, _ in points]), max))[::-1] + [0.0]
    total = 0.0
    for i in range(1, N_RECALL_POSITIONS + 1):
        total += best[bisect_left(recalls, i / N_RECALL_POSITIONS - 1e-12)]
    return total / N_RECALL_POSITIONS


@dataclass
class ApCell:
    class_name: str
    iou_kind: str
    iou_threshold: float
    level: str
    ap: Optional[float]


def cell_records(
    pairs: Sequence[Tuple[Sequence[Box3D], Sequence[LabeledBox]]],
    classes: Sequence[str] = DEFAULT_CLASSES,
    iou_thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    iou_kinds: Sequence[str] = ("bev", "3d"),
) -> Iterator[Tuple[str, str, float, Difficulty, List[Tuple[float, str]], int]]:
    """Yield (class, kind, threshold, level, records, n_gt) per AP cell.

    Each cell matches every pair's predictions of the class against its
    ground truth; records and n_gt are the totals over all pairs. A class's
    id is its index in classes, the last one for a name given twice.
    """
    ids = {name: i for i, name in enumerate(classes)}
    for cls_name in classes:
        cid = ids[cls_name]
        cls_pairs = [([p for p in preds if p.class_id == cid], gts) for preds, gts in pairs]
        for kind in iou_kinds:
            for thr in iou_thresholds:
                for level in (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD):
                    records: List[Tuple[float, str]] = []
                    n_gt = 0
                    for preds, gts in cls_pairs:
                        res = match_frame(preds, gts, thr, level, kind, class_name=cls_name)
                        records.extend(res.det_records)
                        n_gt += res.n_in_scope_gt
                    yield cls_name, kind, thr, level, records, n_gt


def evaluate_pairs(
    pairs: Sequence[Tuple[Sequence[Box3D], Sequence[LabeledBox]]],
    classes: Sequence[str] = DEFAULT_CLASSES,
    iou_thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    iou_kinds: Sequence[str] = ("bev", "3d"),
) -> List[ApCell]:
    """AP table over (prediction, GT) pairs: one cell per
    (class, kind, threshold, level).

    The pairing is the caller's concern: frame-aligned pairs give offline
    AP, stream pairs give sAP.
    """
    return [
        ApCell(cls_name, kind, thr, level.name.lower(), ap_r40(records, n_gt))
        for cls_name, kind, thr, level, records, n_gt in cell_records(
            pairs, classes, iou_thresholds, iou_kinds
        )
    ]
