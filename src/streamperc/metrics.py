"""Greedy matching, PR curves and AP-R40 over KITTI difficulty tiers
(`kitti_io.Difficulty`, re-exported here).

At level L a class's ground truth, as _scoped keeps it, is in scope at
difficulty <= L; the rest, DontCare included, is ignore-matched (detections
hitting it are neither true nor false positives).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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


def class_ids(classes: Sequence[str]) -> Dict[str, int]:
    """Each class name's id: its index in classes, the last for a repeat."""
    return {name: i for i, name in enumerate(classes)}


def _scoped(gts: Sequence[LabeledBox], class_name: Optional[str]) -> List[LabeledBox]:
    """The ground-truth rows a class's matching compares, in input order: the
    class's rows (all but DontCare for class_name None) and the DontCare rows
    with a 3D box; a 2D-only DontCare region has an h, w or l of 0 or less."""
    return [g for g in gts if (not min(g.dims) <= 0.0 if g.class_name == "DontCare"
                               else class_name is None or g.class_name == class_name)]


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
    unclaimed, ignorable = {}, []  # in-scope index -> Box3D, and Box3Ds; each in input order
    for g in _scoped(gts, class_name) if gts else ():  # most classes miss most frames
        if g.class_name != "DontCare" and g.difficulty <= level:
            unclaimed[len(unclaimed)] = g.box3d
        else:
            ignorable.append(g.box3d)
    n_in_scope = len(unclaimed)
    # looked up per call, so a patched metrics.iou_bev/iou_3d sees every call
    iou = iou_bev if iou_kind == "bev" else iou_3d
    records = []
    # a stable sort, so tied scores keep their input order
    for det in sorted(preds, key=attrgetter("score"), reverse=True):
        best_gt, best_iou = None, 0.0
        for gi, box in unclaimed.items():
            v = iou(det, box)
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
    return FrameMatchResult(det_records=records, n_in_scope_gt=n_in_scope)


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
    recs = sorted(det_records, key=itemgetter(0), reverse=True)  # stable, as a sort on -score
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
    ground truth; records and n_gt are the totals over all pairs. Classes
    are numbered by class_ids, and a name given twice is matched once and
    its cells yielded again. Each class's cells see only the class's
    predictions and the rows _scoped keeps for it, listed once per pair;
    a box builds its footprint on its first clip.
    """
    ids = class_ids(classes)
    kept = {}  # name -> its cells, for a name given again later
    for i, cls_name in enumerate(classes):
        if cls_name in kept:
            yield from kept[cls_name]
            continue
        kept[cls_name] = cells = [] if cls_name in classes[i + 1:] else None
        cid = ids[cls_name]
        cls_pairs = [([p for p in preds if p.class_id == cid], _scoped(gts, cls_name))
                     for preds, gts in pairs]
        for kind in iou_kinds:
            for thr in iou_thresholds:
                for level in (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD):
                    records: List[Tuple[float, str]] = []
                    n_gt = 0
                    for preds, gts in cls_pairs:
                        res = match_frame(preds, gts, thr, level, kind, class_name=cls_name)
                        records.extend(res.det_records)
                        n_gt += res.n_in_scope_gt
                    cell = (cls_name, kind, thr, level, records, n_gt)
                    if cells is not None:
                        cells.append(cell)
                    yield cell


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
