"""KITTI-Tracking label parsing, difficulty tiers and range filtering.

Label lines are whitespace separated:
  frame track_id type truncated occluded alpha x1 y1 x2 y2 h w l x y z rot_y [score]
Ground-truth files carry 17 fields, detection dumps 18 (trailing score).
The occlusion level is an integer from -1 (DontCare) to 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from .geometry import MAX_DIM, Box3D


class ParseError(ValueError):
    pass


class Difficulty(IntEnum):
    EASY = 0
    MODERATE = 1
    HARD = 2
    IGNORED = 3


# (min bbox height px, max occlusion, max truncation) per level, in the
# order difficulty_of tries them.
DIFFICULTY_THRESHOLDS = {
    Difficulty.EASY: (40.0, 0, 0.15),
    Difficulty.MODERATE: (25.0, 1, 0.30),
    Difficulty.HARD: (25.0, 2, 0.50),
}


@dataclass(frozen=True)
class LabeledBox:
    frame_index: int
    track_id: int  # -1 when absent
    class_name: str
    truncation: float
    occlusion: int
    alpha: float
    bbox2d: Tuple[float, float, float, float]  # left, top, right, bottom
    dims: Tuple[float, float, float]  # h, w, l
    location: Tuple[float, float, float]  # x, y, z camera frame
    rotation_y: float
    score: Optional[float] = None  # detections only
    # difficulty_of(self), set at construction for the same memory reason
    # as Box3D._overlaps
    difficulty: Difficulty = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "difficulty", difficulty_of(self))
        object.__setattr__(self, "_box3d", None)  # set by the box3d property

    @property
    def bbox_height(self) -> float:
        return self.bbox2d[3] - self.bbox2d[1]

    def to_box3d(self, class_id: int = 0) -> Box3D:
        tid = self.track_id if self.track_id >= 0 else None
        return Box3D(
            center=self.location,
            dims=self.dims,
            yaw=self.rotation_y,
            score=self.score if self.score is not None else 0.0,
            class_id=class_id,
            track_id=tid,
        )

    @property
    def box3d(self) -> Box3D:
        """to_box3d() with class id 0, built on first read and kept as
        Box3D.corners is."""
        if self._box3d is None:
            object.__setattr__(self, "_box3d", self.to_box3d())
        return self._box3d


def difficulty_of(gt: LabeledBox) -> Difficulty:
    """The first tier, EASY to HARD, whose bounds the box meets."""
    height, occlusion, truncation = gt.bbox_height, gt.occlusion, gt.truncation
    for level, (min_h, max_occ, max_trunc) in DIFFICULTY_THRESHOLDS.items():
        if height >= min_h and occlusion <= max_occ and truncation <= max_trunc:
            return level
    return Difficulty.IGNORED


# Detection-range crop in camera coordinates, (min, max) per axis.
DEFAULT_EVAL_RANGE = {
    "x": (-28.8, 28.8),
    "y": (-1.0, 3.0),
    "z": (2.0, 53.2),
}


# Frame indices must lie below this (about 28 h of 10 Hz video): a schedule
# holds one event per frame up to the last labelled one.
MAX_FRAME_INDEX = 10**6


def parse_tracking_labels(text: str) -> Dict[int, List[LabeledBox]]:
    """Parse label text into a frame -> boxes map, preserving line order."""
    frames: Dict[int, List[LabeledBox]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) < 17:
            raise ParseError("line %d: expected >=17 fields, got %d" % (lineno, len(fields)))
        if len(fields) > 18:
            raise ParseError("line %d: expected at most 18 fields, got %d" % (lineno, len(fields)))
        try:
            frame, track_id = int(fields[0]), int(fields[1])
            nums = list(map(float, fields[3:]))
        except ValueError as exc:
            raise ParseError("line %d: non-numeric field (%s)" % (lineno, exc)) from exc
        if not all(map(math.isfinite, nums)):
            raise ParseError("line %d: non-finite numeric field" % lineno)
        if not nums[1].is_integer():
            raise ParseError("line %d: occlusion %r is not an integer" % (lineno, nums[1]))
        if not -1 <= nums[1] <= 3:
            raise ParseError("line %d: occlusion %d is outside -1..3" % (lineno, nums[1]))
        if frame < 0:
            raise ParseError("line %d: negative frame index %d" % (lineno, frame))
        if frame >= MAX_FRAME_INDEX:
            raise ParseError("line %d: frame index %d is not below %d"
                             % (lineno, frame, MAX_FRAME_INDEX))
        dims = tuple(nums[7:10])
        # KITTI DontCare may have dims -1, but no box may reach MAX_DIM
        if max(dims) >= MAX_DIM or fields[2] != "DontCare" and min(dims) <= 0.0:
            raise ParseError("line %d: dims must be positive and below %g m, got %r"
                             % (lineno, MAX_DIM, dims))
        # positional, in field order: a keyword call costs more per line
        box = LabeledBox(frame, track_id, fields[2], nums[0], int(nums[1]), nums[2],
                         tuple(nums[3:7]), dims, tuple(nums[10:13]), nums[13],
                         nums[14] if len(nums) > 14 else None)
        frames.setdefault(frame, []).append(box)
    return frames


def format_tracking_labels(frames: Dict[int, List[LabeledBox]]) -> str:
    """Serialize a frame -> boxes map back to KITTI label text."""
    lines = []
    for frame in sorted(frames):
        for b in frames[frame]:
            parts = [
                str(b.frame_index),
                str(b.track_id),
                b.class_name,
                "%.6f" % b.truncation,
                str(b.occlusion),
                "%.6f" % b.alpha,
            ]
            parts += ["%.6f" % v for v in b.bbox2d]
            parts += ["%.6f" % v for v in b.dims]
            parts += ["%.6f" % v for v in b.location]
            parts.append("%.6f" % b.rotation_y)
            if b.score is not None:
                parts.append("%.6f" % b.score)
            lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def apply_range_filter(boxes: Sequence[LabeledBox]) -> List[LabeledBox]:
    """Keep boxes whose (x, y, z) center lies inside the closed evaluation range."""
    (x0, x1), (y0, y1), (z0, z1) = (DEFAULT_EVAL_RANGE[axis] for axis in "xyz")
    return [b for b in boxes if x0 <= b.location[0] <= x1 and y0 <= b.location[1] <= y1
            and z0 <= b.location[2] <= z1]
