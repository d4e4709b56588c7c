"""KITTI-Tracking label parsing, sequence splitting and range filtering.

Label lines are whitespace separated:
  frame track_id type truncated occluded alpha x1 y1 x2 y2 h w l x y z rot_y [score]
Ground-truth files carry 17 fields, detection dumps 18 (trailing score).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .geometry import Box3D


class ParseError(ValueError):
    pass


@dataclass
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


@dataclass
class SequenceSplit:
    sequence_id: int
    frames: List[int]
    role: str  # "train" or "test"


# Detection-range crop in camera coordinates, (min, max) per axis.
DEFAULT_EVAL_RANGE = {
    "x": (-28.8, 28.8),
    "y": (-1.0, 3.0),
    "z": (2.0, 53.2),
}


def parse_tracking_labels(text: str) -> Dict[int, List[LabeledBox]]:
    """Parse label text into a frame -> boxes map, preserving line order."""
    frames: Dict[int, List[LabeledBox]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 17:
            raise ParseError(
                "line %d: expected >=17 fields, got %d" % (lineno, len(fields))
            )
        try:
            frame, track_id = int(fields[0]), int(fields[1])
            nums = [float(v) for v in fields[3:18]]
        except ValueError as exc:
            raise ParseError("line %d: non-numeric field (%s)" % (lineno, exc)) from exc
        if not all(map(math.isfinite, nums)):
            raise ParseError("line %d: non-finite numeric field" % lineno)
        box = LabeledBox(
            frame_index=frame,
            track_id=track_id,
            class_name=fields[2],
            truncation=nums[0],
            occlusion=int(nums[1]),
            alpha=nums[2],
            bbox2d=tuple(nums[3:7]),
            dims=tuple(nums[7:10]),
            location=tuple(nums[10:13]),
            rotation_y=nums[13],
            score=nums[14] if len(nums) > 14 else None,
        )
        frames.setdefault(box.frame_index, []).append(box)
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


def split_sequences(frame_count: int, chunk: int = 40) -> List[SequenceSplit]:
    """Partition [0, frame_count) into consecutive chunks.

    Even-indexed chunks are train, odd-indexed test; the final chunk may be
    short.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    splits = []
    for k, start in enumerate(range(0, frame_count, chunk)):
        frames = list(range(start, min(start + chunk, frame_count)))
        splits.append(
            SequenceSplit(sequence_id=k, frames=frames, role="train" if k % 2 == 0 else "test")
        )
    return splits


def in_eval_range(center: Sequence[float], rng: dict = DEFAULT_EVAL_RANGE) -> bool:
    """True when the (x, y, z) center lies inside the closed evaluation range."""
    x, y, z = center
    return (
        rng["x"][0] <= x <= rng["x"][1]
        and rng["y"][0] <= y <= rng["y"][1]
        and rng["z"][0] <= z <= rng["z"][1]
    )


def apply_range_filter(
    boxes: Sequence[LabeledBox], eval_range: Optional[dict] = None
) -> List[LabeledBox]:
    """Keep boxes whose center lies inside the closed evaluation range."""
    rng = eval_range if eval_range is not None else DEFAULT_EVAL_RANGE
    for axis in ("x", "y", "z"):
        lo, hi = rng[axis]
        if lo > hi:
            raise ValueError("range min > max for axis %s" % axis)
    return [b for b in boxes if in_eval_range(b.location, rng)]
