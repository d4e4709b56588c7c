"""Seeded input generator for the benchmark.

Writes KITTI-tracking label files, a per-frame latency trace and FGRD
feature-grid sequences. Everything is derived from the workload seed, so
the same seed gives byte-identical files. Only finite values are written:
the label parser accepts ``nan``/``inf`` and would score them silently.
The module does not import the package under test.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

# Typical (h, w, l) in metres per class, and the share of each class.
CLASS_DIMS = {
    "Car": (1.5, 1.6, 3.9),
    "Pedestrian": (1.75, 0.6, 0.8),
    "Cyclist": (1.7, 0.6, 1.8),
}
CLASS_SHARE = (("Car", 0.6), ("Pedestrian", 0.2), ("Cyclist", 0.2))
# Metres per frame at 10 Hz.
CLASS_SPEED = {"Car": 1.0, "Pedestrian": 0.15, "Cyclist": 0.5}
# Where objects live: inside the evaluation range (camera frame x, z).
X_RANGE = (-26.0, 26.0)
Z_RANGE = (6.0, 50.0)
FOCAL_PX = 720.0


def _class_slots(rng, n, class_share):
    """Classes of n object slots in exact proportion to ``class_share``."""
    slots = []
    for name, share in class_share:
        slots += [name] * int(round(share * n))
    slots = (slots + [class_share[0][0]] * n)[:n]
    return [slots[i] for i in rng.permutation(n)]


def _count(rng, expected: float) -> int:
    """floor(expected), plus one with probability frac(expected)."""
    base = int(math.floor(expected))
    return base + (1 if rng.random() < expected - base else 0)


class _Object:
    """A box moving along its heading. Slot ``i`` of ``n`` fixes the depth
    stratum, the occlusion and the truncation band, so the mix of KITTI
    difficulty levels is nearly the same for every seed."""

    def __init__(self, rng, track_id: int, cls: str, i: int, n: int, speed_scale=1.0):
        self.track_id = track_id
        self.cls = cls
        base = CLASS_DIMS[cls]
        self.dims = tuple(d * (0.9 + 0.2 * rng.random()) for d in base)
        self.x = X_RANGE[0] + (X_RANGE[1] - X_RANGE[0]) * rng.random()
        self.z = Z_RANGE[0] + (Z_RANGE[1] - Z_RANGE[0]) * (i + rng.random()) / n
        self.y = 1.5 + 0.2 * rng.random()
        self.yaw = math.pi * (2.0 * rng.random() - 1.0)
        self.speed = speed_scale * CLASS_SPEED[cls] * (0.5 + 0.5 * rng.random())
        self.occlusion = i % 3
        self.truncation = 0.15 * ((i // 3) % 2 + rng.random())

    def advance(self) -> bool:
        """Move one frame along the heading; False once out of range."""
        self.x += self.speed * math.cos(self.yaw)
        self.z += self.speed * math.sin(self.yaw)
        return X_RANGE[0] <= self.x <= X_RANGE[1] and Z_RANGE[0] <= self.z <= Z_RANGE[1]


def _label_line(frame, track_id, cls, trunc, occ, dims, loc, yaw, score=None) -> str:
    h, w, l = dims
    x, y, z = loc
    px_h = FOCAL_PX * h / z
    px_w = FOCAL_PX * max(w, l) / z
    u = 620.0 + FOCAL_PX * x / z
    v = 180.0 + FOCAL_PX * y / z
    alpha = yaw - math.atan2(x, z)
    fields = [
        "%d %d %s %.2f %d %.4f" % (frame, track_id, cls, trunc, occ, alpha),
        "%.2f %.2f %.2f %.2f" % (u - px_w / 2, v - px_h, u + px_w / 2, v),
        "%.4f %.4f %.4f" % (h, w, l),
        "%.4f %.4f %.4f %.4f" % (x, y, z, yaw),
    ]
    if score is not None:
        fields.append("%.4f" % score)
    return " ".join(fields)


def label_sequence(rng, n_frames, n_objects, miss_rate, fp_rate,
                   class_share=CLASS_SHARE, speed_scale=1.0):
    """Simulate one sequence; returns per-frame (gt_lines, det_lines).

    ``n_objects`` objects are alive in every frame, with classes in exact
    proportion to ``class_share``; an object that leaves the range is
    replaced by a new track of the same class. Speeds are scaled by
    ``speed_scale``. Per frame, about ``miss_rate * n_objects`` objects go
    undetected, the others are detected with a few cm of pose noise and a
    high score, and about ``fp_rate * n_objects`` false positives are
    scattered uniformly with lower scores. Fixed proportions keep the work
    per frame nearly the same from seed to seed.
    """
    slots = _class_slots(rng, n_objects, class_share)
    alive = [_Object(rng, i, cls, i, n_objects, speed_scale) for i, cls in enumerate(slots)]
    next_id = n_objects
    frames = []
    for f in range(n_frames):
        gt, det = [], []
        missed = set(rng.permutation(n_objects)[: _count(rng, miss_rate * n_objects)].tolist())
        for i, o in enumerate(alive):
            loc = (o.x, o.y, o.z)
            gt.append(_label_line(f, o.track_id, o.cls, o.truncation, o.occlusion, o.dims, loc, o.yaw))
            if i not in missed:
                noisy = (o.x + 0.15 * rng.standard_normal(), o.y + 0.05 * rng.standard_normal(),
                         o.z + 0.15 * rng.standard_normal())
                dims = tuple(d * (1.0 + 0.05 * rng.standard_normal()) for d in o.dims)
                yaw = o.yaw + 0.05 * rng.standard_normal()
                det.append(_label_line(f, -1, o.cls, 0.0, 0, dims, noisy, yaw, 0.5 + 0.5 * rng.random()))
        for k in range(_count(rng, fp_rate * n_objects)):
            o = _Object(rng, -1, slots[k % n_objects], rng.integers(0, n_objects), n_objects, speed_scale)
            det.append(_label_line(f, -1, o.cls, 0.0, 0, o.dims, (o.x, o.y, o.z), o.yaw,
                                   0.05 + 0.65 * rng.random()))
        frames.append((gt, det))
        for i, o in enumerate(alive):
            if not o.advance():
                alive[i] = _Object(rng, next_id, o.cls, i, n_objects, speed_scale)
                next_id += 1
    return frames


def write_lines(path, lines) -> None:
    with open(path, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def latency_trace(rng, n_frames, mean_ms, jitter) -> list:
    """Per-frame latencies uniform in mean * [1 - jitter, 1 + jitter]."""
    return ["%.3f" % (mean_ms * (1.0 + jitter * (2.0 * rng.random() - 1.0))) for _ in range(n_frames)]


def write_fgrd(path, grid: np.ndarray) -> None:
    """FGRD v1: magic, <4I (version, H, W, C), little-endian float32 payload."""
    h, w, c = grid.shape
    with open(path, "wb") as f:
        f.write(b"FGRD")
        f.write(struct.pack("<4I", 1, h, w, c))
        f.write(np.ascontiguousarray(grid, dtype="<f4").tobytes())


def grid_sequence(rng, out_dir, n_frames, size, channels, margin, step):
    """Crops of one textured canvas whose content moves by a known shift.

    Frame t is the window at (r_t, c_t); between t-1 and t the content
    moves by shift_t = (dr, dc) with each component in {-step, 0, step},
    i.e. f_t(u, v) = f_{t-1}(u - dr, v - dc). The window stays inside the
    canvas. Returns the file paths and the per-frame shifts (shift_0 is
    (0, 0)).
    """
    canvas = rng.uniform(0.1, 1.0, size=(size + 2 * margin, size + 2 * margin, channels))
    canvas = canvas.astype(np.float32)
    r = c = margin
    paths, shifts = [], []
    for t in range(n_frames):
        dr = dc = 0
        if t > 0:
            options = [(a, b) for a in (-step, 0, step) for b in (-step, 0, step)
                       if 0 <= r - a <= 2 * margin and 0 <= c - b <= 2 * margin]
            dr, dc = options[int(rng.integers(0, len(options)))]
            r, c = r - dr, c - dc
        path = os.path.join(out_dir, "grid_%03d.fgrd" % t)
        write_fgrd(path, canvas[r : r + size, c : c + size])
        paths.append(path)
        shifts.append((dr, dc))
    return paths, shifts
