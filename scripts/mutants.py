#!/usr/bin/env python3
"""Mutation check: each row of MUTANTS is one hand-made bug in src/ that
the row's test files must catch.

For each row the repository is copied to a temporary directory, the row's
old text, which must occur exactly once in its file, is replaced by the
new text, and only the row's test files run, with pytest -x -q. A mutant
is killed when pytest reports a failed test (exit status 1). The script
exits 1 if any mutant survives, any old text is missing or repeated, or
pytest ends any other way; it exits 0 when every mutant is killed.

Usage (stdlib only; the tests need numpy, pytest and hypothesis):

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = "src/streamperc/metrics.py"
SIM = "src/streamperc/streaming_sim.py"
KITTI = "src/streamperc/kitti_io.py"
MCL = "src/streamperc/motion_loss.py"
GEOMETRY = "src/streamperc/geometry.py"
CLI = "src/streamperc/cli.py"
FORECAST = "src/streamperc/forecast.py"

# (file, exact old text, new text, test files expected to kill the mutant)
MUTANTS = [
    # AP|R40 reads recall position r at recall r - 1e-12, not r + 1e-12
    (METRICS, "i / N_RECALL_POSITIONS - 1e-12", "i / N_RECALL_POSITIONS + 1e-12",
     ["tests/test_metrics.py"]),
    # tied scores enter the PR curve together, not one by one
    (METRICS, "if i + 1 < n and recs[i + 1][0] == score:", "if False:",
     ["tests/test_metrics.py"]),
    # ground truth at the level's own difficulty is in scope
    (METRICS, "g.difficulty <= level", "g.difficulty < level",
     ["tests/test_metrics.py"]),
    # an IoU exactly at the threshold is a true positive ...
    (METRICS, "if v >= iou_threshold and v > best_iou:", "if v > iou_threshold and v > best_iou:",
     ["tests/test_metrics.py"]),
    # ... and an ignore-match
    (METRICS, "if iou(det, box) >= iou_threshold:", "if iou(det, box) > iou_threshold:",
     ["tests/test_metrics.py"]),
    # a DontCare row with a zero h, w or l has no 3D box ...
    (METRICS, "min(g.dims) <= 0.0", "min(g.dims) < 0.0",
     ["tests/test_cli.py", "tests/test_metrics.py"]),
    # ... and neither has one with any non-positive dim, not only the first
    (METRICS, "min(g.dims) <= 0.0", "g.dims[0] <= 0.0",
     ["tests/test_cli.py", "tests/test_metrics.py"]),
    # an output finishing exactly at a ground-truth instant pairs with it
    (SIM, "processed[i].finish_ns <= t_query", "processed[i].finish_ns < t_query",
     ["tests/test_streaming_sim.py"]),
    # --skip-stale skips a frame only while the worker is still busy
    (SIM, "if skip_stale and arrival < available:", "if skip_stale and arrival <= available:",
     ["tests/test_streaming_sim.py"]),
    # AP is read at 40 recall positions
    (METRICS, "N_RECALL_POSITIONS = 40", "N_RECALL_POSITIONS = 41", ["tests/test_metrics.py"]),
    # each difficulty tier's bounds are inclusive: a least height, a most
    # occlusion and a most truncation
    (KITTI, "height >= min_h", "height > min_h", ["tests/test_metrics.py"]),
    (KITTI, "occlusion <= max_occ", "occlusion < max_occ", ["tests/test_metrics.py"]),
    (KITTI, "truncation <= max_trunc", "truncation < max_trunc", ["tests/test_metrics.py"]),
    # the evaluation range is closed at both ends
    (KITTI, "x0 <= b.location[0] <= x1", "x0 < b.location[0] <= x1", ["tests/test_kitti_io.py"]),
    (KITTI, "y0 <= b.location[1]", "y0 < b.location[1]", ["tests/test_kitti_io.py"]),
    (KITTI, "b.location[1] <= y1", "b.location[1] < y1", ["tests/test_kitti_io.py"]),
    (KITTI, "z0 <= b.location[2] <= z1", "z0 <= b.location[2] < z1", ["tests/test_kitti_io.py"]),
    # the Kalman update moves the mean towards the measurement
    (FORECAST, "mean = s.mean + k @ innovation", "mean = s.mean - k @ innovation",
     ["tests/test_forecast.py"]),
    # ... with the yaw innovation wrapped to (-pi, pi] and the covariance in
    # Joseph form
    (FORECAST, "innovation[3] = normalize_angle(innovation[3])", "innovation[3] = innovation[3]",
     ["tests/test_forecast.py"]),
    (FORECAST, "cov = ikh @ s.covariance @ ikh.T + k @ _R @ k.T", "cov = ikh @ s.covariance",
     ["tests/test_forecast.py"]),
    # the Streamer associates a track and a detection at exactly ASSOCIATION_IOU ...
    (FORECAST, "if -neg_iou < threshold", "if -neg_iou <= threshold", ["tests/test_forecast.py"]),
    # ... and a track survives MAX_MISSES unmatched steps
    (FORECAST, "if t.misses <= MAX_MISSES:", "if t.misses < MAX_MISSES:",
     ["tests/test_forecast.py"]),
    # only the frames the schedule processes have their detections boxed
    (CLI, "if ev.processed and ev.frame in dets", "if ev.frame in dets", ["tests/test_cli.py"]),
    # the MCL gradient: the acceleration term adds, and the yaw chain rule
    # multiplies by +cos
    (MCL, "grad_comp += tau * da", "grad_comp -= tau * da", ["tests/test_motion_loss.py"]),
    (MCL, "grad[3] *= math.cos(p[3] - g_t[3])", "grad[3] *= -math.cos(p[3] - g_t[3])",
     ["tests/test_motion_loss.py"]),
    # no class hooks attribute lookup, which would slow every read of it
    (GEOMETRY, "    @property\n    def corners(self)",
     "    def __getattr__(self, name):\n        raise AttributeError(name)\n\n"
     "    @property\n    def corners(self)", ["tests/test_geometry.py"]),
    # the shoelace starts from the closing edge (last vertex to first)
    (GEOMETRY, "px, pz = vertices[-1]\n    for cx, cz in vertices:",
     "px, pz = vertices[0]\n    for cx, cz in [*vertices[1:], vertices[0]]:",
     ["tests/test_geometry.py"]),
    # the clip keeps a vertex exactly the on-edge tolerance outside an edge,
    # both as a vertex and when it decides whether a subject edge crosses
    (GEOMETRY, "if sc >= tol:", "if sc > tol:", ["tests/test_geometry.py"]),
    (GEOMETRY, "if (sc >= tol) != (sp >= tol):", "if (sc > tol) != (sp > tol):",
     ["tests/test_geometry.py"]),
    # the on-edge tolerance scales with the clip edge's length
    (GEOMETRY, "tol = -_EDGE_EPS * math.hypot(ex, ez)", "tol = -_EDGE_EPS",
     ["tests/test_geometry.py"]),
    # a new vertex is clamped to its subject edge
    (GEOMETRY, "t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t", "t = t",
     ["tests/test_geometry.py"]),
    # parallel edges that cross sides keep the subject edge's end, not its start
    (GEOMETRY, "out.append((cx, cz))\n                else:",
     "out.append((px, pz))\n                else:", ["tests/test_geometry.py"]),
    # a box builds its footprint once, on the first read of corners
    (GEOMETRY, "if self._corners is None:", "if True:", ["tests/test_geometry.py"]),
    # main turns the cyclic collector back on if it found it on
    (CLI, "            gc.enable()", "            pass", ["tests/test_cli.py"]),
    # an OSError (an unwritable --output, say) is a data error, not a
    # traceback: an exception that escapes main fails an in-process test
    (CLI, "except (ValueError, OSError) as exc:", "except ValueError as exc:",
     ["tests/test_cli.py"]),
    # a diverging filter is a numerical error with no numpy warning
    (CLI, 'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():",
     ["tests/test_cli.py"]),
]

# left out of each copy: version control, caches and bench scratch space
IGNORED = shutil.ignore_patterns(".git", ".bench_work", ".bench_build", ".hypothesis",
                                 ".pytest_cache", "__pycache__", "*.egg-info", "build")


def run(path: str, old: str, new: str, tests) -> str:
    """Apply one mutant in a fresh copy and run its tests; return "killed",
    "SURVIVED", or "ERROR" and what went wrong."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = os.path.join(copy, path)
        with open(target) as f:
            text = f.read()
        if text.count(old) != 1:
            return "ERROR: the old text occurs %d times" % text.count(old)
        with open(target, "w") as f:
            f.write(text.replace(old, new))
        path = [os.path.join(copy, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", *tests], cwd=copy,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode in (0, 1):
        return ("SURVIVED", "killed")[proc.returncode]
    return "ERROR: pytest exited %d\n%s" % (proc.returncode, proc.stdout[-2000:])


def main() -> int:
    failed = 0
    start = time.monotonic()
    for path, old, new, tests in MUTANTS:
        t0 = time.monotonic()
        outcome = run(path, old, new, tests)
        failed += outcome != "killed"
        print("%s (%.1f s) %s: %r -> %r" % (outcome, time.monotonic() - t0, path, old, new),
              flush=True)
    print("%d of %d mutants killed in %.0f s" % (len(MUTANTS) - failed, len(MUTANTS),
                                                time.monotonic() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
