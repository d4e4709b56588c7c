"""Benchmark of the streamperc toolkit on seeded synthetic inputs.

Usage (from the repository root):

    python3 bench/run.py --workload dense-eval --seed 0 --seconds 30 --trace 0

Each workload is a closed loop in one process with no threads: jobs run one
after another through ``streamperc.cli.main(argv)`` or the library, with
stdout discarded. A round is one pass over the workload's jobs; rounds
repeat until the next one would end after ``--seconds``. Every job's
outputs are checked; a non-zero exit, an exception or a failed check counts
as a failed operation. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (see ``bench/README.md``). ``--record`` stores the output digests of
one round in ``bench/expected.json`` instead of measuring.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
WORK = Path(".bench_work")
SETUP_REPEATS = 11
# Reference time of ``speed_kernel``: timing metrics are reported at the
# machine speed where the kernel takes this long.
KERNEL_REF_S = 3.0e-3

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "frame_ms.p50": "ms",
    "frame_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    ("kitti_io.parse_s", "s/round"), ("kitti_io.lines", "count/round"),
    ("kitti_io.range_filter_s", "s/round"),
    ("streaming_sim.schedule_s", "s/round"), ("streaming_sim.pair_s", "s/round"),
    ("streaming_sim.frames_skipped", "count/round"),
    ("geometry.iou_calls", "count/round"), ("geometry.iou_s", "s/round"),
    ("geometry.iou_nonzero_frac", "ratio"), ("geometry.iou_matrix_s", "s/round"),
    ("metrics.match_calls", "count/round"), ("metrics.match_self_s", "s/round"),
    ("metrics.evaluate_s", "s/round"), ("metrics.ap_s", "s/round"),
    ("forecast.step_calls", "count/round"), ("forecast.step_s", "s/round"),
    ("forecast.associate_s", "s/round"), ("forecast.forecast_s", "s/round"),
    ("forecast.tracks_mean", "tracks"),
    ("motion_loss.batch_mcl_s", "s/round"), ("motion_loss.objects", "count/round"),
    ("feature_flow.similarity_s", "s/round"), ("feature_flow.argmax_s", "s/round"),
    ("feature_flow.flow_s", "s/round"), ("feature_flow.warp_s", "s/round"),
    ("feature_flow.fuse_s", "s/round"),
    ("grid_ops.max_pool_s", "s/round"), ("grid_ops.resize_s", "s/round"),
    ("grid_ops.conv2d_s", "s/round"), ("grid_ops.tconv_s", "s/round"),
    ("grid_ops.fgrd_io_s", "s/round"), ("grid_ops.sample_calls", "count/round"),
    ("grid_ops.conv_macs", "count/round"),
    ("lkbb.lka_forward_s", "s/round"), ("lkbb.fuse_s", "s/round"),
    ("cli.self_s", "s/round"),
]


class Job:
    """One operation of a workload.

    ``run(scope)`` does the work; it calls ``scope(root, fn)`` around each
    part so that the traced run can give it a root span (``"cli"`` for a
    command, ``"lib"`` for library calls). ``check()`` returns a list of
    problems and ``digest()`` a hash of the output files and of the bytes
    ``extra()`` returns.
    """

    def __init__(self, name, kind, frames, run, outputs, check, extra=lambda: b""):
        self.name, self.kind, self.frames = name, kind, frames
        self.run, self.outputs, self.check, self.extra = run, outputs, check, extra

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in self.outputs:
            h.update(Path(p).read_bytes())
        h.update(self.extra())
        return h.hexdigest()[:20]


def cli_job(name, kind, frames, argv, outputs, check):
    from streamperc import cli

    def run(scope):
        with contextlib.redirect_stdout(io.StringIO()):
            return scope("cli", lambda: cli.main(argv))

    return Job(name, kind, frames, run, outputs, check)


def check_report(prefix, n_cells, with_pr=True):
    """AP table shape and range; the precision-recall dump has a block per cell."""
    problems = []
    with open(prefix + ".csv") as f:
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    if rows[0] != ["class", "kind", "iou", "level", "ap"] or len(rows) != n_cells + 1:
        problems.append("%s.csv: expected %d cells" % (prefix, n_cells))
    aps = [float(r[4]) for r in rows[1:] if r[4] != ""]
    if not aps or not all(0.0 <= ap <= 1.0 for ap in aps) or max(aps) <= 0.0:
        problems.append("%s.csv: AP values missing, out of [0, 1] or all zero" % prefix)
    if with_pr:
        with open(prefix + "_pr.dat") as f:
            blocks = sum(1 for line in f if line.startswith("# "))
        if blocks != n_cells:
            problems.append("%s_pr.dat: %d blocks for %d cells" % (prefix, blocks, n_cells))
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def dense_eval(rng, work: Path):
    """Crowded short sequences, directory input.

    Why: the IoU count grows with the square of the objects per frame, so
    geometry, metrics and the precision-recall dump do almost all the work,
    while the stream simulator and the forecaster do almost none.
    """
    n_seq, n_frames, n_objects = 2, 3, 25
    for d in ("gt", "det", "frames"):
        (work / d).mkdir(parents=True)
    mcl_inputs = []
    for s in range(n_seq):
        frames = gen.label_sequence(rng, n_frames, n_objects, miss_rate=0.1, fp_rate=0.25)
        gen.write_lines(work / "gt" / ("%04d.txt" % s), [l for g, _ in frames for l in g])
        gen.write_lines(work / "det" / ("%04d.txt" % s), [l for _, d in frames for l in d])
        for f, (g, d) in enumerate(frames):
            gen.write_lines(work / "frames" / ("gt_%d_%d.txt" % (s, f)), g)
            gen.write_lines(work / "frames" / ("det_%d_%d.txt" % (s, f)), d)
            if f >= 2:
                mcl_inputs.append((s, f))
    total = n_seq * n_frames
    gt, det = str(work / "gt"), str(work / "det")
    ev, se = str(work / "eval"), str(work / "stream")
    jobs = [
        cli_job("eval", "eval", total, ["eval", "--gt", gt, "--det", det, "--output", ev],
                [ev + ".csv", ev + "_pr.dat"], lambda: check_report(ev, 36)),
        cli_job("stream-eval", "stream_eval", total,
                ["stream-eval", "--gt", gt, "--det", det, "--output", se,
                 "--latency-ms", "150", "--skip-stale"],
                [se + ".csv", se + "_pr.dat"], lambda: check_report(se, 36)),
    ]
    fr = work / "frames"
    for s, f in mcl_inputs:
        out = str(work / ("mcl_%d_%d.json" % (s, f)))
        argv = ["mcl", "--pred", str(fr / ("det_%d_%d.txt" % (s, f)))]
        for flag, k in (("--gt-t", f), ("--gt-tm1", f - 1), ("--gt-tm2", f - 2)):
            argv += [flag, str(fr / ("gt_%d_%d.txt" % (s, k)))]
        jobs.append(cli_job("mcl-%d-%d" % (s, f), "mcl", 1, argv + ["--output", out], [out],
                            lambda out=out: check_mcl(out)))
    return [jobs], "%d sequences x %d frames, %d objects/frame" % (n_seq, n_frames, n_objects)


def check_mcl(path):
    with open(path) as f:
        payload = json.load(f)
    values = [o["value"] for o in payload["objects"]]
    if payload["n_objects"] != len(values) or not values:
        return ["%s: no matched objects" % path]
    if not all(math.isfinite(v) and v >= 0.0 for v in values + [payload["mean_mcl"]]):
        return ["%s: loss not finite and >= 0" % path]
    return []


def long_stream(rng, work: Path):
    """One long sequence with few objects and a jittered latency trace.

    Why: many small frames make per-frame overhead count: schedule and
    pairing (quadratic in frames today), per-call matching set-up, Kalman
    steps and label parsing. One sequence, because with directory input
    every sequence reuses the same latency-trace prefix.
    """
    n_frames, n_objects = 1000, 2
    work.mkdir(parents=True)
    frames = gen.label_sequence(rng, n_frames, n_objects, miss_rate=0.1, fp_rate=0.25,
                                class_share=(("Car", 1.0),), speed_scale=0.6)
    gt, det, lat = str(work / "gt.txt"), str(work / "det.txt"), str(work / "latency.txt")
    gen.write_lines(gt, [l for g, _ in frames for l in g])
    gen.write_lines(det, [l for _, d in frames for l in d])
    # Latency about 1.5x the 100 ms interval, so about every other frame is skipped.
    gen.write_lines(lat, gen.latency_trace(rng, n_frames, 150.0, 0.2))
    common = ["--gt", gt, "--det", det, "--latency-trace", lat, "--skip-stale",
              "--classes", "Car", "--iou", "0.5"]
    se, st = str(work / "stream"), str(work / "streamer")
    jobs = [
        cli_job("stream-eval", "stream_eval", n_frames, ["stream-eval", "--output", se] + common,
                [se + ".csv", se + "_pr.dat"], lambda: check_report(se, 6)),
        cli_job("streamer", "streamer", n_frames, ["streamer", "--output", st] + common,
                [st + ".csv", st + "_forecasts.txt"],
                lambda: check_report(st, 6, with_pr=False) + check_forecasts(st, n_frames)),
    ]
    return [jobs], "1 sequence x %d frames, %d Car objects/frame" % (n_frames, n_objects)


def check_forecasts(prefix, n_frames):
    with open(prefix + "_forecasts.txt") as f:
        rows = [line.split() for line in f if line.strip()]
    ok = rows and all(len(r) == 18 and 0 <= int(r[0]) < n_frames for r in rows)
    ok = ok and all(math.isfinite(float(v)) for r in rows for v in r[10:])
    return [] if ok else ["%s_forecasts.txt: malformed forecasts" % prefix]


def bev_features(rng, work: Path):
    """FGRD grid sequence whose content moves by a known even shift.

    Why: only grid_ops, feature_flow and lkbb work here; the label layers
    are idle. Per-frame latency is the streaming quantity of a model's
    feature path. Each frame: ``flow`` through the CLI on (t, t-1), then
    fuse, large-kernel attention and multi-scale fusion through the library.
    """
    from streamperc import feature_flow, grid_ops, lkbb

    size, channels, n_frames, margin, step = 64, 32, 12, 16, 2
    work.mkdir(parents=True)
    paths, shifts = gen.grid_sequence(rng, str(work), n_frames, size, channels, margin, step)
    grids = [grid_ops.read_fgrd(p) for p in paths]

    def spec(cin, cout, k, **kw):
        groups = kw.get("groups", 1)
        shape = (cout, cin // groups, k, k)
        return grid_ops.ConvSpec(cin, cout, (k, k), weights=rng.uniform(-0.2, 0.2, shape), **kw)

    q = channels // 3
    reduce = spec(channels, q, 1)
    dw5 = spec(channels, channels, 5, groups=channels)
    dwd7 = spec(channels, channels, 7, dilation=3, groups=channels)
    pw = spec(channels, channels, 1)
    w_a = spec(channels, channels, 2, stride=2, transpose=True)
    w_b = spec(channels, channels // 2, 2, stride=2, transpose=True)

    jobs = []
    for t in range(1, n_frames):
        prefix = str(work / ("flow_%03d" % t))
        argv = ["flow", "--current", paths[t], "--previous", paths[t - 1], "--output", prefix]
        result = {}

        def run(scope, t=t, argv=argv, prefix=prefix, result=result):
            from streamperc import cli

            with contextlib.redirect_stdout(io.StringIO()):
                rc = scope("cli", lambda: cli.main(argv))

            def library():
                pseudo = grid_ops.read_fgrd(prefix + "_pseudo.fgrd")
                fused = feature_flow.fuse(grids[t - 1], grids[t], pseudo, reduce)
                attn = lkbb.lka_forward(fused, dw5, dwd7, pw)
                f1, f2 = grid_ops.max_pool(attn, 2), grid_ops.max_pool(attn, 4)
                return lkbb.lkbb_fuse(f1, f2, w_a, w_b)

            result["out"] = scope("lib", library)
            return rc

        outputs = [prefix + ".json", prefix + "_flow.fgrd", prefix + "_pseudo.fgrd"]
        check = (lambda t=t, prefix=prefix, result=result:
                 check_translation(grids[t], shifts[t], prefix, margin=8)
                 + check_out(result.get("out"), (size, size, channels // 2)))
        jobs.append(Job("frame-%d" % t, "frame", 1, run, outputs, check,
                        extra=lambda result=result: result["out"].tobytes()))
    # One frame per round, so frame_ms is the per-frame step time.
    return [[job] for job in jobs], "%d FGRD frames of %dx%dx%d, shifts of %d" % (
        n_frames, size, size, channels, step)


def check_translation(f_t, shift, prefix, margin):
    """The normative check in the grid interior: the flow equals the known
    shift and pseudo-next equals f_t translated once more by the shift
    (2x the shift relative to t-1)."""
    from streamperc import grid_ops

    flow = grid_ops.read_fgrd(prefix + "_flow.fgrd")
    pseudo = grid_ops.read_fgrd(prefix + "_pseudo.fgrd")
    h, w, _ = f_t.shape
    dr, dc = shift
    inner = (slice(margin, h - margin), slice(margin, w - margin))
    problems = []
    if not (np.all(flow[inner + (0,)] == dr) and np.all(flow[inner + (1,)] == dc)):
        problems.append("%s: flow differs from the shift %r" % (prefix, shift))
    expected = f_t[margin - dr : h - margin - dr, margin - dc : w - margin - dc]
    if not np.array_equal(pseudo[inner], expected):
        problems.append("%s: pseudo-next is not the grid translated by the shift" % prefix)
    return problems


def check_out(out, shape):
    if out is None or out.shape != shape or not np.all(np.isfinite(out)):
        return ["library output missing, mis-shaped or not finite"]
    return []


WORKLOADS = {"dense-eval": dense_eval, "long-stream": long_stream, "bev-features": bev_features}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


_KERNEL_X = np.linspace(0.0, 1.0, 16)


def speed_kernel() -> float:
    """Fixed interpreter and small-array numpy work; returns its wall time."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(200):
        s += float(np.dot(_KERNEL_X, np.roll(_KERNEL_X, 1))) + math.sin(i) * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while the workload runs.

    On a shared machine the CPU speed drifts by tens of percent in phases
    of seconds, for the program and for any fixed work alike. Every
    ``PERIOD_S`` seconds of wall time a SIGALRM handler times
    ``speed_kernel`` in the benchmark's own thread; nothing runs in
    parallel. ``spent`` is the time the handler took, which the runner
    subtracts from the job it interrupted. ``scale(t0, t1)`` is the mean of
    KERNEL_REF_S / sample over the samples taken within ``pad`` seconds of
    [t0, t1]: multiplying a time measured then by it gives the time at the
    machine speed where the kernel takes KERNEL_REF_S.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, speed_kernel()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, t0=-math.inf, t1=math.inf, pad=1.0) -> float:
        near = [KERNEL_REF_S / c for t, c in self.samples if t0 - pad <= t <= t1 + pad]
        if not near:  # a round far from every sample, or no samples at all
            near = [KERNEL_REF_S / c for _, c in self.samples] or [1.0]
        return statistics.fmean(near)


def measure_setup(repeats=SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import streamperc.cli as c; c.build_parser()"
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        if i:  # the first start compiles bytecode
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


class Runner:
    """Runs rounds of jobs, times them and checks their outputs."""

    def __init__(self, groups, expected, probe=None):
        self.groups = groups  # a round runs the next group of jobs
        self.probe = probe  # its handler time is not the job's
        self.expected = expected  # job name -> digest, or {} for unrecorded seeds
        self.first = {}
        self.attempted = self.failed = 0
        self.problems = []
        self.job_times = []  # (kind, frames, seconds, start)
        self.rounds = []  # (seconds, frames, start, end)

    def run_round(self, scope) -> float:
        total = frames = 0.0
        start = time.perf_counter()
        for job in self.groups[len(self.rounds) % len(self.groups)]:
            self.attempted += 1
            spent = self.probe.spent if self.probe else 0.0
            t0 = time.perf_counter()
            try:
                rc = job.run(scope)
            except Exception as exc:  # any crash is a failed operation
                rc = "%s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - t0
            if self.probe:
                dt -= self.probe.spent - spent
            problems = ["%s: exit %s" % (job.name, rc)] if rc != 0 else []
            if not problems:
                problems = self.check(job)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            self.job_times.append((job.kind, job.frames, dt, t0))
            total += dt
            frames += job.frames
        self.rounds.append((total, frames, start, time.perf_counter()))
        return total

    def check(self, job):
        problems = job.check()
        digest = job.digest()
        first = self.first.setdefault(job.name, digest)
        if digest != first:
            problems.append("%s: output differs from its first run" % job.name)
        want = self.expected.get(job.name)
        if want is not None and digest != want:
            problems.append("%s: digest %s, recorded %s" % (job.name, digest, want))
        return problems


def loop(runner, seconds, scopes):
    """Run rounds, cycling through ``scopes``, until the next would overrun."""
    start = time.perf_counter()
    last = {}
    i = 0
    while True:
        name, scope = scopes[i % len(scopes)]
        last[name] = runner.run_round(scope)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= len(scopes) and elapsed + max(last.values()) > seconds:
            return i


def untraced(root, fn):
    return fn()


def end_to_end_metrics(runner, setup_s, probe):
    """Whole-run rates and per-frame latency of the untraced rounds. Each
    round's time is scaled by the speed probe around it; unscaled values
    are printed alongside."""
    frames = sum(r[1] for r in runner.rounds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scales = [probe.scale(t0, t1) for _, _, t0, t1 in runner.rounds]

    def timing(ks):
        busy = sum(r[0] * k for r, k in zip(runner.rounds, ks))
        per_frame_ms = [1000.0 * r[0] * k / r[1] for r, k in zip(runner.rounds, ks)]
        return {
            "frames_per_s": frames / busy,
            "frame_ms.p50": quantile(per_frame_ms, 0.5),
            "frame_ms.p90": quantile(per_frame_ms, 0.9),
        }

    values = dict(timing(scales), setup_s=setup_s, peak_rss_mb=rss)
    raw = timing([1.0] * len(scales))
    lines = ["metric setup_s %.4f s (median of %d starts)" % (setup_s, SETUP_REPEATS)]
    for kind in sorted({j[0] for j in runner.job_times}):
        mine = [(f, s, s * probe.scale(t0, t0 + s)) for k, f, s, t0 in runner.job_times if k == kind]
        n = sum(m[0] for m in mine)
        lines.append("metric %s.frames_per_s %.4f frames/s (%d jobs, %d frames; unscaled %.4f)"
                     % (kind, n / sum(m[2] for m in mine), len(mine), n, n / sum(m[1] for m in mine)))
    lines.append("metric frames_per_s %.4f frames/s (%d rounds, %d frames; unscaled %.4f)"
                 % (values["frames_per_s"], len(runner.rounds), frames, raw["frames_per_s"]))
    for q in ("frame_ms.p50", "frame_ms.p90"):
        lines.append("metric %s %.4f ms (%d rounds; unscaled %.4f)"
                     % (q, values[q], len(runner.rounds), raw[q]))
    lines.append("metric peak_rss_mb %.1f MB" % rss)
    return values, lines


def layer_metrics(rec, n_rounds):
    raw = rec.layer_metrics()
    per_round = {k: v / n_rounds for k, v in raw.items()}
    calls = raw.get("geometry.iou_calls", 0)
    steps = raw.get("forecast.step_calls", 0)
    per_round["geometry.iou_nonzero_frac"] = raw.get("geometry.iou_nonzero", 0) / calls if calls else 0.0
    per_round["forecast.tracks_mean"] = raw.get("forecast.tracks", 0) / steps if steps else 0.0
    return {name: float(per_round.get(name, 0.0)) for name, _ in PER_LAYER}


def self_test(work: Path):
    """One-frame probe: the recorder must see the analytically known counts.

    Two easy Car ground truths, one detection equal to the first and one far
    from both. Per Car cell the first detection compares against both
    ground truths and the second against the unclaimed one: 3 IoU calls.
    There are 12 Car cells (2 kinds x 2 thresholds x 3 levels) and 36 cells
    in all; the precision-recall dump repeats the matching, so 72 IoU and
    72 match calls. A flow on an 8x8 grid samples each of its 64 pixels once.
    """
    from streamperc import cli

    work.mkdir(parents=True)
    gt = ["0 0 Car 0.00 0 0.0 600 150 700 250 1.5 1.6 3.9 0.0 1.5 20.0 0.0",
          "0 1 Car 0.00 0 0.0 800 150 900 250 1.5 1.6 3.9 10.0 1.5 30.0 0.0"]
    det = ["0 -1 Car 0.00 0 0.0 600 150 700 250 1.5 1.6 3.9 0.0 1.5 20.0 0.0 0.9",
           "0 -1 Car 0.00 0 0.0 400 150 500 250 1.5 1.6 3.9 -10.0 1.5 40.0 0.0 0.5"]
    gen.write_lines(work / "gt.txt", gt)
    gen.write_lines(work / "det.txt", det)
    rng = np.random.default_rng(0)
    gen.write_fgrd(work / "a.fgrd", rng.uniform(0.1, 1.0, (8, 8, 4)))
    gen.write_fgrd(work / "b.fgrd", rng.uniform(0.1, 1.0, (8, 8, 4)))
    rec = spans.Recorder()
    rec.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["eval", "--gt", str(work / "gt.txt"), "--det", str(work / "det.txt"),
                           "--output", str(work / "eval")])
            rc = rc or cli.main(["flow", "--current", str(work / "a.fgrd"), "--previous",
                                 str(work / "b.fgrd"), "--output", str(work / "flow")])
    finally:
        rec.remove()
    got = {k: rec.counts[k] for k in ("geometry.iou_calls", "metrics.match_calls",
                                      "geometry.iou_nonzero", "grid_ops.sample_calls")}
    want = {"geometry.iou_calls": 72, "metrics.match_calls": 72,
            "geometry.iou_nonzero": 24, "grid_ops.sample_calls": 64}
    if rc != 0 or got != want:
        raise SystemExit("span recorder self-test failed: got %r, want %r" % (got, want))


def host_line() -> str:
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (cfg.get("name"), cfg.get("version"))
    except (TypeError, KeyError):
        pass
    threads = " ".join("%s=%s" % (v, os.environ[v]) for v in THREAD_VARS)
    return ("host nproc=%d python=%s numpy=%s blas=%s %s"
            % (os.cpu_count() or 0, platform.python_version(), np.__version__, blas, threads))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="store output digests of one round")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "streamperc" / "cli.py").is_file():
        print("bench: %s/src/streamperc not found" % ROOT, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import streamperc

    if Path(streamperc.__file__).resolve().parents[1] != ROOT / "src":
        print("bench: imported streamperc from %s" % streamperc.__file__, file=sys.stderr)
        return 2

    tag = "%s-s%d" % (args.workload, args.seed)
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        rng = np.random.default_rng(args.seed)
        groups, desc = WORKLOADS[args.workload](rng, work / "inputs")
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        recorded = expected.get(args.workload, {}).get(str(args.seed), {})
        runner = Runner(groups, {} if args.record else recorded)
        print(host_line())
        print("workload %s seed %d: %s; %d jobs per round" % (args.workload, args.seed, desc, len(groups[0])))

        if args.record:
            for _ in groups:
                runner.run_round(untraced)
            if runner.failed:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            expected.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(runner.first.items()))
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
            print("recorded %d digests in %s" % (len(runner.first), EXPECTED))
            return 0

        if args.trace:
            self_test(work / "probe")
            rec = spans.Recorder()

            def traced(root, fn):
                rec.install()
                try:
                    return rec.job(runner.attempted, fn, root)
                finally:
                    rec.remove()

            n = loop(runner, args.seconds, [("traced", traced), ("untraced", untraced)])
            times = [r[0] for r in runner.rounds]
            t_traced, t_plain = times[0::2], times[1::2]
            metrics = {name: (value, unit) for (name, unit), value
                       in zip(PER_LAYER, layer_metrics(rec, len(t_traced)).values())}
            overhead = statistics.median(t_traced) / statistics.median(t_plain) - 1.0
            lines = ["tracing overhead %+.1f%% (median round %.4f s traced, %.4f s untraced; %d rounds)"
                     % (100 * overhead, statistics.median(t_traced), statistics.median(t_plain), n)]
            lines += ["layer %s %r %s" % (k, v, u) for k, (v, u) in metrics.items()]
            WORK.mkdir(exist_ok=True)
            rec.write(WORK / ("spans-%s.tsv" % tag))
        else:
            setup_s = measure_setup()
            with SpeedProbe() as probe:
                runner.probe = probe
                loop(runner, args.seconds, [("untraced", untraced)])
            values, lines = end_to_end_metrics(runner, setup_s, probe)
            lines.insert(0, "speed scale %.4f (%d kernel samples, median %.3f ms, reference %.3f ms)"
                         % (probe.scale(), len(probe.samples),
                            1e3 * statistics.median(c for _, c in probe.samples), 1e3 * KERNEL_REF_S))
            metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}

        failed_frac = runner.failed / runner.attempted
        lines.append("metric failed_frac %.4f ratio (%d of %d jobs)" % (failed_frac, runner.failed, runner.attempted))
        lines.append("digests %s" % ("checked against %s" % EXPECTED.name if recorded
                                     else "checked for repeatability only (seed not recorded)"))
        for line in lines + runner.problems[:20]:
            print(line)
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
