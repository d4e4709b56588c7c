"""Span recorder for the traced run.

Wraps the package's public functions at every import site: each wrapped
call records a span (id, parent id, job id, name, start, end) in memory,
and some calls also add to counters. Spans are written out only when the
run ends. Self time of a span is its duration minus the time covered by its
direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> span name. Every binding of the function object in
# any loaded ``streamperc`` module is replaced, so names bound with
# ``from .geometry import iou_bev`` are wrapped too.
SPANNED = [
    ("kitti_io", "parse_tracking_labels"),
    ("kitti_io", "apply_range_filter"),
    ("streaming_sim", "build_schedule"),
    ("streaming_sim", "pair_stream"),
    ("geometry", "iou_bev"),
    ("geometry", "iou_3d"),
    ("geometry", "iou_matrix"),
    ("metrics", "match_frame"),
    ("metrics", "evaluate_pairs"),
    ("metrics", "ap_r40"),
    ("metrics", "pr_curve"),
    ("forecast", "streamer_step"),
    ("forecast", "associate"),
    ("forecast", "forecast_boxes"),
    ("motion_loss", "batch_mcl"),
    ("feature_flow", "similarity_volume"),
    ("feature_flow", "argmax_flow"),
    ("feature_flow", "compute_flow"),
    ("feature_flow", "warp_pseudo_next"),
    ("feature_flow", "fuse"),
    ("grid_ops", "max_pool"),
    ("grid_ops", "bilinear_resize"),
    ("grid_ops", "conv2d"),
    ("grid_ops", "transpose_conv2d"),
    ("grid_ops", "read_fgrd"),
    ("grid_ops", "write_fgrd"),
    ("lkbb", "lka_forward"),
    ("lkbb", "lkbb_fuse"),
]
# Called once per output pixel: counted, not spanned, so that its time
# stays inside the warp span instead of being dominated by recording.
COUNTED = [("grid_ops", "bilinear_sample")]

# Per-layer time metrics: name -> span names. A span whose ancestor is one
# of the same names is not counted again (evaluate_pairs under sap_report,
# pr_curve under ap_r40). Names ending in "self_s" use self time instead.
TIME_METRICS = {
    "kitti_io.parse_s": ["parse_tracking_labels"],
    "kitti_io.range_filter_s": ["apply_range_filter"],
    "streaming_sim.schedule_s": ["build_schedule"],
    "streaming_sim.pair_s": ["pair_stream"],
    "geometry.iou_s": ["iou_bev", "iou_3d"],
    "geometry.iou_matrix_s": ["iou_matrix"],
    "metrics.match_self_s": ["match_frame"],
    "metrics.evaluate_s": ["evaluate_pairs"],
    "metrics.ap_s": ["ap_r40", "pr_curve"],
    "forecast.step_s": ["streamer_step"],
    "forecast.associate_s": ["associate"],
    "forecast.forecast_s": ["forecast_boxes"],
    "motion_loss.batch_mcl_s": ["batch_mcl"],
    "feature_flow.similarity_s": ["similarity_volume"],
    "feature_flow.argmax_s": ["argmax_flow"],
    "feature_flow.flow_s": ["compute_flow"],
    "feature_flow.warp_s": ["warp_pseudo_next"],
    "feature_flow.fuse_s": ["fuse"],
    "grid_ops.max_pool_s": ["max_pool"],
    "grid_ops.resize_s": ["bilinear_resize"],
    "grid_ops.conv2d_s": ["conv2d"],
    "grid_ops.tconv_s": ["transpose_conv2d"],
    "grid_ops.fgrd_io_s": ["read_fgrd", "write_fgrd"],
    "lkbb.lka_forward_s": ["lka_forward"],
    "lkbb.fuse_s": ["lkbb_fuse"],
    # Root spans of CLI jobs: command time outside every layer span.
    "cli.self_s": ["cli"],
}


def _conv_macs(args, out) -> int:
    spec = args[1]
    kh, kw = spec.kernel
    per_out = spec.in_channels // spec.groups * kh * kw
    if spec.transpose:
        h, w = args[0].shape[:2]  # one scatter per input position
        return h * w * spec.out_channels * per_out
    return out.shape[0] * out.shape[1] * spec.out_channels * per_out


def _count(counts, name, args, out) -> None:
    """Counters kept at the same boundaries as the spans."""
    if name in ("iou_bev", "iou_3d"):
        counts["geometry.iou_calls"] += 1
        counts["geometry.iou_nonzero"] += out > 0.0
    elif name == "match_frame":
        counts["metrics.match_calls"] += 1
    elif name == "parse_tracking_labels":
        counts["kitti_io.lines"] += sum(1 for line in args[0].splitlines() if line.strip())
    elif name == "build_schedule":
        counts["streaming_sim.frames_skipped"] += sum(1 for ev in out.events if not ev.processed)
    elif name == "streamer_step":
        counts["forecast.step_calls"] += 1
        counts["forecast.tracks"] += len(out)
    elif name == "batch_mcl":
        counts["motion_loss.objects"] += len(out[0])
    elif name in ("conv2d", "transpose_conv2d"):
        counts["grid_ops.conv_macs"] += _conv_macs(args, out)
    elif name == "bilinear_sample":
        counts["grid_ops.sample_calls"] += 1


class Recorder:
    """In-memory spans and counters; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.spans = []  # (id, parent, job, name, t0, t1)
        self.counts = Counter()
        self._stack = []
        self._job = -1
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn, spanned):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if not spanned:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                _count(counts, name, args, out)
                return out
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, self._job, name, t0, t1)
            _count(counts, name, args, out)
            return out
        return wrapper

    def install(self) -> None:
        mods = {k: m for k, m in list(sys.modules.items())
                if k == "streamperc" or k.startswith("streamperc.")}
        for targets, spanned in ((SPANNED, True), (COUNTED, False)):
            for mod_name, fn_name in targets:
                orig = getattr(mods["streamperc." + mod_name], fn_name)
                wrapped = self._wrap(fn_name, orig, spanned)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def job(self, job_id: int, fn, root: str = "job"):
        """Run ``fn`` as job ``job_id`` under a root span named ``root``."""
        self._job = job_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, -1, job_id, root, t0, t1)

    def layer_metrics(self) -> dict:
        """Totals over all recorded spans: TIME_METRICS in seconds, plus counters."""
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        names = [s[3] for s in self.spans]
        parents = [s[1] for s in self.spans]

        def has_ancestor_in(sid, group):
            p = parents[sid]
            while p >= 0:
                if names[p] in group:
                    return True
                p = parents[p]
            return False

        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s[3]].append(s)
        out = {}
        for metric, group in TIME_METRICS.items():
            total = 0.0
            for name in group:
                for sid, _, _, _, t0, t1 in by_name[name]:
                    if metric.endswith("self_s"):
                        total += (t1 - t0) - child[sid]
                    elif not has_ancestor_in(sid, group):
                        total += t1 - t0
            out[metric] = total
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
            base = self.spans[0][4] if self.spans else 0.0
            for sid, parent, job, name, t0, t1 in self.spans:
                f.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (sid, parent, job, name, t0 - base, t1 - base))
