"""Command-line front end: offline AP, streaming sAP, the Kalman
forecasting baseline, feature flow, motion loss and backbone accounting.

Option precedence is flags > config file > built-in defaults; the config
file is flat ``key = value`` text keyed by the long option names (dashes
or underscores). Exit codes: 0 ok, 2 usage, 3 data error, 4 numerical
error. Each command returns its files ({path: bytes}) and its stdout text;
main writes the files all or none, then prints the text.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import feature_flow, forecast, grid_ops, lkbb, metrics, streaming_sim
from .geometry import Box3D
from .kitti_io import (
    DEFAULT_EVAL_RANGE,
    LabeledBox,
    ParseError,
    apply_range_filter,
    parse_tracking_labels,
)
from .motion_loss import DEFAULT_TAU, batch_mcl

DEFAULTS = {
    "interval_ms": 100.0,
    "latency_ms": 0.0,
    "iou": ",".join(map(str, metrics.DEFAULT_IOU_THRESHOLDS)),
    "classes": ",".join(metrics.DEFAULT_CLASSES),
    "d": feature_flow.DEFAULT_MAX_DISPLACEMENT,
    "rd": feature_flow.DEFAULT_DOWNSAMPLE_RATIO,
    "tau": DEFAULT_TAU,
    "beta": 1.0,
    "iou_kind": "bev",
}
# Keys a config file may set; main casts each to its default's type (str if none).
CONFIG_KEYS = frozenset(DEFAULTS) | {"latency_trace"}


def read_config_file(path: str) -> Dict[str, str]:
    cfg = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("config line %d: expected key = value" % lineno)
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in CONFIG_KEYS:
                raise ParseError("config line %d: unknown key %r" % (lineno, key))
            cfg[key] = value.strip()
    return cfg


def _load_label_map(path: str) -> Dict[int, List[LabeledBox]]:
    with open(path) as f:
        return parse_tracking_labels(f.read())


def _load_sequences(gt_path: str, det_path: str):
    """Yield (name, gt frame map, det frame map) per sequence, at least one."""
    if os.path.isdir(gt_path):
        if not os.path.isdir(det_path):
            raise ParseError("gt is a directory but detections are not")
        names = sorted(n for n in os.listdir(gt_path) if n.endswith(".txt"))
        if not names:
            raise ParseError("no sequences to evaluate")
        for name in names:
            det_file = os.path.join(det_path, name)
            dets = _load_label_map(det_file) if os.path.exists(det_file) else {}
            yield name, _load_label_map(os.path.join(gt_path, name)), dets
    else:
        yield os.path.basename(gt_path), _load_label_map(gt_path), _load_label_map(det_path)


def _boxes_to_preds(boxes: List[LabeledBox], class_ids: Dict[str, int]) -> List[Box3D]:
    """Boxes of the evaluated classes as Box3D; the parser has already
    rejected bad dims."""
    return [b.to_box3d(class_ids[b.class_name]) for b in boxes if b.class_name in class_ids]


def _parse_classes(args) -> Tuple[List[str], Dict[str, int]]:
    """Class names in order and their ids; a name given twice keeps the
    index of its last position, as metrics.cell_records numbers it."""
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not classes:
        raise ParseError("--classes names no class")
    return classes, {name: i for i, name in enumerate(classes)}


def _parse_thresholds(args) -> List[float]:
    thresholds = [float(v) for v in args.iou.split(",") if v]
    if not thresholds:
        raise ParseError("--iou names no threshold")
    for thr in thresholds:
        if not 0.0 < thr <= 1.0:
            raise ParseError("--iou threshold %r is outside (0, 1]" % thr)
    return thresholds


@dataclass
class _LabelOptions:
    """The options of eval, stream-eval or streamer, each parsed once."""

    classes: List[str]
    class_ids: Dict[str, int]
    thresholds: List[float]
    config: dict  # the report's "config" object
    stream: dict  # interval_ms, latency (ms or "trace") and skip_stale
    trace: Optional[List[float]]  # per-frame latencies, or None for a constant


def _label_options(args) -> _LabelOptions:
    classes, class_ids = _parse_classes(args)
    thresholds = _parse_thresholds(args)
    config = {
        "mode": args.mode,
        "classes": classes,
        "iou_thresholds": thresholds,
        "range_filter": not args.no_range_filter,
        "eval_range": DEFAULT_EVAL_RANGE,
    }
    # eval reads no stream option: offline AP is sAP at zero latency
    stream = {"interval_ms": DEFAULTS["interval_ms"], "latency": 0.0, "skip_stale": False}
    trace = None
    if args.mode != "offline":
        if args.latency_trace:
            with open(args.latency_trace) as f:
                trace = [float(line) for line in f if line.strip()]
        stream = dict(
            interval_ms=args.interval_ms,
            latency="trace" if args.latency_trace else args.latency_ms,
            skip_stale=args.skip_stale,
        )
        config.update(stream)
    return _LabelOptions(classes, class_ids, thresholds, config, stream, trace)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _ap_report(args, opts: _LabelOptions, pairs, missing_frames, pr_dump=True):
    """Evaluate the pairs. Return the files (the AP table and the missing
    frames as .json, the table as .csv and, unless pr_dump is False, the
    precision-recall curves as _pr.dat: gnuplot blocks of recall precision
    score) and the table as stdout text."""
    cells = metrics.evaluate_pairs(pairs, opts.classes, opts.thresholds)
    payload = {
        "config": opts.config,
        "results": [
            {"class": c.class_name, "kind": c.iou_kind, "iou": c.iou_threshold,
             "level": c.level, "ap": c.ap}
            for c in cells
        ],
        "missing_frames": missing_frames,
    }
    table = io.StringIO()
    csv.writer(table).writerows(
        [("class", "kind", "iou", "level", "ap")]
        + [(c.class_name, c.iou_kind, "%.2f" % c.iou_threshold, c.level,
            "" if c.ap is None else "%.6f" % c.ap) for c in cells]
    )
    files = {
        args.output + ".json": _json_text(payload).encode(),
        args.output + ".csv": table.getvalue().encode(),
    }
    if pr_dump:
        lines = []
        for cls_name, kind, thr, level, records, n_gt in metrics.cell_records(
            pairs, opts.classes, opts.thresholds
        ):
            lines.append("# %s %s iou=%.2f %s\n" % (cls_name, kind, thr, level.name.lower()))
            for score, prec, rec in metrics.pr_curve(records, n_gt):
                lines.append("%.6f %.6f %.6f\n" % (rec, prec, score))
            lines.append("\n\n")
        files[args.output + "_pr.dat"] = "".join(lines).encode()
    stdout = "".join(
        "%-10s %-3s iou=%.2f %-8s AP=%s\n"
        % (c.class_name, c.iou_kind, c.iou_threshold, c.level,
           "absent" if c.ap is None else "%.4f" % c.ap)
        for c in cells
    )
    return files, stdout


def _stream_sequences(args, opts: _LabelOptions):
    """Yield (schedule, outputs, gts, missing frames) per sequence.

    The schedule simulates the worker on the sequence's frames, 0 to the
    last labelled frame of either file; outputs are the evaluated classes'
    Box3D detections per frame and gts the ground truth, both range-filtered
    unless --no-range-filter; missing frames are the ground-truth frames
    with no detection line. Every sequence uses the first n_frames entries
    of the one latency trace.
    """
    use_range = opts.config["range_filter"]
    for name, gts, dets in _load_sequences(args.gt, args.det):
        n_frames = max(max(gts, default=0), max(dets, default=0)) + 1
        if opts.trace is None:
            latencies = [opts.stream["latency"]] * n_frames
        elif len(opts.trace) < n_frames:
            raise ParseError(
                "latency trace has %d entries for %d frames" % (len(opts.trace), n_frames)
            )
        else:
            latencies = opts.trace[:n_frames]
        schedule = streaming_sim.build_schedule(
            n_frames, opts.stream["interval_ms"], latencies, skip_stale=opts.stream["skip_stale"]
        )
        missing = [{"sequence": name, "frame": k} for k in sorted(gts) if k not in dets]
        if use_range:
            gts = {k: apply_range_filter(v) for k, v in gts.items()}
            dets = {k: apply_range_filter(v) for k, v in dets.items()}
        outputs = {k: _boxes_to_preds(v, opts.class_ids) for k, v in dets.items()}
        yield schedule, outputs, gts, missing


def cmd_eval(args):
    """eval and stream-eval: pair each ground-truth instant with the latest
    finished output; eval's schedule has zero latency."""
    opts = _label_options(args)
    pairs, missing_frames = [], []
    for schedule, outputs, gts, missing in _stream_sequences(args, opts):
        pairs.extend(streaming_sim.pair_stream(schedule, outputs, gts))
        missing_frames.extend(missing)
    return _ap_report(args, opts, pairs, missing_frames)


def cmd_streamer(args):
    opts = _label_options(args)
    all_pairs, dump_lines, missing_frames = [], [], []
    # A diverging filter's NaN state exits 4 through to_box; numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for schedule, det_boxes, gts, missing in _stream_sequences(args, opts):
            missing_frames.extend(missing)
            forecasts = forecast.stream_forecasts(schedule, det_boxes, opts.class_ids.values())
            for j, preds in enumerate(forecasts):
                all_pairs.append((preds, gts.get(j, [])))
                dump_lines.extend(
                    "%d %d %s 0 0 0 0 0 0 0 %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f\n"
                    % (j, p.track_id, opts.classes[p.class_id], *p.dims, *p.center, p.yaw, p.score)
                    for p in preds
                )
    files, stdout = _ap_report(args, opts, all_pairs, missing_frames, pr_dump=False)
    return {args.output + "_forecasts.txt": "".join(dump_lines).encode(), **files}, stdout


def cmd_flow(args):
    f_t = grid_ops.read_fgrd(args.current)
    f_tm1 = grid_ops.read_fgrd(args.previous)
    flow = feature_flow.compute_flow(f_t, f_tm1, d=args.d, r_d=args.rd)
    pseudo = feature_flow.warp_pseudo_next(f_t, flow)
    summary = {
        "config": {"d": args.d, "rd": args.rd, "current": args.current, "previous": args.previous},
        "flow_shape": list(flow.shape),
        "flow_mean": [float(flow[:, :, 0].mean()), float(flow[:, :, 1].mean())],
        "flow_max_abs": float(np.abs(flow).max()),
    }
    files = {
        args.output + "_flow.fgrd": grid_ops.fgrd_bytes(flow),
        args.output + "_pseudo.fgrd": grid_ops.fgrd_bytes(pseudo),
        args.output + ".json": _json_text(summary).encode(),
    }
    return files, json.dumps(summary, sort_keys=True) + "\n"


def cmd_mcl(args):
    _, class_ids = _parse_classes(args)

    def flat_boxes(path):
        frames = _load_label_map(path)
        return [b for k in sorted(frames) for b in _boxes_to_preds(frames[k], class_ids)]

    paths = (args.pred, args.gt_t, args.gt_tm1, args.gt_tm2)
    preds, gts_t, gts_tm1, gts_tm2 = map(flat_boxes, paths)
    per_object, mean = batch_mcl(
        preds, gts_t, gts_tm1, gts_tm2, tau=args.tau, beta=args.beta, iou_kind=args.iou_kind
    )
    payload = {
        "config": {"tau": args.tau, "beta": args.beta, "iou_kind": args.iou_kind},
        "objects": per_object,
        "mean_mcl": mean,
        "n_objects": len(per_object),
    }
    text = _json_text(payload)
    return ({args.output: text.encode()} if args.output else {}), text


def cmd_lkbb(args):
    with open(args.chain) as f:
        chain = lkbb.parse_chain(f.read())
    report = lkbb.complexity(chain, (args.height, args.width))
    payload = {
        "config": {"chain": args.chain, "input": [args.height, args.width]},
        "params": report.params,
        "flops": report.flops,
        "receptive_field": report.rf,
        "jump": report.jump,
    }
    return {}, _json_text(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamperc")
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eval_opts(p):
        p.add_argument("--gt", required=True)
        p.add_argument("--det", required=True)
        p.add_argument("--output", required=True, help="report path prefix")
        p.add_argument("--classes")
        p.add_argument("--iou", help="comma-separated IoU thresholds")
        p.add_argument("--no-range-filter", action="store_true")

    def add_stream_opts(p):
        p.add_argument("--interval-ms", type=float, dest="interval_ms")
        p.add_argument("--latency-ms", type=float, dest="latency_ms")
        p.add_argument(
            "--latency-trace",
            dest="latency_trace",
            help="per-frame latencies in ms, one per line; every sequence uses "
            "its first n_frames entries and the report's latency is \"trace\"",
        )
        p.add_argument("--skip-stale", action="store_true")

    p = sub.add_parser("eval", help="offline AP: frame k predictions vs frame k GT")
    add_eval_opts(p)
    p.set_defaults(func=cmd_eval, mode="offline")

    p = sub.add_parser("stream-eval", help="latency-aware sAP")
    add_eval_opts(p)
    add_stream_opts(p)
    p.set_defaults(func=cmd_eval, mode="streaming")

    p = sub.add_parser("streamer", help="Kalman forecasting baseline + sAP")
    add_eval_opts(p)
    add_stream_opts(p)
    p.set_defaults(func=cmd_streamer, mode="streamer")

    p = sub.add_parser("flow", help="feature flow + pseudo-next warp on FGRD grids")
    p.add_argument("--current", required=True, help="FGRD grid at time t")
    p.add_argument("--previous", required=True, help="FGRD grid at time t-1")
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--d", type=int, help="maximum displacement")
    p.add_argument("--rd", type=int, help="downsample ratio")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("mcl", help="motion-consistency loss on label files")
    p.add_argument("--pred", required=True, help="predicted boxes for t+1")
    p.add_argument("--gt-t", required=True, dest="gt_t")
    p.add_argument("--gt-tm1", required=True, dest="gt_tm1")
    p.add_argument("--gt-tm2", required=True, dest="gt_tm2")
    p.add_argument("--tau", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--iou-kind", dest="iou_kind", choices=["bev", "3d"])
    p.add_argument("--classes")
    p.add_argument("--output")
    p.set_defaults(func=cmd_mcl)

    p = sub.add_parser("lkbb", help="chain complexity / receptive-field report")
    p.add_argument("--chain", required=True, help="layer chain description file")
    p.add_argument("--height", type=int, default=192)
    p.add_argument("--width", type=int, default=192)
    p.set_defaults(func=cmd_lkbb)

    return parser


def _publish(files: Dict[str, bytes]) -> None:
    """Write all of the files or none: check that no destination is a
    directory, write each file to a temporary file beside it, then rename
    them over the destinations in order. On failure, remove the temporary
    files and re-raise."""
    for path in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps = []
    try:
        for path, data in files.items():
            tmp = "%s.%d.tmp" % (path, os.getpid())
            with open(tmp, "xb") as f:  # created with open(path, "w")'s mode
                temps.append(tmp)
                f.write(data)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(OSError):  # already renamed
                os.remove(tmp)
        raise


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = read_config_file(args.config) if args.config else {}
        # Flag > config file > default, once per option of the command; sorted, so
        # the first bad value named does not depend on the hash seed.
        for key in sorted(CONFIG_KEYS & vars(args).keys()):
            if getattr(args, key) is None and key in cfg:
                try:
                    setattr(args, key, type(DEFAULTS.get(key, ""))(cfg[key]))
                except ValueError as exc:
                    raise ParseError("config key %r: %s" % (key, exc)) from exc
            elif getattr(args, key) is None:
                setattr(args, key, DEFAULTS.get(key))
        files, stdout = args.func(args)
        _publish(files)
        sys.stdout.write(stdout)
        return 0
    # LinAlgError is a ValueError, so the numerical clause comes first.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
