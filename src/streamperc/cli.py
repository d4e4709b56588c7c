"""Command-line front end: offline AP, streaming sAP, the Kalman
forecasting baseline, feature flow, motion loss and backbone accounting.

Option precedence is flags > config file > built-in defaults; the config
file is flat ``key = value`` text keyed by the names of DEFAULTS (dashes
or underscores). Files, the latency trace among them, are flags only.
Exit codes: 0 ok, 2 usage, 3 data error, 4 numerical error. Each command
returns its files ({path: bytes}) and its stdout text; main writes the
files all or none, then prints the text.

main pauses the cyclic garbage collector while a command runs and then
restores the caller's setting. The label, box and record objects a command
builds form no reference cycles, so collecting would only scan them; the
few cycles a command leaves (the closures of json's indenting encoder) are
as many on 3 frames as on 300, and are freed at the next collection.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import gc
import io
import json
import os
import sys
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
}  # the keys a config file may set; main casts each to its default's type


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
            if key not in DEFAULTS:
                raise ParseError("config line %d: unknown key %r" % (lineno, key))
            cfg[key] = value.strip()
    return cfg


def _load_label_map(path: str) -> Dict[int, List[LabeledBox]]:
    with open(path) as f:
        return parse_tracking_labels(f.read())


def _load_detections(path: str) -> Dict[int, List[LabeledBox]]:
    """_load_label_map of a --det file, each of whose lines has a score."""
    frames = _load_label_map(path)
    for k, boxes in frames.items():
        if any(b.score is None for b in boxes):
            raise ParseError("%s: frame %d has a detection line without a score" % (path, k))
    return frames


def _load_sequences(gt_path: str, det_path: str):
    """Yield (name, gt frame map, det frame map) per sequence, at least one."""
    gt_dir = os.path.isdir(gt_path)
    if gt_dir != os.path.isdir(det_path):
        raise ParseError("gt is a directory but detections are not" if gt_dir
                         else "detections are a directory but gt is not")
    if gt_dir:
        names = sorted(n for n in os.listdir(gt_path) if n.endswith(".txt"))
        if not names:
            raise ParseError("no sequences to evaluate")
        for name in names:
            det_file = os.path.join(det_path, name)
            dets = _load_detections(det_file) if os.path.exists(det_file) else {}
            yield name, _load_label_map(os.path.join(gt_path, name)), dets
    else:
        yield os.path.basename(gt_path), _load_label_map(gt_path), _load_detections(det_path)


def _boxes_to_preds(boxes: List[LabeledBox], class_ids: Dict[str, int]) -> List[Box3D]:
    """Boxes of the evaluated classes as Box3D; the parser has already
    rejected bad dims."""
    return [b.to_box3d(class_ids[b.class_name]) for b in boxes if b.class_name in class_ids]


def _parse_classes(args) -> Dict[str, int]:
    """Parse args.classes in place into the class names in order; return
    their ids, as metrics.class_ids numbers them for cell_records."""
    args.classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not args.classes:
        raise ParseError("--classes names no class")
    if "DontCare" in args.classes:
        raise ParseError("--classes names DontCare, which marks ignored regions "
                         "and is not an evaluated class")
    return metrics.class_ids(args.classes)


def _number(text: str, message: str) -> float:
    """float(text), or a ParseError of message % text."""
    try:
        return float(text)
    except ValueError:
        raise ParseError(message % text) from None


def _label_options(args) -> Tuple[Dict[str, int], dict]:
    """Parse the options of eval, stream-eval or streamer in place, each
    once: the classes, the IoU thresholds and the latency trace (per-frame
    latencies, or None for a constant). Return the class ids and the
    report's "config" object."""
    class_ids = _parse_classes(args)
    args.iou = [_number(v, "--iou threshold %r is not a number") for v in args.iou.split(",") if v]
    if not args.iou:
        raise ParseError("--iou names no threshold")
    for thr in args.iou:
        if not 0.0 < thr <= 1.0:
            raise ParseError("--iou threshold %r is outside (0, 1]" % thr)
    config = {
        "mode": args.mode,
        "classes": args.classes,
        "iou_thresholds": args.iou,
        "range_filter": not args.no_range_filter,
        "eval_range": DEFAULT_EVAL_RANGE,
    }
    if args.mode == "offline":  # eval reads no stream option: offline AP is sAP at zero latency
        args.interval_ms, args.latency_ms = DEFAULTS["interval_ms"], 0.0
        args.skip_stale, args.latency_trace = False, None
        return class_ids, config
    latency = args.latency_ms if args.latency_trace is None else "trace"
    config.update(interval_ms=args.interval_ms, latency=latency, skip_stale=args.skip_stale)
    if args.latency_trace is not None:
        with open(args.latency_trace) as f:
            args.latency_trace = [
                _number(line, "latency trace line %d: not a number: %%r" % lineno)
                for lineno, line in enumerate(map(str.strip, f), start=1) if line
            ]
    return class_ids, config


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _ap_report(args, config, pairs, missing_frames, pr_dump=True):
    """Evaluate the pairs. Return the files (the AP table and the missing
    frames as .json, the table as .csv and, unless pr_dump is False, the
    precision-recall curves as _pr.dat: gnuplot blocks of recall precision
    score) and the table as stdout text."""
    cells = metrics.evaluate_pairs(pairs, args.classes, args.iou)
    payload = {
        "config": config,
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
            pairs, args.classes, args.iou
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


def cmd_eval(args):
    """eval, stream-eval and streamer. Per sequence, simulate the worker on
    frames 0 to the last labelled frame of either file, every sequence
    taking the first n_frames entries of the one latency trace; note the
    ground-truth frames with no detection line; range-filter the ground
    truth, and the detections of the frames the schedule processes (eval's,
    of zero latency, processes all), unless --no-range-filter. Then pair each
    ground-truth instant j with the latest finished output or, for streamer,
    with the Streamer's forecast to t_j, also dumped as rows of
    _forecasts.txt."""
    class_ids, config = _label_options(args)
    streamer = args.mode == "streamer"
    pairs, missing_frames, dump_lines = [], [], []
    # A diverging filter's NaN state exits 4 through to_box; numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for name, gts, dets in _load_sequences(args.gt, args.det):
            n_frames = max(max(gts, default=0), max(dets, default=0)) + 1
            latencies = args.latency_trace
            if latencies is None:
                latencies = [args.latency_ms] * n_frames
            if len(latencies) < n_frames:
                raise ParseError("latency trace has %d entries for %d frames" % (len(latencies), n_frames))
            schedule = streaming_sim.build_schedule(
                n_frames, args.interval_ms, latencies[:n_frames], skip_stale=args.skip_stale
            )
            missing_frames.extend({"sequence": name, "frame": k} for k in sorted(gts) if k not in dets)
            keep = list if args.no_range_filter else apply_range_filter
            gts = {k: keep(v) for k, v in gts.items()}
            # pairing and the trackers read only the processed frames' detections
            outputs = {ev.frame: _boxes_to_preds(keep(dets[ev.frame]), class_ids)
                       for ev in schedule.events if ev.processed and ev.frame in dets}
            if not streamer:
                pairs.extend(streaming_sim.pair_stream(schedule, outputs, gts))
                continue
            forecasts = forecast.stream_forecasts(schedule, outputs, class_ids.values())
            seq_pairs = [(preds, gts.get(j, [])) for j, preds in enumerate(forecasts)]
            pairs.extend(seq_pairs)
            dump_lines.extend(
                "%d %d %s 0 0 0 0 0 0 0 %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f\n"
                % (j, p.track_id, args.classes[p.class_id], *p.dims, *p.center, p.yaw, p.score)
                for j, (preds, _) in enumerate(seq_pairs) for p in preds
            )
        del dets, outputs  # the last sequence's detections, which the report never reads
    files, stdout = _ap_report(args, config, pairs, missing_frames, pr_dump=not streamer)
    if streamer:
        files = {args.output + "_forecasts.txt": "".join(dump_lines).encode(), **files}
    return files, stdout


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
    return files, json.dumps(summary, sort_keys=True, allow_nan=False) + "\n"


def cmd_mcl(args):
    class_ids = _parse_classes(args)

    def frame_boxes(path):  # the file's one frame index (None if empty) and its evaluated boxes
        frames = _load_label_map(path)
        if len(frames) > 1:
            raise ParseError("%s holds frames %s; an mcl file holds one" % (path, sorted(frames)))
        frame, boxes = next(iter(frames.items()), (None, []))
        return frame, _boxes_to_preds(boxes, class_ids)

    paths = (args.pred, args.gt_t, args.gt_tm1, args.gt_tm2)
    (_, preds), (t, gts_t), (tm1, gts_tm1), (tm2, gts_tm2) = map(frame_boxes, paths)
    for flag, frame, back in (("--gt-tm1", tm1, 1), ("--gt-tm2", tm2, 2)):
        if None not in (t, frame) and frame != t - back:
            raise ParseError("%s holds frame %d; expected frame %d (--gt-t holds frame %d)"
                             % (flag, frame, t - back, t))
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
    if not chain:
        raise ParseError("chain names no layer")
    report = lkbb.complexity(chain, (args.height, args.width))
    payload = {
        "config": {"chain": args.chain, "input": [args.height, args.width]},
        "params": report.params,
        "flops": report.flops,
        "receptive_field": report.rf,
        "jump": report.jump,
    }
    return {}, _json_text(payload)


@functools.lru_cache(maxsize=None)  # one parser per process, shared by all main() calls
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
        latency = p.add_mutually_exclusive_group()
        latency.add_argument("--latency-ms", type=float, dest="latency_ms")
        latency.add_argument(
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
    p.set_defaults(func=cmd_eval, mode="streamer")

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
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        cfg = read_config_file(args.config) if args.config else {}
        # Flag > config file > default, once per option of the command; sorted, so
        # the first bad value named does not depend on the hash seed.
        for key in sorted(DEFAULTS.keys() & vars(args).keys()):
            if getattr(args, key) is None:
                try:
                    setattr(args, key, type(DEFAULTS[key])(cfg.get(key, DEFAULTS[key])))
                except ValueError as exc:
                    raise ParseError("config key %r: %s" % (key, exc)) from exc
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
