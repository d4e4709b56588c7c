"""Command-line front end: offline AP, streaming sAP, the Kalman
forecasting baseline, feature flow, motion loss and backbone accounting.

Option precedence is flags > config file > built-in defaults; the config
file is flat ``key = value`` text keyed by the long option names (dashes
or underscores). Exit codes: 0 ok, 2 usage, 3 data error, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import feature_flow, forecast, grid_ops, lkbb, metrics, streaming_sim
from .geometry import Box3D
from .kitti_io import (
    DEFAULT_EVAL_RANGE,
    LabeledBox,
    ParseError,
    apply_range_filter,
    in_eval_range,
    parse_tracking_labels,
)
from .motion_loss import DEFAULT_TAU, batch_mcl

DEFAULTS = {
    "interval_ms": 100.0,
    "latency_ms": 0.0,
    "iou": "0.7,0.5",
    "classes": "Car,Pedestrian,Cyclist",
    "d": feature_flow.DEFAULT_MAX_DISPLACEMENT,
    "rd": feature_flow.DEFAULT_DOWNSAMPLE_RATIO,
    "tau": DEFAULT_TAU,
    "beta": 1.0,
    "iou_kind": "bev",
}


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
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def resolve(args: argparse.Namespace, key: str, cast=str):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config", {})
    if key in cfg:
        return cast(cfg[key])
    return DEFAULTS.get(key)


def _load_label_map(path: str) -> Dict[int, List[LabeledBox]]:
    with open(path) as f:
        return parse_tracking_labels(f.read())


def _load_sequences(gt_path: str, det_path: str):
    """Yield (name, gt frame map, det frame map) for file or directory inputs."""
    if os.path.isdir(gt_path):
        if not os.path.isdir(det_path):
            raise ParseError("gt is a directory but detections are not")
        names = sorted(n for n in os.listdir(gt_path) if n.endswith(".txt"))
        for name in names:
            det_file = os.path.join(det_path, name)
            dets = _load_label_map(det_file) if os.path.exists(det_file) else {}
            yield name, _load_label_map(os.path.join(gt_path, name)), dets
    else:
        yield os.path.basename(gt_path), _load_label_map(gt_path), _load_label_map(det_path)


def _boxes_to_preds(
    boxes: List[LabeledBox], class_ids: Dict[str, int], use_range: bool = False
) -> List[Box3D]:
    """Boxes of the evaluated classes as Box3D, optionally cropped to the
    evaluation range. Every box is converted, and so validated, before the
    crop: an out-of-range box with a bad dimension is still a data error."""
    out = [b.to_box3d(class_ids[b.class_name]) for b in boxes if b.class_name in class_ids]
    if use_range:
        out = [p for p in out if in_eval_range(p.center)]
    return out


def _parse_classes(args) -> List[str]:
    return [c.strip() for c in str(resolve(args, "classes")).split(",") if c.strip()]


def _parse_thresholds(args) -> List[float]:
    return [float(v) for v in str(resolve(args, "iou")).split(",") if v]


def _write_report(out_prefix: str, cells, config: dict, extra: Optional[dict] = None):
    payload = {
        "config": config,
        "results": [
            {
                "class": c.class_name,
                "kind": c.iou_kind,
                "iou": c.iou_threshold,
                "level": c.level,
                "ap": c.ap,
            }
            for c in cells
        ],
    }
    if extra:
        payload.update(extra)
    with open(out_prefix + ".json", "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(out_prefix + ".csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class", "kind", "iou", "level", "ap"])
        for c in cells:
            writer.writerow(
                [
                    c.class_name,
                    c.iou_kind,
                    "%.2f" % c.iou_threshold,
                    c.level,
                    "" if c.ap is None else "%.6f" % c.ap,
                ]
            )
    for c in cells:
        ap = "absent" if c.ap is None else "%.4f" % c.ap
        print(
            "%-10s %-3s iou=%.2f %-8s AP=%s"
            % (c.class_name, c.iou_kind, c.iou_threshold, c.level, ap)
        )


def _write_pr_curves(out_prefix: str, pairs, classes, thresholds, class_ids):
    """Gnuplot-compatible dump: blank-line separated blocks of recall precision."""
    path = out_prefix + "_pr.dat"
    with open(path, "w") as f:
        for cls_name in classes:
            cid = class_ids[cls_name]
            for kind in ("bev", "3d"):
                for thr in thresholds:
                    for level in (
                        metrics.Difficulty.EASY,
                        metrics.Difficulty.MODERATE,
                        metrics.Difficulty.HARD,
                    ):
                        records = []
                        n_gt = 0
                        for preds, gts in pairs:
                            res = metrics.match_frame(
                                [p for p in preds if p.class_id == cid],
                                gts,
                                thr,
                                level,
                                kind,
                                class_name=cls_name,
                            )
                            records.extend(res.det_records)
                            n_gt += res.n_in_scope_gt
                        f.write(
                            "# %s %s iou=%.2f %s\n"
                            % (cls_name, kind, thr, level.name.lower())
                        )
                        for score, prec, rec in metrics.pr_curve(records, n_gt):
                            f.write("%.6f %.6f %.6f\n" % (rec, prec, score))
                        f.write("\n\n")


def _resolved_config(args, **extra) -> dict:
    cfg = {
        "classes": _parse_classes(args),
        "iou_thresholds": _parse_thresholds(args),
        "range_filter": not getattr(args, "no_range_filter", False),
        "eval_range": DEFAULT_EVAL_RANGE,
    }
    cfg.update(extra)
    return cfg


def _filtered_gts(gts: Dict[int, List[LabeledBox]], enabled: bool):
    if not enabled:
        return gts
    return {k: apply_range_filter(v) for k, v in gts.items()}


def cmd_eval(args) -> int:
    classes = _parse_classes(args)
    class_ids = {name: i for i, name in enumerate(classes)}
    thresholds = _parse_thresholds(args)
    use_range = not args.no_range_filter
    pairs = []
    missing_frames = []
    for name, gts, dets in _load_sequences(args.gt, args.det):
        gts = _filtered_gts(gts, use_range)
        for frame in sorted(gts):
            if frame not in dets:
                missing_frames.append({"sequence": name, "frame": frame})
            preds = _boxes_to_preds(dets.get(frame, []), class_ids, use_range)
            pairs.append((preds, gts[frame]))
    cells = metrics.evaluate_pairs(pairs, classes, thresholds, class_ids=class_ids)
    config = _resolved_config(args, mode="offline")
    _write_report(args.output, cells, config, {"missing_frames": missing_frames})
    _write_pr_curves(args.output, pairs, classes, thresholds, class_ids)
    return 0


def _stream_sequences(args, class_ids: Dict[str, int]):
    """Yield (schedule, outputs, gts) per sequence.

    The schedule simulates the worker on the sequence's frames; outputs are
    range-filtered Box3D detections per frame and gts the range-filtered
    ground truth. Every sequence uses the first n_frames entries of the one
    latency trace.
    """
    use_range = not args.no_range_filter
    interval = float(resolve(args, "interval_ms", float))
    trace = None
    trace_path = resolve(args, "latency_trace")
    if trace_path:
        with open(trace_path) as f:
            trace = [float(line) for line in f if line.strip()]
    else:
        lat = streaming_sim.LatencyModel.constant(float(resolve(args, "latency_ms", float)))
    for _, gts, dets in _load_sequences(args.gt, args.det):
        n_frames = max(max(gts, default=0), max(dets, default=0)) + 1
        if trace is not None:
            if len(trace) < n_frames:
                raise ParseError(
                    "latency trace has %d entries for %d frames" % (len(trace), n_frames)
                )
            lat = streaming_sim.LatencyModel.from_trace(trace[:n_frames])
        schedule = streaming_sim.build_schedule(
            n_frames, interval, lat, skip_stale=bool(args.skip_stale)
        )
        outputs = {k: _boxes_to_preds(v, class_ids, use_range) for k, v in dets.items()}
        yield schedule, outputs, _filtered_gts(gts, use_range)


def _write_stream_report(args, mode: str, pairs, classes, class_ids) -> None:
    cells = metrics.sap_report(pairs, classes, _parse_thresholds(args), class_ids=class_ids)
    config = _resolved_config(
        args,
        mode=mode,
        interval_ms=float(resolve(args, "interval_ms", float)),
        latency=(
            "trace"
            if resolve(args, "latency_trace")
            else float(resolve(args, "latency_ms", float))
        ),
        skip_stale=bool(args.skip_stale),
    )
    _write_report(args.output, cells, config)


def cmd_stream_eval(args) -> int:
    classes = _parse_classes(args)
    class_ids = {name: i for i, name in enumerate(classes)}
    all_pairs = []
    for schedule, outputs, gts in _stream_sequences(args, class_ids):
        all_pairs.extend(streaming_sim.pair_stream(schedule, outputs, gts))
    _write_stream_report(args, "streaming", all_pairs, classes, class_ids)
    _write_pr_curves(args.output, all_pairs, classes, _parse_thresholds(args), class_ids)
    return 0


def cmd_streamer(args) -> int:
    classes = _parse_classes(args)
    class_ids = {name: i for i, name in enumerate(classes)}
    all_pairs = []
    dump_lines = []
    for schedule, det_boxes, gts in _stream_sequences(args, class_ids):
        trackers = {c: forecast.StreamerTracker() for c in classes}
        last_world_ms = None
        for j, t_query, finished in streaming_sim.finished_by_instant(schedule):
            for ev in finished:
                dt_ms = (
                    ev.arrival_ms - last_world_ms
                    if last_world_ms is not None
                    else schedule.frame_interval_ms
                )
                frame_dets = det_boxes.get(ev.frame, [])
                for cls_name, tracker in trackers.items():
                    cid = class_ids[cls_name]
                    tracker.step(
                        [b for b in frame_dets if b.class_id == cid], dt_ms / 1000.0
                    )
                last_world_ms = ev.arrival_ms
            if last_world_ms is None:
                all_pairs.append(([], gts.get(j, [])))
                continue
            dt = (t_query - last_world_ms) / 1000.0
            preds = []
            for tracker in trackers.values():
                preds.extend(tracker.forecast(dt))
            all_pairs.append((preds, gts.get(j, [])))
            for p in preds:
                x, y, z = p.center
                h, w, l = p.dims
                dump_lines.append(
                    "%d %d %s 0 0 0 0 0 0 0 %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f"
                    % (
                        j,
                        p.track_id if p.track_id is not None else -1,
                        classes[p.class_id],
                        h,
                        w,
                        l,
                        x,
                        y,
                        z,
                        p.yaw,
                        p.score,
                    )
                )
    with open(args.output + "_forecasts.txt", "w") as f:
        f.write("\n".join(dump_lines) + ("\n" if dump_lines else ""))
    _write_stream_report(args, "streamer", all_pairs, classes, class_ids)
    return 0


def cmd_flow(args) -> int:
    f_t = grid_ops.read_fgrd(args.current)
    f_tm1 = grid_ops.read_fgrd(args.previous)
    d = int(resolve(args, "d", int))
    rd = int(resolve(args, "rd", int))
    flow = feature_flow.compute_flow(f_t, f_tm1, d=d, r_d=rd)
    pseudo = feature_flow.warp_pseudo_next(f_t, flow)
    grid_ops.write_fgrd(args.output + "_flow.fgrd", flow)
    grid_ops.write_fgrd(args.output + "_pseudo.fgrd", pseudo)
    summary = {
        "config": {"d": d, "rd": rd, "current": args.current, "previous": args.previous},
        "flow_shape": list(flow.shape),
        "flow_mean": [float(flow[:, :, 0].mean()), float(flow[:, :, 1].mean())],
        "flow_max_abs": float(np.abs(flow).max()),
    }
    with open(args.output + ".json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_mcl(args) -> int:
    classes = _parse_classes(args)
    class_ids = {name: i for i, name in enumerate(classes)}

    def flat_boxes(path):
        frames = _load_label_map(path)
        boxes = []
        for frame in sorted(frames):
            boxes.extend(_boxes_to_preds(frames[frame], class_ids))
        return boxes

    preds = flat_boxes(args.pred)
    gts_t = flat_boxes(args.gt_t)
    gts_tm1 = flat_boxes(args.gt_tm1)
    gts_tm2 = flat_boxes(args.gt_tm2)
    tau = float(resolve(args, "tau", float))
    beta = float(resolve(args, "beta", float))
    iou_kind = str(resolve(args, "iou_kind"))
    per_object, mean = batch_mcl(
        preds, gts_t, gts_tm1, gts_tm2, tau=tau, beta=beta, iou_kind=iou_kind
    )
    payload = {
        "config": {"tau": tau, "beta": beta, "iou_kind": iou_kind},
        "objects": per_object,
        "mean_mcl": mean,
        "n_objects": len(per_object),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_lkbb(args) -> int:
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
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


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
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stream-eval", help="latency-aware sAP")
    add_eval_opts(p)
    add_stream_opts(p)
    p.set_defaults(func=cmd_stream_eval)

    p = sub.add_parser("streamer", help="Kalman forecasting baseline + sAP")
    add_eval_opts(p)
    add_stream_opts(p)
    p.set_defaults(func=cmd_streamer)

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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = read_config_file(args.config) if args.config else {}
        return args.func(args)
    except (ParseError, FileNotFoundError, IsADirectoryError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 4
    except ValueError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
