import errno
import gc
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc import cli, feature_flow, geometry, metrics, streaming_sim
from streamperc.grid_ops import fgrd_bytes, read_fgrd, write_fgrd
from streamperc.kitti_io import LabeledBox, format_tracking_labels

from conftest import make_gt, textured_grid, translate_grid


def write_labels(path, frames):
    path.write_text(format_tracking_labels(frames))
    return str(path)


def simple_world(n_frames=4, score=None):
    frames = {}
    for f in range(n_frames):
        frames[f] = [
            make_gt(frame=f, track_id=i, x=6.0 * i, z=10.0, score=score)
            for i in range(2)
        ]
    return frames


class TestEval:
    def test_gt_copy_scores_one(self, tmp_path, capsys):
        world = simple_world()
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        out = str(tmp_path / "report")
        assert cli.main(["eval", "--gt", gt, "--det", det, "--output", out]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        car = [r for r in payload["results"] if r["class"] == "Car"]
        assert car and all(r["ap"] == pytest.approx(1.0) for r in car)
        assert payload["missing_frames"] == []
        assert "AP=1.0000" in capsys.readouterr().out

    def test_empty_detections_zero(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = tmp_path / "det.txt"
        det.write_text("")
        out = str(tmp_path / "report")
        assert cli.main(["eval", "--gt", gt, "--det", str(det), "--output", out]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        for r in payload["results"]:
            if r["class"] == "Car":
                assert r["ap"] == 0.0
            else:
                assert r["ap"] is None

    def test_missing_frames_reported(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world(4))
        partial = simple_world(4, score=0.9)
        del partial[2]
        det = write_labels(tmp_path / "det.txt", partial)
        out = str(tmp_path / "report")
        cli.main(["eval", "--gt", gt, "--det", det, "--output", out])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [m["frame"] for m in payload["missing_frames"]] == [2]

    def test_range_filter_drops_far_gt(self, tmp_path):
        world = {0: [make_gt(track_id=0, z=10.0), make_gt(track_id=1, z=80.0)]}
        gt = write_labels(tmp_path / "gt.txt", world)
        near_only = {0: [make_gt(track_id=0, z=10.0, score=0.9)]}
        det = write_labels(tmp_path / "det.txt", near_only)
        out = str(tmp_path / "r1")
        cli.main(["eval", "--gt", gt, "--det", det, "--output", out])
        filtered = json.loads((tmp_path / "r1.json").read_text())
        car = [r for r in filtered["results"] if r["class"] == "Car"]
        assert all(r["ap"] == pytest.approx(1.0) for r in car)
        out2 = str(tmp_path / "r2")
        cli.main(["eval", "--gt", gt, "--det", det, "--output", out2,
                  "--no-range-filter"])
        unfiltered = json.loads((tmp_path / "r2.json").read_text())
        car2 = [r for r in unfiltered["results"] if r["class"] == "Car"]
        assert all(r["ap"] < 1.0 for r in car2)

    def test_directory_inputs(self, tmp_path):
        gt_dir = tmp_path / "gt"
        det_dir = tmp_path / "det"
        gt_dir.mkdir()
        det_dir.mkdir()
        for seq in ("0000.txt", "0001.txt"):
            write_labels(gt_dir / seq, simple_world(2))
            write_labels(det_dir / seq, simple_world(2, score=0.8))
        out = str(tmp_path / "report")
        assert cli.main(["eval", "--gt", str(gt_dir), "--det", str(det_dir),
                         "--output", out]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        car = [r for r in payload["results"] if r["class"] == "Car"]
        assert all(r["ap"] == pytest.approx(1.0) for r in car)

    def test_pr_curve_dump(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        out = str(tmp_path / "report")
        cli.main(["eval", "--gt", gt, "--det", det, "--output", out])
        text = (tmp_path / "report_pr.dat").read_text()
        assert "# Car bev iou=0.70 easy" in text
        assert "1.000000 1.000000 0.900000" in text

    def test_class_named_twice(self, tmp_path, monkeypatch):
        # both Car row sets score the detections, which carry the id of the
        # last Car; numbering the cells by position would leave one at 0.
        # The repeat's rows are written again, with no IoU call of their own.
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        calls = []
        for name in ("iou_bev", "iou_3d"):
            def counting(a, b, real=getattr(metrics, name)):
                calls.append(real)
                return real(a, b)
            monkeypatch.setattr(metrics, name, counting)
        rows, n_calls = {}, {}
        for classes in ("Car", "Car,Car"):
            out = tmp_path / classes.replace(",", "_")
            calls.clear()
            assert cli.main(["eval", "--gt", gt, "--det", det, "--output", str(out),
                             "--classes", classes]) == 0
            rows[classes] = out.with_suffix(".csv").read_text().splitlines()[1:]
            n_calls[classes] = len(calls)
        assert len(rows["Car"]) == 12
        assert rows["Car,Car"] == rows["Car"] * 2
        assert n_calls["Car,Car"] == n_calls["Car"] > 0

    def test_determinism(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        cli.main(["eval", "--gt", gt, "--det", det, "--output", str(tmp_path / "a")])
        cli.main(["eval", "--gt", gt, "--det", det, "--output", str(tmp_path / "b")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


_SLOT = st.tuples(
    st.sampled_from(["Car", "Pedestrian"]),
    st.sampled_from([-6.0, 0.0, 6.0]),  # x
    st.sampled_from([10.0, 30.0, 60.0]),  # z; 60 m lies beyond the range crop
    st.sampled_from([20.0, 30.0, 50.0]),  # 2D box height: every difficulty
)
_DET_SLOT = st.tuples(_SLOT, st.sampled_from([0.0, 0.5, 3.0]), st.sampled_from([0.3, 0.6, 0.9]))


@st.composite
def label_worlds(draw):
    """(ground truth, detections) over up to six frames, each frame's list
    possibly empty: frames with no ground-truth line, frames with no
    detection line and detection-only frames after the last ground truth
    all occur."""
    gts, dets = {}, {}
    for f in range(draw(st.integers(1, 6))):
        gts[f] = [make_gt(frame=f, track_id=i, class_name=c, x=x, z=z, bbox_height=bh)
                  for i, (c, x, z, bh) in enumerate(draw(st.lists(_SLOT, max_size=3)))]
        dets[f] = [make_gt(frame=f, track_id=-1, class_name=c, x=x + dx, z=z, bbox_height=bh,
                           score=score)
                   for (c, x, z, bh), dx, score in draw(st.lists(_DET_SLOT, max_size=3))]
    return gts, dets


class TestOfflineIsZeroLatency:
    """eval is stream-eval on a zero-latency schedule: every frame from 0 to
    the last labelled frame of either file is scored."""

    @staticmethod
    def run_both(tmp, gts, dets):
        gt = write_labels(tmp / "gt.txt", gts)
        det = write_labels(tmp / "det.txt", dets)
        for command, flags in (("eval", []), ("stream-eval", ["--latency-ms", "0"])):
            assert cli.main([command, "--gt", gt, "--det", det,
                             "--output", str(tmp / command)] + flags) == 0
        for suffix in (".csv", "_pr.dat"):
            assert (tmp / ("eval" + suffix)).read_bytes() == \
                (tmp / ("stream-eval" + suffix)).read_bytes()
        return json.loads((tmp / "eval.json").read_text())

    @settings(max_examples=40, deadline=None)
    @given(world=label_worlds())
    def test_reports_identical(self, world):
        with tempfile.TemporaryDirectory() as tmp:
            self.run_both(Path(tmp), *world)

    def test_false_positive_on_frame_without_ground_truth(self, tmp_path):
        # frame 1 has no ground-truth line and one 0.9 false positive; the
        # 0.8 detections of frames 0 and 2 are exact: precision 2/3 at full
        # recall. eval used to skip frame 1 and report 1.0.
        gts = {0: [make_gt(frame=0)], 2: [make_gt(frame=2)]}
        dets = {0: [make_gt(frame=0, score=0.8)], 1: [make_gt(frame=1, x=8.0, score=0.9)],
                2: [make_gt(frame=2, score=0.8)]}
        payload = self.run_both(tmp_path, gts, dets)
        car = [r["ap"] for r in payload["results"] if r["class"] == "Car"]
        assert len(car) == 12 and all(ap == pytest.approx(2.0 / 3.0) for ap in car)
        assert payload["config"] == {
            "mode": "offline", "classes": ["Car", "Pedestrian", "Cyclist"],
            "iou_thresholds": [0.7, 0.5], "range_filter": True,
            "eval_range": {k: list(v) for k, v in cli.DEFAULT_EVAL_RANGE.items()},
        }
        assert payload["missing_frames"] == []


@st.composite
def stream_timings(draw):
    """(interval, latencies, traced, skip_stale), times in whole ns: six
    latencies for a trace (label_worlds has at most six frames) or one
    constant latency. Latencies of whole intervals tie finishes with
    instants."""
    interval = draw(st.integers(1, 200_000_000))
    latency = st.one_of(st.integers(0, 3 * interval),
                        st.integers(0, 3).map(lambda m: m * interval))
    traced = draw(st.booleans())
    latencies = draw(st.lists(latency, min_size=6, max_size=6) if traced else st.tuples(latency))
    return interval, list(latencies), traced, draw(st.booleans())


def stream_flags(tmp, timing, scale):
    """The stream options of a stream_timings draw, every time times scale."""
    interval, latencies, traced, skip_stale = timing

    def ms(ns):
        return repr(scale * ns / 1_000_000)

    flags = ["--interval-ms", ms(interval)] + (["--skip-stale"] if skip_stale else [])
    if not traced:
        return flags + ["--latency-ms", ms(latencies[0])]
    trace = tmp / ("trace%d.txt" % scale)
    trace.write_text("".join(ms(v) + "\n" for v in latencies))
    return flags + ["--latency-trace", str(trace)]


class TestMetamorphic:
    """Transformed inputs that must leave the AP table and the PR dump
    byte-identical. streamer is out of scope: its pairs come from Kalman
    forecasts, whose step lengths change with the interval."""

    @staticmethod
    def reports(tmp, command, gt, det, flags, name):
        assert cli.main([command, "--gt", gt, "--det", det,
                         "--output", str(tmp / name)] + flags) == 0
        return [(tmp / (name + suffix)).read_bytes() for suffix in (".csv", "_pr.dat")]

    @settings(max_examples=100, deadline=None)
    @given(world=label_worlds(), timing=stream_timings())
    def test_doubled_interval_and_latencies(self, world, timing):
        # the schedule is exact in ns, so doubling every time doubles every
        # arrival and finish and keeps every pairing
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            gt = write_labels(tmp / "gt.txt", world[0])
            det = write_labels(tmp / "det.txt", world[1])
            single, double = (
                self.reports(tmp, "stream-eval", gt, det, stream_flags(tmp, timing, scale),
                             "x%d" % scale)
                for scale in (1, 2)
            )
            assert single == double

    @settings(max_examples=50, deadline=None)
    @given(worlds=st.lists(label_worlds(), min_size=1, max_size=3), timing=stream_timings())
    def test_duplicated_sequences(self, worlds, timing):
        # TP, FP and the ground-truth count all double, and every precision
        # and recall is a ratio of them
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for copies in (1, 2):
                for side, world_side in (("gt", 0), ("det", 1)):
                    folder = tmp / ("%s%d" % (side, copies))
                    folder.mkdir()
                    for i, world in enumerate(worlds):
                        for c in range(copies):
                            write_labels(folder / ("%04d_%d.txt" % (i, c)), world[world_side])
            for command, flags in (("eval", []),
                                   ("stream-eval", stream_flags(tmp, timing, 1))):
                once, twice = (
                    self.reports(tmp, command, str(tmp / ("gt%d" % copies)),
                                 str(tmp / ("det%d" % copies)), flags,
                                 "%s%d" % (command, copies))
                    for copies in (1, 2)
                )
                assert once == twice


class TestStreamEval:
    def test_zero_latency_matches_offline(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        out = str(tmp_path / "report")
        assert cli.main(["stream-eval", "--gt", gt, "--det", det, "--output", out,
                         "--latency-ms", "0"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        car = [r for r in payload["results"] if r["class"] == "Car"]
        assert all(r["ap"] == pytest.approx(1.0) for r in car)
        assert payload["config"]["latency"] == 0.0

    def test_latency_hurts_moving_world(self, tmp_path):
        # one car moving 2 m/frame: stale outputs miss at IoU 0.7
        world = {f: [make_gt(frame=f, track_id=0, x=2.0 * f, z=10.0)] for f in range(6)}
        dets = {f: [make_gt(frame=f, track_id=0, x=2.0 * f, z=10.0, score=0.9)]
                for f in range(6)}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        out = str(tmp_path / "report")
        cli.main(["stream-eval", "--gt", gt, "--det", det, "--output", out,
                  "--latency-ms", "80", "--iou", "0.7"])
        payload = json.loads((tmp_path / "report.json").read_text())
        car_bev = [r for r in payload["results"]
                   if r["class"] == "Car" and r["kind"] == "bev"]
        assert all(r["ap"] == 0.0 for r in car_bev)

    def test_latency_trace(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world(3))
        det = write_labels(tmp_path / "det.txt", simple_world(3, score=0.9))
        trace = tmp_path / "trace.txt"
        trace.write_text("10\n20\n30\n")
        out = str(tmp_path / "report")
        assert cli.main(["stream-eval", "--gt", gt, "--det", det, "--output", out,
                         "--latency-trace", str(trace)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["latency"] == "trace"

    @pytest.mark.parametrize("command", ["stream-eval", "streamer"])
    @pytest.mark.parametrize("trace, flags", [
        pytest.param("10\n", [], id="short-trace"),
        pytest.param("nan\n0\n0\n", [], id="nan-trace"),
        pytest.param("0\ninf\n0\n", [], id="inf-trace"),
        pytest.param(None, ["--latency-ms", "nan"], id="latency-nan"),
        pytest.param(None, ["--latency-ms", "inf"], id="latency-inf"),
        pytest.param(None, ["--latency-ms", "-1"], id="latency-negative"),
        pytest.param(None, ["--interval-ms", "nan"], id="interval-nan"),
        pytest.param(None, ["--interval-ms", "inf"], id="interval-inf"),
        pytest.param(None, ["--interval-ms", "-1"], id="interval-negative"),
    ])
    def test_short_trace_is_data_error(self, tmp_path, capsys, command, trace, flags):
        # at zero latency this world scores Car sAP 1.0; a bad latency or
        # interval must not turn into a silent 0.0
        gt = write_labels(tmp_path / "gt.txt", simple_world(3))
        det = write_labels(tmp_path / "det.txt", simple_world(3, score=0.9))
        if trace is not None:
            (tmp_path / "trace.txt").write_text(trace)
            flags = ["--latency-trace", str(tmp_path / "trace.txt")]
        rc = cli.main([command, "--gt", gt, "--det", det,
                       "--output", str(tmp_path / "r")] + flags)
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    def test_empty_directory_is_data_error(self, tmp_path, capsys, command):
        (tmp_path / "gt").mkdir()
        (tmp_path / "det").mkdir()
        rc = cli.main([command, "--gt", str(tmp_path / "gt"), "--det", str(tmp_path / "det"),
                       "--output", str(tmp_path / "r")])
        assert rc == 3
        assert "data error: no sequences" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    @pytest.mark.parametrize("directory, err", [
        pytest.param("gt", "gt is a directory but detections are not", id="gt-directory"),
        pytest.param("det", "detections are a directory but gt is not", id="det-directory"),
    ])
    def test_file_and_directory_mix_is_named(self, tmp_path, capsys, command, directory, err):
        # a --det directory beside a --gt file used to end in "[Errno 21] Is a directory"
        paths = {}
        for side, score in (("gt", None), ("det", 0.9)):
            path = tmp_path / side
            if side == directory:
                path.mkdir()
                path = path / "0000.txt"
            write_labels(path, simple_world(2, score=score))
            paths[side] = str(tmp_path / side)
        rc = cli.main([command, "--gt", paths["gt"], "--det", paths["det"],
                       "--output", str(tmp_path / "r")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: %s\n" % err and captured.out == ""

    @pytest.mark.parametrize("command", ["stream-eval", "streamer"])
    def test_missing_frames_reported(self, tmp_path, command):
        gt = write_labels(tmp_path / "gt.txt", simple_world(4))
        partial = simple_world(4, score=0.9)
        del partial[2]
        det = write_labels(tmp_path / "det.txt", partial)
        assert cli.main([command, "--gt", gt, "--det", det,
                         "--output", str(tmp_path / "r"), "--latency-ms", "50"]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["missing_frames"] == [{"sequence": "gt.txt", "frame": 2}]

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    def test_missing_detection_file_reported(self, tmp_path, command):
        for name in ("gt", "det"):
            (tmp_path / name).mkdir()
        write_labels(tmp_path / "gt" / "0000.txt", simple_world(2))
        write_labels(tmp_path / "gt" / "0001.txt", simple_world(2))
        write_labels(tmp_path / "det" / "0000.txt", simple_world(2, score=0.9))
        assert cli.main([command, "--gt", str(tmp_path / "gt"), "--det", str(tmp_path / "det"),
                         "--output", str(tmp_path / "r")]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["missing_frames"] == [{"sequence": "0001.txt", "frame": 0},
                                             {"sequence": "0001.txt", "frame": 1}]


class TestOneLatencySource:
    """A stream run takes its latency from --latency-ms or from
    --latency-trace, never from both. One Car moves 2 m per frame and is
    detected exactly: at 150 ms it scores below 1.0 at IoU 0.5, and a
    trace of zeros scores it 1.0. A trace used to win silently over an
    explicit --latency-ms, from a second flag or from the config file,
    where latency_trace is now an unknown key (test_unread_key_is_data_error)."""

    @staticmethod
    def argv(tmp, command):
        world = {f: [make_gt(frame=f, x=2.0 * f)] for f in range(6)}
        dets = {f: [make_gt(frame=f, x=2.0 * f, score=0.9)] for f in range(6)}
        (tmp / "zero.txt").write_text("0\n" * 6)
        return [command, "--gt", write_labels(tmp / "gt.txt", world),
                "--det", write_labels(tmp / "det.txt", dets), "--output", str(tmp / "r"),
                "--classes", "Car", "--iou", "0.5"]

    @staticmethod
    def reports(tmp):
        return {p.name: p.read_bytes() for p in sorted(tmp.glob("r*"))}

    @pytest.mark.parametrize("command", ["stream-eval", "streamer"])
    def test_both_flags_are_usage_error(self, tmp_path, capsys, command):
        argv = self.argv(tmp_path, command)
        assert cli.main(argv + ["--latency-ms", "150"]) == 0
        assert "AP=1.0000" not in capsys.readouterr().out
        for p in tmp_path.glob("r*"):
            p.unlink()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--latency-ms", "150", "--latency-trace", str(tmp_path / "zero.txt")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err and captured.out == ""
        assert self.reports(tmp_path) == {}

    @pytest.mark.parametrize("command", ["stream-eval", "streamer"])
    def test_trace_flag_beside_config_latency(self, tmp_path, capsys, command):
        argv = self.argv(tmp_path, command) + ["--latency-trace", str(tmp_path / "zero.txt")]
        assert cli.main(argv) == 0
        alone = self.reports(tmp_path)
        assert json.loads(alone["r.json"])["config"]["latency"] == "trace"
        assert all(r["ap"] == 1.0 for r in json.loads(alone["r.json"])["results"])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("latency_ms = 150\n")
        assert cli.main(["--config", str(cfg)] + argv) == 0
        assert self.reports(tmp_path) == alone
        out = capsys.readouterr().out
        assert "AP=0.0000" not in out and "AP=1.0000" in out


class TestStreamer:
    def test_tracks_static_world(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world(8))
        det = write_labels(tmp_path / "det.txt", simple_world(8, score=0.9))
        out = str(tmp_path / "report")
        assert cli.main(["streamer", "--gt", gt, "--det", det, "--output", out,
                         "--latency-ms", "80", "--iou", "0.7"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        car_bev = [r for r in payload["results"]
                   if r["class"] == "Car" and r["kind"] == "bev"]
        # instant 0 has no finished output yet; the other 7 are forecast in place
        assert all(r["ap"] >= 7.0 / 8.0 - 1e-9 for r in car_bev)
        dump = (tmp_path / "report_forecasts.txt").read_text().strip().splitlines()
        assert dump and all(line.split()[2] == "Car" for line in dump)

    def test_beats_stale_on_moving_world(self, tmp_path):
        world = {f: [make_gt(frame=f, track_id=0, x=2.0 * f, z=20.0)] for f in range(10)}
        dets = {f: [make_gt(frame=f, track_id=0, x=2.0 * f, z=20.0, score=0.9)]
                for f in range(10)}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        cli.main(["streamer", "--gt", gt, "--det", det,
                  "--output", str(tmp_path / "fc"), "--latency-ms", "80", "--iou", "0.7"])
        cli.main(["stream-eval", "--gt", gt, "--det", det,
                  "--output", str(tmp_path / "stale"), "--latency-ms", "80", "--iou", "0.7"])
        ap = lambda p: [r["ap"] for r in json.loads(p.read_text())["results"]
                        if r["class"] == "Car" and r["kind"] == "bev" and r["level"] == "easy"][0]
        assert ap(tmp_path / "fc.json") > ap(tmp_path / "stale.json")

    def test_skip_stale_forecasts_exact_after_second_output(self, tmp_path):
        # latency 1.5x the interval with skip-stale: frames 0, 2, 4, ... are
        # processed and finish at 150, 350, 550, ... ms. Instants 0 and 1 have
        # no output; 2 and 3 see only frame 0 (no velocity yet); from instant
        # 4 on, frames 0 and 2 give the exact velocity of the 0.5 m/frame car.
        world = {f: [make_gt(frame=f, track_id=0, x=0.5 * f, z=20.0)] for f in range(10)}
        dets = {f: [make_gt(frame=f, track_id=0, x=0.5 * f, z=20.0, score=0.9)]
                for f in range(10)}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        out = str(tmp_path / "fc")
        assert cli.main(["streamer", "--gt", gt, "--det", det, "--output", out,
                         "--latency-ms", "150", "--skip-stale"]) == 0
        rows = [line.split() for line in
                (tmp_path / "fc_forecasts.txt").read_text().splitlines()]
        assert [int(r[0]) for r in rows] == list(range(2, 10))
        x_at = {int(r[0]): float(r[13]) for r in rows}
        assert x_at[2] == x_at[3] == 0.0
        for j in range(4, 10):
            assert x_at[j] == pytest.approx(0.5 * j, abs=1e-6)
        config = json.loads((tmp_path / "fc.json").read_text())["config"]
        assert config["latency"] == 150.0 and config["skip_stale"] is True

    def test_each_class_has_its_own_tracker(self, tmp_path):
        # a Pedestrian on top of the Car and one beside it; with one shared
        # tracker the ids would run 0-2 and the Car's track could take a
        # Pedestrian's box
        objects = (("Car", 0.0, 0.9), ("Pedestrian", 0.2, 0.4), ("Pedestrian", 6.0, 0.3))
        world = {f: [make_gt(frame=f, track_id=i, class_name=c, x=x + f)
                     for i, (c, x, _) in enumerate(objects)] for f in range(4)}
        dets = {f: [make_gt(frame=f, track_id=-1, class_name=c, x=x + f, score=score)
                    for c, x, score in objects] for f in range(4)}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        assert cli.main(["streamer", "--gt", gt, "--det", det, "--output", str(tmp_path / "fc"),
                         "--latency-ms", "0", "--classes", "Car,Pedestrian"]) == 0
        rows = [line.split() for line in
                (tmp_path / "fc_forecasts.txt").read_text().splitlines()]
        assert all(len(r) == 18 for r in rows)
        # zero latency: instant j forecasts frame j in place; ids count per class
        want = [(j, tid, c, x + j, score) for j in range(4)
                for tid, (c, x, score) in zip((0, 0, 1), objects)]
        assert [(int(r[0]), int(r[1]), r[2]) for r in rows] == [w[:3] for w in want]
        assert [float(v) for r in rows for v in (r[13], r[17])] == pytest.approx(
            [v for w in want for v in w[3:]], abs=1e-6)

    def test_repeated_class_runs_one_tracker(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world(5))
        det = write_labels(tmp_path / "det.txt", simple_world(5, score=0.9))
        dumps = []
        for classes in ("Car", "Car,Car"):
            out = str(tmp_path / classes.replace(",", "_"))
            assert cli.main(["streamer", "--gt", gt, "--det", det, "--output", out,
                             "--latency-ms", "150", "--classes", classes]) == 0
            dumps.append(Path(out + "_forecasts.txt").read_bytes())
        assert dumps[0] == dumps[1] and dumps[0]

    def test_directory_dump_is_each_sequence_in_name_order(self, tmp_path):
        # 0001 (two Cars, four frames) is written before 0000 (one Car,
        # three frames): the dump follows the sorted names, and each
        # sequence's instants and track ids restart at 0
        worlds = {
            "0001.txt": {f: [make_gt(frame=f, track_id=i, x=6.0 * i + 0.5 * f) for i in range(2)]
                         for f in range(4)},
            "0000.txt": {f: [make_gt(frame=f, x=-0.5 * f, z=20.0)] for f in range(3)},
        }
        for d in ("gt", "det"):
            (tmp_path / d).mkdir()
        for name, world in worlds.items():
            write_labels(tmp_path / "gt" / name, world)
            write_labels(tmp_path / "det" / name, {
                f: [make_gt(frame=f, track_id=-1, x=b.location[0], z=b.location[2], score=0.9)
                    for b in boxes] for f, boxes in world.items()})

        def dump(gt, det, out):
            assert cli.main(["streamer", "--gt", str(gt), "--det", str(det),
                             "--output", str(tmp_path / out), "--latency-ms", "50"]) == 0
            return (tmp_path / (out + "_forecasts.txt")).read_bytes()

        alone = [dump(tmp_path / "gt" / name, tmp_path / "det" / name, name[:4])
                 for name in sorted(worlds)]
        merged = dump(tmp_path / "gt", tmp_path / "det", "both")
        assert merged == b"".join(alone)
        rows = [line.split()[:2] for line in merged.decode().splitlines()]
        # latency 50 ms: instant 0 has no output, instant j >= 1 one row per Car
        assert rows == ([[str(j), "0"] for j in (1, 2)]
                        + [[str(j), str(i)] for j in (1, 2, 3) for i in range(2)])

    def test_diverging_filter_is_numerical_error(self, tmp_path, capsys):
        # a 1e147 s step overflows the covariance of a moving Car's track by
        # frame 3: the streamer exits 4, not 3, publishes nothing and says so
        # in one line of plain floats, with no numpy warning
        world = {f: [make_gt(frame=f, x=1.0 * f)] for f in range(4)}
        dets = {f: [make_gt(frame=f, x=1.0 * f, score=0.9)] for f in range(4)}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["streamer", "--gt", gt, "--det", det,
                             "--output", str(tmp_path / "r"),
                             "--interval-ms", "1e150", "--latency-ms", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical error: Kalman state is no longer a valid box")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "np.float64" not in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["det.txt", "gt.txt"]


class TestSkippedFrames:
    """With a 100 ms interval, 150 ms latency and --skip-stale, frame 0
    arrives at 0 ms and finishes at 150 ms. Frame 1 arrives at 100 ms, while
    the worker is busy, and is skipped; frame 2 arrives at 200 ms to an idle
    worker and finishes at 350 ms, frame 3 arrives at 300 ms and is skipped,
    and so on: the worker processes the even frames only."""

    FLAGS = ["--latency-ms", "150", "--skip-stale"]

    @staticmethod
    def detections(other_odd=False):
        """A moving and a still Car per frame; with other_odd, the odd frames
        hold other valid rows instead: a Car elsewhere, a Pedestrian and a
        Car beyond the range crop."""
        frames = {}
        for f in range(10):
            if other_odd and f % 2:
                frames[f] = [make_gt(frame=f, track_id=7, x=-10.0, z=30.0, score=0.99),
                             make_gt(frame=f, track_id=8, class_name="Pedestrian", x=3.0,
                                     z=12.0, h=1.7, w=0.6, l=0.8, score=0.7),
                             make_gt(frame=f, track_id=9, z=80.0, score=0.5)]
            else:
                frames[f] = [make_gt(frame=f, track_id=0, x=0.5 * f, z=20.0, score=0.9),
                             make_gt(frame=f, track_id=1, x=6.0, z=15.0, score=0.8)]
        return frames

    def reports(self, tmp_path, command, flags, other_odd):
        gt = write_labels(tmp_path / "gt.txt", {f: [make_gt(frame=f, track_id=0, x=0.5 * f, z=20.0),
                                                    make_gt(frame=f, track_id=1, x=6.0, z=15.0)]
                                                for f in range(10)})
        det = write_labels(tmp_path / "det.txt", self.detections(other_odd))
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        assert cli.main([command, "--gt", gt, "--det", det, "--output", str(out / "r"), *flags]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", ["stream-eval", "streamer"])
    def test_skipped_detections_never_reach_a_report(self, tmp_path, command):
        same = self.reports(tmp_path, command, self.FLAGS, other_odd=False)
        assert len(same) == 3  # .json, .csv and _pr.dat or _forecasts.txt
        assert self.reports(tmp_path, command, self.FLAGS, other_odd=True) == same
        # processed, the other rows would change the reports
        assert (self.reports(tmp_path, command, ["--latency-ms", "0"], other_odd=True)
                != self.reports(tmp_path, command, ["--latency-ms", "0"], other_odd=False))

    @pytest.mark.parametrize("command, frames", [
        ("eval", range(10)), ("stream-eval", range(0, 10, 2)), ("streamer", range(0, 10, 2))])
    def test_detections_boxed_only_for_processed_frames(self, tmp_path, monkeypatch, command,
                                                        frames):
        boxed = []
        orig = LabeledBox.to_box3d

        def counting(self, class_id=0):
            if self.score is not None:  # a detection, not ground truth
                boxed.append(self.frame_index)
            return orig(self, class_id)

        monkeypatch.setattr(LabeledBox, "to_box3d", counting)
        self.reports(tmp_path, command, [] if command == "eval" else self.FLAGS, other_odd=False)
        assert boxed == [f for f in frames for _ in range(2)]


class TestStreamingGap:
    """The paper's mechanism on a noise-free world, through all three modes.

    Three Cars (h, w, l = 1.5, 1.6, 3.9, yaw 0, z = 10, 20, 30) move
    d = 1.6 m along x, their length axis, per 100 ms frame, over N = 6
    frames: 18 ground truths, all easy. A box and its copy d further on
    overlap by (l - d) / (l + d) = 2.3 / 5.5 = 0.418 in BEV and in 3D (same
    y and h): below 0.5, so a one-frame-stale box never matches, and at
    least the Streamer's association IoU of 0.3, so a track's second hit
    associates. With 50 ms latency and --skip-stale every frame is
    processed, frame k finishing at 100k + 50 ms, so instant j sees frame
    j - 1 and instant 0 sees nothing. Every score is 0.9, so each run's PR
    curve is one point, and AP|R40 is precision times the recall positions
    i/40 at or below the recall reached. In every Car cell (both IoUs, both
    kinds, every level):
    - eval matches all 18: AP 1;
    - raw stream-eval pairs instant j with frame j - 1: no match, AP 0;
    - a next-moment detector (frame k holds frame k + 1's boxes) matches
      all but instant 0's 3: recall 15/18, 33 positions, AP 33/40;
    - streamer forecasts a one-hit track in place, so instant 1's 3 boxes
      are one frame stale (false positives); frame 1 is each track's second
      hit, after which the forecast is exact: 12 matches of 18 at precision
      12/15, 26 positions (26/40 <= 2/3 < 27/40), AP 26 * 0.8 / 40.
    """

    @staticmethod
    def world(shift=0, score=None):
        return {k: [make_gt(frame=k, track_id=i, x=1.6 * (k + shift), z=10.0 * (i + 1),
                            score=score) for i in range(3)] for k in range(6)}

    def test_next_moment_detector_closes_the_gap(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", self.world())
        det = write_labels(tmp_path / "det.txt", self.world(score=0.9))
        ahead = write_labels(tmp_path / "ahead.txt", self.world(shift=1, score=0.9))
        stream = ["--latency-ms", "50", "--skip-stale"]
        runs = [("eval", det, [], 1.0), ("stream-eval", det, stream, 0.0),
                ("stream-eval", ahead, stream, 33 / 40), ("streamer", det, stream, 26 * 0.8 / 40)]
        for n, (command, dets, flags, want) in enumerate(runs):
            out = str(tmp_path / str(n))
            assert cli.main([command, "--gt", gt, "--det", dets, "--output", out,
                             "--no-range-filter", "--classes", "Car", *flags]) == 0
            aps = [r["ap"] for r in json.loads(Path(out + ".json").read_text())["results"]]
            assert aps == pytest.approx([want] * 12), command


class TestFlow:
    def test_translation_recovery(self, tmp_path, capsys):
        g = textured_grid(16, 16, 4, seed=3)
        cur = translate_grid(g, 1, 2)
        write_fgrd(str(tmp_path / "prev.fgrd"), g)
        write_fgrd(str(tmp_path / "cur.fgrd"), cur)
        out = str(tmp_path / "flow")
        assert cli.main(["flow", "--current", str(tmp_path / "cur.fgrd"),
                         "--previous", str(tmp_path / "prev.fgrd"),
                         "--output", out, "--rd", "1"]) == 0
        flow = read_fgrd(out + "_flow.fgrd")
        assert flow.shape == (16, 16, 2)
        interior = flow[4:-4, 4:-4]
        assert np.all(interior[:, :, 0] == 1.0)
        assert np.all(interior[:, :, 1] == 2.0)
        pseudo = read_fgrd(out + "_pseudo.fgrd")
        assert pseudo.shape == (16, 16, 4)
        summary = json.loads((tmp_path / "flow.json").read_text())
        assert summary["flow_shape"] == [16, 16, 2]
        assert "flow_max_abs" in capsys.readouterr().out

    def test_rd_beyond_float_range(self, tmp_path, capsys):
        # a 400-digit ratio gives the bytes of the ratio clamped to the grid
        write_fgrd(str(tmp_path / "cur.fgrd"), textured_grid(8, 8, 4, seed=1))
        write_fgrd(str(tmp_path / "prev.fgrd"), textured_grid(8, 8, 4, seed=2))
        outputs = {}
        for rd in ("8", str(10**399)):
            out = str(tmp_path / ("o" + rd[:2]))
            assert cli.main(["flow", "--current", str(tmp_path / "cur.fgrd"),
                             "--previous", str(tmp_path / "prev.fgrd"),
                             "--output", out, "--rd", rd]) == 0
            outputs[rd] = [Path(out + suffix).read_bytes() for suffix in ("_flow.fgrd", "_pseudo.fgrd")]
            assert json.loads(Path(out + ".json").read_text())["config"]["rd"] == int(rd)
        assert outputs["8"] == outputs[str(10**399)]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("raw, message", [
        pytest.param(b"FGRD\x01\x00\x00", "truncated FGRD header: 7 of 20 bytes",
                     id="truncated-header"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 8, 8, 4) + b"\x00" * 40,
                     "truncated FGRD payload: header claims 8x8x4 floats, a 1044-byte file; "
                     "it has 60 bytes", id="header-claims-more-data"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1),
                     "truncated FGRD payload", id="header-claims-beyond-any-file"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 0, 0, 0), "grid has a zero-length axis",
                     id="header-0x0x0"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 4, 4, 0), "grid has a zero-length axis",
                     id="header-4x4x0"),
        # a (4, 4, 4) grid whose header claims (4, 4, 2)
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 4, 4, 2)
                     + fgrd_bytes(np.ones((4, 4, 4)))[20:],
                     "over-long FGRD payload: header claims 4x4x2 floats, a 148-byte file; "
                     "it has 276 bytes", id="header-claims-less-data"),
        pytest.param(fgrd_bytes(np.ones((4, 4, 4))) + b"\x00" * 3,
                     "over-long FGRD payload: header claims 4x4x4 floats, a 276-byte file; "
                     "it has 279 bytes", id="trailing-bytes"),
        pytest.param(None, "[Errno 2] No such file or directory", id="missing-file"),
    ])
    def test_corrupt_grid_is_data_error(self, tmp_path, capsys, raw, message):
        write_fgrd(str(tmp_path / "cur.fgrd"), textured_grid(8, 8, 4))
        if raw is not None:
            (tmp_path / "bad.fgrd").write_bytes(raw)
        rc = cli.main(["flow", "--current", str(tmp_path / "cur.fgrd"),
                       "--previous", str(tmp_path / "bad.fgrd"),
                       "--output", str(tmp_path / "o")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: " + message) and captured.out == ""
        assert not list(tmp_path.glob("o*"))


def mcl_argv(tmp_path, pred=None):
    """mcl on simple_world's two stationary cars, one frame per file: the
    prediction and --gt-t at frame 2, --gt-tm1 at 1 and --gt-tm2 at 0.
    pred, a frame map, replaces the predicted cars."""
    argv = ["mcl"]
    for flag, k in (("--pred", 2), ("--gt-t", 2), ("--gt-tm1", 1), ("--gt-tm2", 0)):
        frames = {k: simple_world(k + 1, score=0.9 if flag == "--pred" else None)[k]}
        if flag == "--pred" and pred is not None:
            frames = pred
        argv += [flag, write_labels(tmp_path / (flag[2:].replace("-", "_") + ".txt"), frames)]
    return argv


def chain_car(k, x=None, **kw):
    """Frame k of one Car moving 2 m per frame, at x = 0 in frame 5."""
    return make_gt(frame=k, x=2.0 * (k - 5) if x is None else x, **kw)


class TestMcl:
    def test_stationary_zero(self, tmp_path, capsys):
        rc = cli.main(mcl_argv(tmp_path) + ["--output", str(tmp_path / "mcl.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "mcl.json").read_text())
        assert payload["mean_mcl"] == 0.0
        assert payload["n_objects"] == 2
        assert payload["config"]["tau"] == pytest.approx(0.8)
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--pred", "--gt-tm1"])
    def test_file_with_two_frames_is_data_error(self, tmp_path, capsys, flag):
        # a Car at constant velocity, one frame per file; each file's frames
        # used to be merged, so an extra frame-6 row changed the loss
        flags = ["--gt-tm2", "--gt-tm1", "--gt-t", "--pred"]
        paths = {f: write_labels(tmp_path / ("%d.txt" % k),
                                 {k: [make_gt(frame=k, x=float(k), score=0.9)]})
                 for k, f in enumerate(flags)}
        argv = ["mcl"] + [v for f in flags for v in (f, paths[f])]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["mean_mcl"] == 0.0
        with open(paths[flag], "a") as f:
            f.write(label_line(frame=6, x=6.0, score=0.9) + "\n")
        assert cli.main(argv + ["--output", str(tmp_path / "r.json")]) == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: %s holds frames [%d, 6]; an mcl file holds one\n" % (
            paths[flag], flags.index(flag))
        assert captured.out == "" and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("tm1, tm2, message", [
        pytest.param({4: [chain_car(4, x=-1.0), chain_car(4, x=-5.0)]}, {3: [chain_car(3)]},
                     "ground truth at t-1 repeats track id 0", id="repeated-track-id"),
        pytest.param({4: [chain_car(4, x=-5.0), chain_car(4, x=-1.0)]}, {3: [chain_car(3)]},
                     "ground truth at t-1 repeats track id 0", id="repeated-track-id-swapped"),
        pytest.param({3: [chain_car(3)]}, {4: [chain_car(4)]},
                     "--gt-tm1 holds frame 3; expected frame 4 (--gt-t holds frame 5)",
                     id="swapped-frames"),
        pytest.param({4: [chain_car(4)]}, {2: [chain_car(2)]},
                     "--gt-tm2 holds frame 2; expected frame 3 (--gt-t holds frame 5)",
                     id="tm2-skips-a-frame"),
    ])
    def test_ambiguous_or_out_of_order_chain_is_data_error(self, tmp_path, capsys,
                                                            tm1, tm2, message):
        # with --gt-t at frame 5, --gt-tm1 at 4 and --gt-tm2 at 3 the Car
        # scores 0.0; these chains used to score 9.3, 2.5, 7.5 and 1.2 with
        # exit 0. The --pred frame is not checked.
        files = {"--pred": {6: [chain_car(6, score=0.9)]}, "--gt-t": {5: [chain_car(5)]},
                 "--gt-tm1": {4: [chain_car(4)]}, "--gt-tm2": {3: [chain_car(3)]}}

        def run(*extra):
            return cli.main(["mcl", *extra] + [
                v for flag, frames in files.items()
                for v in (flag, write_labels(tmp_path / (flag[2:] + ".txt"), frames))])

        assert run() == 0
        assert json.loads(capsys.readouterr().out)["mean_mcl"] == 0.0
        files.update({"--gt-tm1": tm1, "--gt-tm2": tm2})
        assert run("--output", str(tmp_path / "r.json")) == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: %s\n" % message
        assert captured.out == "" and not (tmp_path / "r.json").exists()

    def test_empty_file_holds_no_boxes(self, tmp_path, capsys):
        assert cli.main(mcl_argv(tmp_path, pred={})) == 0
        assert json.loads(capsys.readouterr().out)["n_objects"] == 0

    @pytest.mark.parametrize("line", ["tau = -1", "tau = nan", "beta = 0", "beta = inf",
                                      "iou_kind = xyz"])
    def test_bad_option_is_data_error_with_no_match(self, tmp_path, capsys, line):
        # the prediction lies 50 m from every ground truth, so no object is
        # scored; the options are still checked
        argv = mcl_argv(tmp_path, pred={2: [make_gt(frame=2, x=50.0, z=10.0, score=0.9)]})
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n_objects"] == 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert cli.main(["--config", str(cfg)] + argv) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and captured.out == ""


class TestLkbb:
    def test_attention_chain_report(self, tmp_path, capsys):
        chain = tmp_path / "chain.txt"
        chain.write_text("dwconv 5 1 1 32\ndwconv 7 1 3 32\nconv 1 1 1 32\n")
        assert cli.main(["lkbb", "--chain", str(chain),
                         "--height", "48", "--width", "48"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["receptive_field"] == 23
        assert payload["params"] == 32 * 25 + 32 * 49 + 32 * 32

    @pytest.mark.parametrize("line, hw, err", [
        pytest.param("pool 2 2 1 8", None, "line 1: unknown layer kind 'pool'", id="unknown-kind"),
        pytest.param("conv 3 0 1 4", None, "line 1: kernel, stride", id="stride-0"),
        pytest.param("dwconv 3 1 1 0", None, "line 1: kernel, stride", id="channels-0"),
        pytest.param("conv -3 1 1 4", None, "line 1: kernel, stride", id="kernel-negative"),
        pytest.param("conv 3 1 1 -4", None, "line 1: kernel, stride", id="channels-negative"),
        pytest.param("conv 3 1 0 4", None, "line 1: kernel, stride", id="dilation-0"),
        pytest.param("tconv 2 2 1 8 0", None, "line 1: kernel, stride", id="out-channels-0"),
        pytest.param("conv %d 1 1 4" % 10**400, None,
                     "chain too large for a float receptive field", id="kernel-overflows-float"),
        # the output stride overflows to inf, which used to be printed as
        # "jump": Infinity, not JSON, with exit 0
        pytest.param("\n".join(["conv 1 1000000 1 4"] * 52), None,
                     "chain too large for a float receptive field", id="jump-overflows-float"),
        pytest.param("conv 3 1 1 8", (0, 10), "input height and width must be >= 1", id="height-0"),
        pytest.param("conv 3 1 1 8", (10, 0), "input height and width must be >= 1", id="width-0"),
        pytest.param("conv 3 1 1 8", (-5, 10), "input height and width must be >= 1",
                     id="height-negative"),
        pytest.param("conv 3 1 1 8", (10, -5), "input height and width must be >= 1",
                     id="width-negative"),
        pytest.param("tconv 3 2 2 4", (8, 8), "line 1: transpose convolution requires dilation 1",
                     id="tconv-dilated"),
        pytest.param("dwconv 3 1 1 4 6", None, "line 1: depthwise layers keep channel count",
                     id="dwconv-changes-channels"),
        pytest.param("conv x 1 1 4", None, "line 1: invalid literal for int()", id="kernel-not-int"),
        pytest.param("conv 3 1", None, "line 1: expected 5 or 6 fields", id="too-few-fields"),
        # a chain of no layer used to print an identity report (field 1, 0 params), exit 0
        pytest.param("", None, "chain names no layer", id="empty"),
        pytest.param("# attention cascade\n\n  # none yet", None, "chain names no layer",
                     id="comments-only"),
    ])
    def test_is_data_error(self, tmp_path, capsys, line, hw, err):
        chain = tmp_path / "chain.txt"
        chain.write_text(line + "\n")
        argv = ["lkbb", "--chain", str(chain)]
        if hw is not None:
            argv += ["--height", str(hw[0]), "--width", str(hw[1])]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: " + err) and captured.out == ""


class TestFootprintCache:
    def test_one_corner_build_per_box(self, tmp_path, monkeypatch):
        # two overlapping cars, so every detection/ground-truth pair of the
        # 12 Car cells and their PR dump reaches the polygon clip; all four
        # footprints are built once, in the frame pair's one Car batch (the
        # other classes' batches are empty)
        world = {0: [make_gt(track_id=i, x=1.5 * i, z=10.0) for i in range(2)]}
        dets = {0: [make_gt(track_id=i, x=1.5 * i, z=10.0, score=0.9 - 0.1 * i)
                    for i in range(2)]}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        built = []
        orig = geometry.bev_footprints

        def counting(boxes):
            built.append([id(b) for b in boxes])
            return orig(boxes)

        monkeypatch.setattr(geometry, "bev_footprints", counting)
        assert cli.main(["eval", "--gt", gt, "--det", det,
                         "--output", str(tmp_path / "r")]) == 0
        assert len(built) == 1 and len(built[0]) == len(set(built[0])) == 4
        payload = json.loads((tmp_path / "r.json").read_text())
        assert all(r["ap"] == pytest.approx(1.0) for r in payload["results"]
                   if r["class"] == "Car")


class TestIouExactlyAtThreshold:
    """An IoU equal to --iou passes it: yaw-0 4 x 2 m footprints 1 m apart
    along their length score 6 / 10, the literal 0.6, as BEV and 3D IoU."""

    @staticmethod
    def aps(tmp_path, gts, dets):
        gt = write_labels(tmp_path / "gt.txt", {0: gts})
        det = write_labels(tmp_path / "det.txt", {0: dets})
        out = tmp_path / "r"
        assert cli.main(["eval", "--gt", gt, "--det", det, "--output", str(out),
                         "--classes", "Car", "--iou", "0.6"]) == 0
        results = json.loads(out.with_suffix(".json").read_text())["results"]
        assert [r["kind"] for r in results] == ["bev"] * 3 + ["3d"] * 3
        return [r["ap"] for r in results], out.with_name("r_pr.dat").read_text()

    def test_tp(self, tmp_path):
        aps, pr = self.aps(tmp_path, [make_gt(w=2.0, l=4.0)],
                           [make_gt(x=1.0, w=2.0, l=4.0, score=0.9)])
        assert aps == [1.0] * 6
        assert pr.count("1.000000 1.000000 0.900000") == 6

    @pytest.mark.parametrize("gt_row", [
        pytest.param(dict(class_name="DontCare"), id="dontcare"),
        pytest.param(dict(bbox_height=26, occlusion=2, truncation=0.4), id="harder"),
    ])
    def test_ignore_match(self, tmp_path, gt_row):
        # the top detection meets the ignorable row at exactly 0.6; were it a
        # false positive, precision would drop to 1/2 and every AP with it
        # (at hard the harder row is in scope, and the detection its TP)
        gts = [make_gt(w=2.0, l=4.0), make_gt(x=20.0, w=2.0, l=4.0, **gt_row)]
        dets = [make_gt(w=2.0, l=4.0, score=0.8), make_gt(x=21.0, w=2.0, l=4.0, score=0.9)]
        aps, pr = self.aps(tmp_path, gts, dets)
        assert aps == [1.0] * 6
        points = [line.split() for line in pr.splitlines() if line and line[0] != "#"]
        assert points and all(precision == "1.000000" for _, precision, _ in points)


class TestOverlapMemo:
    def test_one_clip_per_box_pair(self, tmp_path, monkeypatch):
        # two cars and two detections turned a quarter: each detection
        # overlaps both cars with IoU below 0.5, so matching tries every
        # pair in each of the 12 Car cells and in the PR dump
        world = {0: [make_gt(track_id=i, x=1.5 * i, z=10.0) for i in range(2)]}
        dets = {0: [make_gt(track_id=i, x=1.5 * i, z=10.0, yaw=math.pi / 2,
                            score=0.9 - 0.1 * i) for i in range(2)]}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        clipped = []
        orig = geometry._clip_area

        def counting(poly, clip):
            clipped.append((tuple(map(tuple, poly)), tuple(map(tuple, clip))))
            return orig(poly, clip)

        monkeypatch.setattr(geometry, "_clip_area", counting)
        assert cli.main(["eval", "--gt", gt, "--det", det,
                         "--output", str(tmp_path / "r")]) == 0
        assert len(clipped) == len(set(clipped)) == 4
        payload = json.loads((tmp_path / "r.json").read_text())
        assert all(r["ap"] == 0.0 for r in payload["results"] if r["class"] == "Car")


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("iou = 0.5\nclasses = Car\n")
        out = str(tmp_path / "report")
        cli.main(["--config", str(cfg), "eval", "--gt", gt, "--det", det,
                  "--output", out])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["iou_thresholds"] == [0.5]
        assert payload["config"]["classes"] == ["Car"]

    def test_flag_overrides_config_file(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("iou = 0.5\n")
        out = str(tmp_path / "report")
        cli.main(["--config", str(cfg), "eval", "--gt", gt, "--det", det,
                  "--output", out, "--iou", "0.7"])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["iou_thresholds"] == [0.7]

    def test_eval_ignores_stream_keys(self, tmp_path):
        # offline AP is sAP at zero latency whatever the config file says
        argv = command_argv(tmp_path, "eval")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("interval_ms = 33\nlatency_ms = 500\n")
        assert cli.main(argv) == 0
        plain = {s: (tmp_path / ("r" + s)).read_bytes() for s in (".csv", "_pr.dat")}
        assert cli.main(["--config", str(cfg)] + argv) == 0
        assert plain == {s: (tmp_path / ("r" + s)).read_bytes() for s in (".csv", "_pr.dat")}

    @pytest.mark.parametrize("command, line, owner, name, key, cast", [
        ("flow", "d = 2", feature_flow, "compute_flow", "d", int),
        ("mcl", "tau = 0.5", cli, "batch_mcl", "tau", float),
    ])
    def test_config_value_reaches_library_typed(self, tmp_path, monkeypatch, capsys,
                                                command, line, owner, name, key, cast):
        orig = getattr(owner, name)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs[key])
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert cli.main(["--config", str(cfg)] + command_argv(tmp_path, command)) == 0
        capsys.readouterr()
        assert seen == [cast(line.split("=")[1])]
        assert type(seen[0]) is cast

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        rc = cli.main(["--config", str(tmp_path / "nope.cfg"), "lkbb",
                       "--chain", str(tmp_path / "nope.txt")])
        assert rc == 3
        capsys.readouterr()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("no equals sign here\n")
        chain = tmp_path / "chain.txt"
        chain.write_text("conv 1 1 1 8\n")
        assert cli.main(["--config", str(cfg), "lkbb", "--chain", str(chain)]) == 3
        capsys.readouterr()


    @pytest.mark.parametrize("line, key", [
        ("skip_stale = true", "skip_stale"),
        ("no-range-filter = true", "no_range_filter"),
        ("latncy_ms = 150", "latncy_ms"),
        # the trace is an input file, given by flag like --gt and --det
        ("latency_trace = missing.txt", "latency_trace"),
    ])
    def test_unread_key_is_data_error(self, tmp_path, capsys, line, key):
        # a key that no option reads used to be dropped without a word
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("latency_ms = 150\n%s\n" % line)
        rc = cli.main(["--config", str(cfg), "stream-eval", "--gt", gt, "--det", det,
                       "--output", str(tmp_path / "r")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error" in err and "line 2" in err and repr(key) in err
        assert not (tmp_path / "r.json").exists()

def command_argv(tmp_path, command):
    """Arguments that run command on small valid inputs in tmp_path."""
    if command == "flow":
        g = textured_grid(16, 16, 4, seed=3)
        write_fgrd(str(tmp_path / "prev.fgrd"), g)
        write_fgrd(str(tmp_path / "cur.fgrd"), translate_grid(g, 1, 2))
        return ["flow", "--current", str(tmp_path / "cur.fgrd"),
                "--previous", str(tmp_path / "prev.fgrd"), "--output", str(tmp_path / "o")]
    if command == "mcl":
        return mcl_argv(tmp_path)
    if command == "lkbb":
        (tmp_path / "chain.txt").write_text("conv 3 1 1 8\n")
        return ["lkbb", "--chain", str(tmp_path / "chain.txt")]
    gt = write_labels(tmp_path / "gt.txt", simple_world(3))
    det = write_labels(tmp_path / "det.txt", simple_world(3, score=0.9))
    return [command, "--gt", gt, "--det", det, "--output", str(tmp_path / "r")]


class TestConfigValueErrors:
    @pytest.mark.parametrize("line, command", [
        ("interval_ms = abc", "stream-eval"),
        ("latency_ms = x", "stream-eval"),
        ("iou = abc", "stream-eval"),
        ("d = 1.5", "flow"),
        ("rd = two", "flow"),
        ("tau = x", "mcl"),
        ("beta = x", "mcl"),
        ("iou_kind = xyz", "mcl"),
        ("tau = nan", "mcl"),
        ("beta = inf", "mcl"),
        ("latency_ms 150", "stream-eval"),
    ])
    def test_bad_value_is_data_error(self, tmp_path, capsys, line, command):
        argv = command_argv(tmp_path, command)
        assert cli.main(argv) == 0
        capsys.readouterr()
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line.format(tmp=tmp_path) + "\n")
        assert cli.main(["--config", str(cfg)] + argv) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, command, first, second", [
        ("tau = x\nbeta = y\n", "mcl", "beta", "tau"),
        ("rd = two\nd = one\n", "flow", "d", "rd"),
        ("latency_ms = x\niou = y\ninterval_ms = z\n", "stream-eval", "interval_ms", "iou"),
    ])
    def test_first_bad_key_in_sorted_order_is_reported(self, tmp_path, capsys, text,
                                                       command, first, second):
        argv = command_argv(tmp_path, command)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg)] + argv) == 3
        err = capsys.readouterr().err
        assert "config key %r" % first in err and repr(second) not in err


class TestPathThroughFile:
    """A path that runs through a regular file cannot be opened or written:
    the command exits 3 and writes nothing."""

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--output"), ("eval", "--det"),
        ("stream-eval", "--output"), ("stream-eval", "--gt"),
        ("streamer", "--output"), ("streamer", "--det"),
        ("flow", "--output"), ("flow", "--current"),
        ("mcl", "--output"), ("mcl", "--pred"),
        ("lkbb", "--chain"),
    ])
    def test_is_data_error(self, tmp_path, capsys, command, flag):
        argv = command_argv(tmp_path, command)
        if flag not in argv:
            argv += [flag, "unused"]
        (tmp_path / "plain.txt").write_text("")
        argv[argv.index(flag) + 1] = str(tmp_path / "plain.txt" / "r")
        before = set(tmp_path.iterdir())
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and captured.out == ""
        assert set(tmp_path.iterdir()) == before


def label_line(**kw):
    """One label line of make_gt(**kw), without its newline."""
    return format_tracking_labels({0: [make_gt(**kw)]}).rstrip("\n")


# (file, line number, text, expected message): line n of the file reads text
# (n one past the end appends it). The files are simple_world(2), four lines
# each, and a two-line latency trace of zeros.
BAD_INPUT_ROWS = {
    "nan-dims": ("det", 3, label_line(frame=1, h=math.nan, score=0.9),
                 "line 3: non-finite numeric field"),
    "inf-location": ("det", 3, label_line(frame=1, x=math.inf, score=0.9),
                     "line 3: non-finite numeric field"),
    "nan-score": ("det", 3, label_line(frame=1, score=math.nan),
                  "line 3: non-finite numeric field"),
    # the range crop would drop this box, but it is still malformed
    "out-of-range-zero-dim-det": ("det", 5, label_line(track_id=5, z=80.0, h=0.0, score=0.9),
                                  "line 5: dims must be positive"),
    # neither ground-truth row is ever matched, but both are malformed
    "unevaluated-class-zero-dim-gt": (
        "gt", 5, label_line(frame=1, track_id=5, class_name="Van", h=0.0),
        "line 5: dims must be positive"),
    "out-of-range-zero-dim-gt": ("gt", 5, label_line(frame=1, track_id=5, z=80.0, h=0.0),
                                 "line 5: dims must be positive"),
    # w*l overflowed to inf: a copy of the ground truth scored Car AP 0 with exit 0
    "huge-dims-det": ("det", 3, label_line(frame=1, w=1e200, l=1e200, score=0.9),
                      "line 3: dims must be positive and below 1e+06 m"),
    "huge-dims-dontcare-gt": (
        "gt", 5, label_line(frame=1, track_id=5, class_name="DontCare", w=1e200, l=1e200),
        "line 5: dims must be positive and below 1e+06 m"),
    # the schedule starts at frame 0: a negative frame used to be scored by
    # eval and dropped by the streaming modes
    "negative-frame": ("gt", 2, label_line(frame=-1, track_id=1, x=6.0),
                       "line 2: negative frame index -1"),
    "huge-frame": ("gt", 2, label_line(frame=1000000, track_id=1, x=6.0),
                   "line 2: frame index 1000000 is not below 1000000"),
    "16-fields": ("gt", 2, label_line(track_id=1, x=6.0).rsplit(" ", 1)[0],
                  "line 2: expected >=17 fields, got 16"),
    # a field after the score used to be dropped without a word
    "19-fields": ("det", 3, label_line(frame=1, score=0.9) + " 7",
                  "line 3: expected at most 18 fields, got 19"),
    # int() used to truncate it to 1, moving the row's difficulty tier
    "fractional-occlusion": ("gt", 2, label_line(track_id=1, x=6.0, occlusion=1.7),
                             "line 2: occlusion 1.7 is not an integer"),
    # 7 used to make the row ignored at every level, -5 count it as easy
    "occlusion-7": ("gt", 2, label_line(track_id=1, x=6.0, occlusion=7),
                    "line 2: occlusion 7 is outside -1..3"),
    "occlusion-minus-5": ("gt", 2, label_line(track_id=1, x=6.0, occlusion=-5),
                          "line 2: occlusion -5 is outside -1..3"),
    "non-numeric-height": ("gt", 2, label_line(track_id=1, x=6.0).replace("1.500000", "abc"),
                           "line 2: non-numeric field (could not convert string to float: 'abc')"),
    "trace-not-a-number": ("trace", 2, "abc", "latency trace line 2: not a number: 'abc'"),
    # blank trace lines are skipped: the line and the frame differ
    "trace-not-a-number-after-blank": ("trace", 2, "\nabc",
                                       "latency trace line 3: not a number: 'abc'"),
    "trace-negative": ("trace", 2, "-5", "frame 1: latency -5.0 ms must be finite and >= 0"),
    "trace-nan": ("trace", 2, "nan", "frame 1: latency nan ms must be finite and >= 0"),
    "trace-overflow": ("trace", 2, "1e400", "frame 1: latency inf ms must be finite and >= 0"),
    "trace-negative-after-blank": ("trace", 2, "\n-5",
                                   "frame 1: latency -5.0 ms must be finite and >= 0"),
}


class TestBadLabels:
    @pytest.mark.parametrize("command, row", [
        pytest.param(command, row, id="%s-%s" % (row, command))
        for row, (name, _, _, _) in BAD_INPUT_ROWS.items()
        for command in ("eval", "stream-eval", "streamer")
        if name != "trace" or command != "eval"  # eval reads no latency
    ])
    def test_is_data_error(self, tmp_path, capsys, monkeypatch, command, row):
        name, lineno, text, message = BAD_INPUT_ROWS[row]
        built, build = [], streaming_sim.build_schedule

        def recording(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(streaming_sim, "build_schedule", recording)
        files = {
            "gt": format_tracking_labels(simple_world(2)).splitlines(),
            "det": format_tracking_labels(simple_world(2, score=0.9)).splitlines(),
            "trace": ["0", "0"],
        }
        files[name][lineno - 1 : lineno] = [text]
        for key, lines in files.items():
            (tmp_path / (key + ".txt")).write_text("\n".join(lines) + "\n")
        argv = [command, "--gt", str(tmp_path / "gt.txt"), "--det", str(tmp_path / "det.txt"),
                "--output", str(tmp_path / "r")]
        if name == "trace":
            argv += ["--latency-trace", str(tmp_path / "trace.txt")]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: " + message) and captured.out == ""
        assert not list(tmp_path.glob("r*"))
        # a malformed label file is rejected while parsing, before any
        # schedule is built: a huge frame index would size one
        assert name == "trace" or built == []

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    @pytest.mark.parametrize("kw", [
        pytest.param({}, id="true-positive"),
        pytest.param({"class_name": "Van"}, id="unevaluated-class"),
        pytest.param({"z": 80.0}, id="out-of-range"),
    ])
    def test_detection_without_score_is_data_error(self, tmp_path, capsys, command, kw):
        # a score-less true positive beside a 0.9 false positive used to be
        # scored as 0.0, giving Car AP 0.5; the range crop and the class
        # filter come after the check
        gt = write_labels(tmp_path / "gt.txt", {0: [make_gt()]})
        det = tmp_path / "det.txt"
        det.write_text(label_line(x=10.0, score=0.9) + "\n" + label_line(**kw) + "\n")
        argv = [command, "--gt", gt, "--det", str(det), "--output", str(tmp_path / "r")]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: %s: frame 0 has a detection line without a score\n" % det
        assert captured.out == "" and not list(tmp_path.glob("r*"))

    def test_detection_without_score_names_sequence_file(self, tmp_path, capsys):
        for d in ("gt", "det"):
            (tmp_path / d).mkdir()
        write_labels(tmp_path / "gt" / "0000.txt", simple_world(2))
        write_labels(tmp_path / "det" / "0000.txt", simple_world(2, score=0.9))
        write_labels(tmp_path / "gt" / "0001.txt", simple_world(2))
        det = write_labels(tmp_path / "det" / "0001.txt", {1: [make_gt(frame=1)]})
        argv = ["eval", "--gt", str(tmp_path / "gt"), "--det", str(tmp_path / "det"),
                "--output", str(tmp_path / "r")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == "data error: %s: frame 1 has a detection line without a score\n" % det

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    def test_dontcare_without_box_is_skipped(self, tmp_path, command):
        # a real KITTI DontCare row: a 2D region with dims -1, location -1000
        gt_text = format_tracking_labels(simple_world(3))
        dontcare = "1 -1 DontCare -1 -1 -10 50 50 60 60 -1 -1 -1 -1000 -1000 -1000 -10\n"
        det = write_labels(tmp_path / "det.txt", simple_world(3, score=0.9))
        csvs = []
        for name, text in (("plain", gt_text), ("dontcare", gt_text + dontcare)):
            (tmp_path / (name + ".txt")).write_text(text)
            out = str(tmp_path / name)
            assert cli.main([command, "--gt", str(tmp_path / (name + ".txt")), "--det", det,
                             "--output", out, "--no-range-filter"]) == 0
            csvs.append((tmp_path / (name + ".csv")).read_text())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("command, dims", [
        pytest.param(command, dims, id=command + suffix)
        for suffix, dims in (("", "0 0 0"), ("-w=-1", "1.5 -1 3.9"), ("-l=0", "1.5 1.6 0"))
        for command in ("eval", "stream-eval", "streamer")])
    def test_dontcare_with_zero_dims_is_skipped(self, tmp_path, command, dims):
        # a DontCare row parses with any h, w or l of 0 or less, not only
        # with all three; it has no box to hit, so every report is
        # byte-equal to the one without it
        gt_text = format_tracking_labels(simple_world(3))
        dontcare = "1 -1 DontCare -1 -1 -10 50 50 60 60 %s 0 1.5 10 0\n" % dims
        det = write_labels(tmp_path / "det.txt", simple_world(3, score=0.9))
        reports = []
        for name, text in (("plain", gt_text), ("dontcare", gt_text + dontcare)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "gt.txt").write_text(text)
            assert cli.main([command, "--gt", str(tmp_path / name / "gt.txt"), "--det", det,
                             "--output", str(tmp_path / name / "r")]) == 0
            reports.append({f: (tmp_path / name / f).read_bytes() for f in PUBLISHED[command]})
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer", "mcl"])
    def test_dontcare_class_is_data_error(self, tmp_path, capsys, command, source):
        # with a 2D-only DontCare detection row whose centre is in range this
        # exited 3 with a box-dims message that named no file or line;
        # without one, every DontCare cell read "absent"
        argv = command_argv(tmp_path, command)
        det = argv[argv.index("--pred" if command == "mcl" else "--det") + 1]
        with open(det, "a") as f:
            f.write("2 -1 DontCare -1 -1 -10 50 50 60 60 -1 -1 -1 0 1.5 10 0 0.5\n")
        if command != "mcl":
            argv[argv.index("--output") + 1] = str(tmp_path / "out")
        else:
            argv += ["--output", str(tmp_path / "out.json")]
        if source == "flag":
            argv += ["--classes", "Car,DontCare"]
        else:
            (tmp_path / "cfg.txt").write_text("classes = Car,DontCare\n")
            argv = ["--config", str(tmp_path / "cfg.txt")] + argv
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == ("data error: --classes names DontCare, which marks ignored "
                                "regions and is not an evaluated class\n")
        assert captured.out == "" and not list(tmp_path.glob("out*"))


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    @pytest.mark.parametrize("flag", ["--classes", "--iou"])
    def test_empty_list_is_data_error(self, tmp_path, capsys, command, flag):
        # an empty class or threshold list used to write a header-only table
        gt = write_labels(tmp_path / "gt.txt", simple_world(2))
        det = write_labels(tmp_path / "det.txt", simple_world(2, score=0.9))
        rc = cli.main([command, "--gt", gt, "--det", det,
                       "--output", str(tmp_path / "r"), flag, ","])
        assert rc == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    @pytest.mark.parametrize("iou", ["1.5", "0", "-0.5", "nan", "0.7,abc"])
    def test_iou_outside_unit_interval_is_data_error(self, tmp_path, capsys, command, iou):
        # with no pairs to match, such a threshold used to reach the table;
        # a non-number used to be named by float() alone
        for name in ("gt.txt", "det.txt"):
            (tmp_path / name).write_text("")
        rc = cli.main([command, "--gt", str(tmp_path / "gt.txt"),
                       "--det", str(tmp_path / "det.txt"),
                       "--output", str(tmp_path / "r"), "--iou", iou])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: --iou threshold ") and captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--gt", "x.txt"])
        assert exc.value.code == 2

    def test_missing_gt_file_is_data_error(self, tmp_path, capsys):
        rc = cli.main(["eval", "--gt", str(tmp_path / "nope.txt"),
                       "--det", str(tmp_path / "nope2.txt"),
                       "--output", str(tmp_path / "r")])
        assert rc == 3
        capsys.readouterr()


class TestOneParserPerProcess:
    """main() builds its parser once per process; no run may depend on the
    runs before it in the same process."""

    def test_sequence_writes_what_each_run_alone_writes(self, tmp_path, capsys):
        gt = write_labels(tmp_path / "gt.txt", simple_world(3))
        det = write_labels(tmp_path / "det.txt", simple_world(3, score=0.9))
        (tmp_path / "cfg.txt").write_text("iou = 0.5\nclasses = Car\n")
        runs = {name: head + [command, "--gt", gt, "--det", det, "--output", str(tmp_path / name)]
                for name, head, command in (
                    ("run_a", ["--config", str(tmp_path / "cfg.txt")], "eval"),
                    ("run_b", [], "stream-eval"),
                    ("run_c", [], "eval"))}
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

        def outputs(name):
            """The bytes of each file run name wrote, which are then removed."""
            files = {p.name: p.read_bytes() for p in tmp_path.glob(name + "*")}
            for path in files:
                (tmp_path / path).unlink()
            return files

        alone = []
        for name, argv in runs.items():
            done = subprocess.run([sys.executable, "-m", "streamperc.cli"] + argv, env=env,
                                  capture_output=True, check=True)
            alone.append((done.stdout, outputs(name)))
        in_process = []
        for name, argv in runs.items():
            if name == "run_b":  # a usage error between runs
                with pytest.raises(SystemExit) as exc:
                    cli.main(["eval", "--gt", gt])
                assert exc.value.code == 2
                capsys.readouterr()
            assert cli.main(argv) == 0
            in_process.append((capsys.readouterr().out.encode(), outputs(name)))
        assert in_process == alone


class TestCollectorPause:
    """main pauses the cyclic garbage collector while a command runs and
    restores the caller's setting on every way out; the cycles a command
    leaves for the collector are as many on 3 frames as on 300."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("outcome", ["ok", "data-error", "numerical-error"])
    def test_exit_code_keeps_the_setting(self, tmp_path, collecting, outcome):
        world = {f: [make_gt(frame=f, x=1.0 * f)] for f in range(4)}
        dets = {f: [make_gt(frame=f, x=1.0 * f, score=0.9)] for f in range(4)}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        argv, rc = ["eval", "--gt", gt, "--det", det, "--output", str(tmp_path / "r")], 0
        if outcome == "data-error":
            with open(gt, "a") as f:
                f.write("0 0 Car\n")
            rc = 3
        elif outcome == "numerical-error":  # the diverging filter of TestStreamer
            argv[0] = "streamer"
            argv += ["--interval-ms", "1e150", "--latency-ms", "0"]
            rc = 4
        assert cli.main(argv) == rc
        assert gc.isenabled() is collecting

    def test_exception_keeps_the_setting(self, tmp_path, monkeypatch, collecting):
        def fail(path):
            raise RuntimeError("not a data error")

        monkeypatch.setattr(cli, "_load_label_map", fail)
        with pytest.raises(RuntimeError, match="not a data error"):
            cli.main(command_argv(tmp_path, "eval"))
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    def test_cycles_left_do_not_grow_with_the_input(self, tmp_path, command):
        # with the collector off, gc.collect() after main counts every
        # unreachable object in a cycle that the command left behind; the
        # first run warms up, since the first main call of a process also
        # builds the parser and leaves that garbage once
        was, found = gc.isenabled(), []
        gc.disable()
        try:
            for n in (3, 3, 300):
                gt = write_labels(tmp_path / ("gt%d.txt" % n), simple_world(n))
                det = write_labels(tmp_path / ("det%d.txt" % n), simple_world(n, score=0.9))
                gc.collect()
                assert cli.main([command, "--gt", gt, "--det", det,
                                 "--output", str(tmp_path / ("r%d" % n))]) == 0
                found.append(gc.collect())
        finally:
            if was:
                gc.enable()
        assert found[1] == found[2]


def test_cli_imports_numpy_and_the_stdlib_only():
    """Importing streamperc.cli adds no top-level module outside the
    standard library, numpy and streamperc."""
    code = ("import sys; before = set(sys.modules); import streamperc.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "streamperc" in added
    outside = sorted(set(added) - set(sys.stdlib_module_names) - {"numpy", "streamperc"})
    assert not outside, "streamperc.cli imports modules outside numpy and the stdlib: %s" % outside


# The files each command publishes, in publication order, for the arguments
# of publishing_argv.
PUBLISHED = {
    "eval": ["r.json", "r.csv", "r_pr.dat"],
    "stream-eval": ["r.json", "r.csv", "r_pr.dat"],
    "streamer": ["r_forecasts.txt", "r.json", "r.csv"],
    "flow": ["o_flow.fgrd", "o_pseudo.fgrd", "o.json"],
    "mcl": ["r.json"],
}


def publishing_argv(tmp_path, command):
    argv = command_argv(tmp_path, command)
    return argv + ["--output", str(tmp_path / "r.json")] if command == "mcl" else argv


def snapshot(directory):
    """Each entry of directory: its bytes, or None for a subdirectory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in directory.iterdir()}


def fail_nth_temporary_write(monkeypatch, n):
    """Make the write to the n-th (from 0) temporary file of cli fail with
    ENOSPC after the file is created; return the temporary paths opened."""
    real_open = open
    opened = []

    class FullDisk:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fake_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        if mode != "xb":
            return f
        opened.append(path)
        return FullDisk(f) if len(opened) == n + 1 else f

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    return opened


class TestPublishAllOrNone:
    """main publishes a command's files all together or not at all."""

    @pytest.mark.parametrize("command", sorted(PUBLISHED))
    def test_publishes_these_files_in_order(self, tmp_path, capsys, monkeypatch, command):
        argv = publishing_argv(tmp_path, command)
        before = set(os.listdir(tmp_path))
        renamed = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda a, b: renamed.append(b) or real_replace(a, b))
        assert cli.main(argv) == 0
        assert [os.path.basename(p) for p in renamed] == PUBLISHED[command]
        assert set(os.listdir(tmp_path)) - before == set(PUBLISHED[command])
        assert capsys.readouterr().out.endswith("\n")

    @pytest.mark.parametrize("command, name",
                             [(c, name) for c in sorted(PUBLISHED) for name in PUBLISHED[c]])
    def test_directory_in_place_of_any_file(self, tmp_path, capsys, command, name):
        argv = publishing_argv(tmp_path, command)
        (tmp_path / name).mkdir()
        before = snapshot(tmp_path)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and "Is a directory" in captured.err
        assert captured.out == ""
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("command, n",
                             [(c, n) for c in sorted(PUBLISHED) for n in range(len(PUBLISHED[c]))])
    def test_failed_temporary_write_leaves_nothing(self, tmp_path, capsys, monkeypatch,
                                                   command, n):
        argv = publishing_argv(tmp_path, command)
        before = snapshot(tmp_path)
        opened = fail_nth_temporary_write(monkeypatch, n)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and "No space left" in captured.err
        assert captured.out == ""
        assert len(opened) == n + 1
        assert snapshot(tmp_path) == before

    def test_failed_run_leaves_earlier_report_untouched(self, tmp_path, capsys, monkeypatch):
        argv = publishing_argv(tmp_path, "stream-eval")
        assert cli.main(argv) == 0
        before = snapshot(tmp_path)
        fail_nth_temporary_write(monkeypatch, 2)
        # a different latency changes every file, had the run been published
        assert cli.main(argv + ["--latency-ms", "150"]) == 3
        assert snapshot(tmp_path) == before
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(PUBLISHED))
    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
    def test_mode_is_that_of_open(self, tmp_path, capsys, command, umask):
        argv = publishing_argv(tmp_path, command)
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            assert cli.main(argv) == 0
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
        for name in PUBLISHED[command]:
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
        capsys.readouterr()


_VALID_LINE = "0 0 Car 0 0 0 100 100 200 250 1.5 1.6 3.9 0 1.5 10 0"
_TOKENS = ["0", "1", "-1", "2", "100", "1000000", "Car", "Pedestrian", "Van", "DontCare",
           "0.5", "-0.5", "1.5", "1e-300", "1e300", "nan", "inf", "-inf", "x", "0x10", "1_0"]


@st.composite
def label_texts(draw):
    """Label file text, line by line: a valid line kept, with a field
    dropped, added or replaced by an odd token, or random tokens or text;
    sometimes followed by bytes that are not UTF-8."""
    tokens = st.sampled_from(_TOKENS)
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        fields = _VALID_LINE.split() + draw(st.sampled_from([[], ["0.9"]]))
        i = draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(["keep", "drop", "add", "replace", "tokens", "text"]))
        if edit == "drop":
            del fields[i]
        elif edit == "add":
            fields.insert(i, draw(tokens))
        elif edit == "replace":
            fields[i] = draw(tokens)
        elif edit == "tokens":
            fields = draw(st.lists(tokens, max_size=19))
        lines.append(draw(st.text(max_size=40)) if edit == "text" else " ".join(fields))
    text = "\n".join(lines).encode("utf-8", "surrogatepass")
    return text + draw(st.sampled_from([b"", b"\n", b"", b"\n", b"\xff"]))


_CONFIG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["", "Car", ",", "0.7,0.5", "bev", "3d", "nan", "missing.txt", "."]),
    st.text(st.characters(blacklist_characters="/\n\r#=", blacklist_categories=("Cs",)),
            max_size=12),
)


@st.composite
def config_texts(draw):
    keys = st.sampled_from(sorted(cli.DEFAULTS) + ["latency-ms", "bogus"])
    lines = draw(st.lists(st.tuples(keys, _CONFIG_VALUES), max_size=4))
    return "".join("%s = %s\n" % kv for kv in lines) + draw(st.sampled_from(["", "novalue\n"]))


@st.composite
def fgrd_files(draw):
    """FGRD bytes: random bytes, or a header of any version and small or
    huge shape followed by a payload of random length."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    axis = st.one_of(st.integers(0, 9), st.just(2**32 - 1))
    header = b"FGRD" + struct.pack("<4I", draw(st.integers(0, 2)), draw(axis), draw(axis),
                                   draw(axis))
    return header + draw(st.binary(max_size=4 * 9 * 9 * 4))


def assert_exit_code(argv):
    rc = cli.main(argv)
    assert rc in (0, 3, 4), (rc, argv)


class TestFuzzThroughMain:
    """Malformed inputs end in exit 0, 3 or 4; no exception escapes main."""

    @settings(max_examples=150, deadline=None)
    @given(gt=label_texts(), det=label_texts())
    def test_label_files(self, gt, det):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "gt.txt").write_bytes(gt)
            (tmp / "det.txt").write_bytes(det)
            files = ["--gt", str(tmp / "gt.txt"), "--det", str(tmp / "det.txt"),
                     "--output", str(tmp / "r")]
            assert_exit_code(["eval"] + files)
            assert_exit_code(["stream-eval"] + files + ["--latency-ms", "150", "--skip-stale"])
            assert_exit_code(["streamer"] + files + ["--latency-ms", "80"])
            assert_exit_code(["mcl", "--pred", str(tmp / "det.txt"), "--gt-t", str(tmp / "gt.txt"),
                              "--gt-tm1", str(tmp / "gt.txt"), "--gt-tm2", str(tmp / "det.txt")])

    @settings(max_examples=60, deadline=None)
    @given(config=config_texts())
    def test_config_files(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cwd = os.getcwd()
            os.chdir(tmp)  # relative paths in the config resolve inside tmp
            try:
                (tmp / "cfg.txt").write_text(config)
                for command in ("stream-eval", "streamer", "flow", "mcl"):
                    assert_exit_code(["--config", "cfg.txt"] + command_argv(tmp, command))
            finally:
                os.chdir(cwd)

    @settings(max_examples=60, deadline=None)
    @given(previous=fgrd_files(), current=st.one_of(st.none(), fgrd_files()))
    def test_fgrd_files(self, previous, current):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_fgrd(str(tmp / "cur.fgrd"), textured_grid(8, 8, 4))
            if current is not None:
                (tmp / "cur.fgrd").write_bytes(current)
            (tmp / "prev.fgrd").write_bytes(previous)
            assert_exit_code(["flow", "--current", str(tmp / "cur.fgrd"),
                              "--previous", str(tmp / "prev.fgrd"), "--output", str(tmp / "o"),
                              "--rd", "1"])
