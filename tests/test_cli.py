import errno
import json
import math
import os
import stat
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc import cli, feature_flow, geometry, streaming_sim
from streamperc.grid_ops import read_fgrd, write_fgrd
from streamperc.kitti_io import format_tracking_labels

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

    def test_class_named_twice(self, tmp_path):
        # both Car row sets score the detections, which carry the id of the
        # last Car; numbering the cells by position would leave one at 0
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        rows = {}
        for classes in ("Car", "Car,Car"):
            out = tmp_path / classes.replace(",", "_")
            assert cli.main(["eval", "--gt", gt, "--det", det, "--output", str(out),
                             "--classes", classes]) == 0
            rows[classes] = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert len(rows["Car"]) == 12
        assert rows["Car,Car"] == rows["Car"] * 2

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

    @pytest.mark.parametrize("raw, message", [
        pytest.param(b"FGRD\x01\x00\x00", "truncated FGRD", id="truncated-header"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 8, 8, 4) + b"\x00" * 40,
                     "truncated FGRD", id="header-claims-more-data"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1),
                     "truncated FGRD", id="header-claims-beyond-any-file"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 0, 0, 0), "zero-length axis",
                     id="header-0x0x0"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 4, 4, 0), "zero-length axis",
                     id="header-4x4x0"),
    ])
    def test_corrupt_grid_is_data_error(self, tmp_path, capsys, raw, message):
        write_fgrd(str(tmp_path / "cur.fgrd"), textured_grid(8, 8, 4))
        (tmp_path / "bad.fgrd").write_bytes(raw)
        rc = cli.main(["flow", "--current", str(tmp_path / "cur.fgrd"),
                       "--previous", str(tmp_path / "bad.fgrd"),
                       "--output", str(tmp_path / "o")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("o*"))

    def test_missing_input_is_data_error(self, tmp_path):
        write_fgrd(str(tmp_path / "cur.fgrd"), textured_grid(8, 8, 2))
        rc = cli.main(["flow", "--current", str(tmp_path / "cur.fgrd"),
                       "--previous", str(tmp_path / "nope.fgrd"),
                       "--output", str(tmp_path / "o")])
        assert rc == 3


class TestMcl:
    def test_stationary_zero(self, tmp_path, capsys):
        world = simple_world(1, score=0.9)
        paths = {}
        for name in ("pred", "gt_t", "gt_tm1", "gt_tm2"):
            paths[name] = write_labels(tmp_path / (name + ".txt"), world)
        rc = cli.main(["mcl", "--pred", paths["pred"], "--gt-t", paths["gt_t"],
                       "--gt-tm1", paths["gt_tm1"], "--gt-tm2", paths["gt_tm2"],
                       "--output", str(tmp_path / "mcl.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "mcl.json").read_text())
        assert payload["mean_mcl"] == 0.0
        assert payload["n_objects"] == 2
        assert payload["config"]["tau"] == pytest.approx(0.8)
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["tau = -1", "tau = nan", "beta = 0", "beta = inf",
                                      "iou_kind = xyz"])
    def test_bad_option_is_data_error_with_no_match(self, tmp_path, capsys, line):
        # the prediction lies 50 m from every ground truth, so no object is
        # scored; the options are still checked
        far = {0: [make_gt(track_id=0, x=50.0, z=10.0, score=0.9)]}
        paths = [write_labels(tmp_path / "pred.txt", far)] + [
            write_labels(tmp_path / (name + ".txt"), simple_world(1))
            for name in ("gt_t", "gt_tm1", "gt_tm2")]
        argv = ["mcl"] + [v for pair in zip(["--pred", "--gt-t", "--gt-tm1", "--gt-tm2"],
                                            paths) for v in pair]
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

    def test_bad_chain_is_data_error(self, tmp_path, capsys):
        chain = tmp_path / "chain.txt"
        # unknown kind; zero stride, channels, dilation or out_channels;
        # negative kernel or channels; a kernel too large for a float
        for line in ("pool 2 2 1 8", "conv 3 0 1 4", "dwconv 3 1 1 0",
                     "conv -3 1 1 4", "conv 3 1 1 -4", "conv 3 1 0 4", "tconv 2 2 1 8 0",
                     "conv %d 1 1 4" % 10**400):
            chain.write_text(line + "\n")
            assert cli.main(["lkbb", "--chain", str(chain)]) == 3, line
            assert "data error" in capsys.readouterr().err, line

    @pytest.mark.parametrize("height, width", [(0, 10), (10, 0), (-5, 10), (10, -5)])
    def test_input_side_below_one_is_data_error(self, tmp_path, capsys, height, width):
        chain = tmp_path / "chain.txt"
        chain.write_text("conv 3 1 1 8\n")
        assert cli.main(["lkbb", "--chain", str(chain),
                         "--height", str(height), "--width", str(width)]) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and captured.out == ""


class TestFootprintCache:
    def test_one_corner_build_per_box(self, tmp_path, monkeypatch):
        # two overlapping cars, so every detection/ground-truth pair of the
        # 12 Car cells and their PR dump reaches the polygon clip
        world = {0: [make_gt(track_id=i, x=1.5 * i, z=10.0) for i in range(2)]}
        dets = {0: [make_gt(track_id=i, x=1.5 * i, z=10.0, score=0.9 - 0.1 * i)
                    for i in range(2)]}
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", dets)
        built = []
        orig = geometry.bev_corners

        def counting(box):
            built.append(id(box))
            return orig(box)

        monkeypatch.setattr(geometry, "bev_corners", counting)
        assert cli.main(["eval", "--gt", gt, "--det", det,
                         "--output", str(tmp_path / "r")]) == 0
        assert len(built) == len(set(built)) == 4
        payload = json.loads((tmp_path / "r.json").read_text())
        assert all(r["ap"] == pytest.approx(1.0) for r in payload["results"]
                   if r["class"] == "Car")


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
        paths = [write_labels(tmp_path / (name + ".txt"), simple_world(1, score=0.9))
                 for name in ("pred", "gt_t", "gt_tm1", "gt_tm2")]
        flags = ["--pred", "--gt-t", "--gt-tm1", "--gt-tm2"]
        return ["mcl"] + [v for pair in zip(flags, paths) for v in pair]
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
        ("latency_trace = {tmp}/missing.txt", "stream-eval"),
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


class TestBadLabels:
    @pytest.mark.parametrize("bad", [
        pytest.param({"h": float("nan")}, id="nan-dims"),
        pytest.param({"x": float("inf")}, id="inf-location"),
        pytest.param({"score": float("nan")}, id="nan-score"),
    ])
    def test_non_finite_field_is_data_error(self, tmp_path, capsys, bad):
        gt = write_labels(tmp_path / "gt.txt", simple_world(2))
        dets = simple_world(2, score=0.9)
        dets[1][0] = make_gt(frame=1, z=10.0, **{"score": 0.9, **bad})
        det = write_labels(tmp_path / "det.txt", dets)
        rc = cli.main(["eval", "--gt", gt, "--det", det, "--output", str(tmp_path / "r")])
        assert rc == 3
        assert "line 3: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    def test_out_of_range_zero_dim_is_data_error(self, tmp_path, capsys, command):
        # the range crop would drop this box, but it is still malformed
        gt = write_labels(tmp_path / "gt.txt", simple_world(2))
        dets = simple_world(2, score=0.9)
        dets[0].append(make_gt(track_id=5, z=80.0, h=0.0, score=0.9))
        det = write_labels(tmp_path / "det.txt", dets)
        rc = cli.main([command, "--gt", gt, "--det", det, "--output", str(tmp_path / "r")])
        assert rc == 3
        assert "dims must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    @pytest.mark.parametrize("row", [
        pytest.param({"class_name": "Van", "z": 10.0}, id="unevaluated-class"),
        pytest.param({"class_name": "Car", "z": 80.0}, id="out-of-range"),
    ])
    def test_zero_dim_ground_truth_is_data_error(self, tmp_path, capsys, command, row):
        # neither row is ever matched, but both are malformed
        world = simple_world(2)
        world[1].append(make_gt(frame=1, track_id=5, h=0.0, **row))
        gt = write_labels(tmp_path / "gt.txt", world)
        det = write_labels(tmp_path / "det.txt", simple_world(2, score=0.9))
        rc = cli.main([command, "--gt", gt, "--det", det, "--output", str(tmp_path / "r")])
        assert rc == 3
        assert "line 5: dims must be positive" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

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

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    def test_negative_frame_is_data_error(self, tmp_path, capsys, command):
        # the schedule starts at frame 0: a negative frame used to be scored
        # by eval and dropped by the streaming modes
        gt_text = format_tracking_labels(simple_world(2))
        gt_lines = gt_text.splitlines()
        gt_lines[1] = "-1" + gt_lines[1][1:]
        (tmp_path / "gt.txt").write_text("\n".join(gt_lines) + "\n")
        det = write_labels(tmp_path / "det.txt", simple_world(2, score=0.9))
        rc = cli.main([command, "--gt", str(tmp_path / "gt.txt"), "--det", det,
                       "--output", str(tmp_path / "r")])
        assert rc == 3
        assert "line 2: negative frame" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "stream-eval", "streamer"])
    def test_huge_frame_is_data_error(self, tmp_path, capsys, monkeypatch, command):
        # rejected while parsing, before any schedule is built
        def fail(*args, **kwargs):
            raise AssertionError("schedule built")

        monkeypatch.setattr(streaming_sim, "build_schedule", fail)
        gt_lines = format_tracking_labels(simple_world(2)).splitlines()
        gt_lines[1] = "1000000" + gt_lines[1][1:]
        (tmp_path / "gt.txt").write_text("\n".join(gt_lines) + "\n")
        det = write_labels(tmp_path / "det.txt", simple_world(2, score=0.9))
        rc = cli.main([command, "--gt", str(tmp_path / "gt.txt"), "--det", det,
                       "--output", str(tmp_path / "r")])
        assert rc == 3
        assert "line 2: frame index 1000000 is not below" in capsys.readouterr().err


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
    @pytest.mark.parametrize("iou", ["1.5", "0", "-0.5", "nan"])
    def test_iou_outside_unit_interval_is_data_error(self, tmp_path, capsys, command, iou):
        # with no pairs to match, such a threshold used to reach the table
        for name in ("gt.txt", "det.txt"):
            (tmp_path / name).write_text("")
        rc = cli.main([command, "--gt", str(tmp_path / "gt.txt"),
                       "--det", str(tmp_path / "det.txt"),
                       "--output", str(tmp_path / "r"), "--iou", iou])
        assert rc == 3
        assert "data error" in capsys.readouterr().err
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
    keys = st.sampled_from(sorted(cli.CONFIG_KEYS) + ["latency-ms", "bogus"])
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
