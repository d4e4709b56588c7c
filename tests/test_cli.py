import json
import struct

import numpy as np
import pytest

from streamperc import cli
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

    def test_determinism(self, tmp_path):
        gt = write_labels(tmp_path / "gt.txt", simple_world())
        det = write_labels(tmp_path / "det.txt", simple_world(score=0.9))
        cli.main(["eval", "--gt", gt, "--det", det, "--output", str(tmp_path / "a")])
        cli.main(["eval", "--gt", gt, "--det", det, "--output", str(tmp_path / "b")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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

    def test_short_trace_is_data_error(self, tmp_path, capsys):
        gt = write_labels(tmp_path / "gt.txt", simple_world(3))
        det = write_labels(tmp_path / "det.txt", simple_world(3, score=0.9))
        trace = tmp_path / "trace.txt"
        trace.write_text("10\n")
        rc = cli.main(["stream-eval", "--gt", gt, "--det", det,
                       "--output", str(tmp_path / "r"), "--latency-trace", str(trace)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err


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

    @pytest.mark.parametrize("raw", [
        pytest.param(b"FGRD\x01\x00\x00", id="truncated-header"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 8, 8, 4) + b"\x00" * 40,
                     id="header-claims-more-data"),
        pytest.param(b"FGRD" + struct.pack("<4I", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1),
                     id="header-claims-beyond-any-file"),
    ])
    def test_corrupt_grid_is_data_error(self, tmp_path, capsys, raw):
        write_fgrd(str(tmp_path / "cur.fgrd"), textured_grid(8, 8, 4))
        (tmp_path / "bad.fgrd").write_bytes(raw)
        rc = cli.main(["flow", "--current", str(tmp_path / "cur.fgrd"),
                       "--previous", str(tmp_path / "bad.fgrd"),
                       "--output", str(tmp_path / "o")])
        assert rc == 3
        assert "truncated FGRD" in capsys.readouterr().err

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
        chain.write_text("pool 2 2 1 8\n")
        assert cli.main(["lkbb", "--chain", str(chain)]) == 3
        capsys.readouterr()


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


class TestUsageErrors:
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
