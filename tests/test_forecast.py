import numpy as np
import pytest

from streamperc.forecast import (
    MEAS_DIM,
    STATE_DIM,
    KfConfig,
    TrackState,
    StreamerTracker,
    associate,
    forecast_boxes,
    kf_predict,
    kf_update,
    measurement_from_box,
    new_track,
    streamer_step,
)

from streamperc.geometry import normalize_angle

from conftest import make_box


CFG = KfConfig()


def assert_psd(cov):
    assert np.max(np.abs(cov - cov.T)) <= 1e-9
    assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestKfPredict:
    def test_dt_zero(self):
        t = new_track(0, make_box(x=1.0, z=5.0), CFG)
        p = kf_predict(t, 0.0, CFG)
        assert np.array_equal(p.mean, t.mean)
        assert np.allclose(p.covariance, t.covariance)

    def test_linear_motion(self):
        t = new_track(0, make_box(x=0.0), CFG)
        t.mean[7] = 2.0  # vx
        p = kf_predict(t, 0.1, CFG)
        assert p.mean[0] == pytest.approx(0.2)

    def test_trace_non_decreasing(self):
        t = new_track(0, make_box(), CFG)
        p = kf_predict(t, 0.5, CFG)
        assert np.trace(p.covariance) >= np.trace(t.covariance)
        assert_psd(p.covariance)

    def test_negative_dt(self):
        with pytest.raises(ValueError):
            kf_predict(new_track(0, make_box(), CFG), -0.1, CFG)


class TestKfUpdate:
    def test_zero_innovation(self):
        t = new_track(0, make_box(x=1.0, z=7.0), CFG)
        u = kf_update(t, t.mean[:7].copy(), CFG)
        assert np.allclose(u.mean, t.mean, atol=1e-12)
        assert_psd(u.covariance)

    def test_small_noise_pulls_to_measurement(self):
        cfg = KfConfig(measurement_variance=1e-12)
        t = new_track(0, make_box(x=0.0), cfg)
        t = kf_predict(t, 0.1, cfg)
        z = t.mean[:7].copy()
        z[0] = 5.0
        u = kf_update(t, z, cfg)
        assert u.mean[0] == pytest.approx(5.0, abs=1e-6)

    def test_yaw_innovation_wrapped(self):
        t = new_track(0, make_box(yaw=3.1), CFG)
        z = t.mean[:7].copy()
        z[3] = -3.1  # 0.0832 rad away through the wrap
        u = kf_update(t, z, CFG)
        assert abs(u.mean[3]) > 3.1  # nudged toward the wrap, not through zero

    def test_noise_free_track_predicts_next(self):
        # positions 1, 2, 3 at dt=1; velocity pinned from the first two
        cfg = KfConfig()
        t = new_track(0, make_box(x=1.0), cfg)
        t.mean[7] = 1.0  # velocity initialized from first two observations
        t.covariance[7:, 7:] = np.eye(4) * cfg.measurement_variance
        for x in (2.0, 3.0):
            t = kf_predict(t, 1.0, cfg)
            z = t.mean[:7].copy()
            z[0] = x
            t = kf_update(t, z, cfg)
        pred = kf_predict(t, 1.0, cfg)
        assert pred.mean[0] == pytest.approx(4.0, abs=1e-9)


def ref_kf_update(s, z, cfg):
    """Oracle: the Kalman update written with an explicit selector matrix h."""
    z = np.asarray(z, dtype=float)
    h = np.zeros((MEAS_DIM, STATE_DIM))
    h[:MEAS_DIM, :MEAS_DIM] = np.eye(MEAS_DIM)
    r = cfg.measurement_noise()
    innovation = z - h @ s.mean
    innovation[3] = normalize_angle(innovation[3])
    s_mat = h @ s.covariance @ h.T + r
    k = s.covariance @ h.T @ np.linalg.inv(s_mat)
    mean = s.mean + k @ innovation
    ikh = np.eye(STATE_DIM) - k @ h
    cov = ikh @ s.covariance @ ikh.T + k @ r @ k.T
    return mean, 0.5 * (cov + cov.T)


class TestKfUpdateMatchesReference:
    def test_bit_identical_on_random_states(self, rng):
        for _ in range(500):
            a = rng.normal(size=(STATE_DIM, STATE_DIM)) * rng.uniform(0.01, 10.0)
            cov = a @ a.T + np.eye(STATE_DIM) * rng.uniform(1e-6, 1.0)
            t = TrackState(id=0, mean=rng.normal(scale=20.0, size=STATE_DIM), covariance=cov)
            z = t.mean[:MEAS_DIM] + rng.normal(scale=2.0, size=MEAS_DIM)
            z[3] = rng.uniform(-np.pi, np.pi)
            cfg = KfConfig(measurement_variance=rng.uniform(1e-6, 1.0))
            u = kf_update(t, z, cfg)
            mean, cov = ref_kf_update(t, z, cfg)
            assert np.array_equal(u.mean, mean)
            assert np.array_equal(u.covariance, cov)


class TestAssociate:
    def test_disjoint(self):
        tracks = [new_track(0, make_box(x=0.0), CFG)]
        dets = [make_box(x=50.0)]
        matches, ut, ud = associate(tracks, dets, 0.3)
        assert matches == []
        assert ut == [0]
        assert ud == [0]

    def test_identical(self):
        boxes = [make_box(x=5.0 * i) for i in range(3)]
        tracks = [new_track(i, b, CFG) for i, b in enumerate(boxes)]
        matches, ut, ud = associate(tracks, boxes, 0.3)
        assert sorted(matches) == [(0, 0), (1, 1), (2, 2)]
        assert ut == [] and ud == []

    def test_greedy_order(self):
        # IoU matrix approx {{0.9, 0.4}, {0.5, 0.8}}: greedy picks (0,0), (1,1)
        t0 = new_track(0, make_box(x=0.0, w=2.0, l=4.0), CFG)
        t1 = new_track(1, make_box(x=10.0, w=2.0, l=4.0), CFG)
        d0 = make_box(x=0.1, w=2.0, l=4.0)
        d1 = make_box(x=10.2, w=2.0, l=4.0)
        matches, _, _ = associate([t0, t1], [d0, d1], 0.1)
        assert sorted(matches) == [(0, 0), (1, 1)]


class TestStreamerStep:
    def test_spawns_tracks(self):
        dets = [make_box(x=5.0 * i, score=0.5) for i in range(3)]
        tracks = streamer_step([], dets, 0.1, CFG)
        assert len(tracks) == 3
        assert all(t.hits == 1 for t in tracks)

    def test_track_removed_after_max_misses(self):
        tracks = streamer_step([], [make_box()], 0.1, CFG)
        for _ in range(CFG.max_misses):
            tracks = streamer_step(tracks, [], 0.1, CFG)
            assert len(tracks) == 1
        tracks = streamer_step(tracks, [], 0.1, CFG)
        assert tracks == []

    def test_constant_velocity_forecast(self):
        # object moving 2 m/frame along x, observed 4 frames at 10 Hz
        tracks = []
        for k in range(4):
            dets = [make_box(x=2.0 * k, score=0.9)]
            tracks = streamer_step(tracks, dets, 0.1, CFG)
        boxes = forecast_boxes(tracks, 0.1, CFG)
        assert len(boxes) == 1
        assert boxes[0].center[0] == pytest.approx(8.0, abs=1e-6)

    def test_track_count_bounded(self):
        rng = np.random.default_rng(3)
        tracks = []
        total_dets = 0
        for _ in range(10):
            dets = [make_box(x=rng.uniform(-20, 20)) for _ in range(rng.integers(0, 4))]
            total_dets += len(dets)
            tracks = streamer_step(tracks, dets, 0.1, CFG)
            assert len(tracks) <= total_dets

    def test_covariance_psd_throughout(self):
        tracks = []
        for k in range(6):
            dets = [make_box(x=1.5 * k, z=10.0 + 0.5 * k)]
            tracks = streamer_step(tracks, dets, 0.1, CFG)
            for t in tracks:
                assert_psd(t.covariance)

    def test_determinism(self):
        def run():
            tracks = []
            history = []
            for k in range(5):
                dets = [make_box(x=2.0 * k), make_box(x=2.0 * k + 8.0)]
                tracks = streamer_step(tracks, dets, 0.1, CFG)
                history.append([(t.id, tuple(t.mean)) for t in tracks])
            return history

        assert run() == run()

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            streamer_step([], [], 0.0, CFG)


class TestForecastBoxes:
    def test_dt_zero_current_boxes(self):
        tracks = streamer_step([], [make_box(x=3.0, score=0.7)], 0.1, CFG)
        boxes = forecast_boxes(tracks, 0.0, CFG)
        assert boxes[0].center[0] == pytest.approx(3.0)
        assert boxes[0].score == pytest.approx(0.7)

    def test_stationary_track(self):
        tracks = []
        for _ in range(3):
            tracks = streamer_step(tracks, [make_box(x=3.0)], 0.1, CFG)
        for dt in (0.0, 0.5, 2.0):
            boxes = forecast_boxes(tracks, dt, CFG)
            assert boxes[0].center[0] == pytest.approx(3.0, abs=1e-9)

    def test_velocity_advance(self):
        tracks = streamer_step([], [make_box(x=0.0)], 0.1, CFG)
        tracks[0].mean[7] = 10.0
        boxes = forecast_boxes(tracks, 0.1, CFG)
        assert boxes[0].center[0] == pytest.approx(1.0)

    def test_min_hits_suppression(self):
        cfg = KfConfig(min_hits=2)
        tracks = streamer_step([], [make_box()], 0.1, cfg)
        assert forecast_boxes(tracks, 0.1, cfg) == []
        tracks = streamer_step(tracks, [make_box()], 0.1, cfg)
        assert len(forecast_boxes(tracks, 0.1, cfg)) == 1


class TestStreamerTracker:
    def test_end_to_end_convergence(self):
        tracker = StreamerTracker()
        for k in range(4):
            tracker.step([make_box(x=2.0 * k, z=10.0, score=0.8)], 0.1)
        box = tracker.forecast(0.1)[0]
        assert box.center[0] == pytest.approx(8.0, abs=1e-6)
        assert box.track_id is not None

    def test_measurement_roundtrip(self):
        b = make_box(x=1.0, y=0.5, z=9.0, yaw=0.3)
        z = measurement_from_box(b)
        t = new_track(5, b, CFG)
        assert np.allclose(t.mean[:7], z)
        back = t.to_box()
        assert back.center == pytest.approx(b.center)
        assert back.dims == pytest.approx(b.dims)
        assert back.yaw == pytest.approx(b.yaw)

    def test_to_box_wraps_yaw(self):
        t = new_track(0, make_box(), CFG)
        for yaw in (3.0 * np.pi / 2.0, -np.pi, np.pi, 7.0, -7.0, 0.3):
            t.mean[3] = yaw
            assert t.to_box().yaw == normalize_angle(yaw)

    def test_tracker_ids_count_from_zero(self):
        tracker = StreamerTracker()
        tracker.step([make_box(x=0.0), make_box(x=20.0)], 0.1)
        tracker.step([make_box(x=0.0), make_box(x=20.0), make_box(x=40.0)], 0.1)
        assert [t.id for t in tracker.tracks] == [0, 1, 2]
