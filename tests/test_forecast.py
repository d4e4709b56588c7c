import copy
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc import forecast
from streamperc.forecast import (
    ASSOCIATION_IOU,
    MAX_MISSES,
    MEAS_DIM,
    MEASUREMENT_VARIANCE,
    STATE_DIM,
    TrackState,
    StreamerTracker,
    associate,
    forecast_boxes,
    kf_predict,
    kf_update,
    measurement_from_box,
    new_track,
    stream_forecasts,
    streamer_step,
)

from streamperc.geometry import iou_3d, iou_bev, iou_matrix, normalize_angle
from streamperc.streaming_sim import build_schedule, finished_by_instant

from conftest import make_box
from test_streaming_sim import schedule_inputs


def assert_psd(cov):
    assert np.max(np.abs(cov - cov.T)) <= 1e-9
    assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestKfPredict:
    def test_dt_zero(self):
        t = new_track(0, make_box(x=1.0, z=5.0))
        p = kf_predict(t, 0.0)
        assert np.array_equal(p.mean, t.mean)
        assert np.allclose(p.covariance, t.covariance)

    def test_linear_motion(self):
        t = new_track(0, make_box(x=0.0))
        t.mean[7] = 2.0  # vx
        p = kf_predict(t, 0.1)
        assert p.mean[0] == pytest.approx(0.2)

    def test_trace_non_decreasing(self):
        t = new_track(0, make_box())
        p = kf_predict(t, 0.5)
        assert np.trace(p.covariance) >= np.trace(t.covariance)
        assert_psd(p.covariance)

    def test_negative_dt(self):
        with pytest.raises(ValueError):
            kf_predict(new_track(0, make_box()), -0.1)


def old_transition(dt):
    """A verbatim copy of forecast._transition before it was cached."""
    f = forecast._EYE.copy()
    f[forecast._POS, forecast._VEL] = forecast._EYE[forecast._POS, forecast._POS] * dt
    return f


class TestCachedTransition:
    def test_shared_and_read_only(self):
        f = forecast._transition(0.1)
        assert forecast._transition(0.1) is f
        with pytest.raises(ValueError, match="read-only"):
            f[0, 7] = 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0, 1, 0.1, 1e-300, 5e-324]),
                              st.floats(0.0, 1e3)), min_size=1, max_size=12))
    def test_bytes_of_a_fresh_transition(self, dts):
        # repeated and interleaved: 0.0 and -0.0 are equal keys of a plain
        # cache but give zeros of different signs
        for dt in dts + dts[::-1]:
            assert forecast._transition(dt).tobytes() == old_transition(dt).tobytes()


class TestKfUpdate:
    def test_zero_innovation(self):
        t = new_track(0, make_box(x=1.0, z=7.0))
        u = kf_update(t, t.mean[:7].copy())
        assert np.allclose(u.mean, t.mean, atol=1e-12)
        assert_psd(u.covariance)

    def test_small_noise_pulls_to_measurement(self):
        # a prior far wider than the measurement noise: the gain is ~1
        t = kf_predict(new_track(0, make_box(x=0.0)), 0.1)
        t.covariance = np.eye(STATE_DIM) * 1e10
        z = t.mean[:7].copy()
        z[0] = 5.0
        u = kf_update(t, z)
        assert u.mean[0] == pytest.approx(5.0, abs=1e-6)

    def test_yaw_innovation_wrapped(self):
        t = new_track(0, make_box(yaw=3.1))
        z = t.mean[:7].copy()
        z[3] = -3.1  # 0.0832 rad away through the wrap
        u = kf_update(t, z)
        assert abs(u.mean[3]) > 3.1  # nudged toward the wrap, not through zero

    def test_noise_free_track_predicts_next(self):
        # positions 1, 2, 3 at dt=1; velocity pinned from the first two
        t = new_track(0, make_box(x=1.0))
        t.mean[7] = 1.0  # velocity initialized from first two observations
        t.covariance[7:, 7:] = np.eye(4) * MEASUREMENT_VARIANCE
        for x in (2.0, 3.0):
            t = kf_predict(t, 1.0)
            z = t.mean[:7].copy()
            z[0] = x
            t = kf_update(t, z)
        pred = kf_predict(t, 1.0)
        assert pred.mean[0] == pytest.approx(4.0, abs=1e-9)


def ref_kf_update_selector(s, z):
    """Oracle: the Kalman update written with an explicit selector matrix h."""
    z = np.asarray(z, dtype=float)
    h = np.zeros((MEAS_DIM, STATE_DIM))
    h[:MEAS_DIM, :MEAS_DIM] = np.eye(MEAS_DIM)
    r = np.eye(MEAS_DIM) * 0.01
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
        # R is fixed at 0.01; a covariance scale of 1e-3..1e3 makes P/R span
        # about 1e-3..1e9, the ratios a random R in [1e-6, 1] gave
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            a = rng.normal(size=(STATE_DIM, STATE_DIM)) * scale
            cov = a @ a.T + np.eye(STATE_DIM) * scale * scale * rng.uniform(1e-6, 1.0)
            t = TrackState(id=0, mean=rng.normal(scale=20.0, size=STATE_DIM), covariance=cov)
            z = t.mean[:MEAS_DIM] + rng.normal(scale=2.0, size=MEAS_DIM)
            z[3] = rng.uniform(-np.pi, np.pi)
            u = kf_update(t, z)
            mean, cov = ref_kf_update_selector(t, z)
            assert np.array_equal(u.mean, mean)
            assert np.array_equal(u.covariance, cov)


class TestAssociate:
    def test_disjoint(self):
        tracks = [new_track(0, make_box(x=0.0))]
        dets = [make_box(x=50.0)]
        matches, ut, ud = associate(tracks, dets, 0.3)
        assert matches == []
        assert ut == [0]
        assert ud == [0]

    def test_identical(self):
        boxes = [make_box(x=5.0 * i) for i in range(3)]
        tracks = [new_track(i, b) for i, b in enumerate(boxes)]
        matches, ut, ud = associate(tracks, boxes, 0.3)
        assert sorted(matches) == [(0, 0), (1, 1), (2, 2)]
        assert ut == [] and ud == []

    def test_greedy_order(self):
        # IoU matrix approx {{0.9, 0.4}, {0.5, 0.8}}: greedy picks (0,0), (1,1)
        t0 = new_track(0, make_box(x=0.0, w=2.0, l=4.0))
        t1 = new_track(1, make_box(x=10.0, w=2.0, l=4.0))
        d0 = make_box(x=0.1, w=2.0, l=4.0)
        d1 = make_box(x=10.2, w=2.0, l=4.0)
        matches, _, _ = associate([t0, t1], [d0, d1], 0.1)
        assert sorted(matches) == [(0, 0), (1, 1)]

    def test_iou_exactly_at_association_threshold(self):
        # yaw-0 6.5 x 1 m footprints 3.5 m apart along their length overlap
        # by 3 m^2 of a 10 m^2 union: 0.3, the literal, as BEV and 3D IoU
        det = make_box(x=3.5, w=1.0, l=6.5)
        track = new_track(0, make_box(x=0.0, w=1.0, l=6.5))
        assert iou_bev(track.to_box(), det) == iou_3d(track.to_box(), det) == ASSOCIATION_IOU
        assert associate([track], [det], ASSOCIATION_IOU) == ([(0, 0)], [], [])
        # a new track has zero velocity, so its prediction stays in place and
        # the step updates it instead of spawning a second track
        stepped = streamer_step([track], [det], 0.1)
        assert [(t.id, t.hits) for t in stepped] == [(0, 2)]


def old_associate(tracks, dets, threshold):
    """associate as it read with the IoU matrix indexed per pair by the sort
    key, kept as the oracle of the list-based version."""
    if not tracks or not dets:
        return [], list(range(len(tracks))), list(range(len(dets)))
    mat = iou_matrix([t.to_box() for t in tracks], list(dets), kind="bev")
    order = sorted(
        ((i, j) for i in range(len(tracks)) for j in range(len(dets))),
        key=lambda ij: (-mat[ij[0], ij[1]], ij[0], ij[1]),
    )
    matches = []
    used_t, used_d = set(), set()
    for i, j in order:
        if mat[i, j] < threshold or mat[i, j] <= 0.0:
            break
        if i in used_t or j in used_d:
            continue
        matches.append((i, j))
        used_t.add(i)
        used_d.add(j)
    unmatched_t = [i for i in range(len(tracks)) if i not in used_t]
    unmatched_d = [j for j in range(len(dets)) if j not in used_d]
    return matches, unmatched_t, unmatched_d


# 6.5 x 1 m footprints on a 3.5 m lattice along x: neighbours score exactly
# 0.3 and a box at -x mirrors one at +x, so IoUs tie; z = 40 is out of reach
# of every other row, so its track or detection has an all-zero row.
_LATTICE = [(x, z) for x in (-7.0, -3.5, 0.0, 3.5, 7.0) for z in (0.0, 40.0)]
_PLACE = st.one_of(st.sampled_from(_LATTICE),
                   st.tuples(st.floats(-8.0, 8.0), st.floats(-1.0, 1.0)))


@st.composite
def association_inputs(draw):
    """(track boxes, detections, threshold): zero to four tracks, zero to
    five detections drawn with repeats, yaw 0 or pi (the same footprint)."""
    def boxes(n):
        return [make_box(x=x, z=z, w=1.0, l=6.5, yaw=yaw)
                for (x, z), yaw in draw(st.lists(st.tuples(_PLACE, st.sampled_from([0.0, np.pi])),
                                                 max_size=n))]
    tracks = boxes(4)
    dets = boxes(3)
    dets += draw(st.lists(st.sampled_from(dets), max_size=2)) if dets else []
    threshold = draw(st.sampled_from([ASSOCIATION_IOU, 0.1, 0.5, 1.0]))
    return tracks, draw(st.permutations(dets)), threshold


class TestAssociateMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(association_inputs())
    def test_same_matches(self, inputs):
        boxes, dets, threshold = inputs
        tracks = [new_track(i, b) for i, b in enumerate(boxes)]
        assert associate(tracks, dets, threshold) == old_associate(tracks, dets, threshold)


class TestStreamerStep:
    def test_spawns_tracks(self):
        dets = [make_box(x=5.0 * i, score=0.5) for i in range(3)]
        tracks = streamer_step([], dets, 0.1)
        assert len(tracks) == 3
        assert all(t.hits == 1 for t in tracks)

    def test_track_removed_after_max_misses(self):
        tracks = streamer_step([], [make_box()], 0.1)
        for _ in range(MAX_MISSES):
            tracks = streamer_step(tracks, [], 0.1)
            assert len(tracks) == 1
        tracks = streamer_step(tracks, [], 0.1)
        assert tracks == []

    def test_constant_velocity_forecast(self):
        # object moving 2 m/frame along x, observed 4 frames at 10 Hz
        tracks = []
        for k in range(4):
            dets = [make_box(x=2.0 * k, score=0.9)]
            tracks = streamer_step(tracks, dets, 0.1)
        boxes = forecast_boxes(tracks, 0.1)
        assert len(boxes) == 1
        assert boxes[0].center[0] == pytest.approx(8.0, abs=1e-6)

    def test_track_count_bounded(self):
        rng = np.random.default_rng(3)
        tracks = []
        total_dets = 0
        for _ in range(10):
            dets = [make_box(x=rng.uniform(-20, 20)) for _ in range(rng.integers(0, 4))]
            total_dets += len(dets)
            tracks = streamer_step(tracks, dets, 0.1)
            assert len(tracks) <= total_dets

    def test_covariance_psd_throughout(self):
        tracks = []
        for k in range(6):
            dets = [make_box(x=1.5 * k, z=10.0 + 0.5 * k)]
            tracks = streamer_step(tracks, dets, 0.1)
            for t in tracks:
                assert_psd(t.covariance)

    def test_determinism(self):
        def run():
            tracks = []
            history = []
            for k in range(5):
                dets = [make_box(x=2.0 * k), make_box(x=2.0 * k + 8.0)]
                tracks = streamer_step(tracks, dets, 0.1)
                history.append([(t.id, tuple(t.mean)) for t in tracks])
            return history

        assert run() == run()

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            streamer_step([], [], 0.0)


class TestForecastBoxes:
    def test_dt_zero_current_boxes(self):
        tracks = streamer_step([], [make_box(x=3.0, score=0.7)], 0.1)
        boxes = forecast_boxes(tracks, 0.0)
        assert boxes[0].center[0] == pytest.approx(3.0)
        assert boxes[0].score == pytest.approx(0.7)

    def test_stationary_track(self):
        tracks = []
        for _ in range(3):
            tracks = streamer_step(tracks, [make_box(x=3.0)], 0.1)
        for dt in (0.0, 0.5, 2.0):
            boxes = forecast_boxes(tracks, dt)
            assert boxes[0].center[0] == pytest.approx(3.0, abs=1e-9)

    def test_velocity_advance(self):
        tracks = streamer_step([], [make_box(x=0.0)], 0.1)
        tracks[0].mean[7] = 10.0
        boxes = forecast_boxes(tracks, 0.1)
        assert boxes[0].center[0] == pytest.approx(1.0)

    def test_diverged_forecast_is_arithmetic_error(self):
        # the state itself is a valid box; only its advanced mean is not
        tracks = streamer_step([], [make_box(x=0.0)], 0.1)
        tracks[0].mean[7] = np.nan
        assert tracks[0].to_box().center[0] == 0.0
        with pytest.raises(ArithmeticError, match="no longer a valid box"):
            forecast_boxes(tracks, 0.1)


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
        t = new_track(5, b)
        assert np.allclose(t.mean[:7], z)
        back = t.to_box()
        assert back.center == pytest.approx(b.center)
        assert back.dims == pytest.approx(b.dims)
        assert back.yaw == pytest.approx(b.yaw)

    def test_to_box_wraps_yaw(self):
        t = new_track(0, make_box())
        for yaw in (3.0 * np.pi / 2.0, -np.pi, np.pi, 7.0, -7.0, 0.3):
            t.mean[3] = yaw
            assert t.to_box().yaw == normalize_angle(yaw)

    @pytest.mark.parametrize("index, value", [
        pytest.param(0, np.nan, id="nan-x"),
        pytest.param(3, np.nan, id="nan-yaw"),
        pytest.param(4, -3.9, id="negative-l"),
        pytest.param(6, np.inf, id="infinite-h"),
    ])
    def test_to_box_of_invalid_mean_is_arithmetic_error(self, index, value):
        # a diverged filter is a numerical error, not the data error Box3D raises
        t = new_track(0, make_box())
        t.mean[index] = value
        with pytest.raises(ArithmeticError, match="no longer a valid box"):
            t.to_box()

    def test_tracker_ids_count_from_zero(self):
        tracker = StreamerTracker()
        tracker.step([make_box(x=0.0), make_box(x=20.0)], 0.1)
        tracker.step([make_box(x=0.0), make_box(x=20.0), make_box(x=40.0)], 0.1)
        assert [t.id for t in tracker.tracks] == [0, 1, 2]


# The Kalman model as it was written with a configuration object, its
# defaults inlined: a per-call noise model, a transition built in a loop and
# a dataclasses.replace copy per change. Kept as the oracle of the
# fixed-model code, which must reproduce it bit for bit.


def ref_process_noise():
    q = np.empty(STATE_DIM)
    q[0:4] = 0.01
    q[4:7] = 0.0001
    q[7:11] = 1.0
    return np.diag(q)


def ref_measurement_noise():
    return np.eye(MEAS_DIM) * 0.01


def ref_seed_covariance(velocity_variance):
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov[:MEAS_DIM, :MEAS_DIM] = ref_measurement_noise()
    cov[MEAS_DIM:, MEAS_DIM:] = np.eye(4) * velocity_variance
    return cov


def ref_new_track(track_id, box):
    mean = np.zeros(STATE_DIM)
    mean[:MEAS_DIM] = measurement_from_box(box)
    return TrackState(id=track_id, mean=mean, covariance=ref_seed_covariance(100.0),
                      score=box.score, class_id=box.class_id,
                      last_measurement=mean[:MEAS_DIM].copy())


def ref_kf_predict(s, dt):
    f = np.eye(STATE_DIM)
    for i in range(4):
        f[i, 7 + i] = dt
    mean = f @ s.mean
    cov = f @ s.covariance @ f.T + ref_process_noise() * dt
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, covariance=cov)


def ref_kf_update(s, z):
    z = np.asarray(z, dtype=float)
    r = ref_measurement_noise()
    innovation = z - s.mean[:MEAS_DIM]
    innovation[3] = normalize_angle(innovation[3])
    s_mat = s.covariance[:MEAS_DIM, :MEAS_DIM] + r
    k = s.covariance[:, :MEAS_DIM] @ np.linalg.inv(s_mat)
    mean = s.mean + k @ innovation
    ikh = np.eye(STATE_DIM)
    ikh[:, :MEAS_DIM] -= k
    cov = ikh @ s.covariance @ ikh.T + k @ r @ k.T
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, covariance=cov)


def ref_streamer_step(tracks, dets, dt, alloc_id):
    predicted = [ref_kf_predict(t, dt) for t in tracks]
    matches, _, unmatched_d = associate(predicted, dets, 0.3)
    out = [None] * len(predicted)
    for i, j in matches:
        det = dets[j]
        z = measurement_from_box(det)
        t = ref_kf_update(predicted[i], z)
        if t.hits == 1 and t.last_measurement is not None:
            vel = (z[:4] - t.last_measurement[:4]) / dt
            vel[3] = normalize_angle(z[3] - t.last_measurement[3]) / dt
            mean = t.mean.copy()
            mean[:MEAS_DIM] = z
            mean[7:11] = vel
            cov = ref_seed_covariance(2.0 * 0.01 / (dt * dt))
            t = replace(t, mean=mean, covariance=cov)
        out[i] = replace(t, hits=t.hits + 1, misses=0, score=det.score,
                         class_id=det.class_id, last_measurement=z)
    kept = []
    for i, t in enumerate(predicted):
        if out[i] is not None:
            kept.append(out[i])
        elif t.misses + 1 <= 2:
            kept.append(replace(t, misses=t.misses + 1))
    for j in unmatched_d:
        kept.append(ref_new_track(alloc_id(), dets[j]))
    return kept


def ref_forecast_boxes(tracks, dt):
    boxes = []
    for t in tracks:
        if t.hits < 1:
            continue
        boxes.append(ref_kf_predict(t, dt).to_box() if dt > 0 else t.to_box())
    return boxes


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def box_fields(b):
    return (tuple(map(float, b.center)), tuple(map(float, b.dims)), float(b.yaw),
            b.score, b.class_id, b.track_id)


def random_detections(rng, objects, k):
    """Noisy boxes of the objects visible at step k, plus the odd clutter box."""
    dets = []
    for obj in objects:
        if k in obj["gaps"] or rng.uniform() < 0.15:
            continue
        x = obj["x"] + obj["vx"] * k + rng.normal(scale=0.05)
        z = obj["z"] + obj["vz"] * k + rng.normal(scale=0.05)
        # the detector now and then names another class
        class_id = obj["class_id"] if rng.uniform() < 0.9 else int(rng.integers(0, 3))
        dets.append(make_box(x=x, z=z, yaw=obj["yaw"] + obj["vyaw"] * k,
                             h=1.5 + rng.normal(scale=0.02), score=float(rng.uniform(0.1, 1.0)),
                             class_id=class_id))
    if rng.uniform() < 0.2:
        dets.append(make_box(x=rng.uniform(-30, 30), z=rng.uniform(5, 50),
                             yaw=rng.uniform(-np.pi, np.pi), score=float(rng.uniform(0.1, 1.0)),
                             class_id=int(rng.integers(0, 3))))
    rng.shuffle(dets)
    return dets


def random_objects(rng):
    objects = []
    for _ in range(rng.integers(1, 4)):
        start = int(rng.integers(1, 10))
        objects.append({
            "x": rng.uniform(-20, 20), "z": rng.uniform(5, 45),
            "vx": rng.uniform(-0.4, 0.4), "vz": rng.uniform(-0.4, 0.4),
            # half the objects turn through the +-pi wrap
            "yaw": np.pi + rng.uniform(-0.3, 0.3) if rng.uniform() < 0.5 else rng.uniform(-3, 3),
            "vyaw": rng.uniform(-0.15, 0.15),
            "class_id": int(rng.integers(0, 3)),
            # a gap of MAX_MISSES + 1 steps retires the track
            "gaps": set(range(start, start + int(rng.integers(1, MAX_MISSES + 3)))),
        })
    return objects


class TestStreamerMatchesReference:
    def test_bit_identical_on_random_sequences(self, rng):
        seen = {"spawn": 0, "retire": 0, "reseed": 0, "yaw_wrap": 0}
        for _ in range(220):
            objects = random_objects(rng)
            tracks, ref = [], []
            alloc, ref_alloc = itertools.count().__next__, itertools.count().__next__
            for k in range(int(rng.integers(8, 16))):
                dets = random_detections(rng, objects, k)
                dt = float(rng.uniform(0.05, 0.2))
                before = {t.id: t for t in tracks}
                tracks = streamer_step(tracks, dets, dt, alloc)
                ref = ref_streamer_step(ref, dets, dt, ref_alloc)
                assert [t.id for t in tracks] == [t.id for t in ref]
                for t, r in zip(tracks, ref):
                    assert_same_bits(t.mean, r.mean)
                    assert_same_bits(t.covariance, r.covariance)
                    assert_same_bits(t.last_measurement, r.last_measurement)
                    assert (t.hits, t.misses, t.score, t.class_id) == (
                        r.hits, r.misses, r.score, r.class_id)
                    old = before.get(t.id)
                    if old is None:
                        seen["spawn"] += 1
                    elif t.hits == 2 and old.hits == 1:
                        seen["reseed"] += 1
                    if old is not None and t.misses == 0:
                        raw = abs(t.last_measurement[3] - old.last_measurement[3])
                        seen["yaw_wrap"] += raw > np.pi
                ids = {t.id for t in tracks}
                seen["retire"] += sum(
                    t.misses == MAX_MISSES for i, t in before.items() if i not in ids)
                dt_f = float(rng.choice([0.0, rng.uniform(0.01, 0.5)]))
                assert [box_fields(b) for b in forecast_boxes(tracks, dt_f)] == [
                    box_fields(b) for b in ref_forecast_boxes(ref, dt_f)]
        assert all(n >= 20 for n in seen.values()), seen

    def test_inputs_unchanged(self):
        # track 0 is seen every step; track 1 once, then missed; track 2
        # spawns at step 1 and is missed at step 2
        tracks = []
        for dets in ([0.0, 30.0], [2.0, 35.0], [4.0]):
            tracks = streamer_step(tracks, [make_box(x=x, z=10.0) for x in dets], 0.1)
        assert [(t.id, t.hits, t.misses) for t in tracks] == [(0, 3, 0), (1, 1, 2), (2, 1, 1)]
        frozen = copy.deepcopy(tracks)
        # one step that updates track 0, retires track 1 and re-seeds track 2
        out = streamer_step(tracks, [make_box(x=6.0, z=10.0), make_box(x=35.0, z=10.0)], 0.1)
        assert [(t.id, t.hits, t.misses) for t in out] == [(0, 4, 0), (2, 2, 0)]
        for t, f in zip(tracks, frozen):
            assert (t.id, t.hits, t.misses, t.score, t.class_id) == (
                f.id, f.hits, f.misses, f.score, f.class_id)
            assert_same_bits(t.mean, f.mean)
            assert_same_bits(t.covariance, f.covariance)
            assert_same_bits(t.last_measurement, f.last_measurement)
        assert not {id(t) for t in out} & {id(t) for t in tracks}


def ref_stream_forecasts(schedule, dets, class_ids):
    """The Streamer's stream walk as the streamer command wrote it inline:
    no forecast before the first step, and a first step of one interval."""
    trackers = {cid: StreamerTracker() for cid in class_ids}
    last_world_ms = None
    out = []
    for j, finished in finished_by_instant(schedule):
        for ev in finished:
            arrival_ms = ev.frame * schedule.interval_ns / 1_000_000
            dt_ms = (schedule.interval_ns / 1_000_000 if last_world_ms is None
                     else arrival_ms - last_world_ms)
            frame_dets = dets.get(ev.frame, [])
            for cid, tracker in trackers.items():
                tracker.step([b for b in frame_dets if b.class_id == cid], dt_ms / 1000.0)
            last_world_ms = arrival_ms
        if last_world_ms is None:
            out.append([])
            continue
        dt = (j * schedule.interval_ns / 1_000_000 - last_world_ms) / 1000.0
        preds = []
        for tracker in trackers.values():
            preds.extend(tracker.forecast(dt))
        out.append(preds)
    return out


def box_bits(b):
    """Center, dims and yaw as raw float64 bytes, then score, class and track."""
    return (np.array([*b.center, *b.dims, b.yaw], dtype=float).tobytes(),
            b.score, b.class_id, b.track_id)


@st.composite
def streamer_inputs(draw):
    """(schedule, detections, class ids): constant or per-frame latencies,
    with or without skip-stale, one to three evaluated classes in any order,
    and frames with no detection line."""
    interval, latencies, skip_stale = draw(schedule_inputs())
    n = len(latencies)
    schedule = build_schedule(n, interval, latencies, skip_stale=skip_stale)
    class_ids = draw(st.permutations([0, 1, 2]))[:draw(st.integers(1, 3))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objects = random_objects(rng)
    no_line = draw(st.sets(st.integers(0, n - 1)))
    dets = {k: [b for b in random_detections(rng, objects, k) if b.class_id in class_ids]
            for k in range(n) if k not in no_line}
    return schedule, dets, class_ids


class TestStreamForecasts:
    @settings(max_examples=150, deadline=None)
    @given(streamer_inputs())
    def test_matches_inline_loop(self, inputs):
        schedule, dets, class_ids = inputs
        got = [[box_bits(b) for b in preds]
               for preds in stream_forecasts(schedule, dets, class_ids)]
        assert got == [[box_bits(b) for b in preds]
                       for preds in ref_stream_forecasts(schedule, dets, class_ids)]

    def test_one_tracker_per_class(self):
        # two Cars (class 0) and two Pedestrians (class 1), each Pedestrian on
        # top of a Car: a shared tracker would give ids 0-3 and match across
        # classes. Zero latency, so instant j forecasts frame j in place.
        s = build_schedule(3, 100.0, [0.0] * 3)
        dets = {k: [make_box(x=x + k, z=10.0, score=score, class_id=cid)
                    for x, cid, score in ((0.0, 0, 0.9), (0.2, 1, 0.4),
                                          (20.0, 0, 0.8), (20.2, 1, 0.3))]
                for k in range(3)}
        for j, preds in enumerate(stream_forecasts(s, dets, [0, 1])):
            got = [(b.class_id, b.track_id, b.score) for b in preds]
            assert got == [(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.4), (1, 1, 0.3)]
            assert [b.center[0] for b in preds] == pytest.approx(
                [j, j + 20.0, j + 0.2, j + 20.2], abs=1e-9)

    def test_other_class_never_updates_track(self):
        # a Car seen at frame 0 only, then a Pedestrian on the same spot: the
        # Car track keeps its score, misses frames 1 and 2 and is retired at
        # frame 3, as if the Pedestrian were not there
        s = build_schedule(4, 100.0, [0.0] * 4)
        dets = {0: [make_box(z=10.0, score=0.9, class_id=0)]}
        dets.update({k: [make_box(z=10.0, score=0.4, class_id=1)] for k in (1, 2, 3)})
        got = [[(b.class_id, b.track_id, b.score) for b in preds]
               for preds in stream_forecasts(s, dets, [0, 1])]
        assert got == [[(0, 0, 0.9)], [(0, 0, 0.9), (1, 0, 0.4)],
                       [(0, 0, 0.9), (1, 0, 0.4)], [(1, 0, 0.4)]]

    def test_repeated_class_id_gives_one_tracker(self):
        s = build_schedule(3, 100.0, [50.0] * 3)
        dets = {k: [make_box(x=k, z=10.0, class_id=1)] for k in range(3)}
        once = [[box_bits(b) for b in p] for p in stream_forecasts(s, dets, [1])]
        assert [[box_bits(b) for b in p] for p in stream_forecasts(s, dets, [1, 1])] == once
        assert [len(p) for p in once] == [0, 1, 1]
