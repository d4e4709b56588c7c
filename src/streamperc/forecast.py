"""Per-object constant-velocity Kalman tracking and forecasting (the
"Streamer" style meta-detector baseline).

State vector (11): x, y, z, yaw, l, w, h, vx, vy, vz, vyaw. Dims are
carried as constants; position and yaw advance linearly. Measurements
observe the first 7 entries. A track's velocity is re-initialized from a
finite difference on its second hit so noise-free constant-velocity
targets forecast exactly after two observations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box3D, iou_matrix, normalize_angle
from .streaming_sim import StreamSchedule, finished_by_instant

STATE_DIM = 11
MEAS_DIM = 7
_POS = slice(0, 4)  # x, y, z, yaw
_VEL = slice(7, 11)

MEASUREMENT_VARIANCE = 0.01
INITIAL_VELOCITY_VARIANCE = 100.0
ASSOCIATION_IOU = 0.3  # least BEV IoU of a track-detection match
MAX_MISSES = 2  # consecutive unmatched steps a track survives
# Process noise per second: pose, dims, velocities.
_Q = np.diag([0.01] * 4 + [0.0001] * 3 + [1.0] * 4)
_R = np.eye(MEAS_DIM) * MEASUREMENT_VARIANCE
_EYE = np.eye(STATE_DIM)


@dataclass
class TrackState:
    id: int
    mean: np.ndarray  # (11,)
    covariance: np.ndarray  # (11, 11)
    hits: int = 1
    misses: int = 0
    score: float = 0.0
    class_id: int = 0
    last_measurement: Optional[np.ndarray] = None

    def with_estimate(self, mean: np.ndarray, covariance: np.ndarray) -> TrackState:
        return TrackState(self.id, mean, covariance, self.hits, self.misses,
                          self.score, self.class_id, self.last_measurement)

    def to_box(self, mean: Optional[np.ndarray] = None) -> Box3D:
        """The box of this state's mean, or of mean (a forecast of it) if given."""
        m = (self.mean if mean is None else mean).tolist()  # plain floats, also in a message
        try:
            return Box3D(
                center=(m[0], m[1], m[2]),
                dims=(m[6], m[5], m[4]),  # stored l, w, h -> Box3D (h, w, l)
                yaw=m[3],  # Box3D wraps it
                score=self.score,
                class_id=self.class_id,
                track_id=self.id,
            )
        except ValueError as exc:  # the filter diverged, say by overflow
            raise ArithmeticError("Kalman state is no longer a valid box: %s" % exc) from exc


def measurement_from_box(box: Box3D) -> np.ndarray:
    h, w, l = box.dims
    x, y, z = box.center
    return np.array([x, y, z, box.yaw, l, w, h], dtype=float)


def _seed_covariance(velocity_variance: float) -> np.ndarray:
    """Uncorrelated: measurement noise on pose and dims, then velocities."""
    return np.diag([MEASUREMENT_VARIANCE] * MEAS_DIM + [velocity_variance] * 4)


def new_track(track_id: int, box: Box3D) -> TrackState:
    mean = np.zeros(STATE_DIM)
    mean[:MEAS_DIM] = measurement_from_box(box)
    return TrackState(
        id=track_id,
        mean=mean,
        covariance=_seed_covariance(INITIAL_VELOCITY_VARIANCE),
        score=box.score,
        class_id=box.class_id,
        last_measurement=mean[:MEAS_DIM].copy(),
    )


def _transition(dt: float) -> np.ndarray:  # shared and read-only
    return _cached_transition(dt, math.copysign(1.0, dt))  # 0.0 and -0.0 give unlike zeros


@functools.lru_cache(maxsize=64)
def _cached_transition(dt: float, sign: float) -> np.ndarray:
    f = _EYE.copy()
    f[_POS, _VEL] = _EYE[_POS, _POS] * dt
    f.flags.writeable = False
    return f


def kf_predict(s: TrackState, dt: float) -> TrackState:
    """Advance the state dt seconds under the constant-velocity model."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    f = _transition(dt)
    mean = f @ s.mean
    cov = f @ s.covariance @ f.T + _Q * dt
    cov = 0.5 * (cov + cov.T)
    return s.with_estimate(mean, cov)


def kf_update(s: TrackState, z: np.ndarray) -> TrackState:
    """Standard Kalman update with yaw-wrapped innovation and Joseph form."""
    z = np.asarray(z, dtype=float)
    # The measurement matrix selects the first MEAS_DIM state entries, so
    # its products are slices of the state and covariance.
    innovation = z - s.mean[:MEAS_DIM]
    innovation[3] = normalize_angle(innovation[3])
    s_mat = s.covariance[:MEAS_DIM, :MEAS_DIM] + _R
    try:
        k = s.covariance[:, :MEAS_DIM] @ np.linalg.inv(s_mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("innovation covariance is singular") from exc
    mean = s.mean + k @ innovation
    ikh = _EYE.copy()
    ikh[:, :MEAS_DIM] -= k
    cov = ikh @ s.covariance @ ikh.T + k @ _R @ k.T
    cov = 0.5 * (cov + cov.T)
    return s.with_estimate(mean, cov)


def associate(
    tracks: Sequence[TrackState],
    dets: Sequence[Box3D],
    threshold: float,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Greedy BEV-IoU matching in descending IoU order.

    Ties break on lower track index, then lower detection index.
    """
    if not tracks or not dets:
        return [], list(range(len(tracks))), list(range(len(dets)))
    rows = iou_matrix([t.to_box() for t in tracks], list(dets), kind="bev").tolist()
    matches = []
    used_t, used_d = set(), set()
    for neg_iou, i, j in sorted((-v, i, j) for i, row in enumerate(rows) for j, v in enumerate(row)):
        if -neg_iou < threshold or neg_iou >= 0.0:
            break
        if i in used_t or j in used_d:
            continue
        matches.append((i, j))
        used_t.add(i)
        used_d.add(j)
    unmatched_t = [i for i in range(len(tracks)) if i not in used_t]
    unmatched_d = [j for j in range(len(dets)) if j not in used_d]
    return matches, unmatched_t, unmatched_d


class StreamerTracker:
    """Owns track lifecycle for one sequence; single-threaded."""

    def __init__(self):
        self.tracks: List[TrackState] = []
        self._alloc_id = itertools.count().__next__

    def step(self, dets: Sequence[Box3D], dt: float) -> None:
        self.tracks = streamer_step(self.tracks, dets, dt, self._alloc_id)

    def forecast(self, dt: float) -> List[Box3D]:
        return forecast_boxes(self.tracks, dt)


def streamer_step(
    tracks: Sequence[TrackState],
    dets: Sequence[Box3D],
    dt: float,
    alloc_id=None,
) -> List[TrackState]:
    """One predict/associate/update cycle; spawns and retires tracks. The
    returned states are new; the input tracks are left unchanged."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if alloc_id is None:
        alloc_id = itertools.count(max((t.id for t in tracks), default=-1) + 1).__next__
    predicted = [kf_predict(t, dt) for t in tracks]
    matches, _, unmatched_d = associate(predicted, dets, ASSOCIATION_IOU)
    det_of = dict(matches)
    kept = []
    # kf_predict and kf_update return fresh states, so they are set in place.
    for i, t in enumerate(predicted):
        if i not in det_of:
            t.misses += 1
            if t.misses <= MAX_MISSES:
                kept.append(t)
            continue
        det = dets[det_of[i]]
        z = measurement_from_box(det)
        t = kf_update(t, z)
        if t.hits == 1 and t.last_measurement is not None:
            # Second hit: re-seed the observed pose and pin velocities to
            # the finite difference of the first two measurements, so a
            # noise-free constant-velocity target forecasts exactly.
            vel = (z[:4] - t.last_measurement[:4]) / dt
            vel[3] = normalize_angle(z[3] - t.last_measurement[3]) / dt
            t.mean[:MEAS_DIM] = z
            t.mean[_VEL] = vel
            t.covariance = _seed_covariance(2.0 * MEASUREMENT_VARIANCE / (dt * dt))
        t.hits += 1
        t.misses = 0
        t.score = det.score
        t.class_id = det.class_id
        t.last_measurement = z
        kept.append(t)
    for j in unmatched_d:
        kept.append(new_track(alloc_id(), dets[j]))
    return kept


def forecast_boxes(tracks: Sequence[TrackState], dt: float) -> List[Box3D]:
    """Forecast each track's mean (not its covariance) dt seconds ahead."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    f = _transition(dt)
    return [t.to_box(f @ t.mean if dt > 0 else None) for t in tracks]


def stream_forecasts(s: StreamSchedule, dets: Dict[int, List[Box3D]],
                     class_ids: Iterable[int]) -> Iterator[List[Box3D]]:
    """Yield the Streamer's boxes at each ground-truth instant j of the
    schedule. One tracker per class steps on each processed frame at its
    arrival time, the first step spanning one interval, and forecasts to t_j."""
    trackers = {cid: StreamerTracker() for cid in class_ids}
    last_ms = -s.interval_ns / 1_000_000  # frame 0 is always processed first, at 0.0
    for j, finished in finished_by_instant(s):
        for ev in finished:
            arrival_ms = ev.frame * s.interval_ns / 1_000_000
            dt = (arrival_ms - last_ms) / 1000.0
            for cid, tracker in trackers.items():
                tracker.step([b for b in dets.get(ev.frame, []) if b.class_id == cid], dt)
            last_ms = arrival_ms
        dt = (j * s.interval_ns / 1_000_000 - last_ms) / 1000.0
        yield [b for tracker in trackers.values() for b in tracker.forecast(dt)]
