"""Per-object constant-velocity Kalman tracking and forecasting (the
"Streamer" style meta-detector baseline).

State vector (11): x, y, z, yaw, l, w, h, vx, vy, vz, vyaw. Dims are
carried as constants; position and yaw advance linearly. Measurements
observe the first 7 entries. A track's velocity is re-initialized from a
finite difference on its second hit so noise-free constant-velocity
targets forecast exactly after two observations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box3D, iou_matrix, normalize_angle

STATE_DIM = 11
MEAS_DIM = 7
_POS = slice(0, 4)  # x, y, z, yaw
_VEL = slice(7, 11)


@dataclass
class KfConfig:
    pose_variance: float = 0.01  # process noise, per second
    dims_variance: float = 0.0001
    velocity_variance: float = 1.0
    measurement_variance: float = 0.01
    initial_velocity_variance: float = 100.0
    association_iou_threshold: float = 0.3
    max_misses: int = 2
    min_hits: int = 1

    def process_noise(self) -> np.ndarray:
        q = np.empty(STATE_DIM)
        q[0:4] = self.pose_variance
        q[4:7] = self.dims_variance
        q[7:11] = self.velocity_variance
        return np.diag(q)

    def measurement_noise(self) -> np.ndarray:
        return np.eye(MEAS_DIM) * self.measurement_variance


@dataclass
class TrackState:
    id: int
    mean: np.ndarray  # (11,)
    covariance: np.ndarray  # (11, 11)
    age: int = 0
    hits: int = 1
    misses: int = 0
    score: float = 0.0
    class_id: int = 0
    last_measurement: Optional[np.ndarray] = None

    def to_box(self) -> Box3D:
        m = self.mean
        return Box3D(
            center=(m[0], m[1], m[2]),
            dims=(m[6], m[5], m[4]),  # stored l, w, h -> Box3D (h, w, l)
            yaw=m[3],  # Box3D wraps it
            score=self.score,
            class_id=self.class_id,
            track_id=self.id,
        )


def measurement_from_box(box: Box3D) -> np.ndarray:
    h, w, l = box.dims
    x, y, z = box.center
    return np.array([x, y, z, box.yaw, l, w, h], dtype=float)


def _seed_covariance(cfg: KfConfig, velocity_variance: float) -> np.ndarray:
    """Uncorrelated: measurement noise on pose and dims, then velocities."""
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov[:MEAS_DIM, :MEAS_DIM] = cfg.measurement_noise()
    cov[MEAS_DIM:, MEAS_DIM:] = np.eye(4) * velocity_variance
    return cov


def new_track(track_id: int, box: Box3D, cfg: KfConfig) -> TrackState:
    mean = np.zeros(STATE_DIM)
    mean[:MEAS_DIM] = measurement_from_box(box)
    return TrackState(
        id=track_id,
        mean=mean,
        covariance=_seed_covariance(cfg, cfg.initial_velocity_variance),
        score=box.score,
        class_id=box.class_id,
        last_measurement=mean[:MEAS_DIM].copy(),
    )


def _transition(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    for i in range(4):
        f[i, 7 + i] = dt
    return f


def kf_predict(s: TrackState, dt: float, cfg: KfConfig) -> TrackState:
    """Advance the state dt seconds under the constant-velocity model."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    f = _transition(dt)
    mean = f @ s.mean
    cov = f @ s.covariance @ f.T + cfg.process_noise() * dt
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, covariance=cov)


def kf_update(s: TrackState, z: np.ndarray, cfg: KfConfig) -> TrackState:
    """Standard Kalman update with yaw-wrapped innovation and Joseph form."""
    z = np.asarray(z, dtype=float)
    r = cfg.measurement_noise()
    # The measurement matrix selects the first MEAS_DIM state entries, so
    # its products are slices of the state and covariance.
    innovation = z - s.mean[:MEAS_DIM]
    innovation[3] = normalize_angle(innovation[3])
    s_mat = s.covariance[:MEAS_DIM, :MEAS_DIM] + r
    try:
        k = s.covariance[:, :MEAS_DIM] @ np.linalg.inv(s_mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("innovation covariance is singular") from exc
    mean = s.mean + k @ innovation
    ikh = np.eye(STATE_DIM)
    ikh[:, :MEAS_DIM] -= k
    cov = ikh @ s.covariance @ ikh.T + k @ r @ k.T
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, covariance=cov)


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


class StreamerTracker:
    """Owns track lifecycle for one sequence; single-threaded."""

    def __init__(self):
        self.cfg = KfConfig()
        self.tracks: List[TrackState] = []
        self._alloc_id = itertools.count().__next__

    def step(self, dets: Sequence[Box3D], dt: float) -> None:
        self.tracks = streamer_step(self.tracks, dets, dt, self.cfg, self._alloc_id)

    def forecast(self, dt: float) -> List[Box3D]:
        return forecast_boxes(self.tracks, dt, self.cfg)


def streamer_step(
    tracks: Sequence[TrackState],
    dets: Sequence[Box3D],
    dt: float,
    cfg: KfConfig,
    alloc_id=None,
) -> List[TrackState]:
    """One predict/associate/update cycle; spawns and retires tracks."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if alloc_id is None:
        alloc_id = itertools.count(max((t.id for t in tracks), default=-1) + 1).__next__
    predicted = [kf_predict(t, dt, cfg) for t in tracks]
    matches, unmatched_t, unmatched_d = associate(
        predicted, dets, cfg.association_iou_threshold
    )
    out: List[Optional[TrackState]] = [None] * len(predicted)
    for i, j in matches:
        det = dets[j]
        z = measurement_from_box(det)
        t = kf_update(predicted[i], z, cfg)
        if t.hits == 1 and t.last_measurement is not None:
            # Second hit: re-seed the observed pose and pin velocities to
            # the finite difference of the first two measurements, so a
            # noise-free constant-velocity target forecasts exactly.
            vel = (z[:4] - t.last_measurement[:4]) / dt
            vel[3] = normalize_angle(z[3] - t.last_measurement[3]) / dt
            mean = t.mean.copy()
            mean[:MEAS_DIM] = z
            mean[_VEL] = vel
            cov = _seed_covariance(cfg, 2.0 * cfg.measurement_variance / (dt * dt))
            t = replace(t, mean=mean, covariance=cov)
        out[i] = replace(
            t,
            age=t.age + 1,
            hits=t.hits + 1,
            misses=0,
            score=det.score,
            class_id=det.class_id,
            last_measurement=z,
        )
    kept = []
    for i, t in enumerate(predicted):
        if out[i] is not None:
            kept.append(out[i])
        elif t.misses + 1 <= cfg.max_misses:
            kept.append(replace(t, age=t.age + 1, misses=t.misses + 1))
    for j in unmatched_d:
        kept.append(new_track(alloc_id(), dets[j], cfg))
    return kept


def forecast_boxes(
    tracks: Sequence[TrackState], dt: float, cfg: KfConfig
) -> List[Box3D]:
    """Forecast each mature track dt seconds ahead and emit its box."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    boxes = []
    for t in tracks:
        if t.hits < cfg.min_hits:
            continue
        boxes.append(kf_predict(t, dt, cfg).to_box() if dt > 0 else t.to_box())
    return boxes
