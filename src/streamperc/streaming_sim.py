"""Latency-aware streaming schedule and prediction/ground-truth pairing.

A single worker processes frames in order: frame k arrives at k*interval,
starts when the worker is free, and finishes after its latency. In
skip-stale mode the worker drops every queued frame that is already stale
when it becomes free and waits for the next fresh arrival instead, so with
latency 1.5x the interval every other frame is processed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class LatencyModel:
    constant_ms: float = 0.0
    trace: Optional[List[float]] = None  # per-frame latencies; None means constant

    @classmethod
    def constant(cls, ms: float) -> "LatencyModel":
        if ms < 0:
            raise ValueError("latency must be >= 0")
        return cls(constant_ms=ms)

    @classmethod
    def from_trace(cls, values: Sequence[float]) -> "LatencyModel":
        values = [float(v) for v in values]
        if any(v < 0 for v in values):
            raise ValueError("latency must be >= 0")
        return cls(trace=values)

    def latency(self, frame: int) -> float:
        return self.constant_ms if self.trace is None else self.trace[frame]


@dataclass
class FrameEvent:
    frame: int
    arrival_ms: float
    start_ms: Optional[float]  # None when the frame was skipped
    finish_ms: Optional[float]

    @property
    def processed(self) -> bool:
        return self.finish_ms is not None


@dataclass
class StreamSchedule:
    frame_interval_ms: float
    events: List[FrameEvent]


def build_schedule(
    n_frames: int,
    interval_ms: float,
    lat: LatencyModel,
    skip_stale: bool = False,
) -> StreamSchedule:
    """Simulate single-worker FIFO processing of n_frames."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if interval_ms <= 0:
        raise ValueError("interval_ms must be > 0")
    if lat.trace is not None and len(lat.trace) != n_frames:
        raise ValueError("latency trace length must equal the frame count")
    events = []
    available = 0.0
    for k in range(n_frames):
        arrival = k * interval_ms
        if skip_stale and arrival < available:
            events.append(FrameEvent(k, arrival, None, None))
            continue
        start = max(arrival, available)
        finish = start + lat.latency(k)
        available = finish
        events.append(FrameEvent(k, arrival, start, finish))
    return StreamSchedule(frame_interval_ms=interval_ms, events=events)


def latest_output_at(s: StreamSchedule, t_query_ms: float) -> Optional[int]:
    """Largest processed frame index whose finish time is <= t_query."""
    best = None
    for ev in s.events:
        if ev.processed and ev.finish_ms <= t_query_ms:
            best = ev.frame
    return best


def finished_by_instant(
    s: StreamSchedule,
) -> Iterator[Tuple[int, float, List[FrameEvent]]]:
    """Yield (j, t_j, processed frames finishing in (t_{j-1}, t_j]) per instant.

    Ground-truth instant j is t_j = j*interval for every frame of the
    schedule. One forward pointer suffices because finish times never
    decrease along the schedule.
    """
    processed = [ev for ev in s.events if ev.processed]
    i = 0
    for j in range(len(s.events)):
        t_query = j * s.frame_interval_ms
        first = i
        while i < len(processed) and processed[i].finish_ms <= t_query:
            i += 1
        yield j, t_query, processed[first:i]


def pair_stream(
    s: StreamSchedule,
    outputs: Dict[int, list],
    gts: Dict[int, list],
) -> List[Tuple[list, list]]:
    """Pair each ground-truth instant with the latest finished output.

    Ground-truth instant j is j*interval; a missing output yields an empty
    prediction set.
    """
    pairs = []
    latest = None
    for j, _, finished in finished_by_instant(s):
        if finished:
            latest = finished[-1].frame
        preds = outputs.get(latest, []) if latest is not None else []
        pairs.append((list(preds), list(gts.get(j, []))))
    return pairs
