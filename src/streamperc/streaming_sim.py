"""Latency-aware streaming schedule and prediction/ground-truth pairing.

A single worker processes frames in order: frame k arrives at k*interval,
starts when the worker is free, and finishes after its latency. In
skip-stale mode the worker drops every queued frame that is already stale
when it becomes free and waits for the next fresh arrival instead, so with
latency 1.5x the interval every other frame is processed. The schedule
records only each frame's finish time, in whole nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


_NS_PER_MS = 1_000_000


def _ns(ms: float) -> int:
    """A time in ms as whole nanoseconds, the schedule's resolution."""
    return round(ms * _NS_PER_MS)


@dataclass
class FrameEvent:
    frame: int
    finish_ns: Optional[int]  # None when the frame was skipped

    @property
    def processed(self) -> bool:
        return self.finish_ns is not None


@dataclass
class StreamSchedule:
    interval_ns: int
    events: List[FrameEvent]


def build_schedule(
    n_frames: int,
    interval_ms: float,
    latencies_ms: Sequence[float],
    skip_stale: bool = False,
) -> StreamSchedule:
    """Simulate single-worker FIFO processing of n_frames, frame k taking
    latencies_ms[k]. Every time is rounded to whole nanoseconds on entry
    and the simulation adds and compares integers."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if not (math.isfinite(interval_ms * _NS_PER_MS) and _ns(interval_ms) > 0):
        raise ValueError("interval_ms must be finite and at least 1 ns")
    if len(latencies_ms) != n_frames:
        raise ValueError("latency count must equal the frame count")
    if not all(math.isfinite(v * _NS_PER_MS) and v >= 0 for v in latencies_ms):
        raise ValueError("latencies must be finite and >= 0")
    interval = _ns(interval_ms)
    events = []
    available = 0
    for k, latency in enumerate(latencies_ms):
        arrival = k * interval
        if skip_stale and arrival < available:
            events.append(FrameEvent(k, None))
            continue
        available = max(arrival, available) + _ns(latency)
        events.append(FrameEvent(k, available))
    return StreamSchedule(interval, events)


def finished_by_instant(s: StreamSchedule) -> Iterator[Tuple[int, List[FrameEvent]]]:
    """Yield (j, processed frames finishing in (t_{j-1}, t_j]) per instant.

    Ground-truth instant j is t_j = j*interval for every frame of the
    schedule. One forward pointer suffices because finish times never
    decrease along the schedule.
    """
    processed = [ev for ev in s.events if ev.processed]
    i = 0
    for j in range(len(s.events)):
        t_query = j * s.interval_ns
        first = i
        while i < len(processed) and processed[i].finish_ns <= t_query:
            i += 1
        yield j, processed[first:i]


def pair_stream(
    s: StreamSchedule,
    outputs: Dict[int, list],
    gts: Dict[int, list],
) -> List[Tuple[list, list]]:
    """Pair each ground-truth instant with the latest finished output.

    Ground-truth instant j is j*interval; a missing output yields an empty
    prediction set.
    """
    pairs, preds = [], []
    for j, finished in finished_by_instant(s):
        if finished:
            preds = outputs.get(finished[-1].frame, [])
        pairs.append((list(preds), list(gts.get(j, []))))
    return pairs
