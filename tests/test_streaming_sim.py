import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc.streaming_sim import (
    LatencyModel,
    build_schedule,
    finished_by_instant,
    latest_output_at,
    pair_stream,
)


class TestBuildSchedule:
    def test_constant_latency_under_interval(self):
        s = build_schedule(10, 100.0, LatencyModel.constant(80.0))
        for k, ev in enumerate(s.events):
            assert ev.arrival_ms == 100.0 * k
            assert ev.start_ms == 100.0 * k
            assert ev.finish_ms == 100.0 * k + 80.0

    def test_zero_latency(self):
        s = build_schedule(5, 100.0, LatencyModel.constant(0.0))
        for ev in s.events:
            assert ev.finish_ms == ev.arrival_ms

    def test_queueing_without_skip(self):
        s = build_schedule(4, 100.0, LatencyModel.constant(150.0))
        finishes = [ev.finish_ms for ev in s.events]
        # frame k starts when the worker frees up: finish(k) = 150(k+1)
        assert finishes == [150.0, 300.0, 450.0, 600.0]

    def test_skip_stale_every_other_frame(self):
        # latency 1.5x interval: stale queued frames are dropped and the
        # worker picks up the next fresh arrival -> frames 0, 2, 4, ...
        s = build_schedule(8, 100.0, LatencyModel.constant(150.0), skip_stale=True)
        processed = [ev.frame for ev in s.events if ev.processed]
        assert processed == [0, 2, 4, 6]
        assert [ev.finish_ms for ev in s.events if ev.processed] == [150.0, 350.0, 550.0, 750.0]

    def test_skip_stale_noop_when_fast(self):
        a = build_schedule(6, 100.0, LatencyModel.constant(80.0), skip_stale=False)
        b = build_schedule(6, 100.0, LatencyModel.constant(80.0), skip_stale=True)
        assert a == b

    def test_trace_latency(self):
        s = build_schedule(3, 100.0, LatencyModel.from_trace([10.0, 250.0, 30.0]))
        assert [ev.finish_ms for ev in s.events] == [10.0, 350.0, 380.0]

    def test_trace_length_mismatch(self):
        with pytest.raises(ValueError):
            build_schedule(3, 100.0, LatencyModel.from_trace([10.0]))

    def test_finish_strictly_increasing(self):
        s = build_schedule(20, 100.0, LatencyModel.constant(130.0))
        finishes = [ev.finish_ms for ev in s.events]
        assert all(b > a for a, b in zip(finishes, finishes[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_schedule(0, 100.0, LatencyModel.constant(1.0))
        with pytest.raises(ValueError):
            build_schedule(1, 0.0, LatencyModel.constant(1.0))
        with pytest.raises(ValueError):
            LatencyModel.constant(-1.0)


class TestLatestOutputAt:
    def test_current_vs_next_regime(self):
        # latency below the interval: the query at instant j sees frame j-1
        s = build_schedule(10, 100.0, LatencyModel.constant(80.0))
        for j in range(1, 10):
            assert latest_output_at(s, 100.0 * j) == j - 1

    def test_before_first_finish(self):
        s = build_schedule(5, 100.0, LatencyModel.constant(80.0))
        assert latest_output_at(s, 0.0) is None
        assert latest_output_at(s, 79.0) is None

    def test_queueing_staleness_grows(self):
        s = build_schedule(12, 100.0, LatencyModel.constant(150.0))
        # finish(k) = 150(k+1): at t=100(j+1) the newest finished frame is
        # floor((100j - 50) / 150), two or more behind as queueing builds
        for j in range(1, 12):
            t_query = 100.0 * (j + 1)
            expected = max((k for k in range(12) if 150.0 * (k + 1) <= t_query), default=None)
            assert latest_output_at(s, t_query) == expected
            if expected is not None:
                assert expected <= j - 1

    def test_monotone(self):
        s = build_schedule(6, 100.0, LatencyModel.constant(120.0))
        last = -1
        for t in range(0, 1200, 10):
            k = latest_output_at(s, float(t))
            v = -1 if k is None else k
            assert v >= last
            last = v

    def test_tie_counts_as_available(self):
        s = build_schedule(3, 100.0, LatencyModel.constant(100.0))
        assert latest_output_at(s, 100.0) == 0


class TestPairStream:
    def test_zero_latency_identity(self):
        s = build_schedule(4, 100.0, LatencyModel.constant(0.0))
        outputs = {k: ["p%d" % k] for k in range(4)}
        gts = {k: ["g%d" % k] for k in range(4)}
        pairs = pair_stream(s, outputs, gts)
        assert pairs == [(["p%d" % j], ["g%d" % j]) for j in range(4)]

    def test_predict_next_frame_aligns(self):
        # the end-to-end pipeline: frame k's output is the GT of frame k+1
        s = build_schedule(6, 100.0, LatencyModel.constant(80.0))
        gts = {k: ["g%d" % k] for k in range(6)}
        outputs = {k: ["g%d" % (k + 1)] for k in range(6)}
        pairs = pair_stream(s, outputs, gts)
        for j in range(1, 6):
            assert pairs[j][0] == pairs[j][1]

    def test_missing_output_empty(self):
        s = build_schedule(3, 100.0, LatencyModel.constant(150.0))
        pairs = pair_stream(s, {k: ["p"] for k in range(3)}, {k: ["g"] for k in range(3)})
        assert pairs[0][0] == []
        assert pairs[1][0] == []  # first finish at 150 > 100


@st.composite
def schedules(draw):
    """Random schedules, constant or per-frame, with or without skip-stale.

    Latencies are often whole quarters of the interval, so finish times tie
    with ground-truth instants; zero latency ties every frame at arrival.
    """
    n = draw(st.integers(1, 25))
    interval = draw(st.sampled_from([100.0, 33.3]))
    latency = st.one_of(
        st.integers(0, 12).map(lambda q: q * interval / 4),
        st.floats(0.0, 4 * interval, allow_nan=False),
    )
    if draw(st.booleans()):
        lat = LatencyModel.from_trace(draw(st.lists(latency, min_size=n, max_size=n)))
    else:
        lat = LatencyModel.constant(draw(latency))
    return build_schedule(n, interval, lat, skip_stale=draw(st.booleans()))


class TestPairingWalk:
    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_matches_scan_oracle(self, s):
        # the full scan of latest_output_at is the reference for the walk
        pairs = pair_stream(s, {k: [k] for k in range(len(s.events))}, {})
        for j, (preds, _) in enumerate(pairs):
            k = latest_output_at(s, j * s.frame_interval_ms)
            assert preds == ([] if k is None else [k])
        t_last = (len(s.events) - 1) * s.frame_interval_ms
        walked = [ev.frame for _, _, done in finished_by_instant(s) for ev in done]
        assert walked == [
            ev.frame for ev in s.events if ev.processed and ev.finish_ms <= t_last
        ]

    def test_zero_latency_finishes_at_arrival(self):
        s = build_schedule(3, 100.0, LatencyModel.constant(0.0))
        got = [(j, t, [ev.frame for ev in done]) for j, t, done in finished_by_instant(s)]
        assert got == [(0, 0.0, [0]), (1, 100.0, [1]), (2, 200.0, [2])]
