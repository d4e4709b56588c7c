from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc.streaming_sim import build_schedule, finished_by_instant, pair_stream


def exact_ms(v):
    """v ms as a Fraction, rounded to the schedule's stated 1 ns resolution."""
    return v if isinstance(v, Fraction) else Fraction(round(v * 1_000_000), 1_000_000)


def latest_output_at(interval_ms, latencies_ms, t_query_ms, skip_stale=False):
    """Largest frame index whose finish time is <= t_query, or None.

    The reference for the pairing walk: it simulates the worker again from
    the schedule's inputs in exact rationals and scans every frame, so it
    shares no arithmetic with the walk it checks.
    """
    interval, t_query = exact_ms(interval_ms), exact_ms(t_query_ms)
    best, available = None, Fraction(0)
    for k, latency in enumerate(latencies_ms):
        arrival = k * interval
        if skip_stale and arrival < available:
            continue
        available = max(arrival, available) + exact_ms(latency)
        if available <= t_query:
            best = k
    return best


def paired_frames(s):
    """The output frame paired with each ground-truth instant, or None."""
    pairs = pair_stream(s, {k: [k] for k in range(len(s.events))}, {})
    return [preds[0] if preds else None for preds, _ in pairs]


class TestBuildSchedule:
    def test_constant_latency_under_interval(self):
        s = build_schedule(10, 100.0, [80.0] * 10)
        assert s.interval_ns == 100_000_000
        for k, ev in enumerate(s.events):
            # starts on arrival at k*interval, finishes 80 ms later
            assert (ev.frame, ev.finish_ns) == (k, 100_000_000 * k + 80_000_000)

    def test_zero_latency(self):
        s = build_schedule(5, 100.0, [0.0] * 5)
        for ev in s.events:
            assert ev.finish_ns == ev.frame * s.interval_ns

    def test_queueing_without_skip(self):
        s = build_schedule(4, 100.0, [150.0] * 4)
        finishes = [ev.finish_ns for ev in s.events]
        # frame k starts when the worker frees up: finish(k) = 150(k+1)
        assert finishes == [150_000_000, 300_000_000, 450_000_000, 600_000_000]

    def test_skip_stale_every_other_frame(self):
        # latency 1.5x interval: stale queued frames are dropped and the
        # worker picks up the next fresh arrival -> frames 0, 2, 4, ...
        s = build_schedule(8, 100.0, [150.0] * 8, skip_stale=True)
        processed = [ev.frame for ev in s.events if ev.processed]
        assert processed == [0, 2, 4, 6]
        assert [ev.finish_ns for ev in s.events if ev.processed] == [
            150_000_000, 350_000_000, 550_000_000, 750_000_000]

    def test_skip_stale_noop_when_fast(self):
        a = build_schedule(6, 100.0, [80.0] * 6, skip_stale=False)
        b = build_schedule(6, 100.0, [80.0] * 6, skip_stale=True)
        assert a == b

    def test_trace_latency(self):
        s = build_schedule(3, 100.0, [10.0, 250.0, 30.0])
        assert [ev.finish_ns for ev in s.events] == [10_000_000, 350_000_000, 380_000_000]

    def test_trace_length_mismatch(self):
        with pytest.raises(ValueError):
            build_schedule(3, 100.0, [10.0])

    def test_finish_strictly_increasing(self):
        s = build_schedule(20, 100.0, [130.0] * 20)
        finishes = [ev.finish_ns for ev in s.events]
        assert all(b > a for a, b in zip(finishes, finishes[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_schedule(0, 100.0, [])
        with pytest.raises(ValueError):
            build_schedule(1, 0.0, [1.0])
        for interval, latency in ((100.0, -1.0), (float("nan"), 1.0), (float("inf"), 1.0),
                                  (100.0, float("nan")), (100.0, float("inf"))):
            with pytest.raises(ValueError):
                build_schedule(3, interval, [0.0, latency, 0.0])


class TestLatestOutputAt:
    """The pairing oracle itself, on schedules worked out by hand."""

    def test_current_vs_next_regime(self):
        # latency below the interval: the query at instant j sees frame j-1
        for j in range(1, 10):
            assert latest_output_at(100.0, [80.0] * 10, 100.0 * j) == j - 1

    def test_before_first_finish(self):
        assert latest_output_at(100.0, [80.0] * 5, 0.0) is None
        assert latest_output_at(100.0, [80.0] * 5, 79.0) is None

    def test_queueing_staleness_grows(self):
        # finish(k) = 150(k+1): at t=100(j+1) the newest finished frame is
        # floor((100j - 50) / 150), two or more behind as queueing builds
        for j in range(1, 12):
            t_query = 100.0 * (j + 1)
            expected = max((k for k in range(12) if 150.0 * (k + 1) <= t_query), default=None)
            assert latest_output_at(100.0, [150.0] * 12, t_query) == expected
            if expected is not None:
                assert expected <= j - 1

    def test_monotone(self):
        last = -1
        for t in range(0, 1200, 10):
            k = latest_output_at(100.0, [120.0] * 6, float(t))
            v = -1 if k is None else k
            assert v >= last
            last = v

    def test_tie_counts_as_available(self):
        assert latest_output_at(100.0, [100.0] * 3, 100.0) == 0

    def test_skip_stale_every_other_frame(self):
        # frames 0, 2, 4 finish at 150, 350, 550
        got = [latest_output_at(100.0, [150.0] * 6, 100.0 * j, skip_stale=True)
               for j in range(6)]
        assert got == [None, None, 0, 0, 2, 2]


class TestPairStream:
    def test_zero_latency_identity(self):
        s = build_schedule(4, 100.0, [0.0] * 4)
        outputs = {k: ["p%d" % k] for k in range(4)}
        gts = {k: ["g%d" % k] for k in range(4)}
        pairs = pair_stream(s, outputs, gts)
        assert pairs == [(["p%d" % j], ["g%d" % j]) for j in range(4)]

    def test_predict_next_frame_aligns(self):
        # the end-to-end pipeline: frame k's output is the GT of frame k+1
        s = build_schedule(6, 100.0, [80.0] * 6)
        gts = {k: ["g%d" % k] for k in range(6)}
        outputs = {k: ["g%d" % (k + 1)] for k in range(6)}
        pairs = pair_stream(s, outputs, gts)
        for j in range(1, 6):
            assert pairs[j][0] == pairs[j][1]

    def test_missing_output_empty(self):
        s = build_schedule(3, 100.0, [150.0] * 3)
        pairs = pair_stream(s, {k: ["p"] for k in range(3)}, {k: ["g"] for k in range(3)})
        assert pairs[0][0] == []
        assert pairs[1][0] == []  # first finish at 150 > 100


@st.composite
def schedule_inputs(draw):
    """Random (interval, latencies, skip-stale): constant or per-frame
    latencies, with or without skip-stale.

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
        latencies = draw(st.lists(latency, min_size=n, max_size=n))
    else:
        latencies = [draw(latency)] * n
    return interval, latencies, draw(st.booleans())


class TestPairingWalk:
    @settings(max_examples=300, deadline=None)
    @given(schedule_inputs())
    def test_matches_scan_oracle(self, inputs):
        # the exact full scan of latest_output_at is the reference for the walk
        interval, latencies, skip_stale = inputs
        s = build_schedule(len(latencies), interval, latencies, skip_stale=skip_stale)
        assert paired_frames(s) == [
            latest_output_at(interval, latencies, j * exact_ms(interval), skip_stale)
            for j in range(len(latencies))
        ]
        t_last = (len(s.events) - 1) * s.interval_ns
        walked = [ev.frame for _, done in finished_by_instant(s) for ev in done]
        assert walked == [
            ev.frame for ev in s.events if ev.processed and ev.finish_ns <= t_last
        ]

    def test_zero_latency_finishes_at_arrival(self):
        s = build_schedule(3, 100.0, [0.0] * 3)
        got = [(j, [ev.frame for ev in done]) for j, done in finished_by_instant(s)]
        assert got == [(0, [0]), (1, [1]), (2, [2])]


class TestExactSchedule:
    """Times are whole nanoseconds, so a finish that equals an instant in
    decimal arithmetic ties with it, whatever the float sums would give."""

    def test_latency_of_one_thirty_hz_interval(self):
        # float sums of 33.3 put finishes one ulp after instants 6 to 17
        s = build_schedule(20, 33.3, [33.3] * 20)
        assert paired_frames(s) == [None] + list(range(19))

    def test_ms_fields_are_the_nanoseconds(self):
        s = build_schedule(3, 33.3, [0.0000004, 0.0000006, 1e-7])
        assert s.interval_ns == 33_300_000 and s.interval_ns / 1_000_000 == 33.3
        assert [ev.finish_ns for ev in s.events] == [0, 33_300_001, 66_600_000]
        assert [ev.finish_ns / 1_000_000 for ev in s.events] == [0.0, 33.300001, 66.6]

    def test_interval_below_half_a_nanosecond_is_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(2, 4e-7, [0.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 3), st.integers(1, 30), st.booleans())
    def test_latency_of_m_intervals_ties_every_finish(self, thousandths, m, n, skip_stale):
        # an interval with up to three decimals, and the latency that is that
        # decimal written m times over, both as a parser reads them
        interval, latency = thousandths / 1000, m * thousandths / 1000
        s = build_schedule(n, interval, [latency] * n, skip_stale=skip_stale)
        # Every finish ties with an instant. Skip-stale processes every m-th
        # frame, frame k finishing at instant k + m, so instant j sees the
        # latest of them at most j - m. Without it the queue grows, frame k
        # finishes at instant m(k + 1), and instant j sees frame j // m - 1.
        # Both are frame j - m when m = 1.
        if skip_stale:
            expected = [None if j < m else (j - m) // m * m for j in range(n)]
        else:
            expected = [None if j < m else j // m - 1 for j in range(n)]
        assert paired_frames(s) == expected
