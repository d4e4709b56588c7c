import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc import kitti_io
from streamperc.geometry import MAX_DIM
from streamperc.kitti_io import (
    MAX_FRAME_INDEX,
    Difficulty,
    LabeledBox,
    ParseError,
    apply_range_filter,
    format_tracking_labels,
    parse_tracking_labels,
)

from conftest import make_gt

GT_LINE = "0 1 Car 0.0 0 -1.57 100 100 200 200 1.5 1.6 3.9 1.0 1.5 10.0 0.0"
DET_LINE = GT_LINE + " 0.87"


class TestParse:
    def test_single_line(self):
        frames = parse_tracking_labels(GT_LINE)
        assert list(frames) == [0]
        box = frames[0][0]
        assert box.track_id == 1
        assert box.class_name == "Car"
        assert box.dims == (1.5, 1.6, 3.9)
        assert box.location == (1.0, 1.5, 10.0)
        assert box.score is None

    def test_detection_score(self):
        box = parse_tracking_labels(DET_LINE)[0][0]
        assert box.score == pytest.approx(0.87)

    @pytest.mark.parametrize("field, value", [
        ("location", (0.0, 1.5, 11.0)), ("dims", (1.5, 1.6, 4.0)), ("rotation_y", 0.5),
        ("class_name", "Van"), ("score", 0.5), ("occlusion", 2),
    ])
    def test_fields_are_frozen(self, field, value):
        # box3d is cached on the label, so no field may change under it
        box = parse_tracking_labels(GT_LINE)[0][0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(box, field, value)

    def test_box3d_built_once(self):
        box = parse_tracking_labels(GT_LINE)[0][0]
        assert box.box3d is box.box3d
        assert box.box3d == box.to_box3d()

    def test_box3d_built_once_per_label(self, monkeypatch):
        calls = []
        orig = LabeledBox.to_box3d

        def counting(self, class_id=0):
            calls.append(id(self))
            return orig(self, class_id)

        monkeypatch.setattr(LabeledBox, "to_box3d", counting)
        boxes = parse_tracking_labels("\n".join([GT_LINE, DET_LINE]))[0]
        built = [[b.box3d for b in boxes] for _ in range(3)]
        assert sorted(calls) == sorted(map(id, boxes))
        assert all(x is y for again in built[1:] for x, y in zip(built[0], again))
        with pytest.raises(AttributeError, match="no attribute 'box3e'"):
            boxes[0].box3e

    def test_difficulty_computed_once(self, monkeypatch):
        calls = []
        orig = kitti_io.difficulty_of

        def counting(gt):
            calls.append(gt)
            return orig(gt)

        monkeypatch.setattr(kitti_io, "difficulty_of", counting)
        box = parse_tracking_labels(GT_LINE)[0][0]
        assert box.difficulty == box.difficulty == Difficulty.EASY
        assert calls == [box]

    def test_empty_input(self):
        assert parse_tracking_labels("") == {}

    def test_frames_grouped(self):
        text = "\n".join(
            [
                GT_LINE,
                GT_LINE.replace("0 1 Car", "0 2 Car", 1),
                "1 1 Car 0.0 0 -1.57 100 100 200 200 1.5 1.6 3.9 1.0 1.5 10.0 0.0",
            ]
        )
        frames = parse_tracking_labels(text)
        assert sorted(frames) == [0, 1]
        assert len(frames[0]) == 2
        assert len(frames[1]) == 1

    def test_dontcare_retained(self):
        line = "0 -1 DontCare -1 -1 -10 50 50 60 60 1 1 1 0 0 5 0"
        frames = parse_tracking_labels(line)
        assert frames[0][0].class_name == "DontCare"

    def test_dontcare_without_box_parses(self):
        # KITTI writes 2D-only DontCare regions with dims -1
        line = "0 -1 DontCare -1 -1 -10 50 50 60 60 -1 -1 -1 -1000 -1000 -1000 -10"
        assert parse_tracking_labels(line)[0][0].dims == (-1.0, -1.0, -1.0)

    # w = l = 1e200 used to overflow the BEV area, and a copy of the box scored AP 0
    @pytest.mark.parametrize("dims", ["0 1.6 3.9", "1.5 -1.6 3.9", "1.5 1.6 0", "1.5 1e200 1e200"])
    @pytest.mark.parametrize("class_name", ["Car", "Van"])
    def test_non_positive_dims_name_line_number(self, dims, class_name):
        bad = "0 1 %s 0 0 0 100 100 150 150 %s 1 1 80 0" % (class_name, dims)
        with pytest.raises(ParseError, match="line 2: dims must be positive"):
            parse_tracking_labels(GT_LINE + "\n" + bad)

    def test_short_line_names_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_tracking_labels(GT_LINE + "\n0 1 Car 0.0")

    def test_long_line_names_line_number(self):
        # a trailing field after the score used to be dropped without a word
        with pytest.raises(ParseError, match="line 2: expected at most 18 fields, got 19"):
            parse_tracking_labels(GT_LINE + "\n" + DET_LINE + " 7")

    @pytest.mark.parametrize("occlusion", ["1.7", "-0.9"])
    def test_fractional_occlusion_names_line_number(self, occlusion):
        # int() used to truncate it, moving the row's difficulty tier
        bad = GT_LINE.replace("Car 0.0 0 ", "Car 0.0 %s " % occlusion)
        with pytest.raises(ParseError, match="line 2: occlusion %s is not an integer" % occlusion):
            parse_tracking_labels(GT_LINE + "\n" + bad)

    @pytest.mark.parametrize("occlusion", ["7", "-5", "4", "-2"])
    def test_occlusion_outside_range_names_line_number(self, occlusion):
        # 7 used to be scored as ignored at every level and -5 as easy
        bad = GT_LINE.replace("Car 0.0 0 ", "Car 0.0 %s " % occlusion)
        with pytest.raises(ParseError,
                           match=re.escape("line 2: occlusion %s is outside -1..3" % occlusion)):
            parse_tracking_labels(GT_LINE + "\n" + bad)

    @pytest.mark.parametrize("occlusion", [-1, 3])
    def test_occlusion_range_ends_parse(self, occlusion):
        # KITTI writes -1 for DontCare, and detection dumps often do on every row
        text = DET_LINE.replace("Car 0.0 0 ", "Car 0.0 %d " % occlusion)
        assert parse_tracking_labels(text)[0][0].occlusion == occlusion

    def test_integral_float_occlusion_parses(self):
        box = parse_tracking_labels(GT_LINE.replace("Car 0.0 0 ", "Car 0.0 2.0 "))[0][0]
        assert box.occlusion == 2 and type(box.occlusion) is int

    def test_negative_frame_names_line_number(self):
        with pytest.raises(ParseError, match="line 2: negative frame index -1"):
            parse_tracking_labels(GT_LINE + "\n-1" + GT_LINE[1:])

    @pytest.mark.parametrize("frame", [10**6, 10**12])
    def test_huge_frame_names_line_number(self, frame):
        # a schedule holds one event per frame up to the last labelled one,
        # so such an index used to exhaust memory in stream-eval
        with pytest.raises(ParseError, match="line 2: frame index %d is not below 1000000" % frame):
            parse_tracking_labels(GT_LINE + "\n%d" % frame + GT_LINE[1:])

    def test_last_allowed_frame_parses(self):
        frames = parse_tracking_labels("%d" % (kitti_io.MAX_FRAME_INDEX - 1) + GT_LINE[1:])
        assert list(frames) == [999999]

    def test_non_numeric_field(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_tracking_labels(GT_LINE.replace("10.0", "abc"))

    def test_roundtrip_idempotent(self):
        text = "\n".join([DET_LINE, "1 2 Pedestrian 0.1 1 0.5 10 20 30 40 1.7 0.6 0.8 -2.0 1.4 8.0 1.2 0.5"])
        frames = parse_tracking_labels(text)
        again = parse_tracking_labels(format_tracking_labels(frames))
        assert again == frames


class TestRangeFilter:
    def test_default_range_kept(self):
        box = make_gt(x=0.0, y=1.0, z=10.0)
        assert apply_range_filter([box]) == [box]

    def test_z_out_of_range(self):
        assert apply_range_filter([make_gt(x=0.0, y=1.0, z=60.0)]) == []

    def test_x_out_of_range(self):
        assert apply_range_filter([make_gt(x=29.0, y=1.0, z=10.0)]) == []

    def test_boundary_kept(self):
        lo = make_gt(x=-28.8, y=-1.0, z=2.0)
        hi = make_gt(x=28.8, y=3.0, z=53.2)
        assert apply_range_filter([lo, hi]) == [lo, hi]

    def test_output_subset(self):
        boxes = [make_gt(z=float(z)) for z in range(0, 70, 5)]
        out = apply_range_filter(boxes)
        assert all(b in boxes for b in out)
        assert len(out) < len(boxes)


def old_parse_tracking_labels(text):
    """A verbatim copy of parse_tracking_labels as it stood before it was
    made one pass per line: the oracle of TestParserMatchesOldParser."""
    frames = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 17:
            raise ParseError(
                "line %d: expected >=17 fields, got %d" % (lineno, len(fields))
            )
        if len(fields) > 18:
            raise ParseError("line %d: expected at most 18 fields, got %d" % (lineno, len(fields)))
        try:
            frame, track_id = int(fields[0]), int(fields[1])
            nums = [float(v) for v in fields[3:]]
        except ValueError as exc:
            raise ParseError("line %d: non-numeric field (%s)" % (lineno, exc)) from exc
        if not all(map(math.isfinite, nums)):
            raise ParseError("line %d: non-finite numeric field" % lineno)
        if not nums[1].is_integer():
            raise ParseError("line %d: occlusion %r is not an integer" % (lineno, nums[1]))
        if not -1 <= nums[1] <= 3:
            raise ParseError("line %d: occlusion %d is outside -1..3" % (lineno, nums[1]))
        if frame < 0:
            raise ParseError("line %d: negative frame index %d" % (lineno, frame))
        if frame >= MAX_FRAME_INDEX:
            raise ParseError(
                "line %d: frame index %d is not below %d" % (lineno, frame, MAX_FRAME_INDEX)
            )
        dims = tuple(nums[7:10])
        # KITTI DontCare may have dims -1, but no box may reach MAX_DIM
        if max(dims) >= MAX_DIM or fields[2] != "DontCare" and min(dims) <= 0.0:
            raise ParseError("line %d: dims must be positive and below %g m, got %r"
                             % (lineno, MAX_DIM, dims))
        box = LabeledBox(
            frame_index=frame,
            track_id=track_id,
            class_name=fields[2],
            truncation=nums[0],
            occlusion=int(nums[1]),
            alpha=nums[2],
            bbox2d=tuple(nums[3:7]),
            dims=dims,
            location=tuple(nums[10:13]),
            rotation_y=nums[13],
            score=nums[14] if len(nums) > 14 else None,
        )
        frames.setdefault(box.frame_index, []).append(box)
    return frames


# Field values that reach each check: signs, zeros, integral and fractional
# floats, exponents, underscores, non-finite and non-numeric text.
_FIELD_VALUES = st.sampled_from([
    "0", "-0", "1", "-1", "2", "3", "4", "7", "1.0", "1.7", "-0.0", "0.5", "1e-320", "1e6",
    "999999", "1000000", "1e400", "-1e400", "nan", "NaN", "inf", "-inf", "1_000", "0x10",
    "abc", "Car", "DontCare", "Van", "+3", "١",
])
# Separators that str.strip and str.split treat as whitespace, and line
# ends of str.splitlines; \x0b and \x0c are both.
_SPACES = st.sampled_from([" "] * 8 + ["  ", "\t", "\u3000", "\xa0"])
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])


@st.composite
def mutated_label_texts(draw):
    """Valid ground-truth and detection lines with a few fields replaced,
    dropped or added, joined by varied whitespace, with blank lines."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        fields = (DET_LINE if draw(st.booleans()) else GT_LINE).split()
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(fields) - 1))
            op = draw(st.sampled_from(["replace", "replace", "drop", "add", "frame"]))
            if op == "frame":  # the frame index, whose checks come after the others
                fields[0] = draw(st.sampled_from(["-1", "-0", "999999", "1000000", "10**7"]))
            elif op == "replace":
                fields[i] = draw(_FIELD_VALUES)
            elif op == "drop":
                del fields[i]
            else:
                fields.insert(i, draw(_FIELD_VALUES))
        line = "".join(f + draw(_SPACES) for f in fields)
        lines.append(draw(_SPACES) + line if draw(st.booleans()) else line)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_SPACES) if draw(st.booleans()) else "")
    return "".join(line + draw(_BREAKS) for line in lines)


def _parsed(parse, text):
    """(repr, difficulty) of each box per frame, or the ParseError's message."""
    try:
        frames = parse(text)
    except ParseError as exc:
        return str(exc)
    return {f: [(repr(b), b.difficulty) for b in boxes] for f, boxes in frames.items()}


class TestParserMatchesOldParser:
    """parse_tracking_labels, one pass per line, gives the boxes and
    difficulties of the parser it replaced, or the same ParseError."""

    @settings(max_examples=500, deadline=None)
    @given(mutated_label_texts())
    def test_same_boxes_or_error(self, text):
        assert _parsed(parse_tracking_labels, text) == _parsed(old_parse_tracking_labels, text)

    def test_fuzz_reaches_every_outcome(self):
        kinds = [">=17 fields", "at most 18", "non-numeric", "non-finite", "not an integer",
                 "outside -1..3", "negative frame", "is not below", "dims must be"]
        outcomes = set()

        @settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @given(mutated_label_texts())
        def collect(text):
            got = _parsed(parse_tracking_labels, text)
            outcomes.add("parsed" if isinstance(got, dict) else
                         next(kind for kind in kinds if kind in got))

        collect()
        assert outcomes == {"parsed", *kinds}
