import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc import kitti_io, metrics
from streamperc.kitti_io import difficulty_of
from streamperc.metrics import (
    DEFAULT_CLASSES,
    Difficulty,
    ap_r40,
    evaluate_pairs,
    match_frame,
    pr_curve,
)

from conftest import make_box, make_gt


class TestDifficulty:
    def test_easy(self):
        assert difficulty_of(make_gt(bbox_height=50, occlusion=0, truncation=0.0)) == Difficulty.EASY

    def test_moderate(self):
        assert difficulty_of(make_gt(bbox_height=30, occlusion=1, truncation=0.2)) == Difficulty.MODERATE

    def test_hard(self):
        assert difficulty_of(make_gt(bbox_height=26, occlusion=2, truncation=0.45)) == Difficulty.HARD

    def test_ignored_small(self):
        assert difficulty_of(make_gt(bbox_height=10)) == Difficulty.IGNORED

    def test_boundaries(self):
        assert difficulty_of(make_gt(bbox_height=40, occlusion=0, truncation=0.15)) == Difficulty.EASY
        assert difficulty_of(make_gt(bbox_height=39.9, occlusion=0, truncation=0.0)) == Difficulty.MODERATE


class TestMatchFrame:
    def test_perfect(self):
        gts = [make_gt(track_id=i, x=6.0 * i) for i in range(3)]
        preds = [g.to_box3d() for g in gts]
        res = match_frame(preds, gts, 0.7, Difficulty.EASY)
        assert sorted(k for _, k in res.det_records) == ["tp", "tp", "tp"]
        assert res.n_in_scope_gt == 3

    def test_tp_fp_fn(self):
        gts = [make_gt(track_id=0, x=0.0), make_gt(track_id=1, x=10.0)]
        preds = [
            make_box(x=0.05, z=10.0, score=0.9),  # high IoU with gt 0
            make_box(x=30.0, z=10.0, score=0.8),  # hits nothing
        ]
        res = match_frame(preds, gts, 0.5, Difficulty.EASY)
        assert res.det_records == [(0.9, "tp"), (0.8, "fp")]
        assert res.n_in_scope_gt == 2

    def test_single_claim(self):
        gts = [make_gt(track_id=0)]
        preds = [make_box(z=10.0, score=0.9), make_box(z=10.0, score=0.8)]
        res = match_frame(preds, gts, 0.5, Difficulty.EASY)
        assert res.det_records == [(0.9, "tp"), (0.8, "fp")]

    def test_dontcare_ignored(self):
        gts = [make_gt(class_name="DontCare")]
        preds = [make_box(z=10.0, score=0.9)]
        res = match_frame(preds, gts, 0.5, Difficulty.EASY)
        assert res.det_records == []  # neither TP nor FP
        assert res.n_in_scope_gt == 0

    def test_harder_gt_ignore_matched(self):
        # a Hard GT is out of scope at Easy level but absorbs the detection
        gts = [make_gt(bbox_height=26, occlusion=2, truncation=0.4)]
        preds = [make_box(z=10.0, score=0.9)]
        res = match_frame(preds, gts, 0.5, Difficulty.EASY)
        assert res.det_records == []
        assert res.n_in_scope_gt == 0

    def test_level_inclusion(self):
        gts = [make_gt(bbox_height=30, occlusion=1, truncation=0.2)]
        res = match_frame([], gts, 0.5, Difficulty.HARD)
        assert res.n_in_scope_gt == 1

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            match_frame([], [], 0.0, Difficulty.EASY)

    def test_unknown_iou_kind(self):
        # it used to be scored as 3D IoU
        gts = [make_gt(track_id=0)]
        with pytest.raises(ValueError, match="iou_kind"):
            match_frame([make_box(z=10.0)], gts, 0.5, Difficulty.EASY, "xyz")

    def test_dontcare_without_dims_skipped(self):
        # KITTI writes 2D-only DontCare regions with dims -1; they have no
        # 3D box, so they neither crash the matcher nor absorb a detection
        gts = [make_gt(track_id=0), make_gt(track_id=-1, class_name="DontCare",
                                            h=-1.0, w=-1.0, l=-1.0, x=-1000.0)]
        preds = [make_box(z=10.0, score=0.9), make_box(x=20.0, z=10.0, score=0.8)]
        res = match_frame(preds, gts, 0.5, Difficulty.EASY, class_name="Car")
        assert res.det_records == [(0.9, "tp"), (0.8, "fp")]
        assert res.n_in_scope_gt == 1

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    def test_iou_exactly_at_threshold_is_a_tp(self, kind):
        # yaw-0 4 x 2 m footprints 1 m apart along their length: 6 / 10,
        # which is the literal 0.6 in both kinds
        gts = [make_gt(w=2.0, l=4.0)]
        det = make_box(x=1.0, z=10.0, w=2.0, l=4.0, score=0.9)
        assert (metrics.iou_bev if kind == "bev" else metrics.iou_3d)(det, gts[0].box3d) == 0.6
        res = match_frame([det], gts, 0.6, Difficulty.EASY, kind)
        assert res.det_records == [(0.9, "tp")]

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    @pytest.mark.parametrize("gt", [
        pytest.param(dict(class_name="DontCare"), id="dontcare"),
        pytest.param(dict(bbox_height=26, occlusion=2, truncation=0.4), id="harder"),
    ])
    def test_iou_exactly_at_threshold_is_ignore_matched(self, kind, gt):
        gts = [make_gt(w=2.0, l=4.0, **gt)]
        det = make_box(x=1.0, z=10.0, w=2.0, l=4.0, score=0.9)
        res = match_frame([det], gts, 0.6, Difficulty.EASY, kind, class_name="Car")
        assert res.det_records == []
        assert res.n_in_scope_gt == 0

    def test_reads_stored_difficulty(self, monkeypatch):
        gts = [make_gt(track_id=0), make_gt(track_id=1, x=10.0, bbox_height=30, occlusion=1)]
        preds = [make_box(z=10.0, score=0.9), make_box(x=10.0, z=10.0, score=0.8)]

        def fail(gt):
            raise AssertionError("difficulty recomputed")

        monkeypatch.setattr(kitti_io, "difficulty_of", fail)
        res = match_frame(preds, gts, 0.5, Difficulty.EASY)
        assert res.det_records == [(0.9, "tp")]
        assert res.n_in_scope_gt == 1


class TestMatchFrameIouLookup:
    """match_frame reads metrics.iou_bev / metrics.iou_3d when it is called,
    so a function patched onto the module sees every comparison.

    Ground truth: easy Cars g0 at x=0 and g1 at x=20, and a DontCare with a
    box at x=40. Detections by score: d0 (0.9) on g0, d1 (0.8) on g0 too,
    d2 (0.7) on the DontCare. d0 compares with g0 and g1 and claims g0 (2
    calls). d1 skips the claimed g0, misses g1 and then the DontCare, so it
    is an FP (2 calls). d2 misses g1 and hits the DontCare, so it is
    dropped (2 calls). That is 6 comparisons, all of the requested kind.
    """

    GTS = [make_gt(track_id=0), make_gt(track_id=1, x=20.0),
           make_gt(track_id=-1, class_name="DontCare", x=40.0)]
    PREDS = [make_box(z=10.0, score=0.9), make_box(x=0.3, z=10.0, score=0.8),
             make_box(x=40.0, z=10.0, score=0.7)]

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    def test_patched_iou_sees_every_comparison(self, monkeypatch, kind):
        calls = {"bev": 0, "3d": 0}

        def counting(name, fn):
            def wrapper(a, b):
                calls[name] += 1
                return fn(a, b)
            return wrapper

        monkeypatch.setattr(metrics, "iou_bev", counting("bev", metrics.iou_bev))
        monkeypatch.setattr(metrics, "iou_3d", counting("3d", metrics.iou_3d))
        res = match_frame(self.PREDS, self.GTS, 0.5, Difficulty.EASY, kind, class_name="Car")
        assert res.det_records == [(0.9, "tp"), (0.8, "fp")]
        assert res.n_in_scope_gt == 2
        assert calls == {"bev": 6 if kind == "bev" else 0, "3d": 6 if kind == "3d" else 0}


def ref_match_frame(preds, gts, iou_threshold, level, iou_kind="bev", class_name=None):
    """The former match_frame: index lists into a pre-filtered copy of gts,
    a claimed set and a sorted index order. It reads metrics.iou_bev /
    metrics.iou_3d through the module, so a patched recorder sees its calls."""
    if class_name is not None:
        gts = [g for g in gts if g.class_name in (class_name, "DontCare")]
    in_scope = []
    ignorable = []
    gt_boxes = {}
    for gi, g in enumerate(gts):
        if g.class_name == "DontCare" and min(g.dims) <= 0.0:
            continue
        gt_boxes[gi] = g.box3d
        if g.class_name != "DontCare" and g.difficulty <= level:
            in_scope.append(gi)
        else:
            ignorable.append(gi)
    iou = metrics.iou_bev if iou_kind == "bev" else metrics.iou_3d
    claimed = set()
    order = sorted(range(len(preds)), key=lambda i: -preds[i].score)
    records = []
    for pi in order:
        det = preds[pi]
        best_gt, best_iou = None, 0.0
        for gi in in_scope:
            if gi in claimed:
                continue
            v = iou(det, gt_boxes[gi])
            if v >= iou_threshold and v > best_iou:
                best_gt, best_iou = gi, v
        if best_gt is not None:
            claimed.add(best_gt)
            records.append((det.score, "tp"))
            continue
        ignored = False
        for gi in ignorable:
            if iou(det, gt_boxes[gi]) >= iou_threshold:
                ignored = True
                break
        if not ignored:
            records.append((det.score, "fp"))
    return metrics.FrameMatchResult(det_records=records, n_in_scope_gt=len(in_scope))


# Overlapping centres on a 0.5 m grid, so boxes hit several others; few
# distinct scores, so detections tie; heights, occlusions and truncations
# on both sides of each difficulty boundary.
_CENTRE_X = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.0])
_DET = st.builds(
    make_box, x=_CENTRE_X, z=st.sampled_from([10.0, 10.5]),
    l=st.sampled_from([3.9, 2.0, 0.8]), yaw=st.sampled_from([0.0, 0.4]),
    score=st.sampled_from([0.3, 0.6, 0.9]),
)


# DontCare dims that make a 2D-only region: KITTI's -1s, zeros, and a
# single non-positive h, w or l among positive ones
_NO_BOX_DIMS = st.sampled_from([(-1.0, -1.0, -1.0), (0.0, 0.0, 0.0), (1.5, -1.0, 3.9),
                                (0.0, 1.6, 3.9), (1.5, 1.6, 0.0)])


@st.composite
def _gt_rows(draw):
    class_name = draw(st.sampled_from(["Car", "Pedestrian", "Van", "DontCare"]))
    dims = dict(l=draw(st.sampled_from([3.9, 2.0, 0.8])))
    if class_name == "DontCare" and draw(st.booleans()):
        dims = dict(zip("hwl", draw(_NO_BOX_DIMS)))  # a 2D-only KITTI region
    return make_gt(
        class_name=class_name, x=draw(_CENTRE_X),
        bbox_height=draw(st.integers(24, 41)), occlusion=draw(st.integers(0, 3)),
        truncation=draw(st.sampled_from([0.0, 0.14, 0.15, 0.16, 0.29, 0.3, 0.31, 0.49, 0.5, 0.51])),
        **dims,
    )


class TestMatchFrameMatchesReference:
    """match_frame gives the former implementation's records and in-scope
    count, and makes the same IoU calls in the same order."""

    @settings(max_examples=400, deadline=None)
    @given(
        preds=st.lists(_DET, max_size=6),
        gts=st.lists(_gt_rows(), max_size=6),
        iou_threshold=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]),
        level=st.sampled_from(list(Difficulty)),
        kind=st.sampled_from(["bev", "3d"]),
        class_name=st.sampled_from([None, "Car", "Pedestrian"]),
    )
    def test_same_records_and_calls(self, preds, gts, iou_threshold, level, kind, class_name):
        def run(fn):
            calls = []

            def recorder(name, real):
                def wrapper(a, b):
                    calls.append((id(a), id(b), name))
                    return real(a, b)
                return wrapper

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "iou_bev", recorder("bev", metrics.iou_bev))
                mp.setattr(metrics, "iou_3d", recorder("3d", metrics.iou_3d))
                res = fn(preds, gts, iou_threshold, level, kind, class_name=class_name)
            return res, calls

        got, got_calls = run(match_frame)
        want, want_calls = run(ref_match_frame)
        assert got.det_records == want.det_records
        assert got.n_in_scope_gt == want.n_in_scope_gt
        assert got_calls == want_calls


def ref_cell_records(pairs, classes, iou_thresholds, iou_kinds):
    """cell_records by its definition: each cell calls match_frame with each
    pair's predictions of the class and the pair's full ground-truth list."""
    ids = {name: i for i, name in enumerate(classes)}
    for cls_name in classes:
        for kind in iou_kinds:
            for thr in iou_thresholds:
                for level in (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD):
                    records, n_gt = [], 0
                    for preds, gts in pairs:
                        mine = [p for p in preds if p.class_id == ids[cls_name]]
                        res = match_frame(mine, gts, thr, level, kind, class_name=cls_name)
                        records.extend(res.det_records)
                        n_gt += res.n_in_scope_gt
                    yield cls_name, kind, thr, level, records, n_gt


@st.composite
def _mixed_gt_rows(draw):
    class_name = draw(st.sampled_from(["Car", "Pedestrian", "Cyclist", "Van", "DontCare"]))
    dims = dict(l=draw(st.sampled_from([3.9, 2.0, 0.8])))
    if class_name == "DontCare" and draw(st.booleans()):
        dims = dict(zip("hwl", draw(_NO_BOX_DIMS)))  # a 2D-only KITTI region
    return make_gt(class_name=class_name, x=draw(_CENTRE_X), bbox_height=draw(st.integers(24, 41)),
                   occlusion=draw(st.integers(0, 3)), **dims)


class TestCellRecordsMatchesDefinition:
    """cell_records, which hands each class's cells only the ground truth
    that metrics._scoped, the one scoping rule, keeps for the class, yields
    the cells of the full-list definition and makes the same IoU calls in
    the same order, except that a name given again is matched once: the
    cells of its repeat make no IoU call."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(
            st.lists(st.builds(make_box, x=_CENTRE_X, z=st.sampled_from([10.0, 10.5]),
                               l=st.sampled_from([3.9, 2.0, 0.8]),
                               score=st.sampled_from([0.3, 0.6, 0.9]),
                               class_id=st.integers(0, 3)), max_size=5),
            st.lists(_mixed_gt_rows(), max_size=6)), max_size=3),
        classes=st.sampled_from([("Car", "Pedestrian", "Cyclist"), ("Car", "Car"),
                                 ("Pedestrian", "Van", "Pedestrian"), ("Cyclist",)]),
        iou_thresholds=st.sampled_from([(0.7, 0.5), (0.3,), (0.5, 0.5)]),
        iou_kinds=st.sampled_from([("bev", "3d"), ("3d",)]),
    )
    def test_same_cells_and_calls(self, pairs, classes, iou_thresholds, iou_kinds):
        def run(fn):
            calls = []

            def recorder(name, real):
                def wrapper(a, b):
                    calls.append((id(a), id(b), name))
                    return real(a, b)
                return wrapper

            cells, ends = [], []  # ends[i]: the calls made by the end of cell i
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "iou_bev", recorder("bev", metrics.iou_bev))
                mp.setattr(metrics, "iou_3d", recorder("3d", metrics.iou_3d))
                for cell in fn(pairs, classes, iou_thresholds, iou_kinds):
                    cells.append(cell)
                    ends.append(len(calls))
            return cells, calls, ends

        got, got_calls, _ = run(metrics.cell_records)
        want, want_calls, ends = run(ref_cell_records)
        assert got == want
        per_class = len(iou_kinds) * len(iou_thresholds) * 3
        first_matches = [call for i, (start, end) in enumerate(zip([0] + ends, ends))
                         if classes[i // per_class] not in classes[:i // per_class]
                         for call in want_calls[start:end]]
        assert got_calls == first_matches


def exhaustive_ap_oracle(preds, gts, iou_threshold, level, kind="bev"):
    """Enumerate every score threshold, re-match the surviving detections,
    interpolate precision at the 40 recall positions."""
    scores = sorted({p.score for p in preds}, reverse=True)
    points = []
    n_gt = match_frame([], gts, iou_threshold, level, kind).n_in_scope_gt
    if n_gt == 0:
        return None
    for thr in scores:
        subset = [p for p in preds if p.score >= thr]
        res = match_frame(subset, gts, iou_threshold, level, kind)
        tp = sum(1 for _, k in res.det_records if k == "tp")
        n_det = len(res.det_records)
        if n_det:
            points.append((tp / n_det, tp / n_gt))
    total = 0.0
    for i in range(1, 41):
        r = i / 40.0
        total += max((p for p, rec in points if rec >= r - 1e-12), default=0.0)
    return total / 40.0


class TestApR40:
    def test_perfect_detector(self):
        assert ap_r40([(0.9, "tp"), (0.8, "tp")], 2) == pytest.approx(1.0)

    def test_half_recall_case(self):
        # 2 GT; one TP at 0.9, one FP at 0.8: recall caps at 0.5, precision 1
        assert ap_r40([(0.9, "tp"), (0.8, "fp")], 2) == pytest.approx(0.5)

    def test_no_detections(self):
        assert ap_r40([], 2) == 0.0

    def test_no_gt_absent(self):
        assert ap_r40([(0.9, "tp")], 0) is None

    def test_monotone_in_new_top_tp(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            records = [
                (float(rng.uniform(0.1, 0.8)), "tp" if rng.random() < 0.5 else "fp")
                for _ in range(n)
            ]
            n_gt = int(rng.integers(2, 6))
            base = ap_r40(records, n_gt)
            boosted = ap_r40(records + [(0.95, "tp")], n_gt)
            assert boosted >= base - 1e-12

    def test_matches_exhaustive_enumeration(self, rng):
        for trial in range(60):
            n_gt = int(rng.integers(1, 5))
            n_det = int(rng.integers(0, 7))
            gts = [make_gt(track_id=i, x=8.0 * i) for i in range(n_gt)]
            preds = []
            for _ in range(n_det):
                target = rng.integers(0, n_gt)
                preds.append(
                    make_box(
                        x=8.0 * target + rng.uniform(-2.5, 2.5),
                        z=10.0,
                        score=round(float(rng.uniform(0.05, 0.95)), 2),
                    )
                )
            level = Difficulty.EASY
            res = match_frame(preds, gts, 0.5, level)
            got = ap_r40(res.det_records, res.n_in_scope_gt)
            want = exhaustive_ap_oracle(preds, gts, 0.5, level)
            assert got == pytest.approx(want, abs=1e-12)


def ref_ap_r40(det_records, n_gt):
    """The former ap_r40: rescans every PR point for each recall position."""
    if n_gt <= 0:
        return None
    points = pr_curve(det_records, n_gt)
    total = 0.0
    for i in range(1, 41):
        r = i / 40
        p = max((prec for _, prec, rec in points if rec >= r - 1e-12), default=0.0)
        total += p
    return total / 40


# Few distinct scores, so many records tie; recall may exceed 1 when the
# records hold more TPs than n_gt.
_SCORES = st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]) | st.floats(0.0, 1.0)
_RECORDS = st.lists(st.tuples(_SCORES, st.sampled_from(["tp", "fp"])), max_size=60)


class TestApR40MatchesScan:
    @settings(max_examples=500, deadline=None)
    @given(records=_RECORDS, n_gt=st.integers(0, 90))
    def test_bit_identical(self, records, n_gt):
        assert ap_r40(records, n_gt) == ref_ap_r40(records, n_gt)

    @pytest.mark.parametrize("n_gt", [0, 1, 3, 40, 80])
    def test_all_tied(self, n_gt):
        records = [(0.5, "tp" if i % 3 else "fp") for i in range(12)]
        assert ap_r40(records, n_gt) == ref_ap_r40(records, n_gt)


def ref_pr_curve(det_records, n_gt):
    """pr_curve as it sorted before: on the negated score."""
    if n_gt <= 0 or not det_records:
        return []
    recs = sorted(det_records, key=lambda r: -r[0])
    points = []
    tp = fp = 0
    n = len(recs)
    for i, (score, kind) in enumerate(recs):
        if kind == "tp":
            tp += 1
        else:
            fp += 1
        if i + 1 < n and recs[i + 1][0] == score:
            continue  # more records at this threshold
        points.append((score, tp / (tp + fp), tp / n_gt))
    return points


class TestPrCurve:
    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.tuples(_SCORES | st.sampled_from([0.0, -0.0]),
                                      st.sampled_from(["tp", "fp"])), max_size=60),
           n_gt=st.integers(0, 90))
    def test_same_points_as_negated_sort(self, records, n_gt):
        # repr tells -0.0 from 0.0: a tie group's point takes its last score
        assert repr(pr_curve(records, n_gt)) == repr(ref_pr_curve(records, n_gt))

    def test_tied_scores_single_point(self):
        pts = pr_curve([(0.5, "tp"), (0.5, "fp")], 2)
        assert pts == [(0.5, 0.5, 0.5)]

    def test_recall_monotone(self):
        pts = pr_curve([(0.9, "tp"), (0.7, "fp"), (0.5, "tp")], 4)
        recalls = [r for _, _, r in pts]
        assert recalls == sorted(recalls)


class TestReports:
    def _world(self, n_frames=5):
        pairs = []
        for f in range(n_frames):
            gts = [make_gt(frame=f, track_id=i, x=7.0 * i) for i in range(2)]
            preds = [g.to_box3d(class_id=0) for g in gts]
            pairs.append((preds, gts))
        return pairs

    def test_oracle_scores_one(self):
        cells = evaluate_pairs(self._world(), classes=["Car"])
        for c in cells:
            assert c.ap == pytest.approx(1.0)

    def test_level_recall_monotone(self):
        # identical detections, mixed-difficulty GT: recall can only drop
        pairs = []
        for f in range(3):
            gts = [
                make_gt(frame=f, track_id=0, x=0.0, bbox_height=50),
                make_gt(frame=f, track_id=1, x=7.0, bbox_height=30, occlusion=1),
            ]
            preds = [gts[0].to_box3d(class_id=0)]
            pairs.append((preds, gts))
        cells = {c.level: c.ap for c in evaluate_pairs(
            pairs, classes=["Car"], iou_thresholds=[0.7], iou_kinds=["bev"])}
        assert cells["easy"] == pytest.approx(1.0)
        assert cells["moderate"] < cells["easy"]

    def test_class_separation(self):
        gts = [make_gt(track_id=0, class_name="Pedestrian", h=1.7, w=0.6, l=0.8)]
        preds = [make_box(h=1.7, w=0.6, l=0.8, score=0.9, class_id=0)]  # Car id
        cells = evaluate_pairs([(preds, gts)], classes=list(DEFAULT_CLASSES))
        by_class = {}
        for c in cells:
            if c.iou_kind == "bev" and c.iou_threshold == 0.5 and c.level == "easy":
                by_class[c.class_name] = c.ap
        assert by_class["Car"] is None  # no Car GT in scope
        assert by_class["Pedestrian"] == pytest.approx(0.0)  # GT there, pred wrong class
