import dataclasses
import gc
import hashlib
import importlib
import inspect
import math
import pkgutil
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamperc
from streamperc import geometry
from streamperc.geometry import (
    Box3D,
    bev_corners,
    iou_bev,
    iou_3d,
    iou_matrix,
    polygon_area,
)

from conftest import make_box


# Reference oracle: the plain per-pair rotated IoU, which always builds both
# footprints and clips them as numpy rows, with no zero-overlap shortcut.
# The fast path in streamperc.geometry must agree with it bit for bit. A
# vertex is on a clip edge when it lies at most _EDGE_EPS m outside it; with
# relative=False it is when its cross product with the edge is at least
# -_EDGE_EPS, the earlier rule, which keeps vertices up to _EDGE_EPS / (edge
# length) m outside. A new vertex lies where the clip line crosses the
# subject edge, clamped to that edge. The float order is README's, written
# out here in plain Python floats rather than taken from the package: a
# footprint corner is a*c - b*s + cx, a*s + b*c + cz with no fused
# multiply-add, and a shoelace adds px*cz - pz*cx left to right from the
# closing edge (last vertex to first).
_EDGE_EPS = 1e-9
_DEGENERATE_AREA = 1e-12


def ref_bev_corners(box):
    cx, _, cz = box.center
    _, w, l = box.dims
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local = [(l / 2.0, w / 2.0), (-l / 2.0, w / 2.0), (-l / 2.0, -w / 2.0), (l / 2.0, -w / 2.0)]
    pts = np.array([(a * c - b * s + cx, a * s + b * c + cz) for a, b in local])
    if ref_polygon_area(pts) < 0:
        pts = pts[::-1]
    return pts


def ref_polygon_area(vertices):
    pts = [(float(x), float(z)) for x, z in vertices]
    if len(pts) < 3:
        return 0.0
    total = 0.0
    for k in range(len(pts)):  # k = 0 is the closing edge, pts[-1] -> pts[0]
        (px, pz), (cx, cz) = pts[k - 1], pts[k]
        total += px * cz - pz * cx
    return 0.5 * total


def ref_clip_polygon(subject, cp1, cp2, relative):
    ex, ez = cp2[0] - cp1[0], cp2[1] - cp1[1]
    tol = -_EDGE_EPS * (math.hypot(ex, ez) if relative else 1.0)

    def side(p):
        return ex * (p[1] - cp1[1]) - ez * (p[0] - cp1[0])

    out = []
    n = len(subject)
    for i in range(n):
        cur = subject[i]
        prev = subject[i - 1]
        sc, sp = side(cur), side(prev)
        if sc >= tol:
            if sp < tol:
                out.append(ref_intersect(prev, cur, cp1, cp2))
            out.append(tuple(cur))
        elif sp >= tol:
            out.append(ref_intersect(prev, cur, cp1, cp2))
    return out


def ref_intersect(p1, p2, q1, q2):
    dpx, dpz = p2[0] - p1[0], p2[1] - p1[1]
    dqx, dqz = q2[0] - q1[0], q2[1] - q1[1]
    denom = dpx * dqz - dpz * dqx
    if abs(denom) < _EDGE_EPS * _EDGE_EPS:
        return (p2[0], p2[1])
    t = ((q1[0] - p1[0]) * dqz - (q1[1] - p1[1]) * dqx) / denom
    t = min(max(t, 0.0), 1.0)
    return (p1[0] + t * dpx, p1[1] + t * dpz)


def ref_polygon_intersection_area(a, b, relative=True):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 3 or len(b) < 3:
        return 0.0
    if ref_polygon_area(a) < 0:
        a = a[::-1]
    if ref_polygon_area(b) < 0:
        b = b[::-1]
    poly = [tuple(p) for p in a]
    nb = len(b)
    for i in range(nb):
        if len(poly) < 3:
            return 0.0
        poly = ref_clip_polygon(np.asarray(poly), b[i - 1], b[i], relative)
    if len(poly) < 3:
        return 0.0
    return abs(ref_polygon_area(np.asarray(poly)))


def ref_iou_bev(a, b, relative=True):
    area_a, area_b = a.bev_area, b.bev_area
    if area_a < _DEGENERATE_AREA or area_b < _DEGENERATE_AREA:
        return 0.0
    inter = ref_polygon_intersection_area(ref_bev_corners(a), ref_bev_corners(b), relative)
    union = area_a + area_b - inter
    if union <= _DEGENERATE_AREA:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def ref_iou_3d(a, b, relative=True):
    area_a, area_b = a.bev_area, b.bev_area
    if area_a < _DEGENERATE_AREA or area_b < _DEGENERATE_AREA:
        return 0.0
    inter_bev = ref_polygon_intersection_area(ref_bev_corners(a), ref_bev_corners(b), relative)
    ya_top, ya_bot = a.center[1] - a.dims[0], a.center[1]
    yb_top, yb_bot = b.center[1] - b.dims[0], b.center[1]
    overlap = min(ya_bot, yb_bot) - max(ya_top, yb_top)
    if overlap <= 0.0:
        return 0.0
    inter = inter_bev * overlap
    union = a.volume + b.volume - inter
    if union <= _DEGENERATE_AREA:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def unit_square_box(yaw=0.0):
    return make_box(h=1.0, w=1.0, l=1.0, yaw=yaw)


def mc_intersection_area(a, b, n_samples, seed):
    """Monte-Carlo estimate of the BEV intersection area of two boxes."""
    ca = bev_corners(a)
    cb = bev_corners(b)
    lo = np.maximum(ca.min(axis=0), cb.min(axis=0))
    hi = np.minimum(ca.max(axis=0), cb.max(axis=0))
    if np.any(hi <= lo):
        return 0.0
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    inside = np.ones(n_samples, dtype=bool)
    for poly in (ca, cb):
        for i in range(len(poly)):
            p1, p2 = poly[i - 1], poly[i]
            cross = (p2[0] - p1[0]) * (pts[:, 1] - p1[1]) - (p2[1] - p1[1]) * (
                pts[:, 0] - p1[0]
            )
            inside &= cross >= 0
    box_area = float(np.prod(hi - lo))
    return box_area * inside.mean()


class TestBevCorners:
    def test_axis_aligned_unit_square(self):
        pts = bev_corners(unit_square_box())
        expected = {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}
        got = {(round(x, 9), round(z, 9)) for x, z in pts}
        assert got == expected

    def test_quarter_turn_swaps_axes(self):
        box = make_box(h=1.0, w=1.0, l=2.0, yaw=math.pi / 2)
        pts = bev_corners(box)
        assert np.allclose(np.abs(pts).max(axis=0), [0.5, 1.0])

    def test_half_turn_same_point_set(self):
        a = bev_corners(make_box(h=1.0, w=1.0, l=2.0, yaw=0.0))
        b = bev_corners(make_box(h=1.0, w=1.0, l=2.0, yaw=math.pi))
        sa = sorted(map(tuple, np.round(a, 9)))
        sb = sorted(map(tuple, np.round(b, 9)))
        assert sa == sb

    def test_counter_clockwise(self):
        pts = bev_corners(make_box(yaw=0.7, x=3.0, z=5.0))
        assert polygon_area(pts) > 0


class TestPolygonIntersection:
    """The clip the IoUs run: geometry._clip_area on Box3D.corners."""

    def test_identical_unit_squares(self):
        sq = unit_square_box().corners
        assert geometry._clip_area(sq, sq) == pytest.approx(1.0)

    def test_half_offset(self):
        a = unit_square_box().corners
        b = make_box(h=1.0, w=1.0, l=1.0, x=0.5).corners
        assert geometry._clip_area(a, b) == pytest.approx(0.5)

    def test_rotated_45_octagon(self):
        # closed form: intersection of a unit square with its 45-degree
        # rotation about the center is a regular octagon of area 2(sqrt2 - 1)
        a = unit_square_box().corners
        b = unit_square_box(yaw=math.pi / 4).corners
        expected = 2.0 * (math.sqrt(2.0) - 1.0)
        assert geometry._clip_area(a, b) == pytest.approx(expected, abs=1e-9)
        mc = mc_intersection_area(unit_square_box(), unit_square_box(yaw=math.pi / 4),
                                  1_000_000, seed=7)
        assert abs(geometry._clip_area(a, b) - mc) < 2e-3

    def test_disjoint(self):
        a = unit_square_box().corners
        b = make_box(h=1.0, w=1.0, l=1.0, x=5.0).corners
        assert geometry._clip_area(a, b) == 0.0

    def test_degenerate_collinear(self):
        line = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert geometry._clip_area(line, unit_square_box().corners) == 0.0


class TestIouBev:
    def test_self_iou(self):
        b = make_box(yaw=0.3, x=1.0, z=4.0)
        assert iou_bev(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou_bev(make_box(), make_box(x=100.0)) == 0.0

    def test_rotated_unit_square_pair(self):
        # octagon area o = 2(sqrt2-1); IoU = o / (2 - o) = 1/sqrt(2)
        v = iou_bev(unit_square_box(), unit_square_box(yaw=math.pi / 4))
        assert v == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)

    def test_symmetry(self, rng):
        for _ in range(50):
            a = make_box(x=rng.uniform(-2, 2), z=rng.uniform(-2, 2),
                         yaw=rng.uniform(-math.pi, math.pi))
            b = make_box(x=rng.uniform(-2, 2), z=rng.uniform(-2, 2),
                         yaw=rng.uniform(-math.pi, math.pi))
            assert abs(iou_bev(a, b) - iou_bev(b, a)) <= 1e-12

    def test_rigid_motion_invariance(self, rng):
        for _ in range(20):
            ax, az = rng.uniform(-2, 2, 2)
            bx, bz = rng.uniform(-2, 2, 2)
            ayaw, byaw = rng.uniform(-math.pi, math.pi, 2)
            base = iou_bev(make_box(x=ax, z=az, yaw=ayaw), make_box(x=bx, z=bz, yaw=byaw))
            phi = rng.uniform(-math.pi, math.pi)
            tx, tz = rng.uniform(-5, 5, 2)
            c, s = math.cos(phi), math.sin(phi)

            def moved(x, z, yaw):
                return make_box(x=c * x - s * z + tx, z=s * x + c * z + tz, yaw=yaw + phi)

            rotated = iou_bev(moved(ax, az, ayaw), moved(bx, bz, byaw))
            assert abs(base - rotated) <= 1e-9

    def test_containment(self):
        inner = make_box(h=1.0, w=1.0, l=1.0)
        outer = make_box(h=2.0, w=2.0, l=2.0)
        assert iou_bev(inner, outer) == pytest.approx(
            inner.bev_area / outer.bev_area, abs=1e-12
        )


class TestIou3d:
    def test_self(self):
        b = make_box(yaw=1.1)
        assert iou_3d(b, b) == pytest.approx(1.0)

    def test_vertical_offset_full_height(self):
        a = make_box(h=2.0)
        b = make_box(h=2.0, y=2.0)
        assert iou_3d(a, b) == 0.0

    def test_vertical_offset_half_height(self):
        a = make_box(h=2.0)
        b = make_box(h=2.0, y=1.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0)

    def test_containment_volume_ratio(self):
        inner = make_box(h=1.0, w=1.0, l=1.0)
        outer = make_box(h=2.0, w=2.0, l=2.0, y=0.5)
        # inner spans y in [-1, 0], outer [-1.5, 0.5]: inner fully inside
        assert iou_3d(inner, outer) == pytest.approx(1.0 / 8.0, abs=1e-12)


class TestIouMatrix:
    def test_identity_pattern(self):
        boxes = [make_box(x=5.0 * i) for i in range(3)]
        mat = iou_matrix(boxes, boxes)
        assert np.allclose(mat, np.eye(3))

    def test_empty(self):
        assert iou_matrix([], [make_box()]).shape == (0, 1)
        assert iou_matrix([make_box()], [], kind="3d").shape == (1, 0)

    def test_matches_pairwise_calls(self, rng):
        boxes_a = [make_box(x=rng.uniform(-2, 2), yaw=rng.uniform(-3, 3)) for _ in range(2)]
        boxes_b = [make_box(x=rng.uniform(-2, 2), yaw=rng.uniform(-3, 3)) for _ in range(2)]
        mat = iou_matrix(boxes_a, boxes_b, kind="bev")
        for i in range(2):
            for j in range(2):
                assert mat[i, j] == iou_bev(boxes_a[i], boxes_b[j])

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            iou_matrix([], [], kind="volume")


def test_monte_carlo_agreement_sample():
    # quick version of the acceptance check: 20 random pairs, 1e6 samples
    rng = np.random.default_rng(99)
    for i in range(20):
        a = make_box(x=rng.uniform(-1, 1), z=rng.uniform(-1, 1),
                     w=rng.uniform(1, 2.5), l=rng.uniform(1.5, 4),
                     yaw=rng.uniform(-math.pi, math.pi))
        b = make_box(x=a.center[0] + rng.uniform(-1.5, 1.5),
                     z=a.center[2] + rng.uniform(-1.5, 1.5),
                     w=rng.uniform(1, 2.5), l=rng.uniform(1.5, 4),
                     yaw=rng.uniform(-math.pi, math.pi))
        inter_mc = mc_intersection_area(a, b, 1_000_000, seed=1000 + i)
        union = a.bev_area + b.bev_area - inter_mc
        mc_iou = inter_mc / union if union > 0 else 0.0
        assert abs(iou_bev(a, b) - mc_iou) <= 2e-3


class TestBox3D:
    @pytest.mark.parametrize("dims", [
        (0.0, 1.6, 3.9), (1.5, -1.6, 3.9), (1.5, 1.6, 0.0),
        (float("nan"), 1.6, 3.9), (1.5, float("nan"), 3.9), (1.5, 1.6, float("nan")),
        (float("inf"), 1.6, 3.9), (1.5, 1.6, float("inf")), (1.5, -float("inf"), 3.9),
        # its volume overflowed to inf, so iou_3d with itself was inf - inf = nan
        (1e150, 1e100, 1e100), (1.5, 1.6, geometry.MAX_DIM),
    ])
    def test_rejects_non_positive_or_non_finite_dims(self, dims):
        with pytest.raises(ValueError, match="dims must be positive"):
            Box3D(center=(0.0, 0.0, 10.0), dims=dims, yaw=0.0)

    @pytest.mark.parametrize("center, yaw", [
        pytest.param((float("nan"), 1.5, 10.0), 0.0, id="nan-x"),
        pytest.param((0.0, float("nan"), 10.0), 0.0, id="nan-y"),
        pytest.param((0.0, 1.5, float("nan")), 0.0, id="nan-z"),
        pytest.param((float("inf"), 1.5, 10.0), 0.0, id="inf-x"),
        pytest.param((0.0, -float("inf"), 10.0), 0.0, id="-inf-y"),
        pytest.param((0.0, 1.5, float("inf")), 0.0, id="inf-z"),
        pytest.param((0.0, 1.5, 10.0), float("nan"), id="nan-yaw"),
        pytest.param((0.0, 1.5, 10.0), float("inf"), id="inf-yaw"),
        pytest.param((0.0, 1.5, 10.0), -float("inf"), id="-inf-yaw"),
    ])
    def test_rejects_non_finite_center_or_yaw(self, center, yaw):
        # a NaN centre y used to give iou_3d 0.777 one way round and nan the other
        with pytest.raises(ValueError, match="center and yaw must be finite"):
            Box3D(center=center, dims=(1.5, 1.6, 3.9), yaw=yaw)

    @pytest.mark.parametrize("field, value", [
        ("center", (1.0, 0.0, 10.0)), ("dims", (1.5, 1.6, 4.0)), ("yaw", 0.5),
        ("score", 0.5), ("class_id", 1), ("track_id", 3),
    ])
    def test_fields_are_frozen(self, field, value):
        # the cached footprint would go stale if a field could change
        box = make_box(z=10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(box, field, value)

    def test_iou_scalars_set_at_construction(self):
        box = make_box(z=10.0, h=1.37, w=1.61, l=3.93, yaw=0.3)
        h, w, l = box.dims
        assert box.bev_area == w * l
        assert box.volume == h * w * l
        assert box.bev_diagonal == math.hypot(w, l)

    def test_iou_scalars_are_not_fields(self):
        box = make_box(z=10.0)
        names = {"bev_area", "volume", "bev_diagonal"}
        assert not names & {f.name for f in dataclasses.fields(box)}
        assert not any(name + "=" in repr(box) for name in names)
        other = make_box(z=10.0)
        object.__setattr__(other, "bev_area", 0.0)
        assert other == box and hash(other) == hash(box)

    @pytest.mark.parametrize("name", ["bev_area", "volume", "bev_diagonal"])
    def test_iou_scalars_are_frozen(self, name):
        box = make_box(z=10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(box, name, 1.0)

    def test_replace_recomputes_iou_scalars(self):
        box = dataclasses.replace(make_box(z=10.0), dims=(2.0, 0.5, 8.0))
        assert (box.bev_area, box.volume) == (4.0, 8.0)
        assert box.bev_diagonal == math.hypot(0.5, 8.0)

    def test_corners_cached_and_read_only(self):
        box = make_box(x=1.0, z=10.0, yaw=0.3)
        assert box.corners is box.corners
        hexes = [[v.hex() for v in p] for p in box.corners]
        assert hexes == [[v.hex() for v in p] for p in bev_corners(box).tolist()]
        with pytest.raises(TypeError):
            box.corners[0] = (0.0, 0.0)
        with pytest.raises(TypeError):
            box.corners[0][0] = 0.0


def test_no_class_hooks_attribute_lookup():
    """No class of a streamperc module defines __getattr__ or
    __getattribute__. On CPython 3.11 the adaptive interpreter specialises
    an attribute read only on a type with the default lookup slot, so such a
    hook sends every read of the type down the generic path, not only the
    reads it serves: six field reads of a frozen dataclass took 88-116 ns
    without a no-op __getattr__ and 247-254 ns with one (timeit minima,
    CPython 3.11.7, x86-64). Box3D and LabeledBox are read on every IoU and
    match call; their lazy attributes are properties."""
    hooked = []
    for info in pkgutil.iter_modules(streamperc.__path__):
        module = importlib.import_module("streamperc." + info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                hooked += ["%s.%s.%s" % (module.__name__, name, hook)
                           for hook in ("__getattr__", "__getattribute__") if hook in vars(cls)]
    assert not hooked


def _box(x, y, z, dims, yaw):
    return Box3D(center=(x, y, z), dims=dims, yaw=yaw)


_DIMS = st.tuples(st.floats(0.2, 6.0), st.floats(0.2, 6.0), st.floats(0.2, 6.0))
_TINY_DIMS = st.tuples(st.floats(0.2, 6.0), st.floats(1e-5, 1e-3), st.floats(1e-5, 1e-3))
_YAW = st.floats(-math.pi, math.pi)
_CENTER = st.tuples(st.floats(-40.0, 40.0), st.floats(-2.0, 3.0), st.floats(0.0, 80.0))


def _circumradius(dims):
    return 0.5 * math.hypot(dims[1], dims[2])


@st.composite
def random_pairs(draw):
    (x, y, z), da, db = draw(_CENTER), draw(_DIMS), draw(_DIMS)
    dx, dy, dz = draw(st.floats(-8, 8)), draw(st.floats(-3, 3)), draw(st.floats(-8, 8))
    return _box(x, y, z, da, draw(_YAW)), _box(x + dx, y + dy, z + dz, db, draw(_YAW))


@st.composite
def identical_pairs(draw):
    (x, y, z), dims, yaw = draw(_CENTER), draw(_DIMS), draw(_YAW)
    return _box(x, y, z, dims, yaw), _box(x, y, z, dims, yaw)


@st.composite
def near_touching_pairs(draw, dims=_DIMS, extra=st.just(0.0)):
    """Centre distance within 2% of the sum of circumradii, plus `extra`."""
    (x, y, z), da, db = draw(_CENTER), draw(dims), draw(dims)
    d = (_circumradius(da) + _circumradius(db)) * draw(st.floats(0.98, 1.02)) + draw(extra)
    t = draw(st.floats(0.0, 2.0 * math.pi))
    a = _box(x, y, z, da, draw(_YAW))
    return a, _box(x + d * math.cos(t), y + draw(st.floats(-1, 1)), z + d * math.sin(t), db, draw(_YAW))


@st.composite
def vertically_disjoint_pairs(draw):
    """b's BEV centre lies inside a's footprint, b sits above or below a."""
    (x, y, z), da, db = draw(_CENTER), draw(_DIMS), draw(_DIMS)
    gap = draw(st.floats(0.0, 2.0))
    yb = y + db[0] + gap if draw(st.booleans()) else y - da[0] - gap
    dx, dz = draw(st.floats(-0.07, 0.07)), draw(st.floats(-0.07, 0.07))
    return _box(x, y, z, da, draw(_YAW)), _box(x + dx, yb, z + dz, db, draw(_YAW))


@st.composite
def tiny_far_boxes(draw):
    """A footprint of 1e-9..1e-3 m sides 1e2..1e11 m from the origin, where
    rounding can flip the sign of the shoelace."""
    r, t = 10.0 ** draw(st.floats(2.0, 11.0)), draw(st.floats(0.0, 2.0 * math.pi))
    w, l = (10.0 ** draw(st.floats(-9.0, -3.0)) for _ in range(2))
    return _box(r * math.cos(t), 0.0, r * math.sin(t), (1.0, w, l), draw(_YAW))


_FOOTPRINT_BOXES = st.one_of(
    st.builds(lambda c, d, yaw: _box(*c, d, yaw), _CENTER, _DIMS, _YAW), tiny_far_boxes())


class TestBevFootprints:
    def test_bytes_match_per_box_reference(self):
        # ref_bev_corners rotates one box in README's float order; some boxes
        # read their corners first, so cached ones are checked too
        flipped = []

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(st.lists(_FOOTPRINT_BOXES, min_size=1, max_size=12), st.data())
        def check(boxes, data):
            for box in data.draw(st.lists(st.sampled_from(boxes), max_size=len(boxes))):
                box.corners
            for box in boxes:
                pts, ref = bev_corners(box), ref_bev_corners(box)
                assert pts.shape == (4, 2) and pts.dtype == float
                assert pts.tobytes() == ref.tobytes()
                assert np.array(box.corners).tobytes() == ref.tobytes()
                flipped.append(ref.strides[0] < 0)  # reversed after a negative shoelace

        check()
        assert any(flipped), "no footprint took the reversal"


class TestIouMatchesReference:
    """Bit-for-bit agreement of the fast path with the reference oracle."""

    @pytest.mark.parametrize("pairs", [
        pytest.param(random_pairs(), id="random"),
        pytest.param(identical_pairs(), id="identical"),
        pytest.param(near_touching_pairs(), id="near-touching"),
        # footprints under a millimetre, just beyond the prefilter's margin
        pytest.param(near_touching_pairs(_TINY_DIMS, st.floats(0.0, 2e-5)), id="tiny-near-touching"),
        pytest.param(vertically_disjoint_pairs(), id="vertically-disjoint"),
    ])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_iou_bit_identical(self, pairs, data):
        a, b = data.draw(pairs)
        for p, q in ((a, b), (b, a)):
            assert iou_bev(p, q).hex() == ref_iou_bev(p, q).hex()
            assert iou_3d(p, q).hex() == ref_iou_3d(p, q).hex()

    @pytest.mark.parametrize("pairs", [
        pytest.param(random_pairs(), id="random"),
        pytest.param(identical_pairs(), id="identical"),
        pytest.param(near_touching_pairs(), id="near-touching"),
        pytest.param(vertically_disjoint_pairs(), id="vertically-disjoint"),
    ])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_metre_scale_barely_moved_by_relative_tolerance(self, pairs, data):
        # the two on-edge rules disagree only on vertices within a few nm of
        # a clip edge (say, an edge turned by 1e-9 rad), and then by far less
        # than any IoU threshold
        a, b = data.draw(pairs)
        for p, q in ((a, b), (b, a)):
            assert abs(iou_bev(p, q) - ref_iou_bev(p, q, relative=False)) <= 1e-6
            assert abs(iou_3d(p, q) - ref_iou_3d(p, q, relative=False)) <= 1e-6

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=8))
    def test_polygon_area_bit_identical(self, vertices):
        assert polygon_area(vertices).hex() == ref_polygon_area(vertices).hex()


class TestStatedFloatOrder:
    """The IoU and footprint bits of a fixed, seeded set of pairs hash to the
    committed constants on any host.

    README states the float order: footprint corners rotated elementwise with
    no fused multiply-add, and a left-to-right shoelace from the closing
    edge. Neither calls BLAS, so the hashes do not depend on the OpenBLAS
    kernel (run this class with OPENBLAS_CORETYPE set to Prescott, Haswell or
    Sandybridge to see it). Each yaw's cosine and sine come from math.cos and
    math.sin, that is from the platform's libm, so a libm that rounds one of
    them differently fails this test too, as does any change to the order.
    """

    IOU_SHA256 = "ddd7259f1660bb981ced9a0500ca8fdbedab131f0bc188b37df45e516f917082"
    FOOTPRINT_SHA256 = "09e473a6b094f413086cbc00777a16d97610e3ec4acd94a37eecfda196774d06"

    @staticmethod
    def pairs(n=3000, seed=7):
        """n pairs of overlapping or nearby boxes; every 20th pair is two
        footprints of 1 nm to 1 mm sides 1e2 to 1e11 m out, which take the
        reversal check, and their partners shifted by up to a side."""
        rng = random.Random(seed)
        yaw = lambda: rng.uniform(-math.pi, math.pi)  # noqa: E731
        out = []
        for i in range(n):
            if i % 20 == 0:
                r, t = 10.0 ** rng.uniform(2.0, 11.0), rng.uniform(0.0, 2.0 * math.pi)
                dims = (1.0, 10.0 ** rng.uniform(-9.0, -3.0), 10.0 ** rng.uniform(-9.0, -3.0))
                x, z, step = r * math.cos(t), r * math.sin(t), max(dims[1:])
                a = _box(x, 0.0, z, dims, yaw())
                b = _box(x + rng.uniform(-step, step), 0.5, z + rng.uniform(-step, step), dims, yaw())
            else:
                x, y, z = rng.uniform(-40.0, 40.0), rng.uniform(-2.0, 3.0), rng.uniform(0.0, 80.0)
                a = _box(x, y, z, tuple(rng.uniform(0.2, 6.0) for _ in range(3)), yaw())
                b = _box(x + rng.uniform(-3.0, 3.0), y + rng.uniform(-2.0, 2.0), z + rng.uniform(-3.0, 3.0),
                         tuple(rng.uniform(0.2, 6.0) for _ in range(3)), yaw())
            out.append((a, b))
        return out

    def test_bits_match_committed_hashes(self):
        pairs = self.pairs()
        ious = np.array([(iou_bev(a, b), iou_3d(a, b)) for a, b in pairs])
        footprints = np.array([box.corners for pair in pairs for box in pair])
        assert np.count_nonzero(ious[:, 0]) > len(pairs) // 2  # most footprints overlap
        assert hashlib.sha256(ious.tobytes()).hexdigest() == self.IOU_SHA256
        assert hashlib.sha256(footprints.tobytes()).hexdigest() == self.FOOTPRINT_SHA256
        # the two input types polygon_area's callers pass give the same bits
        for pts in footprints[::7]:
            area = polygon_area(pts)
            assert type(area) is float
            assert area.hex() == polygon_area([tuple(p) for p in pts.tolist()]).hex()
        assert type(polygon_area([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])) is float


# Side coordinates of axis-aligned rectangles. Against an edge on 0 (or on
# +-5e-10, 1e-9, 2e-9), a vertex 1e-9 m outside has a side value of exactly
# the on-edge tolerance, -1e-9 times the edge length: 1e-9 is 2 * 5e-10 and
# 2e-9 is 2 * 1e-9 in binary too, so these differences are exact.
_ON_EDGE_COORDS = st.sampled_from(
    [-2.0, -1.0, -2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9, 3e-9, 1.0, 2.0])


@st.composite
def on_edge_rectangles(draw):
    """Two counter-clockwise axis-aligned rectangles whose vertices lie on,
    or exactly the tolerance outside, each other's edges."""
    def rectangle():
        x0, x1 = sorted(draw(st.lists(_ON_EDGE_COORDS, min_size=2, max_size=2, unique=True)))
        z0, z1 = sorted(draw(st.lists(_ON_EDGE_COORDS, min_size=2, max_size=2, unique=True)))
        corners = ((x0, z0), (x1, z0), (x1, z1), (x0, z1))
        k = draw(st.integers(0, 3))  # any vertex may come first
        return corners[k:] + corners[:k]
    return rectangle(), rectangle()


def _box_corner_pairs(pairs):
    return pairs.map(lambda ab: (ab[0].corners, ab[1].corners))


class TestFusedClipMatchesOldClip:
    """geometry._clip_area, one fused loop, gives the bits of the reference
    clip, which clips by one edge per pass as the package once did, both ways
    round."""

    @pytest.mark.parametrize("pairs", [
        pytest.param(_box_corner_pairs(random_pairs()), id="random"),
        pytest.param(_box_corner_pairs(identical_pairs()), id="identical"),
        pytest.param(_box_corner_pairs(near_touching_pairs()), id="near-touching"),
        pytest.param(_box_corner_pairs(near_touching_pairs(_TINY_DIMS, st.floats(0.0, 2e-5))),
                     id="tiny-near-touching"),
        pytest.param(on_edge_rectangles(), id="on-edge"),
    ])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_area_bit_identical(self, pairs, data):
        a, b = data.draw(pairs)
        for p, q in ((a, b), (b, a)):
            assert geometry._clip_area(p, q).hex() == ref_polygon_intersection_area(p, q).hex()

    def test_vertex_exactly_the_tolerance_outside_is_on_the_edge(self):
        # the subject's lower side lies 1e-9 m below the clip's, which is the
        # tolerance exactly, so it counts as on the edge: the overlap is the
        # whole 1 m x (1 m + 1e-9 m) subject
        clip = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))
        subject = ((0.5, -1e-9), (1.5, -1e-9), (1.5, 1.0), (0.5, 1.0))
        area = geometry._clip_area(subject, clip)
        assert area == ref_polygon_intersection_area(subject, clip) == 1.0 + 1e-9

    def test_nanometre_edges_taken_as_parallel(self):
        # a 0.5 nm clip square inside a subject rectangle, against its right
        # side: the cross product of a subject edge and a clip edge that
        # cross sides is below _EDGE_EPS**2, so the clip takes them as
        # parallel and keeps the subject edge's end. Only about 0.6 % of
        # on-edge pairs reach this, too few for 300 draws to be sure of one.
        subject = ((-2.0, -1.0), (-5e-10, -1.0), (-5e-10, 1e-9), (-2.0, 1e-9))
        clip = ((-1e-9, -1e-9), (-5e-10, -1e-9), (-5e-10, -5e-10), (-1e-9, -5e-10))
        area = geometry._clip_area(subject, clip)
        assert area.hex() == ref_polygon_intersection_area(subject, clip).hex()


class TestTinyDisjointFootprints:
    """Disjoint sub-millimetre footprints score 0, as +0.0. The clip's
    on-edge tolerance used to be an absolute cross product, about 1e-9 /
    (edge length) m away from a clip edge: the first two pairs then scored
    1.0 and 0.00015 (the latter in the oracle only). The third pair's
    footprints lie 15.7 um apart with nearly parallel edges; before the
    clip clamped each new vertex to its subject edge, it scored an area of
    1.9e-14 one way round (9.49e-6 IoU in the oracle) and 0.0 the other."""

    @pytest.mark.parametrize("a, b", [
        pytest.param(
            _box(0.0, 0.0, 10.0, (1.5, 0.0002403092732337204, 0.00045423012108116985),
                 -0.02738947744835407),
            _box(-0.00015784051365403423, 0.0, 9.999779086634257,
                 (1.5, 1.763774618976614e-06, 1.2550690257394217e-06), 1.732340106813079),
            id="mm-and-um"),
        pytest.param(
            _box(0.0, 0.0, 0.0, (1.0, 0.00028016891164498646, 0.00024127953234610755),
                 -3.09375),
            _box(-0.00035069903110315895, 0.0, 0.0002794690851981389,
                 (1.0, 0.00020992996522436452, 0.0004400562056860567), 0.0),
            id="sub-mm-near-touching"),
        pytest.param(
            _box(0.0, 0.0, 0.0, (1.0, 1e-5, 1e-4), 0.0),
            _box(0.00011568101344381138, 0.0, 0.0, (1.0, 1e-5, 1e-4), 1.5182257232602467e-05),
            id="near-parallel-edges"),
    ])
    def test_scores_zero(self, a, b):
        zero = (0.0).hex()
        for p, q in ((a, b), (b, a)):
            assert geometry._clip_area(p.corners, q.corners).hex() == zero
            assert iou_bev(p, q).hex() == ref_iou_bev(p, q).hex() == zero
            assert iou_3d(p, q).hex() == ref_iou_3d(p, q).hex() == zero


class TestZeroOverlapShortcut:
    """Pairs that cannot overlap return 0.0 without clipping polygons."""

    @pytest.fixture
    def no_clip(self, monkeypatch):
        def fail(*args):
            raise AssertionError("polygon clip reached")

        monkeypatch.setattr(geometry, "_clip_area", fail)

    @pytest.mark.parametrize("yaw", [0.0, 0.4, -2.0])
    def test_apart_circumcircles_skip_the_clip(self, no_clip, yaw):
        a = make_box(h=1.5, w=1.6, l=3.9, yaw=yaw)
        reach = 2.0 * 0.5 * math.hypot(1.6, 3.9)
        for t in (0.0, 1.0, 2.5):
            b = make_box(x=1.001 * reach * math.cos(t), z=1.001 * reach * math.sin(t), yaw=-yaw)
            assert iou_bev(a, b) == 0.0 and iou_bev(b, a) == 0.0
            assert iou_3d(a, b) == 0.0 and iou_3d(b, a) == 0.0

    def test_vertically_disjoint_skips_the_clip(self, no_clip):
        a = make_box(h=1.5)
        b = make_box(h=1.5, y=-1.5, yaw=0.3)
        assert iou_3d(a, b) == 0.0 and iou_3d(b, a) == 0.0

    @staticmethod
    def assert_untouched(*boxes):
        for box in boxes:
            assert box._corners is None
            assert box._overlaps == {}

    def test_apart_circumcircles_build_nothing(self):
        a = make_box(yaw=0.4)
        b = make_box(x=4.3, yaw=-0.4)
        for p, q in ((a, b), (b, a)):
            assert iou_bev(p, q) == 0.0 and iou_3d(p, q) == 0.0
        self.assert_untouched(a, b)
        for kind in ("bev", "3d"):
            assert iou_matrix([a], [b], kind).tolist() == [[0.0]]
        self.assert_untouched(a, b)

    def test_vertically_disjoint_memoises_nothing(self):
        a = make_box(yaw=0.4)
        b = make_box(x=0.5, y=-1.5, yaw=-0.4)
        assert iou_3d(a, b) == 0.0 and iou_3d(b, a) == 0.0
        self.assert_untouched(a, b)


class TestOverlapMemo:
    """Repeated IoU calls on the same box objects reuse each pair's clip and
    stay bit-exact with the reference oracle."""

    @staticmethod
    def assert_matches_reference(a, b):
        for p, q in ((a, b), (b, a)):
            assert iou_bev(p, q) == ref_iou_bev(p, q)
            assert iou_3d(p, q) == ref_iou_3d(p, q)

    def test_repeated_interleaved_calls(self, rng):
        a = make_box(x=0.3, z=10.0, yaw=0.4)
        others = [
            make_box(x=x, y=y, z=10.0 + dz, h=h, w=w, l=l, yaw=yaw)
            for x, y, dz, h, w, l, yaw in zip(
                rng.uniform(-2, 2, 8), rng.uniform(-1, 1, 8), rng.uniform(-2, 2, 8),
                rng.uniform(0.5, 3, 8), rng.uniform(0.5, 3, 8), rng.uniform(0.5, 6, 8),
                rng.uniform(-math.pi, math.pi, 8),
            )
        ]
        for _ in range(3):
            for b in others:
                self.assert_matches_reference(a, b)
                assert iou_3d(b, a) == ref_iou_3d(b, a)
                assert iou_bev(a, b) == ref_iou_bev(a, b)

    def test_new_box_after_free_misses(self):
        a = make_box(x=0.3, z=10.0, yaw=0.4)
        b = make_box(x=1.0, z=10.5, yaw=-0.2)
        self.assert_matches_reference(a, b)
        del b
        gc.collect()
        for i in range(20):
            c = make_box(x=-0.5 + 0.1 * i, z=9.0, w=1.0, l=2.0 + 0.1 * i, yaw=0.1 * i)
            self.assert_matches_reference(a, c)

    def test_stale_entry_is_ignored(self):
        # an entry whose box is not the one looked up must never be returned
        a = make_box(x=0.3, z=10.0, yaw=0.4)
        b = make_box(x=1.0, z=10.5, yaw=-0.2)
        a._overlaps[id(b)] = (make_box(x=50.0), 123.0)
        self.assert_matches_reference(a, b)
