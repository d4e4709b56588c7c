"""Oriented 3D box geometry: BEV footprints, rotated IoU, IoU matrices.

Boxes live in the camera frame (x right, y down, z forward). The BEV plane
is (x, z); yaw rotates the l x w footprint about the vertical (y) axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

# On-edge classification tolerance (m) for polygon clipping: a vertex at most
# this far outside a clip edge counts as on it.
_EDGE_EPS = 1e-9
# Footprints smaller than this are treated as degenerate (IoU 0).
_DEGENERATE_AREA = 1e-12
# Absolute margin (m) of the zero-overlap prefilter, far above _EDGE_EPS and
# the rounding error of corner coordinates.
_PREFILTER_GAP = 1e-6
# Box dims (m) must lie below this. w*l and h*w*l overflow to inf for dims
# near 1e103, and the union of two such boxes is then inf - inf = nan; any
# bound up to about 1e100 keeps every area, volume and union finite.
MAX_DIM = 1e6


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (x, y, z), dims (h, w, l), yaw about vertical.

    y is the *bottom* center per KITTI convention; the box spans [y-h, y]
    vertically. Boxes are immutable: the scalars every IoU reads are set at
    construction, the BEV footprint on first use or by fill_corners (a
    batch of boxes at once), and the clipped intersection with each other
    box on first use; all are kept on the box.
    """

    center: tuple  # (x, y, z) meters
    dims: tuple  # (h, w, l) meters
    yaw: float  # radians, (-pi, pi]
    score: float = 0.0
    class_id: int = 0
    track_id: Optional[int] = None

    def __post_init__(self):
        h, w, l = self.dims
        inf = math.inf  # chained comparisons, each False for NaN
        if not (0 < h < MAX_DIM and 0 < w < MAX_DIM and 0 < l < MAX_DIM):
            raise ValueError("box dims must be positive and below %g m, got %r" % (MAX_DIM, self.dims))
        x, y, z = self.center
        if not (-inf < x < inf and -inf < y < inf and -inf < z < inf and -inf < self.yaw < inf):
            raise ValueError("box center and yaw must be finite, got %r, %r" % (self.center, self.yaw))
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))
        # Plain attributes, not fields (so not in ==, repr or hash), set here:
        # on CPython 3.11 an attribute added after the instance dict exists
        # costs about 300 bytes more per box.
        object.__setattr__(self, "bev_area", w * l)
        object.__setattr__(self, "volume", h * w * l)
        object.__setattr__(self, "bev_diagonal", math.hypot(w, l))
        # id(b) -> (b, area of this footprint clipped by b's)
        object.__setattr__(self, "_overlaps", {})

    def __getattr__(self, name):
        # Reached only for an attribute the box lacks. Box3D.corners, the
        # bev_corners rows as a tuple of (x, z) float pairs, is built here
        # on first use unless fill_corners built it before.
        if name != "corners":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        fill_corners((self,))
        return object.__getattribute__(self, "corners")


def bev_corners(box: Box3D) -> np.ndarray:
    """Return the 4 BEV footprint corners (x, z), counter-clockwise: the
    one-box case of bev_footprints."""
    return bev_footprints((box,))[0]


# Local corners (forward, left) in CCW order: (l, w) times these is
# (+-l/2, +-w/2) exactly.
_HALF_SIGNS = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])


def bev_footprints(boxes: Sequence[Box3D]) -> np.ndarray:
    """BEV footprint corners (x, z) of each box, counter-clockwise, shape (N, 4, 2).

    Box i's footprint is l (along heading) by w, rotated by yaw about its
    centre. One stacked ``local @ rot.T`` product and one translation add
    make the same IEEE operations on the same operands as a product per box.
    Corners whose shoelace is negative are reversed. Only rounding makes it
    negative: with u = 2**-53 and M = max(|cx|, |cz|) + l + w >= every
    |coordinate|, each coordinate is within 2uM of the exact rotation of the
    footprint (area >= l*w*(1 - 4u)), which moves the shoelace by at most
    4(l + w) * 2uM <= 8uM*M; evaluating it (two 4-term dot products of terms
    <= M*M) adds at most 20uM*M. So it is positive once l*w > 30uM*M, about
    3.3e-15 * M*M, and is evaluated only where l*w <= 1e-9 * (1 + M*M). The
    1 keeps tiny footprints, where subnormals void relative error bounds, on
    the test; an overflowing M*M is inf and skips nothing.
    """
    rows, check = [], []
    for i, b in enumerate(boxes):
        cx, _, cz = b.center
        _, w, l = b.dims
        c, s = math.cos(b.yaw), math.sin(b.yaw)
        m = max(abs(cx), abs(cz)) + l + w
        if not l * w > 1e-9 * (1.0 + m * m):
            check.append(i)
        rows += (c, -s, s, c, l, w, cx, cz)  # one flat list: numpy reads it faster
    f = np.array(rows, dtype=float).reshape(-1, 8)
    rot = f[:, :4].reshape(-1, 2, 2)
    pts = (f[:, None, 4:6] * _HALF_SIGNS) @ rot.transpose(0, 2, 1)
    pts += f[:, None, 6:8]
    for i in check:
        if polygon_area(pts[i]) < 0:
            pts[i] = pts[i, ::-1].copy()
    return pts


def fill_corners(boxes: Iterable[Box3D]) -> None:
    """Set Box3D.corners on each box that lacks it, from one bev_footprints
    batch.

    object.__getattribute__ skips Box3D.__getattr__, which would build the
    corners. Reading or writing vars(box) instead would give each box an
    instance dict, 64 bytes more.
    """
    todo = []
    for b in boxes:
        try:
            object.__getattribute__(b, "corners")
        except AttributeError:
            todo.append(b)
    if todo:
        for b, pts in zip(todo, bev_footprints(todo).tolist()):
            object.__setattr__(b, "corners", tuple(map(tuple, pts)))


def polygon_area(vertices: np.ndarray) -> float:
    """Signed shoelace area; positive for counter-clockwise order."""
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return 0.0
    nxt = np.concatenate((v[1:], v[:1]))
    return 0.5 * float(np.dot(v[:, 0], nxt[:, 1]) - np.dot(v[:, 1], nxt[:, 0]))


def _clip_polygon(subject, cp1, cp2):
    """Clip a polygon against the half-plane left of the edge cp1->cp2.

    Points are (x, z) pairs of Python floats. A side value is the vertex's
    signed distance from the edge times the edge length, so the tolerance
    scales with the edge length too.
    """
    ex, ez = cp2[0] - cp1[0], cp2[1] - cp1[1]
    sides = [ex * (p[1] - cp1[1]) - ez * (p[0] - cp1[0]) for p in subject]
    tol = -_EDGE_EPS * math.hypot(ex, ez)
    out = []
    for i, cur in enumerate(subject):
        prev = subject[i - 1]
        sc, sp = sides[i], sides[i - 1]
        if sc >= tol:
            if sp < tol:
                out.append(_intersect(prev, cur, cp1, cp2))
            out.append(cur)
        elif sp >= tol:
            out.append(_intersect(prev, cur, cp1, cp2))
    return out


def _intersect(p1, p2, q1, q2):
    """Point where line q1-q2 crosses segment p1-p2, clamped to the segment:
    the lines of nearly parallel edges can meet far outside it."""
    dpx, dpz = p2[0] - p1[0], p2[1] - p1[1]
    dqx, dqz = q2[0] - q1[0], q2[1] - q1[1]
    denom = dpx * dqz - dpz * dqx
    if abs(denom) < _EDGE_EPS * _EDGE_EPS:
        return (p2[0], p2[1])
    t = min(max(((q1[0] - p1[0]) * dqz - (q1[1] - p1[1]) * dqx) / denom, 0.0), 1.0)
    return (p1[0] + t * dpx, p1[1] + t * dpz)


def _clip_area(poly: Sequence, clip: Sequence) -> float:
    """Intersection area of two convex counter-clockwise polygons given as
    sequences of (x, z) float pairs, each with at least 3 vertices."""
    for i in range(len(clip)):
        if len(poly) < 3:
            return 0.0
        poly = _clip_polygon(poly, clip[i - 1], clip[i])
    if len(poly) < 3:
        return 0.0
    return abs(polygon_area(np.asarray(poly)))


def _circles_apart(a: Box3D, b: Box3D) -> bool:
    """Whether the footprints' circumscribed circles lie more than _PREFILTER_GAP
    apart (over the clip's on-edge tolerance, so the clip would give 0.0 too).
    The IoUs run it after the degenerate-area test, before all other work."""
    reach = 0.5 * (a.bev_diagonal + b.bev_diagonal) + _PREFILTER_GAP
    dx, dz = a.center[0] - b.center[0], a.center[2] - b.center[2]
    return dx * dx + dz * dz > reach * reach


def _bev_intersection(a: Box3D, b: Box3D) -> float:
    """BEV footprint intersection area of a clipped by b.

    Each pair is clipped once: the area is kept on a together with b itself,
    so b's id cannot be reused while the entry lives. The key is ordered,
    because clipping b by a can differ in the last bit.
    """
    entry = a._overlaps.get(id(b))
    if entry is not None and entry[0] is b:
        return entry[1]
    area = _clip_area(a.corners, b.corners)
    a._overlaps[id(b)] = (b, area)
    return area


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Rotated IoU of the BEV footprints."""
    area_a, area_b = a.bev_area, b.bev_area
    if area_a < _DEGENERATE_AREA or area_b < _DEGENERATE_AREA or _circles_apart(a, b):
        return 0.0
    inter = _bev_intersection(a, b)
    if inter == 0.0 or (union := area_a + area_b - inter) <= _DEGENERATE_AREA:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Rotated 3D IoU: BEV intersection x vertical overlap over volume union.

    The vertical extent is [y - h, y]: y is the bottom-center coordinate.
    """
    if a.bev_area < _DEGENERATE_AREA or b.bev_area < _DEGENERATE_AREA or _circles_apart(a, b):
        return 0.0
    # min(bottoms) - max(tops) by plain comparisons, which cost less than the builtins
    ya_bot, yb_bot = a.center[1], b.center[1]
    ya_top, yb_top = ya_bot - a.dims[0], yb_bot - b.dims[0]
    overlap = (yb_bot if yb_bot < ya_bot else ya_bot) - (yb_top if yb_top > ya_top else ya_top)
    if overlap <= 0.0 or (inter := _bev_intersection(a, b)) == 0.0:
        return 0.0
    inter *= overlap
    if (union := a.volume + b.volume - inter) <= _DEGENERATE_AREA:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def iou_matrix(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D], kind: str = "bev") -> np.ndarray:
    """Pairwise IoU matrix, shape (len(boxes_a), len(boxes_b))."""
    if kind == "bev":
        fn = iou_bev
    elif kind == "3d":
        fn = iou_3d
    else:
        raise ValueError("kind must be 'bev' or '3d', got %r" % kind)
    fill_corners([*boxes_a, *boxes_b])
    out = np.zeros((len(boxes_a), len(boxes_b)))
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            out[i, j] = fn(a, b)
    return out
