"""Oriented 3D box geometry: BEV footprints, rotated IoU, IoU matrices.

Boxes live in the camera frame (x right, y down, z forward). The BEV plane
is (x, z); yaw rotates the l x w footprint about the vertical (y) axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
    construction, the BEV footprint on first read of corners (the box's
    first clip), and the clipped intersection with each other box on first
    use; all are kept on the box.
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
        object.__setattr__(self, "_corners", None)  # set by the corners property
        # id(b) -> (b, area of this footprint clipped by b's)
        object.__setattr__(self, "_overlaps", {})

    @property
    def corners(self) -> tuple:
        """The bev_corners rows as a tuple of (x, z) float pairs, built by
        _footprint on first read."""
        if self._corners is None:
            object.__setattr__(self, "_corners", _footprint(self))
        return self._corners


def bev_corners(box: Box3D) -> np.ndarray:
    """Return the 4 BEV footprint corners (x, z), counter-clockwise: the
    one-box case of bev_footprints."""
    return bev_footprints((box,))[0]


def bev_footprints(boxes: Sequence[Box3D]) -> np.ndarray:
    """BEV footprint corners (x, z) of each box, counter-clockwise, shape
    (N, 4, 2): the boxes' Box3D.corners, stacked."""
    return np.array([b.corners for b in boxes], dtype=float).reshape(-1, 4, 2)


def _footprint(box: Box3D) -> tuple:
    """Box3D.corners' value: the four BEV footprint corners (x, z) of box,
    counter-clockwise, as a tuple of float pairs.

    The footprint is l (along heading) by w, rotated by yaw about its
    centre: local corner (a, b) = (+-l/2, +-w/2) goes to (a*c - b*s + cx,
    a*s + b*c + cz), c = cos(yaw), s = sin(yaw), in Python floats, so each
    operation is rounded on its own (no fused multiply-add). Corners whose
    shoelace is negative are reversed. Only rounding makes it negative: with
    u = 2**-53 and M = max(|cx|, |cz|) + l + w >= every |coordinate|, each
    coordinate is within 2uM of the exact rotation of the footprint (area >=
    l*w*(1 - 4u)), which moves the shoelace by at most 4(l + w) * 2uM <=
    8uM*M; evaluating it (4 terms within 4uM*M each, added into partial sums
    of at most 4, 6 and 8 M*M, then halved) adds at most 18uM*M. So it is
    positive once l*w > 27uM*M, about 3.0e-15 * M*M, and is evaluated only
    where l*w <= 1e-9 * (1 + M*M). The 1 keeps tiny footprints, where
    subnormals void relative error bounds, on the test; an overflowing M*M
    is inf and skips nothing.
    """
    cx, _, cz = box.center
    _, w, l = box.dims
    c, s, hl, hw = math.cos(box.yaw), math.sin(box.yaw), 0.5 * l, 0.5 * w
    pts = tuple([(a * c - b * s + cx, a * s + b * c + cz)
                 for a, b in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))])  # (forward, left), CCW
    m = max(abs(cx), abs(cz)) + l + w
    if not l * w > 1e-9 * (1.0 + m * m) and polygon_area(pts) < 0:
        pts = pts[::-1]
    return pts


def polygon_area(vertices: Sequence) -> float:
    """Signed shoelace area of an (n, 2) array or a list of (x, z) pairs,
    positive for counter-clockwise order: px*cz - pz*cx summed left to right
    over the edges (px, pz) -> (cx, cz), from the closing one (last to first)."""
    if len(vertices) < 3:
        return 0.0
    s = 0.0
    px, pz = vertices[-1]
    for cx, cz in vertices:
        s += px * cz - pz * cx
        px, pz = cx, cz
    return float(0.5 * s)


def _clip_area(poly: Sequence, clip: Sequence) -> float:
    """Intersection area of two convex counter-clockwise polygons given as
    sequences of (x, z) float pairs, each with at least 3 vertices.

    poly is clipped by the half-plane left of each edge of clip in turn. A
    side value is a vertex's signed distance from the edge times the edge
    length, as is the on-edge tolerance. A new vertex, where the edge's line
    crosses a subject edge, is clamped to that edge, since nearly parallel
    lines can meet far outside it. The area is polygon_area's, in its order.
    """
    x1, z1 = clip[-1]
    for x2, z2 in clip:
        if len(poly) < 3:
            return 0.0
        ex, ez = x2 - x1, z2 - z1
        tol = -_EDGE_EPS * math.hypot(ex, ez)
        out = []
        px, pz = poly[-1]
        sp = ex * (pz - z1) - ez * (px - x1)
        for cx, cz in poly:
            sc = ex * (cz - z1) - ez * (cx - x1)
            if (sc >= tol) != (sp >= tol):  # the subject edge (px, pz) -> (cx, cz) crosses
                dpx, dpz = cx - px, cz - pz
                denom = dpx * ez - dpz * ex
                if abs(denom) < _EDGE_EPS * _EDGE_EPS:  # parallel edges
                    out.append((cx, cz))
                else:
                    t = ((x1 - px) * ez - (z1 - pz) * ex) / denom
                    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t  # as min(max(t, 0.0), 1.0)
                    out.append((px + t * dpx, pz + t * dpz))
            if sc >= tol:
                out.append((cx, cz))
            px, pz, sp = cx, cz, sc
        poly, x1, z1 = out, x2, z2
    if len(poly) < 3:
        return 0.0
    return abs(polygon_area(poly))


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
    if area_a < _DEGENERATE_AREA or area_b < _DEGENERATE_AREA:
        return 0.0
    # Footprints whose circumscribed circles lie more than _PREFILTER_GAP apart
    # (over the clip's on-edge tolerance, so the clip would give 0.0 too).
    reach = 0.5 * (a.bev_diagonal + b.bev_diagonal) + _PREFILTER_GAP
    dx, dz = a.center[0] - b.center[0], a.center[2] - b.center[2]
    if dx * dx + dz * dz > reach * reach:
        return 0.0
    inter = _bev_intersection(a, b)
    if inter == 0.0 or (union := area_a + area_b - inter) <= _DEGENERATE_AREA:
        return 0.0
    return 0.0 if (v := inter / union) < 0.0 else 1.0 if v > 1.0 else v  # as min(max(v, 0.0), 1.0)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Rotated 3D IoU: BEV intersection x vertical overlap over volume union.

    The vertical extent is [y - h, y]: y is the bottom-center coordinate.
    """
    if a.bev_area < _DEGENERATE_AREA or b.bev_area < _DEGENERATE_AREA:
        return 0.0
    reach = 0.5 * (a.bev_diagonal + b.bev_diagonal) + _PREFILTER_GAP  # as in iou_bev
    dx, dz = a.center[0] - b.center[0], a.center[2] - b.center[2]
    if dx * dx + dz * dz > reach * reach:
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
    return 0.0 if (v := inter / union) < 0.0 else 1.0 if v > 1.0 else v  # as in iou_bev


def iou_matrix(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D], kind: str = "bev") -> np.ndarray:
    """Pairwise IoU matrix, shape (len(boxes_a), len(boxes_b))."""
    if kind == "bev":
        fn = iou_bev
    elif kind == "3d":
        fn = iou_3d
    else:
        raise ValueError("kind must be 'bev' or '3d', got %r" % kind)
    out = np.zeros((len(boxes_a), len(boxes_b)))
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            out[i, j] = fn(a, b)
    return out
