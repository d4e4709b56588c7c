"""End-to-end acceptance gate. Each test prints one PASS/FAIL line; run
with ``pytest tests/test_acceptance.py -s`` to see the lines live."""

import itertools
import math
import time

import numpy as np
import pytest

from streamperc.feature_flow import compute_flow, warp_pseudo_next
from streamperc.forecast import StreamerTracker, streamer_step
from streamperc.geometry import Box3D, iou_bev
from streamperc.grid_ops import ConvSpec
from streamperc.lkbb import LayerSpec, complexity, lka_chain, lkbb_fuse, receptive_field
from streamperc.metrics import Difficulty, ap_r40, evaluate_pairs, match_frame
from streamperc.motion_loss import mcl, offset_loss, pose_of, pose_offset
from streamperc.streaming_sim import build_schedule, pair_stream

from conftest import make_box, make_gt, textured_grid, translate_grid


def report(number, label, ok):
    print("%s  %d. %s" % ("PASS" if ok else "FAIL", number, label))
    assert ok, "criterion %d failed: %s" % (number, label)


# ---------------------------------------------------------------------------
# 1. Rotated IoU vs Monte Carlo
# ---------------------------------------------------------------------------


def _mc_iou(a, b, rng, n=1_000_000):
    """Monte-Carlo BEV IoU: sample the overlap of the two axis-aligned hulls."""

    def hull(box):
        cx, _, cz = box.center
        _, w, l = box.dims
        r = 0.5 * math.hypot(w, l)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        ex = 0.5 * (abs(l * c) + abs(w * s))
        ez = 0.5 * (abs(l * s) + abs(w * c))
        return cx - ex, cx + ex, cz - ez, cz + ez

    ax0, ax1, az0, az1 = hull(a)
    bx0, bx1, bz0, bz1 = hull(b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    z0, z1 = max(az0, bz0), min(az1, bz1)
    if x0 >= x1 or z0 >= z1:
        return 0.0
    pts_x = rng.uniform(x0, x1, n)
    pts_z = rng.uniform(z0, z1, n)

    def inside(box):
        cx, _, cz = box.center
        _, w, l = box.dims
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx, dz = pts_x - cx, pts_z - cz
        u = c * dx + s * dz
        v = -s * dx + c * dz
        return (np.abs(u) <= l / 2.0) & (np.abs(v) <= w / 2.0)

    inter = ((x1 - x0) * (z1 - z0)) * np.count_nonzero(inside(a) & inside(b)) / n
    union = a.bev_area + b.bev_area - inter
    return inter / union


def test_criterion_1_rotated_iou_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        a = make_box(x=rng.uniform(-1, 1), z=rng.uniform(-1, 1),
                     w=rng.uniform(1, 3), l=rng.uniform(1, 4),
                     yaw=rng.uniform(-math.pi, math.pi))
        b = make_box(x=rng.uniform(-1, 1), z=rng.uniform(-1, 1),
                     w=rng.uniform(1, 3), l=rng.uniform(1, 4),
                     yaw=rng.uniform(-math.pi, math.pi))
        worst = max(worst, abs(iou_bev(a, b) - _mc_iou(a, b, rng)))
    # unit squares rotated 45 degrees about a shared center
    sq = make_box(h=1.0, w=1.0, l=1.0)
    rot = make_box(h=1.0, w=1.0, l=1.0, yaw=math.pi / 4)
    special = iou_bev(sq, rot)
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 and abs(special - 0.7071) <= 1e-4 and elapsed < 30.0
    report(1, "rotated IoU vs Monte Carlo (max err %.1e, 45-deg %.5f, %.1fs)"
           % (worst, special, elapsed), ok)


# ---------------------------------------------------------------------------
# 2. Flow recovery for every integer translation
# ---------------------------------------------------------------------------


def test_criterion_2_flow_translation_recovery():
    t0 = time.perf_counter()
    d = 3
    h = w = 32
    base = textured_grid(h, w, 8, seed=2)
    ok = True
    for dr in range(-d, d + 1):
        for dc in range(-d, d + 1):
            f_t = translate_grid(base, dr, dc)
            flow = compute_flow(f_t, base, d=d, r_d=1)
            r = slice(max(0, dr) + d, min(h, h + dr) - d)
            c = slice(max(0, dc) + d, min(w, w + dc) - d)
            ok &= bool(np.all(flow[r, c, 0] == dr) and np.all(flow[r, c, 1] == dc))
            pseudo = warp_pseudo_next(f_t, flow)
            expected = translate_grid(base, 2 * dr, 2 * dc)
            r2 = slice(max(0, 2 * dr) + d, min(h, h + 2 * dr) - d)
            c2 = slice(max(0, 2 * dc) + d, min(w, w + 2 * dc) - d)
            ok &= bool(np.array_equal(pseudo[r2, c2], expected[r2, c2]))
    # downsampled path: even translations recovered in full-resolution units
    for dr in (-2, 0, 2):
        for dc in (-2, 0, 2):
            f_t = translate_grid(base, dr, dc)
            flow = compute_flow(f_t, base, d=d, r_d=2)
            mid = slice(10, 20)
            ok &= bool(np.all(flow[mid, mid, 0] == dr) and np.all(flow[mid, mid, 1] == dc))
            pseudo = warp_pseudo_next(f_t, flow)
            expected = translate_grid(base, 2 * dr, 2 * dc)
            ok &= bool(np.array_equal(pseudo[mid, mid], expected[mid, mid]))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(2, "flow recovers every translation with max norm 3 (%.1fs)" % elapsed, ok)


# ---------------------------------------------------------------------------
# 3. Motion-loss gradients vs finite differences
# ---------------------------------------------------------------------------


def _near_kink(pred, gt_t, gt_tm1, gt_tm2, margin=1e-3):
    v_p = pose_offset(pose_of(pred), pose_of(gt_t))
    v_g = pose_offset(pose_of(gt_t), pose_of(gt_tm1))
    v_g2 = pose_offset(pose_of(gt_tm1), pose_of(gt_tm2))
    return bool(
        np.any(np.abs(np.abs(v_p - v_g) - 1.0) < margin)
        or np.any(np.abs(np.abs((v_p - v_g) - (v_g - v_g2)) - 1.0) < margin)
    )


def test_criterion_3_motion_loss_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    step = 1e-6
    worst = 0.0
    checked = 0
    while checked < 100:
        vx, vz, vyaw = rng.uniform(-0.7, 0.7, 3)
        boxes = [make_box(x=vx * i, z=10.0 + vz * i, yaw=vyaw * i, track_id=1)
                 for i in range(3)]
        gt_tm2, gt_tm1, gt_t = boxes
        px = gt_t.center[0] + rng.uniform(-1.5, 1.5)
        pz = gt_t.center[2] + rng.uniform(-1.5, 1.5)
        pyaw = gt_t.yaw + rng.uniform(-0.9, 0.9)
        pred = make_box(x=px, z=pz, yaw=pyaw)
        if _near_kink(pred, gt_t, gt_tm1, gt_tm2):
            continue
        _, grad = mcl(pred, gt_t, gt_tm1, gt_tm2)

        def value_at(dx=0.0, dy=0.0, dz=0.0, dyaw=0.0):
            p = make_box(x=px + dx, y=pred.center[1] + dy, z=pz + dz, yaw=pyaw + dyaw)
            return mcl(p, gt_t, gt_tm1, gt_tm2)[0]

        fds = [
            (value_at(dx=step) - value_at(dx=-step)) / (2 * step),
            (value_at(dy=step) - value_at(dy=-step)) / (2 * step),
            (value_at(dz=step) - value_at(dz=-step)) / (2 * step),
            (value_at(dyaw=step) - value_at(dyaw=-step)) / (2 * step),
        ]
        for k in range(4):
            worst = max(worst, abs(grad[k] - fds[k]) / max(abs(fds[k]), 1.0))
        checked += 1
    # tau = 0 collapses to the velocity term alone
    gt_t, gt_tm1, gt_tm2 = (make_box(x=0.4 * i, z=10.0, track_id=1) for i in (2, 1, 0))
    pred = make_box(x=1.7, z=10.3, yaw=0.2)
    v0, _ = mcl(pred, gt_t, gt_tm1, gt_tm2, tau=0.0)
    vel, _ = offset_loss(
        pose_offset(pose_of(pred), pose_of(gt_t)),
        pose_offset(pose_of(gt_t), pose_of(gt_tm1)),
    )
    degenerate_exact = v0 == vel
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and degenerate_exact and elapsed < 5.0
    report(3, "analytic motion-loss gradients (max rel err %.1e, %.1fs)"
           % (worst, elapsed), ok)


# ---------------------------------------------------------------------------
# 4. AP vs exhaustive enumeration
# ---------------------------------------------------------------------------


def _ap_from_records_oracle(records, n_gt):
    """Re-derive AP from first principles: every distinct score is an
    operating point built by re-counting the records above it."""
    if n_gt <= 0:
        return None
    scores = sorted({s for s, _ in records}, reverse=True)
    points = []
    for thr in scores:
        kept = [k for s, k in records if s >= thr]
        tp = kept.count("tp")
        points.append((tp / len(kept), tp / n_gt))
    total = 0.0
    for i in range(1, 41):
        r = i / 40.0
        total += max((p for p, rec in points if rec >= r - 1e-12), default=0.0)
    return total / 40.0


def test_criterion_4_ap_exhaustive():
    ok = True
    # every tp/fp label sequence up to length 6, distinct descending scores
    for length in range(0, 7):
        for labels in itertools.product(("tp", "fp"), repeat=length):
            records = [(0.9 - 0.1 * i, k) for i, k in enumerate(labels)]
            for n_gt in range(1, 5):
                ok &= ap_r40(records, n_gt) == _ap_from_records_oracle(records, n_gt)
    # tied scores enter an operating point together
    for labels in itertools.product(("tp", "fp"), repeat=4):
        records = [(0.5, k) for k in labels[:2]] + [(0.2, k) for k in labels[2:]]
        for n_gt in (2, 4):
            ok &= ap_r40(records, n_gt) == _ap_from_records_oracle(records, n_gt)
    # matched geometry instances: single-pass labels vs per-threshold re-matching
    rng = np.random.default_rng(4)
    for _ in range(60):
        n_gt = int(rng.integers(1, 5))
        gts = [make_gt(track_id=i, x=8.0 * i) for i in range(n_gt)]
        preds = [
            make_box(x=8.0 * rng.integers(0, n_gt) + rng.uniform(-2.5, 2.5),
                     z=10.0, score=round(float(rng.uniform(0.05, 0.95)), 2))
            for _ in range(rng.integers(0, 7))
        ]
        res = match_frame(preds, gts, 0.5, Difficulty.EASY)
        ok &= ap_r40(res.det_records, res.n_in_scope_gt) == _ap_from_records_oracle(
            res.det_records, res.n_in_scope_gt
        )
    hand = ap_r40([(0.9, "tp"), (0.8, "fp")], 2)
    ok &= hand == 0.5
    report(4, "AP-R40 equals exhaustive enumeration (hand case %.3f)" % hand, ok)


# ---------------------------------------------------------------------------
# 5. Stream pairing regimes
# ---------------------------------------------------------------------------


def test_criterion_5_stream_pairing():
    def paired(s):  # the output frame paired with each instant j, or None
        pairs = pair_stream(s, {k: [k] for k in range(len(s.events))}, {})
        return [preds[0] if preds else None for preds, _ in pairs]

    ok = paired(build_schedule(20, 100.0, [80.0] * 20)) == [None] + list(range(19))
    # queueing at latency 150: finish(k) = 150(k+1), staleness grows
    got = paired(build_schedule(20, 100.0, [150.0] * 20))
    for j in range(20):
        expected = (100 * j) // 150 - 1
        ok &= got[j] == (expected if expected >= 0 else None)
    report(5, "stream pairing: fast regime hits frame j-1, slow regime queues", ok)


# ---------------------------------------------------------------------------
# 6. Desk-scale streaming AP on a synthetic scene
# ---------------------------------------------------------------------------

# (x start, x velocity per frame, z lane, detection score); the moving
# cars travel along their 3.9 m length so the association gate (IoU 0.3)
# still links consecutive detections, while the 2 m one-frame offset
# stays far below the 0.7 evaluation threshold
_CARS = [
    (0.0, 0.0, 10.0, 0.9),
    (0.0, 0.0, 20.0, 0.8),
    (-40.0, 2.0, 30.0, 0.7),
    (-40.0, 2.0, 40.0, 0.6),
]
_N_FRAMES = 40


def _scene():
    gt, det = {}, {}
    for f in range(_N_FRAMES):
        gt[f] = [
            make_gt(frame=f, track_id=i, x=x0 + vx * f, z=z)
            for i, (x0, vx, z, _) in enumerate(_CARS)
        ]
        det[f] = [
            Box3D(center=(x0 + vx * f, 0.0, z), dims=(1.5, 1.6, 3.9), yaw=0.0,
                  score=score, class_id=0, track_id=i)
            for i, (x0, vx, z, score) in enumerate(_CARS)
        ]
    return gt, det


def _car_aps(pairs):
    cells = evaluate_pairs(pairs, classes=["Car"], iou_thresholds=[0.7],
                           iou_kinds=["bev"])
    return {c.level: c.ap for c in cells}


def test_criterion_6_desk_scale_streaming_ap():
    gt, det = _scene()
    oracle = _car_aps([(det[j], gt[j]) for j in range(_N_FRAMES)])
    ok = all(ap == 1.0 for ap in oracle.values())
    # one-frame-stale outputs: the 2 m/frame cars never reach IoU 0.7
    stale = _car_aps([(det[max(j - 1, 0)], gt[j]) for j in range(_N_FRAMES)])
    ok &= all(ap == 0.5 for ap in stale.values())
    # Kalman forecasting under an 80 ms detector on the same scene
    tracker = StreamerTracker()
    pairs = []
    done = 0
    for j in range(_N_FRAMES):
        while done < _N_FRAMES and 100.0 * done + 80.0 <= 100.0 * j:
            tracker.step(det[done], 0.1)
            done += 1
        if done == 0:
            pairs.append(([], gt[j]))
        else:
            dt = (100.0 * j - 100.0 * (done - 1)) / 1000.0
            pairs.append((tracker.forecast(dt), gt[j]))
    streamer = _car_aps(pairs)
    ok &= all(ap > 0.9 for ap in streamer.values())
    report(6, "synthetic scene: oracle %.2f, stale %.2f, forecaster %.3f"
           % (oracle["easy"], stale["easy"], streamer["easy"]), ok)


# ---------------------------------------------------------------------------
# 7. Backbone structure and complexity accounting
# ---------------------------------------------------------------------------


def test_criterion_7_backbone_structure():
    rng = np.random.default_rng(9)
    ok = True
    for (hh, ww, cc) in ((16, 16, 8), (32, 32, 12)):
        f1 = rng.standard_normal((hh // 2, ww // 2, 2 * cc))
        f2 = rng.standard_normal((hh // 4, ww // 4, 2 * cc))
        w_a = ConvSpec(2 * cc, 2 * cc, (2, 2), stride=2, transpose=True,
                       weights=rng.standard_normal((2 * cc, 2 * cc, 2, 2)))
        w_b = ConvSpec(2 * cc, cc, (2, 2), stride=2, transpose=True,
                       weights=rng.standard_normal((cc, 2 * cc, 2, 2)))
        ok &= lkbb_fuse(f1, f2, w_a, w_b).shape == (hh, ww, cc)
    rf, jump = receptive_field(lka_chain(32))
    ok &= rf == 23 and jump == 1.0
    c = 8
    dw = [LayerSpec("dwconv", (5, 5), in_channels=c, out_channels=c, bias=True)]
    ok &= complexity(dw, (16, 16)).params == 26 * c
    pw = [LayerSpec("conv", (1, 1), in_channels=c, out_channels=c, bias=True)]
    ok &= complexity(pw, (16, 16)).params == c * c + c
    ok &= complexity(
        [LayerSpec("conv", (1, 1), in_channels=c, out_channels=c)], (16, 16)
    ).flops == 2 * 16 * 16 * c * c
    # published full-network totals depend on an unavailable configuration
    # and are deliberately not checked here
    report(7, "fusion shape contract, attention RF 23, exact param/FLOP counts", ok)


# ---------------------------------------------------------------------------
# 8. Kalman convergence on a noise-free target
# ---------------------------------------------------------------------------


def test_criterion_8_kalman_convergence():
    tracks = []
    psd = True
    for k in range(3):
        tracks = streamer_step(tracks, [make_box(x=2.0 * k, z=10.0, score=0.9)],
                               0.1)
        for t in tracks:
            psd &= bool(np.linalg.eigvalsh(t.covariance).min() >= -1e-9)
    from streamperc.forecast import forecast_boxes

    box = forecast_boxes(tracks, 0.1)[0]
    err = abs(box.center[0] - 6.0)
    ok = err <= 1e-6 and psd
    report(8, "noise-free forecast error %.1e after 3 updates, covariance PSD"
           % err, ok)
