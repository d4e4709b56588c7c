import math

import numpy as np
import pytest

from streamperc.motion_loss import (
    batch_mcl,
    match_pred_to_gt,
    mcl,
    offset_loss,
    pose_offset,
    smooth_l1,
    total_loss,
)

from conftest import make_box


def offset(*vals):
    return np.array(vals, dtype=float)


class TestSmoothL1:
    def test_zero(self):
        assert smooth_l1(0.0) == (0.0, 0.0)

    def test_quadratic_region(self):
        v, d = smooth_l1(0.5)
        assert v == pytest.approx(0.125)
        assert d == pytest.approx(0.5)

    def test_linear_region(self):
        v, d = smooth_l1(2.0)
        assert v == pytest.approx(1.5)
        assert d == 1.0

    def test_negative_linear(self):
        v, d = smooth_l1(-2.0)
        assert v == pytest.approx(1.5)
        assert d == -1.0

    def test_beta_scaling(self):
        v, d = smooth_l1(0.5, beta=2.0)
        assert v == pytest.approx(0.0625)
        assert d == pytest.approx(0.25)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            smooth_l1(1.0, beta=0.0)


class TestPoseOffset:
    def test_identity(self):
        o = pose_offset((1, 2, 3, 0.5), (1, 2, 3, 0.5))
        assert o.tolist() == [0, 0, 0, 0]

    def test_quarter_turn(self):
        o = pose_offset((0, 0, 0, math.pi / 2), (0, 0, 0, 0.0))
        assert o[3] == pytest.approx(1.0)

    def test_components(self):
        o = pose_offset((1, 0, -2, 0.0), (0, 0, 0, 0.0))
        assert o.shape == (4,)
        assert o.tolist() == [1.0, 0.0, -2.0, 0.0]


class TestMatchPredToGt:
    def test_identity_pairing(self):
        boxes = [make_box(x=5.0 * i) for i in range(3)]
        assert match_pred_to_gt(boxes, boxes) == [(0, 0), (1, 1), (2, 2)]

    def test_argmax_choice(self):
        gt_a = make_box(x=0.0)
        gt_b = make_box(x=3.0)
        pred = make_box(x=0.5)
        pairs = match_pred_to_gt([pred], [gt_a, gt_b])
        assert pairs == [(0, 0)]

    def test_zero_iou_dropped(self):
        assert match_pred_to_gt([make_box(x=0.0)], [make_box(x=100.0)]) == []


class TestVelocityLoss:
    def test_zero(self):
        v, g = offset_loss(offset(1, 2, 3, 0.5), offset(1, 2, 3, 0.5))
        assert v == 0.0
        assert np.array_equal(g, np.zeros(4))

    def test_quadratic_value(self):
        v, _ = offset_loss(offset(0.2, 0, 0, 0), offset(0, 0, 0, 0))
        assert v == pytest.approx(0.02)

    def test_linear_value(self):
        v, g = offset_loss(offset(2, 0, 0, 0), offset(0, 0, 0, 0))
        assert v == pytest.approx(1.5)
        assert g[0] == 1.0


class TestAccelerationLoss:
    def test_constant_velocity_zero(self):
        v, _ = offset_loss(offset(0, 0, 0, 0), offset(0, 0, 0, 0))
        assert v == 0.0

    def test_small_residual(self):
        v, _ = offset_loss(offset(0.1, 0.1, 0, 0), offset(0, 0, 0, 0))
        assert v == pytest.approx(0.01)

    def test_gradient_finite_difference(self, rng):
        h = 1e-6
        for _ in range(20):
            a = rng.uniform(-0.8, 0.8, 4)
            b = rng.uniform(-0.8, 0.8, 4)
            _, grad = offset_loss(offset(*a), offset(*b))
            for k in range(4):
                ap = a.copy(); ap[k] += h
                am = a.copy(); am[k] -= h
                fd = (offset_loss(offset(*ap), offset(*b))[0]
                      - offset_loss(offset(*am), offset(*b))[0]) / (2 * h)
                assert grad[k] == pytest.approx(fd, abs=1e-6)


def track_chain(track_id=7, vx=0.0, vz=0.0, vyaw=0.0, x0=0.0, z0=10.0, yaw0=0.0):
    """Three GT frames (t-2, t-1, t) of a constant-velocity track."""
    boxes = []
    for i in range(3):
        boxes.append(
            make_box(x=x0 + vx * i, z=z0 + vz * i, yaw=yaw0 + vyaw * i,
                     track_id=track_id)
        )
    return boxes[2], boxes[1], boxes[0]  # gt_t, gt_tm1, gt_tm2


class TestMcl:
    def test_stationary_zero(self):
        gt_t, gt_tm1, gt_tm2 = track_chain()
        pred = make_box(z=10.0, track_id=None)
        value, grad = mcl(pred, gt_t, gt_tm1, gt_tm2)
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(4))

    def test_perfect_extrapolation_zero(self):
        gt_t, gt_tm1, gt_tm2 = track_chain(vx=1.0)
        pred = make_box(x=gt_t.center[0] + 1.0, z=10.0)
        value, _ = mcl(pred, gt_t, gt_tm1, gt_tm2)
        assert value == 0.0

    def test_tau_zero_is_velocity_only(self):
        gt_t, gt_tm1, gt_tm2 = track_chain(vx=0.4, vyaw=0.1)
        pred = make_box(x=gt_t.center[0] + 0.9, z=10.3, yaw=0.5)
        v0, g0 = mcl(pred, gt_t, gt_tm1, gt_tm2, tau=0.0)
        vel, _ = offset_loss(
            pose_offset((pred.center[0], pred.center[1], pred.center[2], pred.yaw),
                        (gt_t.center[0], gt_t.center[1], gt_t.center[2], gt_t.yaw)),
            pose_offset((gt_t.center[0], gt_t.center[1], gt_t.center[2], gt_t.yaw),
                        (gt_tm1.center[0], gt_tm1.center[1], gt_tm1.center[2], gt_tm1.yaw)),
        )
        assert v0 == pytest.approx(vel, abs=1e-15)

    def test_tau_linearity(self):
        gt_t, gt_tm1, gt_tm2 = track_chain(vx=0.4, vz=-0.3)
        pred = make_box(x=1.7, z=9.4, yaw=0.2)
        v0, _ = mcl(pred, gt_t, gt_tm1, gt_tm2, tau=0.0)
        v1, _ = mcl(pred, gt_t, gt_tm1, gt_tm2, tau=1.0)
        vh, _ = mcl(pred, gt_t, gt_tm1, gt_tm2, tau=0.8)
        assert vh == pytest.approx(v0 + 0.8 * (v1 - v0), abs=1e-12)

    def test_translation_invariance(self):
        gt_t, gt_tm1, gt_tm2 = track_chain(vx=0.5, vyaw=0.05)
        pred = make_box(x=2.0, z=10.6, yaw=0.3)
        base, _ = mcl(pred, gt_t, gt_tm1, gt_tm2)
        shift = (3.1, -4.2, 7.7)

        def moved(b):
            x, y, z = b.center
            return make_box(x=x + shift[0], y=y + shift[1], z=z + shift[2],
                            yaw=b.yaw, track_id=b.track_id)

        shifted, _ = mcl(moved(pred), moved(gt_t), moved(gt_tm1), moved(gt_tm2))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_track_id_mismatch(self):
        gt_t, gt_tm1, gt_tm2 = track_chain()
        bad = make_box(track_id=99)
        with pytest.raises(ValueError):
            mcl(make_box(), gt_t, gt_tm1, bad)

    def test_gradient_finite_difference(self, rng):
        h = 1e-6
        checked = 0
        while checked < 100:
            vx, vz, vyaw = rng.uniform(-0.7, 0.7, 3)
            gt_t, gt_tm1, gt_tm2 = track_chain(vx=vx, vz=vz, vyaw=vyaw,
                                               x0=rng.uniform(-3, 3))
            px = gt_t.center[0] + rng.uniform(-1.5, 1.5)
            pz = gt_t.center[2] + rng.uniform(-1.5, 1.5)
            pyaw = gt_t.yaw + rng.uniform(-0.9, 0.9)
            pred = make_box(x=px, z=pz, yaw=pyaw)
            value, grad = mcl(pred, gt_t, gt_tm1, gt_tm2)

            def value_at(dx=0.0, dy=0.0, dz=0.0, dyaw=0.0):
                p = make_box(x=px + dx, y=pred.center[1] + dy, z=pz + dz,
                             yaw=pyaw + dyaw)
                return mcl(p, gt_t, gt_tm1, gt_tm2)[0]

            fds = [
                (value_at(dx=h) - value_at(dx=-h)) / (2 * h),
                (value_at(dy=h) - value_at(dy=-h)) / (2 * h),
                (value_at(dz=h) - value_at(dz=-h)) / (2 * h),
                (value_at(dyaw=h) - value_at(dyaw=-h)) / (2 * h),
            ]
            # skip configurations near a smooth-L1 kink
            if _near_kink(pred, gt_t, gt_tm1, gt_tm2):
                continue
            for k in range(4):
                denom = max(abs(fds[k]), 1.0)
                assert abs(grad[k] - fds[k]) / denom <= 1e-5
            checked += 1


def _near_kink(pred, gt_t, gt_tm1, gt_tm2, margin=1e-3):
    from streamperc.motion_loss import pose_of

    v_p = pose_offset(pose_of(pred), pose_of(gt_t))
    v_g = pose_offset(pose_of(gt_t), pose_of(gt_tm1))
    v_g2 = pose_offset(pose_of(gt_tm1), pose_of(gt_tm2))
    res_v = v_p - v_g
    res_a = (v_p - v_g) - (v_g - v_g2)
    return bool(
        np.any(np.abs(np.abs(res_v) - 1.0) < margin)
        or np.any(np.abs(np.abs(res_a) - 1.0) < margin)
    )


class TestTotalLoss:
    def test_no_mcl(self):
        assert total_loss(3.0, 0.0, n_pos=3) == pytest.approx(1.0)

    def test_combination(self):
        assert total_loss(1.0, 2.0, lam=0.5, n_pos=1) == pytest.approx(2.0)

    def test_n_pos_scaling(self):
        assert total_loss(1.0, 2.0, n_pos=4) == pytest.approx(total_loss(1.0, 2.0, n_pos=1) / 4)

    def test_zero_positives(self):
        with pytest.raises(ValueError):
            total_loss(1.0, 1.0, n_pos=0)


class TestBatchMcl:
    def test_stationary_tracks_zero(self):
        gts = [make_box(x=4.0 * i, track_id=i) for i in range(3)]
        per_object, mean = batch_mcl(gts, gts, gts, gts)
        assert len(per_object) == 3
        assert mean == 0.0

    def test_new_track_skips_acceleration(self):
        gt_t = [make_box(track_id=1)]
        gt_tm1 = [make_box(track_id=1)]
        per_object, _ = batch_mcl(gt_t, gt_t, gt_tm1, [])
        assert len(per_object) == 1
        assert per_object[0]["has_acceleration_term"] is False

    def test_track_without_history_skipped(self):
        gt_t = [make_box(track_id=1)]
        per_object, mean = batch_mcl(gt_t, gt_t, [], [])
        assert per_object == []
        assert mean == 0.0

    @pytest.mark.parametrize("frame", [0, 1, 2])
    @pytest.mark.parametrize("order", [(-1.0, -5.0), (-5.0, -1.0)])
    def test_repeated_track_id_rejected(self, frame, order):
        # the chain is linked by track id: the last of two rows used to win,
        # so the loss depended on the order of the rows
        chain = [[make_box(x=0.0, track_id=0)], [make_box(x=-2.0, track_id=0)],
                 [make_box(x=-4.0, track_id=0)]]
        chain[frame] = [make_box(x=x, track_id=0) for x in order] + [make_box(x=9.0, track_id=3)]
        with pytest.raises(ValueError, match=r"ground truth at %s repeats track id 0$"
                           % ("t", "t-1", "t-2")[frame]):
            batch_mcl([make_box(x=2.0)], *chain)

    @pytest.mark.parametrize("opts", [
        dict(tau=float("nan")), dict(tau=math.inf), dict(tau=-1.0),
        dict(beta=float("nan")), dict(beta=math.inf), dict(beta=0.0),
        dict(iou_kind="xyz"),
    ])
    def test_bad_option_rejected_with_no_match(self, opts):
        # checked at entry: no object reaches mcl or smooth_l1 here
        with pytest.raises(ValueError):
            batch_mcl([], [], [], [], **opts)
