import tracemalloc

import numpy as np
import pytest

from streamperc.feature_flow import (
    argmax_flow,
    compute_flow,
    fuse,
    shift_set,
    similarity_volume,
    warp_pseudo_next,
)
from streamperc.grid_ops import ConvSpec, conv2d

from conftest import textured_grid, translate_grid


def brute_force_flow(f_t, f_tm1, d):
    """Exhaustive per-pixel matching oracle, independent of the volume path."""
    h, w, _ = f_t.shape
    flow = np.zeros((h, w, 2))
    for u in range(h):
        for v in range(w):
            cur = f_t[u, v]
            best = (-np.inf, None)
            for us in range(-d, d + 1):
                for vs in range(-d, d + 1):
                    ru, rv = u + us, v + vs
                    if not (0 <= ru < h and 0 <= rv < w):
                        continue
                    prev = f_tm1[ru, rv]
                    na, nb = np.linalg.norm(cur), np.linalg.norm(prev)
                    sim = 0.0 if na == 0 or nb == 0 else float(cur @ prev) / (na * nb)
                    key = (sim, -(max(abs(us), abs(vs))), -us, -vs)
                    if best[1] is None or key > best[1]:
                        best = ((us, vs), key)
            flow[u, v] = (-best[0][0], -best[0][1])
    return flow


class TestShiftSet:
    def test_d0(self):
        assert shift_set(0).tolist() == [[0, 0]]

    def test_d1_count(self):
        assert shift_set(1).shape == (9, 2)

    def test_d3_count_and_order(self):
        s = shift_set(3)
        assert s.shape == (49, 2)
        assert s.dtype.kind == "i"
        assert s.tolist() == sorted(s.tolist())
        assert np.all(np.abs(s) <= 3)

    def test_negative_d(self):
        with pytest.raises(ValueError):
            shift_set(-1)


class TestSimilarityVolume:
    def test_self_similarity_zero_shift(self):
        g = textured_grid(5, 5, 4)
        s = shift_set(1)
        vol = similarity_volume(g, g, s)
        k0 = s.tolist().index([0, 0])
        assert np.allclose(vol[:, :, k0], 1.0)

    def test_values_in_range(self, rng):
        a = rng.normal(size=(6, 6, 3))
        b = rng.normal(size=(6, 6, 3))
        vol = similarity_volume(a, b, shift_set(2))
        finite = vol[np.isfinite(vol)]
        assert finite.min() >= -1.0 - 1e-12
        assert finite.max() <= 1.0 + 1e-12

    def test_orthogonal_vectors(self):
        a = np.zeros((1, 1, 2))
        b = np.zeros((1, 1, 2))
        a[0, 0] = [1.0, 0.0]
        b[0, 0] = [0.0, 1.0]
        vol = similarity_volume(a, b, shift_set(0))
        assert vol[0, 0, 0] == 0.0

    def test_zero_norm_gives_zero(self):
        a = np.zeros((2, 2, 3))
        b = textured_grid(2, 2, 3)
        vol = similarity_volume(a, b, shift_set(0))
        assert np.all(vol == 0.0)

    def test_out_of_grid_sentinel(self):
        g = textured_grid(3, 3, 2)
        s = shift_set(1)
        vol = similarity_volume(g, g, s)
        k = s.tolist().index([-1, -1])
        assert vol[0, 0, k] == -np.inf

    def test_translation_peak(self):
        base = textured_grid(8, 8, 4, seed=3)
        f_tm1 = base
        f_t = translate_grid(base, 1, 0)
        s = shift_set(2)
        vol = similarity_volume(f_t, f_tm1, s)
        k = s.tolist().index([-1, 0])
        # interior pixels of the translated content match perfectly
        assert np.allclose(vol[2:7, 1:7, k], 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            similarity_volume(textured_grid(2, 2, 1), textured_grid(3, 2, 1), shift_set(1))


class TestArgmaxFlow:
    def test_constant_grid_zero_flow(self):
        g = np.ones((4, 4, 2))
        s = shift_set(2)
        flow = argmax_flow(similarity_volume(g, g, s), s)
        assert np.all(flow == 0.0)

    @pytest.mark.parametrize("delta", [(1, 0), (-2, 3), (0, -1)])
    def test_translation_recovery_matches_oracle(self, delta):
        d = 3
        base = textured_grid(10, 10, 6, seed=11)
        f_tm1 = base
        f_t = translate_grid(base, *delta)
        s = shift_set(d)
        flow = argmax_flow(similarity_volume(f_t, f_tm1, s), s)
        oracle = brute_force_flow(f_t, f_tm1, d)
        assert np.array_equal(flow, oracle)
        # interior of the moved content carries the translation exactly
        dr, dc = delta
        r = slice(max(0, dr) + d, min(10, 10 + dr) - d)
        c = slice(max(0, dc) + d, min(10, 10 + dc) - d)
        assert np.all(flow[r, c, 0] == dr)
        assert np.all(flow[r, c, 1] == dc)

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            argmax_flow(np.zeros((2, 2, 5)), shift_set(1))


class TestComputeFlow:
    def test_rd1_equals_direct_pipeline(self):
        base = textured_grid(9, 9, 4, seed=5)
        f_t = translate_grid(base, 1, -1)
        s = shift_set(3)
        direct = argmax_flow(similarity_volume(f_t, base, s), s)
        assert np.array_equal(compute_flow(f_t, base, d=3, r_d=1), direct)

    def test_downsampled_units_rescaled(self):
        # blob translated by 2 full-res pixels; with r_d=2 the pooled shift
        # is 1 and the returned flow must be back in full-res units
        base = np.zeros((16, 16, 3))
        base[6:10, 6:10, :] = textured_grid(4, 4, 3, seed=8)
        f_t = translate_grid(base, 2, 0)
        flow = compute_flow(f_t, base, d=3, r_d=2)
        assert flow.shape == (16, 16, 2)
        assert flow[9, 8, 0] == pytest.approx(2.0)
        assert flow[9, 8, 1] == pytest.approx(0.0)

    def test_scale_invariance(self):
        base = textured_grid(12, 12, 4, seed=21)
        f_t = translate_grid(base, 1, 1)
        f1 = compute_flow(f_t, base, d=2, r_d=2)
        f2 = compute_flow(3.7 * f_t, 3.7 * base, d=2, r_d=2)
        assert np.array_equal(f1, f2)

    def test_bad_ratio(self):
        g = textured_grid(4, 4, 2)
        with pytest.raises(ValueError):
            compute_flow(g, g, d=1, r_d=0)

    def test_negative_d(self):
        g = textured_grid(4, 4, 2)
        with pytest.raises(ValueError):
            compute_flow(g, g, d=-1, r_d=1)

    @pytest.mark.parametrize("r_d", [1, 2, 3])
    def test_d_beyond_pooled_grid_is_clamped(self, r_d):
        # rounded values make ties common, so the tie-break must survive the
        # clamp too; the largest useful shift is the pooled grid's side - 1
        rng = np.random.default_rng(r_d)
        f_t, f_tm1 = (np.round(rng.uniform(size=(4, 7, 2)), 1) for _ in range(2))
        dmax = max(-(-4 // r_d), -(-7 // r_d)) - 1
        clamped = compute_flow(f_t, f_tm1, d=dmax, r_d=r_d).tobytes()
        for d in (dmax + 1, dmax + 5):
            assert compute_flow(f_t, f_tm1, d=d, r_d=r_d).tobytes() == clamped

    def test_huge_d_stays_small(self):
        g = textured_grid(4, 4, 2, seed=3)
        f_t = translate_grid(g, 1, 0)
        tracemalloc.start()
        try:
            flow = compute_flow(f_t, g, d=300, r_d=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert flow.tobytes() == compute_flow(f_t, g, d=1, r_d=2).tobytes()


class TestWarpPseudoNext:
    def test_zero_flow_identity(self):
        g = textured_grid(5, 5, 3)
        assert np.array_equal(warp_pseudo_next(g, np.zeros((5, 5, 2))), g)

    def test_uniform_motion_advances_blob(self):
        g = np.zeros((10, 10, 1))
        g[4, 4, 0] = 1.0
        flow = np.zeros((10, 10, 2))
        flow[:, :, 0] = 1.0
        out = warp_pseudo_next(g, flow)
        assert out[5, 4, 0] == 1.0
        assert out[4, 4, 0] == 0.0

    def test_flow_outside_grid_zero(self):
        g = textured_grid(4, 4, 2)
        flow = np.full((4, 4, 2), 100.0)
        assert np.all(warp_pseudo_next(g, flow) == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            warp_pseudo_next(textured_grid(3, 3, 1), np.zeros((2, 3, 2)))


class TestEndToEndTranslation:
    @pytest.mark.parametrize("delta", [(1, 0), (0, 2), (-1, -1), (2, -3)])
    def test_pseudo_next_doubles_translation(self, delta):
        d = 3
        h = w = 14
        base = textured_grid(h, w, 5, seed=31)
        f_tm1 = base
        f_t = translate_grid(base, *delta)
        flow = compute_flow(f_t, f_tm1, d=d, r_d=1)
        pseudo = warp_pseudo_next(f_t, flow)
        expected = translate_grid(base, 2 * delta[0], 2 * delta[1])
        dr, dc = delta
        # pixels whose full sampling support stayed interior at every step
        r = slice(max(0, 2 * dr) + d, min(h, h + 2 * dr) - d)
        c = slice(max(0, 2 * dc) + d, min(w, w + 2 * dc) - d)
        assert np.array_equal(pseudo[r, c], expected[r, c])


class TestFuse:
    def test_zero_reduction_pure_residual(self):
        c = 6
        g = [textured_grid(4, 4, c, seed=i) for i in range(3)]
        spec = ConvSpec(c, c // 3, (1, 1))
        out = fuse(g[0], g[1], g[2], spec)
        assert np.array_equal(out, g[1])

    def test_output_shape_c96(self, rng):
        c = 96
        grids = [rng.normal(size=(3, 3, c)) for _ in range(3)]
        spec = ConvSpec(c, 32, (1, 1), weights=rng.normal(size=(32, c, 1, 1)))
        assert fuse(*grids, spec).shape == (3, 3, c)

    def test_matches_composed_oracle(self, rng):
        c = 9
        grids = [rng.normal(size=(4, 5, c)) for _ in range(3)]
        spec = ConvSpec(c, 3, (1, 1), weights=rng.normal(size=(3, c, 1, 1)))
        out = fuse(*grids, spec)
        expected = np.concatenate([conv2d(g, spec) for g in grids], axis=2) + grids[1]
        assert np.allclose(out, expected, atol=1e-12)

    def test_non_divisible_channels_padded(self, rng):
        c = 7
        grids = [rng.normal(size=(2, 2, c)) for _ in range(3)]
        spec = ConvSpec(c, 2, (1, 1), weights=rng.normal(size=(2, c, 1, 1)))
        out = fuse(*grids, spec)
        assert out.shape == (2, 2, c)
        # padded tail is the pure residual
        assert np.array_equal(out[:, :, 6:], grids[1][:, :, 6:])

    def test_shape_mismatch(self):
        spec = ConvSpec(3, 1, (1, 1))
        with pytest.raises(ValueError):
            fuse(textured_grid(2, 2, 3), textured_grid(2, 2, 3), textured_grid(3, 2, 3), spec)
