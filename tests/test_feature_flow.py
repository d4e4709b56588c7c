import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc.feature_flow import (
    argmax_flow,
    compute_flow,
    fuse,
    shift_set,
    similarity_volume,
    warp_pseudo_next,
)
from streamperc.grid_ops import ConvSpec, as_grid, bilinear_sample, conv2d

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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 7), (8, 8)])
    def test_rd_beyond_grid_is_clamped(self, shape):
        # from max(H, W) up the pooled grid is 1x1 and the flow all -0.0; a
        # ratio beyond the float range must not reach the unit rescale
        rng = np.random.default_rng(len(shape))
        f_t, f_tm1 = (rng.uniform(size=shape + (2,)) for _ in range(2))
        side = max(shape)
        clamped = compute_flow(f_t, f_tm1, d=3, r_d=side).tobytes()
        assert clamped == np.full(shape + (2,), -0.0).tobytes()
        for r_d in (side + 1, 10**20, 10**300, 10**400):
            assert compute_flow(f_t, f_tm1, d=3, r_d=r_d).tobytes() == clamped

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_flow_rejected(self, value, axis):
        # NaN used to fail in int(), and inf with an OverflowError (a numerical error)
        flow = np.zeros((3, 4, 2))
        flow[1, 2, axis] = value
        with pytest.raises(ValueError, match="^flow entries must be finite$"):
            warp_pseudo_next(textured_grid(3, 4, 2), flow)


def ref_bilinear_sample(g: np.ndarray, row: float, col: float) -> np.ndarray:
    """Bilinear blend of the 4 neighbors; missing neighbors count as zero."""
    g = np.asarray(g, dtype=float)
    h, w, c = g.shape
    r0 = int(np.floor(row))
    c0 = int(np.floor(col))
    fr = row - r0
    fc = col - c0
    out = np.zeros(c)
    for dr, wr in ((0, 1.0 - fr), (1, fr)):
        for dc, wc in ((0, 1.0 - fc), (1, fc)):
            weight = wr * wc
            if weight == 0.0:
                continue
            rr, cc = r0 + dr, c0 + dc
            if 0 <= rr < h and 0 <= cc < w:
                out += weight * g[rr, cc, :]
    return out


def ref_warp_pseudo_next(f_t: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-warp the current feature one frame forward along the flow.

    out(u, v) = f_t((u, v) - m(u, v)), bilinear with zero padding.
    """
    f_t = as_grid(f_t)
    flow = np.asarray(flow, dtype=float)
    h, w, _ = f_t.shape
    if flow.shape != (h, w, 2):
        raise ValueError("flow must have shape (H, W, 2)")
    out = np.zeros_like(f_t)
    for u in range(h):
        for v in range(w):
            out[u, v, :] = ref_bilinear_sample(f_t, u - flow[u, v, 0], v - flow[u, v, 1])
    return out


# Grid entries whose products and sums show a changed tap rule in the
# bytes: signed zeros, subnormals, and ordinary values.
SIGNED_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -1.5]),
    st.floats(-4.0, 4.0),
)
# Offsets (flows, or coordinates): integral, half-integral, fractional,
# outside any small grid, and tiny fractions whose tap weights underflow
# to 0.0 (k + 1e-300 rounds to k unless k is 0).
OFFSETS = st.one_of(
    st.integers(-4, 8).map(float),
    st.integers(-8, 16).map(lambda k: k / 2),
    st.floats(-4.0, 8.0),
    st.sampled_from([-100.0, 100.0, 1e6]),
    st.integers(-3, 3).map(lambda k: k + 1e-300),
    st.sampled_from([1e-300, -1e-300, 5e-324, -5e-324, 1.0 - 1e-16, -0.0]),
)


@st.composite
def grids(draw, entries=SIGNED_ENTRIES):
    h, w, c = (draw(st.integers(1, n)) for n in (5, 5, 3))
    return np.array(draw(st.lists(entries, min_size=h * w * c,
                                  max_size=h * w * c))).reshape(h, w, c)


class TestSamplerMatchesReference:
    """bilinear_sample and warp_pseudo_next equal, byte for byte, the
    per-tap loop they replaced: same zero start, same skipped taps, same
    order of additions."""

    # An infinite entry turns a zero-weight tap into NaN, so the sampler's
    # grids (unlike the warp's, which as_grid keeps finite) hold some.
    @settings(max_examples=300, deadline=None)
    @given(grids(st.one_of(SIGNED_ENTRIES, st.sampled_from([np.inf, -np.inf]))),
           OFFSETS, OFFSETS, st.sampled_from([float, np.float64, np.float32]))
    def test_sample_bytes(self, g, row, col, kind):
        row, col = kind(row), kind(col)
        with np.errstate(invalid="ignore"):  # inf + -inf
            got, want = bilinear_sample(g, row, col), ref_bilinear_sample(g, row, col)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_warp_bytes(self, data):
        g = data.draw(grids())
        h, w, _ = g.shape
        flow = np.array(data.draw(st.lists(OFFSETS, min_size=2 * h * w,
                                           max_size=2 * h * w))).reshape(h, w, 2)
        assert warp_pseudo_next(g, flow).tobytes() == ref_warp_pseudo_next(g, flow).tobytes()


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

    def test_strided_reduction_named(self, rng):
        # numpy used to fail at the concat or the residual add
        grids = [rng.normal(size=(8, 8, 6)) for _ in range(3)]
        spec = ConvSpec(6, 2, (1, 1), stride=2, weights=rng.normal(size=(2, 6, 1, 1)))
        message = "reduction maps a (8, 8, 6) grid to (4, 4, 2)"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            fuse(*grids, spec)

    def test_shape_mismatch(self):
        spec = ConvSpec(3, 1, (1, 1))
        with pytest.raises(ValueError):
            fuse(textured_grid(2, 2, 3), textured_grid(2, 2, 3), textured_grid(3, 2, 3), spec)
