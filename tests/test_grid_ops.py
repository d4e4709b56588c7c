import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc.grid_ops import (
    ConvSpec,
    bilinear_resize,
    bilinear_sample,
    conv2d,
    fgrd_bytes,
    max_pool,
    read_fgrd,
    transpose_conv2d,
    write_fgrd,
)

from conftest import textured_grid


def naive_max_pool(g, ratio):
    """Per-window loop reference for max_pool."""
    h, w, c = g.shape
    out = np.empty(((h + ratio - 1) // ratio, (w + ratio - 1) // ratio, c))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = g[i * ratio:(i + 1) * ratio, j * ratio:(j + 1) * ratio].max(axis=(0, 1))
    return out


def naive_conv2d(g, spec):
    """Quadruple-loop reference for conv2d."""
    h, w, _ = g.shape
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    keff_h = (kh - 1) * d + 1
    keff_w = (kw - 1) * d + 1
    ph, pw = keff_h // 2, keff_w // 2
    ho = (h + 2 * ph - keff_h) // s + 1
    wo = (w + 2 * pw - keff_w) // s + 1
    in_per_group = spec.in_channels // spec.groups
    out_per_group = spec.out_channels // spec.groups
    out = np.zeros((ho, wo, spec.out_channels))
    for oc in range(spec.out_channels):
        grp = oc // out_per_group
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ki in range(kh):
                    for kj in range(kw):
                        ri = i * s + ki * d - ph
                        cj = j * s + kj * d - pw
                        if not (0 <= ri < h and 0 <= cj < w):
                            continue
                        for ic in range(in_per_group):
                            acc += g[ri, cj, grp * in_per_group + ic] * spec.weights[oc, ic, ki, kj]
                if spec.bias is not None:
                    acc += spec.bias[oc]
                out[i, j, oc] = acc
    return out


def naive_transpose_conv2d(g, spec):
    """Scatter-sum reference for transpose_conv2d."""
    h, w, _ = g.shape
    kh, kw = spec.kernel
    s = spec.stride
    in_per_group = spec.in_channels // spec.groups
    out_per_group = spec.out_channels // spec.groups
    out = np.zeros(((h - 1) * s + kh, (w - 1) * s + kw, spec.out_channels))
    for oc in range(spec.out_channels):
        grp = oc // out_per_group
        for i in range(h):
            for j in range(w):
                for ki in range(kh):
                    for kj in range(kw):
                        for ic in range(in_per_group):
                            out[i * s + ki, j * s + kj, oc] += (
                                g[i, j, grp * in_per_group + ic] * spec.weights[oc, ic, ki, kj]
                            )
        if spec.bias is not None:
            out[:, :, oc] += spec.bias[oc]
    return out


def loop_conv2d(g, spec):
    """The per-output-channel conv2d loop that conv2d must match bit for bit."""
    h, w, c = g.shape
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    keff_h = (kh - 1) * d + 1
    keff_w = (kw - 1) * d + 1
    ph, pw = keff_h // 2, keff_w // 2
    padded = np.zeros((h + 2 * ph, w + 2 * pw, c))
    padded[ph : ph + h, pw : pw + w, :] = g
    ho = (h + 2 * ph - keff_h) // s + 1
    wo = (w + 2 * pw - keff_w) // s + 1
    out = np.zeros((ho, wo, spec.out_channels))
    in_per_group = spec.in_channels // spec.groups
    out_per_group = spec.out_channels // spec.groups
    for oc in range(spec.out_channels):
        grp = oc // out_per_group
        ic0 = grp * in_per_group
        acc = np.zeros((ho, wo))
        for ki in range(kh):
            for kj in range(kw):
                patch = padded[
                    ki * d : ki * d + (ho - 1) * s + 1 : s,
                    kj * d : kj * d + (wo - 1) * s + 1 : s,
                    ic0 : ic0 + in_per_group,
                ]
                acc += patch @ spec.weights[oc, :, ki, kj]
        if spec.bias is not None:
            acc += spec.bias[oc]
        out[:, :, oc] = acc
    return out


def loop_transpose_conv2d(g, spec):
    """The per-output-channel transpose_conv2d loop that transpose_conv2d
    must match bit for bit."""
    h, w, c = g.shape
    kh, kw = spec.kernel
    s = spec.stride
    ho = (h - 1) * s + kh
    wo = (w - 1) * s + kw
    out = np.zeros((ho, wo, spec.out_channels))
    in_per_group = spec.in_channels // spec.groups
    out_per_group = spec.out_channels // spec.groups
    for oc in range(spec.out_channels):
        grp = oc // out_per_group
        ic0 = grp * in_per_group
        contrib = g[:, :, ic0 : ic0 + in_per_group]
        for ki in range(kh):
            for kj in range(kw):
                out[ki : ki + (h - 1) * s + 1 : s, kj : kj + (w - 1) * s + 1 : s, oc] += (
                    contrib @ spec.weights[oc, :, ki, kj]
                )
        if spec.bias is not None:
            out[:, :, oc] += spec.bias[oc]
    return out


def random_spec(rng, cin, cout, k, bias=False, **kw):
    groups = kw.get("groups", 1)
    return ConvSpec(cin, cout, (k, k), weights=rng.normal(size=(cout, cin // groups, k, k)),
                    bias=rng.normal(size=cout) if bias else None, **kw)


# (37, 9) spans several 16-row conv2d blocks with a ragged last one.
GRID_SHAPES = [(64, 64), (13, 7), (37, 9)]


class TestMaxPool:
    def test_identity_ratio(self):
        g = textured_grid(4, 4, 2)
        assert np.array_equal(max_pool(g, 1), g)

    def test_2x2(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        assert max_pool(g, 2).reshape(()) == 4.0

    def test_3x3_partial_windows(self):
        g = np.arange(9, dtype=float).reshape(3, 3, 1)
        out = max_pool(g, 2)
        # hand-enumerated windows: {0,1,3,4}, {2,5}, {6,7}, {8}
        expected = np.array([[4.0, 5.0], [7.0, 8.0]]).reshape(2, 2, 1)
        assert np.array_equal(out, expected)
        # ragged 3x5 of negatives: row windows {0,1}, {2}; column windows
        # {0,1}, {2,3}, {4}; padding must never win a partial window
        g = -(np.arange(15, dtype=float) + 1).reshape(3, 5, 1)
        expected = np.array([[-1.0, -3.0, -5.0], [-11.0, -13.0, -15.0]]).reshape(2, 3, 1)
        assert np.array_equal(max_pool(g, 2), expected)
        rng = np.random.default_rng(4)
        for shape, ratio in (((7, 5, 3), 3), ((9, 4, 2), 2), ((16, 12, 4), 4)):
            g = rng.normal(size=shape)
            assert max_pool(g, ratio).tobytes() == naive_max_pool(g, ratio).tobytes()

    def test_values_come_from_input(self, rng):
        g = rng.normal(size=(5, 7, 3))
        out = max_pool(g, 3)
        for v in out.ravel():
            assert v in g

    def test_zero_ratio(self):
        with pytest.raises(ValueError):
            max_pool(textured_grid(2, 2, 1), 0)

    def test_ratio_beyond_grid_is_global_max(self, rng):
        g = rng.normal(size=(4, 4, 1))
        tracemalloc.start()
        try:
            out = max_pool(g, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert out.tobytes() == g.max(axis=(0, 1)).reshape(1, 1, 1).tobytes()
        # each axis is clamped on its own: ratio 5 on a 4x9 grid has one
        # 4-row window and 5-wide column windows {0..4}, {5..8}
        g = rng.normal(size=(4, 9, 2))
        assert max_pool(g, 5).tobytes() == naive_max_pool(g, 5).tobytes()


class TestBilinearSample:
    def test_integer_coordinates(self):
        g = textured_grid(4, 5, 3)
        assert np.allclose(bilinear_sample(g, 2, 3), g[2, 3])

    def test_midpoint(self):
        g = np.zeros((2, 1, 1))
        g[0, 0, 0] = 2.0
        g[1, 0, 0] = 4.0
        assert bilinear_sample(g, 0.5, 0.0)[0] == pytest.approx(3.0)

    def test_fully_outside(self):
        g = textured_grid(3, 3, 2)
        assert np.array_equal(bilinear_sample(g, -1.0, -1.0), np.zeros(2))

    def test_edge_zero_padding(self):
        g = np.ones((2, 2, 1))
        # halfway off the top edge: one missing neighbor row counts as zero
        assert bilinear_sample(g, -0.5, 0.0)[0] == pytest.approx(0.5)


class TestBilinearResize:
    def test_identity(self):
        g = textured_grid(5, 6, 2)
        assert np.allclose(bilinear_resize(g, 5, 6), g, atol=1e-12)

    def test_2_to_3_upsample(self):
        g = np.array([[[1.0], [3.0]]])  # 1x2
        out = bilinear_resize(g, 1, 3)
        assert np.allclose(out.ravel(), [1.0, 2.0, 3.0])

    def test_constant_grid(self):
        g = np.full((3, 4, 2), 7.5)
        for hw in ((1, 1), (2, 9), (10, 3)):
            assert np.allclose(bilinear_resize(g, *hw), 7.5)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            bilinear_resize(textured_grid(2, 2, 1), 0, 2)


class TestConvSpec:
    @pytest.mark.parametrize("args,kw", [
        ((4, 4, (3, 3)), dict(dilation=0)),
        ((4, 4, (0, 0)), dict()),
        ((4, 4, (3, 0)), dict()),
        ((4, 4, (3, 3)), dict(stride=0)),
        ((4, 4, (3, 3)), dict(stride=-1)),
        ((4, 4, (3, 3)), dict(groups=0)),
        ((4, 4, (3, 3)), dict(groups=-2)),
        ((0, 4, (3, 3)), dict()),
        ((4, 0, (3, 3)), dict()),
        ((4, 2, (3, 3)), dict(groups=4)),  # out_channels not divisible by groups
        ((6, 4, (3, 3)), dict(groups=4)),  # in_channels not divisible by groups
    ])
    def test_malformed_spec_rejected(self, args, kw):
        with pytest.raises(ValueError):
            ConvSpec(*args, **kw)


class TestConv2d:
    def test_1x1_identity(self):
        g = textured_grid(4, 4, 3)
        spec = ConvSpec(3, 3, (1, 1), weights=np.eye(3).reshape(3, 3, 1, 1))
        assert np.allclose(conv2d(g, spec), g)

    def test_ones_depthwise_on_constant(self):
        c = 2.5
        g = np.full((5, 5, 2), c)
        spec = ConvSpec(2, 2, (3, 3), groups=2, weights=np.ones((2, 1, 3, 3)))
        out = conv2d(g, spec)
        assert np.allclose(out[1:-1, 1:-1, :], 9 * c)

    def test_dilated_impulse(self):
        g = np.zeros((7, 7, 1))
        g[3, 3, 0] = 1.0
        spec = ConvSpec(1, 1, (3, 3), dilation=2, weights=np.ones((1, 1, 3, 3)))
        out = conv2d(g, spec)
        expected = naive_conv2d(g, spec)
        assert np.allclose(out, expected)
        nz = {(i, j) for i, j in zip(*np.nonzero(out[:, :, 0]))}
        assert nz == {(3 + di, 3 + dj) for di in (-2, 0, 2) for dj in (-2, 0, 2)}

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d(textured_grid(3, 3, 2), ConvSpec(3, 1, (1, 1)))

    @pytest.mark.parametrize("stride,dilation,groups", [(1, 1, 1), (2, 1, 1), (1, 2, 2), (1, 3, 4)])
    def test_against_naive_oracle(self, rng, stride, dilation, groups):
        g = rng.normal(size=(8, 7, 4))
        spec = ConvSpec(
            4, 4, (3, 3), stride=stride, dilation=dilation, groups=groups,
            weights=rng.normal(size=(4, 4 // groups, 3, 3)),
            bias=rng.normal(size=4),
        )
        assert np.allclose(conv2d(g, spec), naive_conv2d(g, spec), atol=1e-9)

    @pytest.mark.parametrize("hw", GRID_SHAPES)
    @pytest.mark.parametrize("cin,cout,k,opts", [
        (8, 8, 5, dict(groups=8)),  # depthwise
        (8, 8, 7, dict(dilation=3, groups=8, bias=True)),  # depthwise dilated
        (2, 4, 3, dict(groups=2)),  # channel multiplier
        (8, 8, 3, dict(groups=4)),  # grouped, two inputs per group
        (8, 4, 3, dict(stride=2, dilation=2, groups=4, bias=True)),  # grouped, strided, dilated
        (8, 6, 1, dict()),  # dense pointwise
        (4, 5, 3, dict(stride=2, bias=True)),  # dense strided
        (4, 4, 3, dict(dilation=2, bias=True)),  # dense dilated
        (8, 8, 3, dict(stride=2, dilation=2, groups=8, bias=True)),  # depthwise strided
        (2, 6, 3, dict(stride=2, groups=2, bias=True)),  # channel multiplier, strided
    ])
    def test_bit_identical_to_channel_loop(self, rng, hw, cin, cout, k, opts):
        g = rng.normal(size=hw + (cin,))
        spec = random_spec(rng, cin, cout, k, **opts)
        assert conv2d(g, spec).tobytes() == loop_conv2d(g, spec).tobytes()

    def test_linearity(self, rng):
        a = rng.normal(size=(6, 6, 3))
        b = rng.normal(size=(6, 6, 3))
        spec = ConvSpec(3, 2, (3, 3), weights=rng.normal(size=(2, 3, 3, 3)))
        lhs = conv2d(2.0 * a - 0.5 * b, spec)
        rhs = 2.0 * conv2d(a, spec) - 0.5 * conv2d(b, spec)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestTransposeConv2d:
    def test_k2_s2_doubles_size(self, rng):
        g = rng.normal(size=(4, 5, 3))
        spec = ConvSpec(3, 2, (2, 2), stride=2, transpose=True,
                        weights=rng.normal(size=(2, 3, 2, 2)))
        assert transpose_conv2d(g, spec).shape == (8, 10, 2)

    def test_zero_weights(self):
        g = textured_grid(3, 3, 2)
        spec = ConvSpec(2, 2, (2, 2), stride=2, transpose=True)
        assert np.allclose(transpose_conv2d(g, spec), 0.0)

    def test_impulse_copies_kernel(self, rng):
        g = np.zeros((3, 3, 1))
        g[1, 1, 0] = 1.0
        kernel = rng.normal(size=(1, 1, 2, 2))
        spec = ConvSpec(1, 1, (2, 2), stride=2, transpose=True, weights=kernel)
        out = transpose_conv2d(g, spec)
        assert np.allclose(out[2:4, 2:4, 0], kernel[0, 0])

    @pytest.mark.parametrize("cin,cout,k,groups,bias", [
        pytest.param(2, 3, 2, 1, False, id="dense"),
        pytest.param(4, 4, 2, 4, False, id="depthwise"),
        pytest.param(4, 6, 3, 2, True, id="grouped-overlapping-bias"),
    ])
    def test_against_naive_oracle(self, rng, cin, cout, k, groups, bias):
        g = rng.normal(size=(4, 3, cin))
        spec = random_spec(rng, cin, cout, k, bias, stride=2, groups=groups, transpose=True)
        assert np.allclose(transpose_conv2d(g, spec), naive_transpose_conv2d(g, spec), atol=1e-12)

    @pytest.mark.parametrize("hw", GRID_SHAPES)
    @pytest.mark.parametrize("cin,cout,k,opts", [
        (8, 8, 2, dict(stride=2, groups=8)),  # depthwise
        (2, 4, 2, dict(stride=2, groups=2, bias=True)),  # channel multiplier
        (8, 8, 3, dict(stride=2, groups=4, bias=True)),  # grouped, overlapping taps
        (8, 4, 2, dict(stride=2, bias=True)),  # dense
        (4, 4, 3, dict(stride=1)),  # dense, stride 1
    ])
    def test_bit_identical_to_channel_loop(self, rng, hw, cin, cout, k, opts):
        g = rng.normal(size=hw + (cin,))
        spec = random_spec(rng, cin, cout, k, transpose=True, **opts)
        assert transpose_conv2d(g, spec).tobytes() == loop_transpose_conv2d(g, spec).tobytes()

    def test_requires_transpose_spec(self):
        with pytest.raises(ValueError):
            transpose_conv2d(textured_grid(2, 2, 1), ConvSpec(1, 1, (2, 2), stride=2))


class TestSignedZeros:
    """Zero inputs times negative weights give -0.0 products. The bytes,
    signed zeros included, must still match the channel loops, also where a
    tap's product is a single multiply (one input channel per group)."""

    @pytest.mark.parametrize("hw", GRID_SHAPES)
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("conv, oracle, cin, cout, k, opts", [
        pytest.param(conv2d, loop_conv2d, 4, 4, 5, dict(groups=4), id="conv-depthwise"),
        pytest.param(conv2d, loop_conv2d, 4, 8, 3, dict(groups=4), id="conv-multiplier-2"),
        pytest.param(conv2d, loop_conv2d, 1, 4, 3, dict(), id="conv-dense-one-input"),
        pytest.param(transpose_conv2d, loop_transpose_conv2d, 4, 4, 2,
                     dict(stride=2, groups=4, transpose=True), id="tconv-depthwise"),
        pytest.param(transpose_conv2d, loop_transpose_conv2d, 4, 8, 2,
                     dict(stride=2, groups=4, transpose=True), id="tconv-multiplier-2"),
        pytest.param(transpose_conv2d, loop_transpose_conv2d, 1, 4, 2,
                     dict(stride=2, transpose=True), id="tconv-dense-one-input"),
        pytest.param(transpose_conv2d, loop_transpose_conv2d, 4, 4, 3,
                     dict(stride=2, groups=4, transpose=True), id="tconv-overlapping-taps"),
    ])
    def test_half_zero_grid(self, rng, conv, oracle, cin, cout, k, opts, bias, hw):
        g = rng.normal(size=hw + (cin,))
        g[: hw[0] // 2] = 0.0
        spec = random_spec(rng, cin, cout, k, bias, **opts)
        assert conv(g, spec).tobytes() == oracle(g, spec).tobytes()


# Entries whose products show a changed tap rule in the bytes: signed zeros and subnormals.
SPECIAL_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308])


def with_special_entries(rng, shape):
    """Normal draws with about a third of the entries ±0.0 or subnormal."""
    a = rng.normal(size=shape)
    mask = rng.random(shape) < 0.35
    a[mask] = rng.choice(SPECIAL_ENTRIES, size=int(mask.sum()))
    return a


@st.composite
def one_input_per_group_cases(draw):
    """A grid and a depthwise or channel-multiplier spec, conv or transpose;
    H is never a multiple of 16, so conv2d's last row block is ragged."""
    transpose = draw(st.booleans())
    c, mult, k = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 7))
    dilation = 1 if transpose else draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    h, w = draw(st.integers(1, 40).filter(lambda n: n % 16)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bias = with_special_entries(rng, (c * mult,)) if draw(st.booleans()) else None
    spec = ConvSpec(c, c * mult, (k, k), stride, dilation, c, transpose,
                    weights=with_special_entries(rng, (c * mult, 1, k, k)), bias=bias)
    return with_special_entries(rng, (h, w, c)), spec


class TestOneInputPerGroupBytes:
    """Where a group has one input channel, each tap is one multiply over
    whole rows; the bytes must equal the per-output-channel loops'."""

    @settings(max_examples=300, deadline=None)
    @given(one_input_per_group_cases())
    def test_matches_channel_loop(self, case):
        g, spec = case
        conv, oracle = ((transpose_conv2d, loop_transpose_conv2d) if spec.transpose
                        else (conv2d, loop_conv2d))
        assert conv(g, spec).tobytes() == oracle(g, spec).tobytes()


class TestFgrd:
    def test_roundtrip(self, tmp_path, rng):
        g = rng.normal(size=(3, 4, 2)).astype(np.float32).astype(float)
        path = tmp_path / "g.fgrd"
        write_fgrd(path, g)
        assert np.array_equal(read_fgrd(path), g)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fgrd"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_fgrd(path)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "g.fgrd"
        write_fgrd(path, np.zeros((2, 3, 4)))
        raw = path.read_bytes()
        assert raw[:4] == b"FGRD"
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 2, 3, 4]
        assert len(raw) == 20 + 2 * 3 * 4 * 4

    def test_entry_beyond_float32_range_rejected(self):
        # such an entry used to be written as inf, with a numpy RuntimeWarning
        top = float(np.finfo(np.float32).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (1e39, -1e39):
                g = np.zeros((2, 2, 1))
                g[1, 0, 0] = value
                with pytest.raises(ValueError, match="float32"):
                    fgrd_bytes(g)
            g = np.array([[[top], [-top]]])
            assert np.frombuffer(fgrd_bytes(g)[20:], dtype="<f4").tolist() == [top, -top]

    def test_rejected_grid_leaves_file_unchanged(self, tmp_path):
        # write_fgrd used to open, so truncate, the file before checking the grid
        path = tmp_path / "g.fgrd"
        write_fgrd(path, np.ones((2, 2, 1)))
        before = path.read_bytes()
        for bad in (np.full((2, 2, 1), np.nan), np.full((2, 2, 1), 1e39)):
            with pytest.raises(ValueError):
                write_fgrd(path, bad)
            assert path.read_bytes() == before
