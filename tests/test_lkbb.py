import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamperc.grid_ops import ConvSpec, conv2d, transpose_conv2d
from streamperc.lkbb import (
    LayerSpec,
    complexity,
    lka_chain,
    lka_forward,
    lkbb_fuse,
    parse_chain,
    receptive_field,
)


def _spec(c_in, c_out, k, stride=1, dilation=1, groups=1, transpose=False, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in // groups, k, k))
    return ConvSpec(c_in, c_out, (k, k), stride=stride, dilation=dilation,
                    groups=groups, transpose=transpose, weights=w)


class TestReceptiveField:
    def test_single_3x3(self):
        rf, jump = receptive_field([LayerSpec("conv", (3, 3))])
        assert (rf, jump) == (3, 1.0)

    def test_pointwise_identity(self):
        rf, _ = receptive_field([LayerSpec("conv", (1, 1))])
        assert rf == 1

    def test_dilation(self):
        rf, _ = receptive_field([LayerSpec("conv", (7, 7), dilation=3)])
        assert rf == 19

    def test_attention_cascade(self):
        # 5x5 gives 5, dilated 7x7 adds 18, pointwise adds 0
        rf, jump = receptive_field(lka_chain(32))
        assert rf == 23
        assert jump == 1.0

    def test_stride_compounds(self):
        chain = [LayerSpec("conv", (3, 3), stride=2), LayerSpec("conv", (3, 3))]
        rf, jump = receptive_field(chain)
        assert rf == 3 + 2 * 2
        assert jump == 2.0

    def test_transpose_divides_jump(self):
        chain = [LayerSpec("conv", (3, 3), stride=2),
                 LayerSpec("tconv", (2, 2), stride=2)]
        _, jump = receptive_field(chain)
        assert jump == 1.0

    def test_stride_one_order_invariant(self):
        layers = [LayerSpec("conv", (5, 5)), LayerSpec("dwconv", (3, 3), dilation=2),
                  LayerSpec("conv", (7, 7))]
        rf_fwd, _ = receptive_field(layers)
        rf_rev, _ = receptive_field(layers[::-1])
        assert rf_fwd == rf_rev


class TestComplexity:
    def test_depthwise_5x5_params(self):
        # C groups of 1x5x5 kernels plus a bias per channel: 26C
        c = 8
        chain = [LayerSpec("dwconv", (5, 5), in_channels=c, out_channels=c, bias=True)]
        assert complexity(chain, (16, 16)).params == 26 * c

    def test_pointwise_params(self):
        c = 8
        chain = [LayerSpec("conv", (1, 1), in_channels=c, out_channels=c, bias=True)]
        assert complexity(chain, (16, 16)).params == c * c + c

    def test_pointwise_flops(self):
        c = 8
        h = w = 16
        chain = [LayerSpec("conv", (1, 1), in_channels=c, out_channels=c)]
        assert complexity(chain, (h, w)).flops == 2 * h * w * c * c

    def test_additive(self):
        a = lka_chain(16)
        # pointwise expand, depthwise 3x3, pointwise project
        b = parse_chain("conv 1 1 1 16 64\ndwconv 3 1 1 64\nconv 1 1 1 64 16\n")
        hw = (32, 32)
        total = complexity(a + b, hw)
        assert total.params == complexity(a, hw).params + complexity(b, hw).params
        assert total.flops == complexity(a, hw).flops + complexity(b, hw).flops

    def test_stride_shrinks_flops(self):
        dense = [LayerSpec("conv", (3, 3), in_channels=4, out_channels=4)]
        strided = [LayerSpec("conv", (3, 3), stride=2, in_channels=4, out_channels=4)]
        assert complexity(strided, (16, 16)).flops == complexity(dense, (16, 16)).flops // 4

    def test_report_carries_rf(self):
        rep = complexity(lka_chain(4), (8, 8))
        assert rep.rf == 23
        assert rep.jump == 1.0


def _run_layer(g, layer):
    """Apply layer with grid_ops on g; return (output, 2 * its real MACs).

    A conv does one MAC per output position per tap and input channel of its
    group; a transpose conv scatters one per input position instead."""
    spec = _spec(layer.in_channels, layer.out_channels, layer.kernel[0], layer.stride,
                 layer.dilation, layer.groups, layer.transpose)
    out = (transpose_conv2d if layer.transpose else conv2d)(g, spec)
    positions = g.shape[0] * g.shape[1] if layer.transpose else out.shape[0] * out.shape[1]
    kh, kw = layer.kernel
    return out, 2 * positions * layer.out_channels * (layer.in_channels // layer.groups) * kh * kw


_LAYERS = [
    LayerSpec(kind, (k, k), s, d, 2, 2 if kind == "dwconv" else 3)
    for kind in ("conv", "dwconv", "tconv")
    for k in (1, 2, 3, 4)
    for s in (1, 2, 3)
    for d in ((1,) if kind == "tconv" else (1, 2))
]


def _layer_id(layer):
    return "%s-k%d-s%d-d%d" % (layer.kind, layer.kernel[0], layer.stride, layer.dilation)


class TestComplexityFollowsPrimitives:
    """complexity counts FLOPs on the output sizes conv2d and
    transpose_conv2d really produce: even effective kernels pad
    keff // 2 and so gain a row, and a transpose conv with k != s gives
    (n - 1) * s + k."""

    @pytest.mark.parametrize("layer", _LAYERS, ids=_layer_id)
    def test_one_layer(self, layer):
        for hw in ((7, 6), (1, 5)):
            g = np.random.default_rng(0).standard_normal(hw + (2,))
            _, flops = _run_layer(g, layer)
            assert complexity([layer], hw).flops == flops

    @pytest.mark.parametrize("first", _LAYERS, ids=_layer_id)
    def test_two_layers(self, first):
        second = LayerSpec("conv", (2, 2), 2, 1, first.out_channels, 2)
        g = np.random.default_rng(1).standard_normal((8, 8, 2))
        mid, flops_1 = _run_layer(g, first)
        _, flops_2 = _run_layer(mid, second)
        assert complexity([first, second], (8, 8)).flops == flops_1 + flops_2

    def test_even_kernel_and_transpose_chains(self):
        # 8x8 -> 5x5 -> 5x5, and 8x8 -> 17x17 -> 17x17, at 4 channels
        conv = parse_chain("conv 2 2 1 4\nconv 3 1 1 4\n")
        tconv = parse_chain("tconv 3 2 1 4\nconv 1 1 1 4\n")
        assert complexity(conv, (8, 8)).flops == 10400
        assert complexity(tconv, (8, 8)).flops == 27680


class TestLkaForward:
    def _specs(self, c, identity=False):
        if identity:
            # delta kernels so the cascade is the identity; attention == g
            dw5 = ConvSpec(c, c, (5, 5), groups=c, weights=np.zeros((c, 1, 5, 5)))
            dw5.weights[:, 0, 2, 2] = 1.0
            dwd7 = ConvSpec(c, c, (7, 7), dilation=3, groups=c,
                            weights=np.zeros((c, 1, 7, 7)))
            dwd7.weights[:, 0, 3, 3] = 1.0
            pw = ConvSpec(c, c, (1, 1), weights=np.eye(c).reshape(c, c, 1, 1))
            return dw5, dwd7, pw
        return (
            _spec(c, c, 5, groups=c, seed=1),
            _spec(c, c, 7, dilation=3, groups=c, seed=2),
            _spec(c, c, 1, seed=3),
        )

    def test_identity_attention_squares(self, rng):
        g = rng.standard_normal((12, 12, 4))
        out = lka_forward(g, *self._specs(4, identity=True))
        assert np.allclose(out, g * g)

    def test_zero_weights_zero_output(self, rng):
        g = rng.standard_normal((10, 10, 3))
        dw5 = ConvSpec(3, 3, (5, 5), groups=3, weights=np.zeros((3, 1, 5, 5)))
        dwd7 = ConvSpec(3, 3, (7, 7), dilation=3, groups=3, weights=np.zeros((3, 1, 7, 7)))
        pw = ConvSpec(3, 3, (1, 1), weights=np.zeros((3, 3, 1, 1)))
        assert np.array_equal(lka_forward(g, dw5, dwd7, pw), np.zeros_like(g))

    def test_matches_composed_convs(self, rng):
        g = rng.standard_normal((9, 11, 4))
        dw5, dwd7, pw = self._specs(4)
        want = conv2d(conv2d(conv2d(g, dw5), dwd7), pw) * g
        assert np.allclose(lka_forward(g, dw5, dwd7, pw), want)

    def test_channel_mismatch(self, rng):
        g = rng.standard_normal((8, 8, 4))
        dw5, dwd7, _ = self._specs(4)
        bad_pw = _spec(4, 8, 1)
        with pytest.raises(ValueError):
            lka_forward(g, dw5, dwd7, bad_pw)


class TestLkbbFuse:
    def _weights(self, c, seed=0):
        w_a = _spec(2 * c, 2 * c, 2, stride=2, transpose=True, seed=seed)
        w_b = _spec(2 * c, c, 2, stride=2, transpose=True, seed=seed + 1)
        return w_a, w_b

    def test_output_shape_small(self, rng):
        c = 4
        f1 = rng.standard_normal((16, 16, 2 * c))
        f2 = rng.standard_normal((8, 8, 2 * c))
        out = lkbb_fuse(f1, f2, *self._weights(c))
        assert out.shape == (32, 32, c)

    def test_output_shape_mid(self, rng):
        c = 6
        f1 = rng.standard_normal((32, 32, 2 * c))
        f2 = rng.standard_normal((16, 16, 2 * c))
        out = lkbb_fuse(f1, f2, *self._weights(c))
        assert out.shape == (64, 64, c)

    def test_matches_composed_transpose_convs(self, rng):
        c = 3
        f1 = rng.standard_normal((8, 8, 2 * c))
        f2 = rng.standard_normal((4, 4, 2 * c))
        w_a, w_b = self._weights(c, seed=7)
        want = transpose_conv2d(transpose_conv2d(f2, w_a) + f1, w_b)
        assert np.allclose(lkbb_fuse(f1, f2, w_a, w_b), want)

    def test_spatial_mismatch_names_operand(self, rng):
        c = 4
        f1 = rng.standard_normal((16, 16, 2 * c))
        f2 = rng.standard_normal((9, 8, 2 * c))
        with pytest.raises(ValueError, match="f2"):
            lkbb_fuse(f1, f2, *self._weights(c))

    def test_wrong_upsampler_named(self, rng):
        c = 4
        f1 = rng.standard_normal((16, 16, 2 * c))
        f2 = rng.standard_normal((8, 8, 2 * c))
        w_a = _spec(2 * c, 2 * c, 3, stride=2, transpose=True)
        _, w_b = self._weights(c)
        with pytest.raises(ValueError, match="w_a"):
            lkbb_fuse(f1, f2, w_a, w_b)


class TestParseChain:
    def test_round_trip(self):
        text = """
        # attention cascade
        dwconv 5 1 1 32
        dwconv 7 1 3 32
        conv 1 1 1 32 32
        """
        chain = parse_chain(text)
        assert chain == lka_chain(32)

    def test_out_channels_field(self):
        chain = parse_chain("conv 1 1 1 16 64")
        assert chain[0].in_channels == 16
        assert chain[0].out_channels == 64

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_chain("pool 2 2 1 8")

    def test_bad_field_count(self):
        with pytest.raises(ValueError):
            parse_chain("conv 3 1")

    def test_depthwise_channel_change_rejected(self):
        with pytest.raises(ValueError):
            parse_chain("dwconv 3 1 1 8 16")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text(max_size=20),
        st.tuples(
            st.sampled_from(["conv", "dwconv", "tconv", "pool"]),
            st.lists(st.one_of(st.integers(-3, 10**6), st.integers(10**6, 10**400)).map(str),
                     min_size=3, max_size=6),
        ).map(lambda kf: " ".join([kf[0]] + kf[1])),
    ), max_size=6).map("\n".join), st.integers(1, 256), st.integers(1, 256))
    def test_any_text_is_rejected_or_well_formed(self, text, h, w):
        try:
            report = complexity(parse_chain(text), (h, w))
        except ValueError:
            return
        assert report.rf >= 1 and report.params >= 0 and report.flops >= 0
