"""Large-kernel BEV backbone structure checks: receptive fields,
parameter/FLOP accounting and deterministic forward passes.

The attention block cascades a depthwise 5x5, a depthwise 7x7 with
dilation 3 and a pointwise convolution, then gates the input with an
element-wise product. Multi-scale fusion upsamples the deepest stage by a
stride-2 transpose conv, adds the mid stage and upsamples again to full
resolution with halved channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .grid_ops import ConvSpec, as_grid, check_layer, conv2d, conv_output_size, transpose_conv2d


@dataclass
class LayerSpec:
    kind: str  # conv, dwconv, tconv
    kernel: Tuple[int, int]
    stride: int = 1
    dilation: int = 1
    in_channels: int = 1
    out_channels: int = 1
    bias: bool = False

    @property
    def groups(self) -> int:
        return self.in_channels if self.kind == "dwconv" else 1

    @property
    def transpose(self) -> bool:
        return self.kind == "tconv"

    def __post_init__(self):
        if self.kind not in ("conv", "dwconv", "tconv"):
            raise ValueError("unknown layer kind %r" % (self.kind,))
        if self.kind == "dwconv" and self.out_channels != self.in_channels:
            raise ValueError("depthwise layers keep channel count")
        check_layer(self)
        if self.kernel[0] != self.kernel[1]:
            raise ValueError("kernel must be square, got %r" % (self.kernel,))


@dataclass
class ComplexityReport:
    params: int
    flops: int  # multiply-accumulates x 2
    rf: int  # receptive-field side length
    jump: float  # output stride


def receptive_field(chain: Sequence[LayerSpec]) -> Tuple[int, float]:
    """Compose rf' = rf + (k-1)*dilation*jump and jump' = jump*stride.

    Transpose layers divide the jump by their stride instead. A chain whose
    fields overflow a float is a ValueError, like any other malformed chain.
    """
    rf = 1.0
    jump = 1.0
    try:
        for layer in chain:
            k = layer.kernel[0]
            rf += (k - 1) * layer.dilation * jump
            jump = jump / layer.stride if layer.transpose else jump * layer.stride
        if not (math.isfinite(rf) and math.isfinite(jump)):  # a float product overflows to inf
            raise OverflowError("receptive field %r, jump %r" % (rf, jump))
        return int(round(rf)), jump
    except OverflowError as exc:
        raise ValueError("chain too large for a float receptive field: %s" % exc) from exc


def complexity(chain: Sequence[LayerSpec], input_hw: Tuple[int, int]) -> ComplexityReport:
    """Parameter and FLOP totals for a chain applied to input_hw."""
    h, w = input_hw
    if min(h, w) < 1:
        raise ValueError("input height and width must be >= 1, got %r" % (input_hw,))
    params = 0
    flops = 0
    for layer in chain:
        kh, kw = layer.kernel
        in_per_group = layer.in_channels // layer.groups
        p = layer.out_channels * in_per_group * kh * kw
        if layer.bias:
            p += layer.out_channels
        params += p
        ho = conv_output_size(h, kh, layer.stride, layer.dilation, layer.transpose)
        wo = conv_output_size(w, kw, layer.stride, layer.dilation, layer.transpose)
        # a transpose conv scatters: one MAC per input position per kernel tap
        positions = h * w if layer.transpose else ho * wo
        flops += 2 * positions * layer.out_channels * in_per_group * kh * kw
        h, w = ho, wo
    rf, jump = receptive_field(chain)
    return ComplexityReport(params=params, flops=flops, rf=rf, jump=jump)


def lka_chain(channels: int) -> List[LayerSpec]:
    """The attention cascade: DW 5x5, DW 7x7 dilation 3, pointwise."""
    return [
        LayerSpec("dwconv", (5, 5), 1, 1, channels, channels),
        LayerSpec("dwconv", (7, 7), 1, 3, channels, channels),
        LayerSpec("conv", (1, 1), 1, 1, channels, channels),
    ]


def lka_forward(
    g: np.ndarray,
    dw5: ConvSpec,
    dwd7: ConvSpec,
    pw: ConvSpec,
) -> np.ndarray:
    """Attention forward: pw(dwd7(dw5(g))) gating g element-wise."""
    g = as_grid(g)
    h, w, c = g.shape
    for spec, name in ((dw5, "dw5"), (dwd7, "dwd7"), (pw, "pw")):
        if spec.in_channels != c or spec.out_channels != c:
            raise ValueError("%s must map %d -> %d channels" % (name, c, c))
        size = tuple(conv_output_size(n, k, spec.stride, spec.dilation) for n, k in zip((h, w), spec.kernel))
        if size != (h, w):
            raise ValueError("%s maps a %r grid to %r; the gate needs the input's size"
                             % (name, g.shape, size + (c,)))
    attention = conv2d(conv2d(conv2d(g, dw5), dwd7), pw)
    return attention * g


def lkbb_fuse(
    f1: np.ndarray, f2: np.ndarray, w_a: ConvSpec, w_b: ConvSpec
) -> np.ndarray:
    """Multi-scale fusion: w_b(w_a(f2) + f1).

    f1 is (H/2, W/2, 2C), f2 is (H/4, W/4, 2C); w_a is a transpose
    2C -> 2C kernel-2 stride-2 conv, w_b a transpose 2C -> C kernel-2
    stride-2 conv; the output is (H, W, C).
    """
    f1 = as_grid(f1)
    f2 = as_grid(f2)
    h2, w2, c2 = f1.shape
    h4, w4, c4 = f2.shape
    if c2 != c4:
        raise ValueError("f1 and f2 must share channel count, got %d vs %d" % (c2, c4))
    if (h4 * 2, w4 * 2) != (h2, w2):
        raise ValueError("f2 spatial size must be half of f1, got %r vs %r" % ((h4, w4), (h2, w2)))
    for spec, name, cin, cout in (
        (w_a, "w_a", c2, c2),
        (w_b, "w_b", c2, c2 // 2),
    ):
        if not spec.transpose or spec.kernel != (2, 2) or spec.stride != 2:
            raise ValueError("%s must be a kernel-2 stride-2 transpose conv" % name)
        if spec.in_channels != cin or spec.out_channels != cout:
            raise ValueError("%s must map %d -> %d channels" % (name, cin, cout))
    up2 = transpose_conv2d(f2, w_a)
    return transpose_conv2d(up2 + f1, w_b)


def parse_chain(text: str) -> List[LayerSpec]:
    """Parse a chain description, one layer per line:

        kind kernel stride dilation channels [out_channels]

    kind is conv, dwconv or tconv; channels is both in and out unless
    out_channels is given. Blank lines and '#' comments are skipped.
    """
    chain = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if len(parts) not in (5, 6):
                raise ValueError("expected 5 or 6 fields")
            k, s, d, cin = (int(v) for v in parts[1:5])
            cout = int(parts[5]) if len(parts) == 6 else cin
            chain.append(LayerSpec(parts[0], (k, k), s, d, cin, cout))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from exc
    return chain
