"""Dense-grid primitives: pooling, bilinear sampling/resize, convolutions.

Grids are numpy arrays of shape (H, W, C), float64 accumulation throughout.
Convolution is cross-correlation (no kernel flip) with zero padding
floor(effective_kernel / 2), so odd kernels at stride 1 preserve spatial
size. Resizing uses align-corners coordinate mapping.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

FGRD_MAGIC = b"FGRD"
FGRD_VERSION = 1
_ROW_BLOCK = 16  # output rows per conv2d accumulation block


def as_grid(data) -> np.ndarray:
    g = np.asarray(data, dtype=float)
    if g.ndim != 3:
        raise ValueError("grid must have shape (H, W, C), got %r" % (g.shape,))
    if 0 in g.shape:
        raise ValueError("grid has a zero-length axis: %r" % (g.shape,))
    if not np.all(np.isfinite(g)):
        raise ValueError("grid entries must be finite")
    return g


def check_layer(spec) -> None:
    """Raise ValueError unless spec (a ConvSpec or alike) is a valid conv layer."""
    kh, kw = spec.kernel
    if min(kh, kw, spec.stride, spec.dilation, spec.groups, spec.in_channels, spec.out_channels) < 1:
        raise ValueError("kernel, stride, dilation, groups and channels must be >= 1")
    if spec.in_channels % spec.groups or spec.out_channels % spec.groups:
        raise ValueError("in_channels and out_channels must be divisible by groups")
    if spec.transpose and spec.dilation != 1:
        raise ValueError("transpose convolution requires dilation 1")


@dataclass
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: Tuple[int, int]
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    transpose: bool = False
    weights: Optional[np.ndarray] = None  # (out, in/groups, kh, kw)
    bias: Optional[np.ndarray] = None  # (out,)

    def __post_init__(self):
        check_layer(self)
        shape = (self.out_channels, self.in_channels // self.groups) + tuple(self.kernel)
        if self.weights is None:
            self.weights = np.zeros(shape)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != shape:
                raise ValueError(
                    "weights shape %r does not match spec %r"
                    % (self.weights.shape, shape)
                )
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=float)
            if self.bias.shape != (self.out_channels,):
                raise ValueError("bias must have shape (out_channels,)")


def conv_output_size(n: int, k: int, stride: int, dilation: int = 1, transpose: bool = False) -> int:
    """Output length along an axis of n inputs: (n-1)*s + k for a transpose conv,
    else (n + 2*pad - keff)//s + 1 with keff = (k-1)*d + 1 and pad = keff//2."""
    if transpose:
        return (n - 1) * stride + k
    keff = (k - 1) * dilation + 1
    return (n + 2 * (keff // 2) - keff) // stride + 1


def max_pool(g: np.ndarray, ratio: int) -> np.ndarray:
    """Channel-wise max over ratio x ratio windows; edge windows may be partial.

    A ratio beyond an axis is clamped to it: same windows, bounded padding."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    g = as_grid(g)
    h, w, c = g.shape
    rh, rw = min(ratio, h), min(ratio, w)
    ho = (h + rh - 1) // rh
    wo = (w + rw - 1) // rw
    # -inf padding never wins a max: every window holds at least one input.
    padded = np.full((ho * rh, wo * rw, c), -np.inf)
    padded[:h, :w] = g
    return padded.reshape(ho, rh, wo, rw, c).max(axis=(1, 3))


def bilinear_sample(g: np.ndarray, row: float, col: float) -> np.ndarray:
    """Bilinear blend of the 4 neighbors; missing neighbors count as zero."""
    g = np.asarray(g, dtype=float)
    h, w, c = g.shape
    r0 = math.floor(row)
    c0 = math.floor(col)
    fr = row - r0
    fc = col - c0
    out = None
    for rr, wr in ((r0, 1.0 - fr), (r0 + 1, fr)):
        if wr == 0.0 or not 0 <= rr < h:
            continue
        for cc, wc in ((c0, 1.0 - fc), (c0 + 1, fc)):
            weight = wr * wc
            if weight != 0.0 and 0 <= cc < w:
                tap = g[rr, cc] if weight == 1.0 else weight * g[rr, cc]  # 1.0 * x is x
                out = tap + (0.0 if out is None else out)  # a +0.0 start: -0.0 + 0.0 is +0.0
    return np.zeros(c) if out is None else out


def bilinear_resize(g: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Align-corners bilinear resize to (out_h, out_w)."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be >= 1")
    g = as_grid(g)
    h, w, c = g.shape
    if (out_h, out_w) == (h, w):
        return g.copy()

    def src_coords(n_out, n_in):
        if n_out == 1 or n_in == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * (n_in - 1) / (n_out - 1)

    rows = src_coords(out_h, h)
    cols = src_coords(out_w, w)
    r0 = np.clip(np.floor(rows).astype(int), 0, h - 1)
    c0 = np.clip(np.floor(cols).astype(int), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rows - r0)[:, None, None]
    fc = (cols - c0)[None, :, None]
    top = g[r0][:, c0] * (1 - fc) + g[r0][:, c1] * fc
    bot = g[r1][:, c0] * (1 - fc) + g[r1][:, c1] * fc
    return top * (1 - fr) + bot * fr


def _tap_weights(spec: ConvSpec, width: int) -> np.ndarray:
    """Each tap's weights as _tap_product takes them: (kh, kw, out, in/groups), or
    (kh, kw, width * out) with one input channel per group, tiled along a row."""
    w = spec.weights.transpose(2, 3, 0, 1)
    return np.tile(w[..., 0], width) if spec.in_channels == spec.groups else w


def _tap_product(x: np.ndarray, w_tap: np.ndarray, groups: int) -> np.ndarray:
    """One kernel tap, all output channels: (rows, W, in) by (out, in/groups) -> (rows, W, out).

    Bit-identical, once added to a sum that starts at +0.0, to one matrix-vector
    product per output channel, or one multiply when a group has one input
    channel; a batched gemm or einsum is not, as it sums in another order. In
    that case w_tap holds a whole row's weights (_tap_weights): one multiply a row.
    """
    if w_tap.ndim == 1:
        out_c = len(w_tap) // x.shape[1]
        x = x[..., np.arange(out_c) // (out_c // groups)] if out_c > groups else x
        return (x.reshape(len(x), -1) * w_tap).reshape(x.shape)
    out_c, in_per_group = w_tap.shape
    starts = np.arange(out_c) // (out_c // groups) * in_per_group
    return np.stack([x[..., i : i + in_per_group] @ w for i, w in zip(starts, w_tap)], axis=-1)


def conv2d(g: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped, dilated cross-correlation with zero padding floor(keff/2)."""
    g = as_grid(g)
    if spec.transpose:
        raise ValueError("use transpose_conv2d for transpose specs")
    h, w, c = g.shape
    if c != spec.in_channels:
        raise ValueError(
            "grid has %d channels, spec expects %d" % (c, spec.in_channels)
        )
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    keff_h = (kh - 1) * d + 1
    keff_w = (kw - 1) * d + 1
    ph, pw = keff_h // 2, keff_w // 2
    padded = np.pad(g, ((ph, ph), (pw, pw), (0, 0))) if ph or pw else g
    ho = conv_output_size(h, kh, s, d)
    wo = conv_output_size(w, kw, s, d)
    out = np.zeros((ho, wo, spec.out_channels))
    taps = _tap_weights(spec, wo)
    # Each tap adds into a cache-sized block of output rows, in (ki, kj) order from 0.0.
    for r0 in range(0, ho, _ROW_BLOCK):
        rows = slice(r0, r0 + _ROW_BLOCK)
        for ki in range(kh):
            for kj in range(kw):
                patch = padded[
                    ki * d : ki * d + (ho - 1) * s + 1 : s,
                    kj * d : kj * d + (wo - 1) * s + 1 : s,
                ]
                out[rows] += _tap_product(patch[rows], taps[ki, kj], spec.groups)
    if spec.bias is not None:
        out += spec.bias
    return out


def transpose_conv2d(g: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Transpose convolution (scatter-sum), no padding.

    Output size is (H-1)*s + k per axis; with k == s this is exactly H*s.
    """
    g = as_grid(g)
    if not spec.transpose:
        raise ValueError("spec is not a transpose convolution")
    h, w, c = g.shape
    if c != spec.in_channels:
        raise ValueError(
            "grid has %d channels, spec expects %d" % (c, spec.in_channels)
        )
    kh, kw = spec.kernel
    s = spec.stride
    ho = conv_output_size(h, kh, s, transpose=True)
    wo = conv_output_size(w, kw, s, transpose=True)
    out = np.zeros((ho, wo, spec.out_channels))
    taps = _tap_weights(spec, w)
    for ki in range(kh):
        for kj in range(kw):
            out[ki : ki + (h - 1) * s + 1 : s, kj : kj + (w - 1) * s + 1 : s] += (
                _tap_product(g, taps[ki, kj], spec.groups)
            )
    if spec.bias is not None:
        out += spec.bias
    return out


def fgrd_bytes(g: np.ndarray) -> bytes:
    """A grid in the flat FGRD binary format (little-endian float32)."""
    g = as_grid(g)
    with np.errstate(over="ignore"):  # an entry beyond float32's range is rejected below
        data = g.astype("<f4", order="C")
    if not np.all(np.isfinite(data)):
        raise ValueError("grid entries must lie within float32's range")
    return b"".join((FGRD_MAGIC, struct.pack("<4I", FGRD_VERSION, *g.shape), data))


def write_fgrd(path, g: np.ndarray) -> None:
    data = fgrd_bytes(g)  # before the open, so a rejected grid leaves the file as it was
    with open(path, "wb") as f:
        f.write(data)


def read_fgrd(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.read(20)
        if header[:4] != FGRD_MAGIC:
            raise ValueError("not an FGRD file: bad magic %r" % header[:4])
        if len(header) < 20:
            raise ValueError("truncated FGRD header: %d of 20 bytes" % len(header))
        version, h, w, c = struct.unpack("<4I", header[4:])
        if version != FGRD_VERSION:
            raise ValueError("unsupported FGRD version %d" % version)
        n_bytes, size = h * w * c * 4, os.fstat(f.fileno()).st_size
        if size != 20 + n_bytes:
            raise ValueError(
                "%s FGRD payload: header claims %dx%dx%d floats, a %d-byte file; it has %d bytes"
                % ("truncated" if size < 20 + n_bytes else "over-long", h, w, c, 20 + n_bytes, size)
            )
        data = np.frombuffer(f.read(n_bytes), dtype="<f4")
    return data.reshape(h, w, c).astype(float)
