"""Dense-grid primitives: pooling, bilinear sampling/resize, convolutions.

Grids are numpy arrays of shape (H, W, C), float64 accumulation throughout.
Convolution is cross-correlation (no kernel flip) with zero padding
floor(effective_kernel / 2), so odd kernels at stride 1 preserve spatial
size. Resizing uses align-corners coordinate mapping.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

FGRD_MAGIC = b"FGRD"
FGRD_VERSION = 1
_DEPTHWISE_ROW_BLOCK = 16  # output rows per depthwise conv2d accumulation block


def as_grid(data) -> np.ndarray:
    g = np.asarray(data, dtype=float)
    if g.ndim != 3:
        raise ValueError("grid must have shape (H, W, C), got %r" % (g.shape,))
    if 0 in g.shape:
        raise ValueError("grid has a zero-length axis: %r" % (g.shape,))
    if not np.all(np.isfinite(g)):
        raise ValueError("grid entries must be finite")
    return g


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
        kh, kw = self.kernel
        if min(kh, kw, self.stride, self.dilation, self.groups, self.in_channels, self.out_channels) < 1:
            raise ValueError("kernel, stride, dilation, groups and channels must be >= 1")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError("in_channels and out_channels must be divisible by groups")
        if self.transpose and self.dilation != 1:
            raise ValueError("transpose convolution requires dilation 1")
        shape = (self.out_channels, self.in_channels // self.groups, kh, kw)
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


def _tap_product(x: np.ndarray, w_tap: np.ndarray, groups: int) -> np.ndarray:
    """One kernel tap, all output channels: (..., in) by (out, in/groups) -> (..., out).

    Bit-identical to one matrix-vector product per output channel; a batched
    gemm or einsum is not, as it sums in another order.
    """
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
    padded = np.pad(g, ((ph, ph), (pw, pw), (0, 0)))
    ho = conv_output_size(h, kh, s, d)
    wo = conv_output_size(w, kw, s, d)
    out = np.zeros((ho, wo, spec.out_channels))
    # One input channel per group: each tap multiplies a cache-sized block of output
    # rows into one reused buffer, still adding taps in (ki, kj) order from 0.0.
    depthwise = spec.weights.shape[1] == 1
    block = _DEPTHWISE_ROW_BLOCK if depthwise else ho
    out_dw = out.reshape(ho, wo, spec.groups, -1)
    w_dw = spec.weights[:, 0].reshape(spec.groups, -1, kh, kw)
    buf = np.empty((min(block, ho),) + out_dw.shape[1:]) if depthwise else None
    for r0 in range(0, ho, block):
        n = min(block, ho - r0)
        for ki in range(kh):
            for kj in range(kw):
                patch = padded[
                    ki * d + r0 * s : ki * d + (r0 + n - 1) * s + 1 : s,
                    kj * d : kj * d + (wo - 1) * s + 1 : s,
                ]
                if depthwise:
                    np.multiply(patch[..., None], w_dw[:, :, ki, kj], out=buf[:n])
                    out_dw[r0 : r0 + n] += buf[:n]
                else:
                    out[r0 : r0 + n] += _tap_product(patch, spec.weights[:, :, ki, kj], spec.groups)
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
    for ki in range(kh):
        for kj in range(kw):
            out[ki : ki + (h - 1) * s + 1 : s, kj : kj + (w - 1) * s + 1 : s] += (
                _tap_product(g, spec.weights[:, :, ki, kj], spec.groups)
            )
    if spec.bias is not None:
        out += spec.bias
    return out


def fgrd_bytes(g: np.ndarray) -> bytes:
    """A grid in the flat FGRD binary format (little-endian float32)."""
    g = as_grid(g)
    return FGRD_MAGIC + struct.pack("<4I", FGRD_VERSION, *g.shape) + g.astype("<f4").tobytes()


def write_fgrd(path, g: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(fgrd_bytes(g))


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
        n_bytes = h * w * c * 4
        if os.fstat(f.fileno()).st_size < 20 + n_bytes:
            raise ValueError(
                "truncated FGRD payload: header claims %dx%dx%d floats" % (h, w, c)
            )
        data = np.frombuffer(f.read(n_bytes), dtype="<f4")
    return data.reshape(h, w, c).astype(float)
