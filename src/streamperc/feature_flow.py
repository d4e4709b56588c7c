"""Feature-flow fusion: similarity volume, argmax flow, backward warping.

Sign convention: the matcher returns, per pixel of the current frame, the
content motion m from t-1 to t (row, col, full-resolution pixel units).
For a shift (u_s, v_s) the similarity compares the current pixel against
the previous frame sampled at (u + u_s, v + v_s), so the best shift is -m
and the flow field stores its negation. The pseudo-next feature samples
the current frame at (u, v) - m, extrapolating the motion one frame
forward. The normative check: translating a textured grid by delta between
t-1 and t must yield a pseudo-next equal to the grid translated by
2*delta.
"""

from __future__ import annotations

import numpy as np

from .grid_ops import ConvSpec, as_grid, bilinear_resize, bilinear_sample, conv2d, conv_output_size, max_pool

# Marks shifts whose sampling coordinate falls outside the grid.
INVALID_SIMILARITY = -np.inf

DEFAULT_MAX_DISPLACEMENT = 3
DEFAULT_DOWNSAMPLE_RATIO = 2


def shift_set(d: int) -> np.ndarray:
    """All (2d+1)^2 integer shifts in [-d, d]^2 as a (D, 2) array,
    lexicographic order."""
    if d < 0:
        raise ValueError("max displacement must be >= 0")
    return np.array([(r, c) for r in range(-d, d + 1) for c in range(-d, d + 1)])


def similarity_volume(f_t: np.ndarray, f_tm1: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Cosine similarity of each current pixel against shifted previous pixels.

    Output shape (H, W, D) for a (D, 2) shift array; slice k corresponds to
    shifts[k].
    Out-of-grid shifted coordinates get -inf; zero-norm vectors on either
    side give similarity 0.
    """
    f_t = as_grid(f_t)
    f_tm1 = as_grid(f_tm1)
    if f_t.shape != f_tm1.shape:
        raise ValueError("feature grids must share a shape")
    h, w, _ = f_t.shape
    norm_t = np.linalg.norm(f_t, axis=2)
    norm_p = np.linalg.norm(f_tm1, axis=2)
    vol = np.full((h, w, len(shifts)), INVALID_SIMILARITY)
    for k, (us, vs) in enumerate(shifts.tolist()):
        r_lo, r_hi = max(0, -us), min(h, h - us)
        c_lo, c_hi = max(0, -vs), min(w, w - vs)
        if r_lo >= r_hi or c_lo >= c_hi:
            continue
        cur = f_t[r_lo:r_hi, c_lo:c_hi]
        prev = f_tm1[r_lo + us : r_hi + us, c_lo + vs : c_hi + vs]
        dot = np.einsum("ijc,ijc->ij", cur, prev)
        denom = norm_t[r_lo:r_hi, c_lo:c_hi] * norm_p[r_lo + us : r_hi + us, c_lo + vs : c_hi + vs]
        sim = np.where(denom > 0.0, dot / np.where(denom > 0.0, denom, 1.0), 0.0)
        vol[r_lo:r_hi, c_lo:c_hi, k] = sim
    return vol


def argmax_flow(vol: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per-pixel motion vector of the highest-similarity shift, (H, W, 2).

    Ties go to the smallest L-inf shift magnitude, then lexicographic
    order. The returned vector is the t-1 -> t motion, i.e. the negated
    best shift.
    """
    h, w, ds = vol.shape
    if ds != len(shifts):
        raise ValueError("volume depth does not match shift set")
    linf = np.abs(shifts).max(axis=1)
    # Rank shifts so argmax over the reordered volume realizes the tie-break.
    order = np.lexsort((np.arange(ds), linf))
    vol_ord = vol[:, :, order]
    best = np.argmax(vol_ord, axis=2)  # first max wins -> smallest rank
    best_shift = shifts[order][best]  # (H, W, 2)
    flow = -best_shift.astype(float)
    # Defensive: an all-invalid pixel falls back to zero motion.
    all_invalid = np.all(~np.isfinite(vol), axis=2)
    if np.any(all_invalid):
        flow[all_invalid] = 0.0
    return flow


def compute_flow(
    f_t: np.ndarray,
    f_tm1: np.ndarray,
    d: int = DEFAULT_MAX_DISPLACEMENT,
    r_d: int = DEFAULT_DOWNSAMPLE_RATIO,
) -> np.ndarray:
    """Full flow pipeline: max-pool by r_d, match, upsample, rescale units.

    d is clamped below the pooled grid's size and r_d to max(H, W); the flow is the same."""
    f_t = as_grid(f_t)
    f_tm1 = as_grid(f_tm1)
    if f_t.shape != f_tm1.shape:
        raise ValueError("feature grids must share a shape")
    if r_d < 1:
        raise ValueError("downsample ratio must be >= 1")
    h, w, _ = f_t.shape
    r_d = min(r_d, max(h, w))
    pooled_t = max_pool(f_t, r_d)
    pooled_p = max_pool(f_tm1, r_d)
    shifts = shift_set(min(d, max(pooled_t.shape[:2]) - 1))
    vol = similarity_volume(pooled_t, pooled_p, shifts)
    flow = argmax_flow(vol, shifts)
    if r_d > 1:
        flow = bilinear_resize(flow, h, w)
        flow = flow * r_d  # low-res pixel units -> full-res pixel units
    return flow


def warp_pseudo_next(f_t: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-warp the current feature one frame forward along the flow.

    out(u, v) = f_t((u, v) - m(u, v)), bilinear with zero padding, one
    bilinear_sample call per pixel: the bench self-test counts them (ROADMAP 1, 3).
    """
    f_t = as_grid(f_t)
    flow = np.asarray(flow, dtype=float)
    h, w, _ = f_t.shape
    if flow.shape != (h, w, 2):
        raise ValueError("flow must have shape (H, W, 2)")
    if not np.all(np.isfinite(flow)):
        raise ValueError("flow entries must be finite")
    out = np.zeros_like(f_t)
    for u in range(h):
        rows = (u - flow[u, :, 0]).tolist()
        cols = (np.arange(w) - flow[u, :, 1]).tolist()
        for v in range(w):
            out[u, v] = bilinear_sample(f_t, rows[v], cols[v])
    return out


def fuse(
    f_tm1: np.ndarray,
    f_t: np.ndarray,
    f_pseudo: np.ndarray,
    reduce_weights: ConvSpec,
) -> np.ndarray:
    """Shared 1x1 channel reduction of the three inputs, concat, residual add.

    The shared conv maps C -> floor(C/3); when C is not divisible by 3 the
    concat is zero-padded up to C so the residual add stays well defined.
    """
    f_tm1 = as_grid(f_tm1)
    f_t = as_grid(f_t)
    f_pseudo = as_grid(f_pseudo)
    if not (f_tm1.shape == f_t.shape == f_pseudo.shape):
        raise ValueError("all fusion inputs must share a shape")
    h, w, c = f_t.shape
    q = c // 3
    if reduce_weights.kernel != (1, 1):
        raise ValueError("reduction must be a 1x1 convolution")
    if reduce_weights.in_channels != c or reduce_weights.out_channels != q:
        raise ValueError(
            "reduction must map %d -> %d channels" % (c, q)
        )
    size = tuple(conv_output_size(n, 1, reduce_weights.stride) for n in (h, w))
    if size != (h, w):
        raise ValueError("reduction maps a %r grid to %r; the residual add needs the input's size"
                         % (f_t.shape, size + (q,)))
    reduced = [conv2d(g, reduce_weights) for g in (f_tm1, f_t, f_pseudo)]
    parts = reduced
    pad = c - 3 * q
    if pad:
        parts = reduced + [np.zeros((h, w, pad))]
    return np.concatenate(parts, axis=2) + f_t
