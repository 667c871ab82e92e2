"""Slow, obviously-correct reference implementations.

Nothing here is used by the production paths; tests compare against these,
and the speed contract test uses the dense attention as its baseline. They favor
directness over speed: explicit bit loops, per-row vector arithmetic, and
dictionary bucketing.
"""

from __future__ import annotations

import numpy as np

from .numerics import linear, softmax_rows
from .zformer import AttentionConfig, ZFormerParams, _head_slices


def encode_reference(x: int, y: int, z: int, depth: int) -> int:
    """Bit-by-bit Morton interleave: sum over i of bits scaled by 8^i."""
    value = 0
    for i in range(depth):
        value += ((x >> i) & 1) * (1 << (3 * i))
        value += ((y >> i) & 1) * (1 << (3 * i + 1))
        value += ((z >> i) & 1) * (1 << (3 * i + 2))
    return value


def decode_reference(value: int, depth: int) -> tuple:
    x = y = z = 0
    for i in range(depth):
        x |= ((value >> (3 * i)) & 1) << i
        y |= ((value >> (3 * i + 1)) & 1) << i
        z |= ((value >> (3 * i + 2)) & 1) << i
    return x, y, z


def dense_attention_reference(f: np.ndarray, params: ZFormerParams,
                              cfg: AttentionConfig) -> np.ndarray:
    """Full token-by-token softmax attention in float64, through the same
    projections. The n x n score matrix is materialized deliberately."""
    params = params.astype(np.float64)
    f = np.asarray(f, dtype=np.float64)
    q = linear(f, params.w_q)
    k = linear(f, params.w_k)
    v = linear(f, params.w_v)
    slices, _ = _head_slices(cfg)
    tok = np.empty_like(q)
    for hs in slices:
        scores = q[:, hs] @ k[:, hs].T / np.sqrt(hs.stop - hs.start)
        probs = softmax_rows(scores)
        tok[:, hs] = probs @ v[:, hs]
    return linear(tok, params.w_o)


def block_pool_reference(x: np.ndarray, block_len: int) -> np.ndarray:
    """Per-block python-loop means."""
    x = np.asarray(x)
    rows = []
    for start in range(0, x.shape[0], block_len):
        rows.append(x[start : start + block_len].mean(axis=0))
    return np.stack(rows)


def topk_gather_reference(f: np.ndarray, params: ZFormerParams,
                          cfg: AttentionConfig, selection: np.ndarray) -> np.ndarray:
    """Gather-then-attend computed one query token at a time with vector ops
    only (no matrix products inside the attention)."""
    params64 = params.astype(np.float64)
    f = np.asarray(f, dtype=np.float64)
    q = linear(f, params64.w_q)
    k = linear(f, params64.w_k)
    v = linear(f, params64.w_v)
    n = f.shape[0]
    blocks = [range(start, min(start + cfg.block_len, n))
              for start in range(0, n, cfg.block_len)]
    slices, _ = _head_slices(cfg)
    tok = np.empty_like(q)
    for b, rows in enumerate(blocks):
        idx = np.concatenate([np.asarray(blocks[s]) for s in selection[b]])
        for t in rows:
            for hs in slices:
                scores = k[idx, hs] @ q[t, hs] / np.sqrt(hs.stop - hs.start)
                scores -= scores.max()
                e = np.exp(scores)
                probs = e / e.sum()
                tok[t, hs] = probs @ v[idx, hs]
    return linear(tok, params64.w_o)


def coarse_clusters_reference(coords: np.ndarray, levels: int) -> dict:
    """Brute-force bucketing: point indices grouped by their coordinates
    shifted down ``levels`` bits, as a dict keyed by the coarse triple."""
    buckets: dict = {}
    for i, (x, y, z) in enumerate(np.asarray(coords, dtype=np.int64)):
        key = (int(x) >> levels, int(y) >> levels, int(z) >> levels)
        buckets.setdefault(key, []).append(i)
    return buckets
