"""Z-order transformer block: serialization-sorted attention and pooling.

A block runs on features sorted along the Z-curve (``morton.sort_by_code``):

1. group attention — queries/keys/values (one projection, shared with top-k)
   are mean-pooled over contiguous blocks of ``block_len`` tokens, each mean a
   segment sum (``numerics.segment_sum``) over the Z-sorted rows; block-level
   softmax attention produces both a coarse output and the block affinities;
2. top-k attention — each query block attends to the raw tokens of the k
   blocks its affinity row ranks highest (its own block always included), so
   the full token-by-token score matrix is never materialized;
3. gated fusion — two per-token sigmoid gates mix the branch outputs, which
   are added to the input features (residual);
4. Z-order pooling — tokens whose codes agree after dropping ``pool_levels``
   levels collapse to one point (mean features through a projection, mean
   colors, cell-center positions); a cell's members are a contiguous run of
   the Z-sorted rows, so each mean is a segment sum over those rows.

Each op has a ``*_fwd`` variant returning a cache and a matching ``*_bwd``
computing exact gradients by hand; the top-k block selection is treated as
frozen (no gradient through the ranking). Both branches read and return only
the stacked ``qkv``, so the block's backward adds their Q/K/V gradients and
projects them back through Q/K/V once, as the forward projects once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, RangeError
from .morton import Quantizer, decode_array, shift_array, sort_by_code
from .numerics import (
    LinearLayer,
    derive_seed,
    init_linear,
    linear,
    linear_backward,
    segment_sum,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
)
from .scene import check_fields, integer, one_of

# bytes of gathered keys, values and scores per top-k chunk: about half of
# one core's 2 MB L2, so a chunk's tiles stay in cache from the gather through
# both products and the softmax (see _topk_chunked)
_CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class AttentionConfig:
    """Shape hyper-parameters of one transformer block.

    ``select_k`` = 0 means "half the blocks" (at least one); a positive value
    is used as-is, capped at the block count. ``position_mode`` picks pooled
    point positions: centers of the coarse cells or member means.
    """

    block_len: int = 32
    select_k: int = 0
    model_width: int = 96
    head_width: int = 32
    n_heads: int = 1
    pool_levels: int = 2
    position_mode: str = "cell_center"

    # what each field may hold; a subclass extends the table with its fields
    FIELDS = {
        "block_len": integer(1),
        "select_k": integer(0),
        "model_width": integer(1),
        "head_width": integer(1),
        "n_heads": integer(1),
        "pool_levels": integer(0),
        "position_mode": one_of("cell_center", "member_mean"),
    }

    def __post_init__(self):
        check_fields(vars(self), self.FIELDS, ConfigError)
        if self.head_width % self.n_heads:
            raise ConfigError(
                f"head_width {self.head_width} must divide into {self.n_heads} heads"
            )

    def resolve_k(self, n_blocks: int) -> int:
        if self.select_k == 0:
            return max(1, n_blocks // 2)
        return min(self.select_k, n_blocks)


@dataclass(frozen=True)
class ZFormerParams:
    """Learned layers of one block; all shapes derive from AttentionConfig."""

    w_q: LinearLayer
    w_k: LinearLayer
    w_v: LinearLayer
    w_o: LinearLayer
    gate: LinearLayer
    pool_proj: LinearLayer

    NAMES = ("w_q", "w_k", "w_v", "w_o", "gate", "pool_proj")

    @classmethod
    def init(cls, cfg: AttentionConfig, seed: int) -> "ZFormerParams":
        mw, hw = cfg.model_width, cfg.head_width
        return cls(
            w_q=init_linear(mw, hw, derive_seed(seed, "w_q")),
            w_k=init_linear(mw, hw, derive_seed(seed, "w_k")),
            w_v=init_linear(mw, hw, derive_seed(seed, "w_v")),
            w_o=init_linear(hw, mw, derive_seed(seed, "w_o")),
            gate=init_linear(mw, 2, derive_seed(seed, "gate")),
            pool_proj=init_linear(mw, mw, derive_seed(seed, "pool_proj")),
        )

    def astype(self, dtype) -> "ZFormerParams":
        return ZFormerParams(*(getattr(self, n).astype(dtype) for n in self.NAMES))

    def layers(self) -> dict:
        return {n: getattr(self, n) for n in self.NAMES}

    def qkv(self) -> LinearLayer:
        """w_q, w_k and w_v stacked: one product gives q | k | v side by side."""
        layers = (self.w_q, self.w_k, self.w_v)
        return LinearLayer(np.concatenate([x.weight for x in layers]),
                           np.concatenate([x.bias for x in layers]), seed=0)


# ---------------------------------------------------------------------------
# block partition helpers


def _block_counts(n: int, block_len: int) -> np.ndarray:
    n_blocks = (n + block_len - 1) // block_len
    counts = np.full(n_blocks, block_len, dtype=np.int64)
    if n % block_len:
        counts[-1] = n % block_len
    return counts


def _starts(counts: np.ndarray) -> np.ndarray:
    """First row of each segment, given the segment lengths."""
    return np.cumsum(counts) - counts


def block_pool(x: np.ndarray, block_len: int) -> np.ndarray:
    """Mean over contiguous blocks of rows; a short final block averages over
    its actual length."""
    n = x.shape[0]
    if n == 0:
        raise InputError("cannot block-pool zero rows")
    counts = _block_counts(n, block_len)
    sums = segment_sum(x, _starts(counts))
    return sums / counts[:, None].astype(sums.dtype)


def _unpool(g_blocks: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Adjoint of a segment mean (block_pool, zorder_pool's feature mean):
    each row receives its segment's gradient row / segment length."""
    return np.repeat(g_blocks / counts[:, None], counts, axis=0)


def _head_slices(cfg: AttentionConfig):
    """Per-head column slices and the score scale 1/sqrt(head width), a python
    float so float32 inputs stay float32."""
    dh = cfg.head_width // cfg.n_heads
    return [slice(h * dh, (h + 1) * dh) for h in range(cfg.n_heads)], dh ** -0.5


# ---------------------------------------------------------------------------
# group attention


def group_attention_fwd(qkv: np.ndarray, params: ZFormerParams, cfg: AttentionConfig):
    """Block-pooled attention over ``qkv``, the stacked Q/K/V projections of
    the Z-sorted tokens. Returns (out n x model, w_blocks B x B, cache).

    ``w_blocks`` is the head-mean of the block softmax matrices; with one head
    it is exactly the attention over pooled queries/keys. ``w_o`` maps the B
    block rows before they are broadcast back to their tokens.
    """
    counts = _block_counts(qkv.shape[0], cfg.block_len)
    pooled = block_pool(qkv, cfg.block_len)
    qb, kb, vb = np.split(pooled, 3, axis=1)
    slices, scale = _head_slices(cfg)
    probs = []
    block_out = np.empty_like(qb)
    for hs in slices:
        scores = (qb[:, hs] @ kb[:, hs].T) * scale
        p = softmax_rows(scores)
        probs.append(p)
        block_out[:, hs] = p @ vb[:, hs]
    w_blocks = probs[0] if len(probs) == 1 else sum(probs) / len(probs)
    out = np.repeat(linear(block_out, params.w_o), counts, axis=0)
    cache = {
        "pooled": pooled, "counts": counts, "probs": probs,
        "block_out": block_out, "scale": scale, "slices": slices,
    }
    return out, w_blocks, cache


def group_attention(f: np.ndarray, params: ZFormerParams, cfg: AttentionConfig):
    return group_attention_fwd(linear(f, params.qkv()), params, cfg)[:2]


def group_attention_bwd(g_out: np.ndarray, cache: dict, params: ZFormerParams):
    """Gradient of the group branch w.r.t. its ``qkv`` and ``w_o``: returns
    (g_qkv, (d_weight, d_bias)). No gradient flows out of w_blocks (its only
    consumer, the top-k ranking, is frozen)."""
    counts = cache["counts"]
    g_rows = segment_sum(g_out, _starts(counts))
    g_block_out, gw_o, gb_o = linear_backward(g_rows, cache["block_out"], params.w_o)
    qb, kb, vb = np.split(cache["pooled"], 3, axis=1)
    g_pooled = np.zeros_like(cache["pooled"])
    g_qb, g_kb, g_vb = np.split(g_pooled, 3, axis=1)
    for p, hs in zip(cache["probs"], cache["slices"]):
        g_o = g_block_out[:, hs]
        g_p = g_o @ vb[:, hs].T
        g_vb[:, hs] = p.T @ g_o
        g_s = softmax_rows_backward(g_p, p) * cache["scale"]
        g_qb[:, hs] = g_s @ kb[:, hs]
        g_kb[:, hs] = g_s.T @ qb[:, hs]
    return _unpool(g_pooled, counts), (gw_o, gb_o)


# ---------------------------------------------------------------------------
# top-k block selection and attention


def select_blocks(w_blocks: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k blocks each query block attends to, rows sorted
    ascending. A block's own index is always included; remaining slots take
    the highest-affinity blocks, ties resolved toward the lower index.

    Each row keeps every entry above its k-th largest value, then the
    lowest-index entries equal to it; one partition finds that value, so no
    row is fully sorted. A NaN ranks as -inf."""
    n_blocks = w_blocks.shape[0]
    if not 1 <= k <= n_blocks:
        raise RangeError(f"k must be in [1, {n_blocks}], got {k}")
    ranked = np.fmax(w_blocks, -np.inf, dtype=np.promote_types(w_blocks.dtype, np.float32))
    np.fill_diagonal(ranked, np.inf)
    kth = np.partition(ranked, n_blocks - k, axis=1)[:, n_blocks - k, None]
    above = ranked > kth
    tied = ranked == kth
    room = k - above.sum(axis=1, keepdims=True)
    keep = above | (tied & (np.cumsum(tied, axis=1) <= room))
    return np.nonzero(keep)[1].reshape(n_blocks, k)


def _selection(n: int, w_blocks: np.ndarray, cfg: AttentionConfig, selection):
    """Block counts of ``n`` tokens and the blocks each query block attends
    to: ``selection`` when pinned, else the top-k of ``w_blocks``."""
    counts = _block_counts(n, cfg.block_len)
    n_blocks = len(counts)
    if w_blocks.shape != (n_blocks, n_blocks):
        raise InputError(
            f"w_blocks shape {w_blocks.shape} does not match {n_blocks} blocks"
        )
    if selection is None:
        return counts, select_blocks(w_blocks, cfg.resolve_k(n_blocks))
    selection = np.asarray(selection)
    shape = selection.shape
    if len(shape) != 2 or shape[0] != n_blocks or not 1 <= shape[1] <= n_blocks:
        raise InputError(
            f"selection shape {shape} is not ({n_blocks}, k), 1 <= k <= {n_blocks}"
        )
    if not np.issubdtype(selection.dtype, np.integer):
        raise InputError(f"selection holds {selection.dtype}, not integer block ids")
    if selection.min() < 0 or selection.max() >= n_blocks:
        raise RangeError(f"selection block ids must lie in [0, {n_blocks})")
    return counts, selection


def _topk_loop_fwd(q, k, v, selection, counts, cfg):
    """Reference path: one python iteration per query block, keeping each
    block's softmax. It builds the gradient cache and is the oracle the
    chunked kernel is checked against."""
    starts = _starts(counts)
    slices, scale = _head_slices(cfg)
    tok_out = np.empty_like(q)
    blocks = []
    for i in range(len(counts)):
        rows = slice(int(starts[i]), int(starts[i] + counts[i]))
        idx = np.concatenate([np.arange(starts[b], starts[b] + counts[b])
                              for b in selection[i]])
        ks, vs = k[idx], v[idx]
        probs = []
        for hs in slices:
            scores = (q[rows, hs] @ ks[:, hs].T) * scale
            p = softmax_rows(scores)
            probs.append(p)
            tok_out[rows, hs] = p @ vs[:, hs]
        blocks.append({"rows": rows, "idx": idx, "probs": probs})
    return tok_out, blocks


def _topk_chunked(q, k, v, selection, cfg):
    """Inference kernel: query blocks are batched in chunks whose gathered
    keys, values and scores fit in ``_CHUNK_BYTES``, about one core's L2.

    q, k and v arrive as strided column views of the stacked projection; they
    are copied once into contiguous block arrays, zero-padded to whole blocks,
    so every gathered key/value block is one contiguous run, and q is scaled
    once. A padded final block's key columns score -inf, so the softmax gives
    them no weight, and its padded query rows are dropped from the output.

    The gather/score buffers are allocated once and reused for every chunk,
    and each chunk's products are written straight into the output. A chunk
    sized to the cache keeps the gathered tiles in L2 from the gather through
    the two products and the softmax, instead of streaming every pass through
    memory."""
    n, width = q.shape
    block_len = cfg.block_len
    n_blocks = -(-n // block_len)
    pad = n_blocks * block_len - n
    slices, scale = _head_slices(cfg)
    q_blocks, k_blocks, v_blocks = (
        np.pad(x, ((0, pad), (0, 0))).reshape(n_blocks, block_len, width)
        for x in (q, k, v)
    )
    q_blocks *= scale
    k_sel = selection.shape[1]
    kl = k_sel * block_len
    per_block = kl * q.dtype.itemsize * (2 * width + block_len)
    chunk = max(1, min(n_blocks, int(_CHUNK_BYTES / max(per_block, 1))))
    ks = np.empty((chunk, kl, width), q.dtype)
    vs = np.empty((chunk, kl, width), q.dtype)
    scores = np.empty((chunk, block_len, kl), q.dtype)
    out = np.empty((n_blocks, block_len, width), q.dtype)
    for c0 in range(0, n_blocks, chunk):
        c1 = min(c0 + chunk, n_blocks)
        m = c1 - c0
        sel = selection[c0:c1].ravel()
        np.take(k_blocks, sel, axis=0, out=ks[:m].reshape(m * k_sel, block_len, width))
        np.take(v_blocks, sel, axis=0, out=vs[:m].reshape(m * k_sel, block_len, width))
        # (query block, slot) pairs whose gathered keys end in padding
        padded = np.nonzero(selection[c0:c1] == n_blocks - 1) if pad else None
        s = scores[:m]
        for hs in slices:
            np.matmul(q_blocks[c0:c1, :, hs], ks[:m, :, hs].transpose(0, 2, 1), out=s)
            if pad:
                slots = s.reshape(m, block_len, k_sel, block_len)
                slots[padded[0], :, padded[1], block_len - pad :] = -np.inf
            s -= s.max(axis=-1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=-1, keepdims=True)
            np.matmul(s, vs[:m, :, hs], out=out[c0:c1, :, hs])
    return out.reshape(-1, width)[:n]


def topk_attention_fwd(
    qkv: np.ndarray,
    w_blocks: np.ndarray,
    params: ZFormerParams,
    cfg: AttentionConfig,
    selection: np.ndarray | None = None,
):
    """Sparse branch over ``qkv``, the stacked Q/K/V projections, with a
    gradient cache: the per-block loop keeps every block's softmax. Returns
    (out, cache)."""
    counts, selection = _selection(qkv.shape[0], w_blocks, cfg, selection)
    q, k, v = np.split(qkv, 3, axis=1)
    tok_out, blocks = _topk_loop_fwd(q, k, v, selection, counts, cfg)
    out = linear(tok_out, params.w_o)
    slices, scale = _head_slices(cfg)
    cache = {
        "qkv": qkv, "blocks": blocks, "tok_out": tok_out,
        "selection": selection, "slices": slices, "scale": scale,
    }
    return out, cache


def _topk_attention(qkv, w_blocks, params, cfg, selection=None) -> np.ndarray:
    _, selection = _selection(qkv.shape[0], w_blocks, cfg, selection)
    tok_out = _topk_chunked(*np.split(qkv, 3, axis=1), selection, cfg)
    return linear(tok_out, params.w_o)


def topk_attention(
    f: np.ndarray,
    w_blocks: np.ndarray,
    params: ZFormerParams,
    cfg: AttentionConfig,
    selection: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse branch. Each query block attends to the raw keys/values of its
    selected blocks only; peak intermediate size is O(n * k * block_len / B),
    never n x n. Pass ``selection`` to pin the block choice (gradient checks
    freeze it); otherwise it is derived from ``w_blocks``."""
    return _topk_attention(linear(f, params.qkv()), w_blocks, params, cfg, selection)


def topk_attention_bwd(g_out: np.ndarray, cache: dict, params: ZFormerParams):
    """Gradient of the sparse branch w.r.t. its ``qkv`` and ``w_o``, with the
    block selection held fixed: returns (g_qkv, (d_weight, d_bias))."""
    q, k, v = np.split(cache["qkv"], 3, axis=1)
    g_tok, gw_o, gb_o = linear_backward(g_out, cache["tok_out"], params.w_o)
    g_qkv = np.zeros_like(cache["qkv"])
    g_q, g_k, g_v = np.split(g_qkv, 3, axis=1)
    for blk in cache["blocks"]:
        rows, idx = blk["rows"], blk["idx"]
        ks, vs = k[idx], v[idx]
        for p, hs in zip(blk["probs"], cache["slices"]):
            g_o = g_tok[rows, hs]
            g_p = g_o @ vs[:, hs].T
            np.add.at(g_v[:, hs], idx, p.T @ g_o)
            g_s = softmax_rows_backward(g_p, p) * cache["scale"]
            g_q[rows, hs] += g_s @ ks[:, hs]
            np.add.at(g_k[:, hs], idx, g_s.T @ q[rows, hs])
    return g_qkv, (gw_o, gb_o)


# ---------------------------------------------------------------------------
# gated fusion


def gated_fuse_fwd(f, grp_out, sel_out, params: ZFormerParams):
    """Per-token sigmoid gates: out = g0 * group + g1 * selected."""
    z = linear(f, params.gate)
    if z.shape[1] != 2:
        raise InputError(f"gate layer must output 2 values, got {z.shape[1]}")
    g = sigmoid(z)
    out = g[:, 0:1] * grp_out + g[:, 1:2] * sel_out
    return out, {"f": f, "g": g, "grp": grp_out, "sel": sel_out}


def gated_fuse(f, grp_out, sel_out, params: ZFormerParams) -> np.ndarray:
    return gated_fuse_fwd(f, grp_out, sel_out, params)[0]


def gated_fuse_bwd(g_out: np.ndarray, cache: dict, params: ZFormerParams):
    g = cache["g"]
    g_grp = g_out * g[:, 0:1]
    g_sel = g_out * g[:, 1:2]
    gz = np.stack(
        [
            (g_out * cache["grp"]).sum(axis=1) * g[:, 0] * (1.0 - g[:, 0]),
            (g_out * cache["sel"]).sum(axis=1) * g[:, 1] * (1.0 - g[:, 1]),
        ],
        axis=1,
    )
    gf, gw, gb = linear_backward(gz, cache["f"], params.gate)
    return gf, g_grp, g_sel, {"gate": (gw, gb)}


# ---------------------------------------------------------------------------
# Z-order pooling


def _cluster_starts(keys: np.ndarray):
    change = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[change, len(keys)])
    return change, counts


def zorder_pool_fwd(rep, codes: np.ndarray, levels: int, params: ZFormerParams,
                    quantizer: Quantizer, cfg: AttentionConfig):
    """Collapse points sharing a coarse cell (codes equal after dropping
    ``levels`` levels). Features are cluster means through the pooling
    projection; colors are means; positions are coarse-cell centers (or
    member means under ``position_mode='member_mean'``); view_of is the first
    member's. Codes must arrive sorted ascending."""
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.shape != (len(rep),):
        raise InputError(f"codes shape {codes.shape} != point count {len(rep)}")
    keys = shift_array(codes, levels, quantizer.depth)
    if np.any(codes[1:] < codes[:-1]):
        raise InputError("zorder_pool requires codes sorted ascending")
    starts, counts = _cluster_starts(keys)
    mean_feat = segment_sum(rep.features, starts) / counts[:, None].astype(
        rep.features.dtype
    )
    pooled_feat = linear(mean_feat, params.pool_proj)
    colors = segment_sum(rep.colors, starts) / counts[:, None]
    new_codes = keys[starts]
    if cfg.position_mode == "member_mean":
        positions = segment_sum(rep.positions, starts) / counts[:, None]
    else:
        coarse = quantizer.coarsen(levels) if levels else quantizer
        ijk = decode_array(new_codes, coarse.depth)
        positions = coarse.cell_centers(ijk)
    view_of = rep.view_of[starts]
    pooled = type(rep)(positions, pooled_feat, colors, view_of)
    cache = {"starts": starts, "counts": counts, "mean_feat": mean_feat}
    return pooled, new_codes, cache


def zorder_pool(rep, codes, levels, params, quantizer, cfg: AttentionConfig):
    pooled, new_codes, _ = zorder_pool_fwd(rep, codes, levels, params, quantizer, cfg)
    return pooled, new_codes


def zorder_pool_bwd(g_features: np.ndarray, cache: dict, params: ZFormerParams):
    """Feature-path gradient (positions/colors carry no learned parameters)."""
    g_mean, gw, gb = linear_backward(g_features, cache["mean_feat"], params.pool_proj)
    return _unpool(g_mean, cache["counts"]), {"pool_proj": (gw, gb)}


# ---------------------------------------------------------------------------
# full block


def zformer_block_fwd(rep, quantizer: Quantizer, params: ZFormerParams,
                      cfg: AttentionConfig, selection: np.ndarray | None = None):
    """Sort, attend (both branches), fuse, residual-add, pool.

    Returns (pooled representation, pooled codes, cache). The pooled codes are
    valid for the quantizer coarsened by ``cfg.pool_levels``.
    """
    rep_s, codes, perm = sort_by_code(rep, quantizer)
    f = rep_s.features
    qkv = linear(f, params.qkv())
    grp_out, w_blocks, c_grp = group_attention_fwd(qkv, params, cfg)
    sel_out, c_sel = topk_attention_fwd(qkv, w_blocks, params, cfg, selection)
    fused, c_fuse = gated_fuse_fwd(f, grp_out, sel_out, params)
    f_new = f + fused
    rep_mid = rep_s.with_features(f_new)
    pooled, new_codes, c_pool = zorder_pool_fwd(
        rep_mid, codes, cfg.pool_levels, params, quantizer, cfg
    )
    cache = {"perm": perm, "f": f, "grp": c_grp, "sel": c_sel, "fuse": c_fuse,
             "pool": c_pool}
    return pooled, new_codes, cache


def zformer_block(rep, quantizer, params, cfg):
    """Inference-only forward: no gradient caches, so the top-k branch can
    take its chunked path and memory stays proportional to n·k·L, not n²."""
    rep_s, codes, _ = sort_by_code(rep, quantizer)
    f = rep_s.features
    qkv = linear(f, params.qkv())
    grp_out, w_blocks, _ = group_attention_fwd(qkv, params, cfg)
    sel_out = _topk_attention(qkv, w_blocks, params, cfg)
    fused = gated_fuse(f, grp_out, sel_out, params)
    rep_mid = rep_s.with_features(f + fused)
    return zorder_pool(rep_mid, codes, cfg.pool_levels, params, quantizer, cfg)


def zformer_block_bwd(g_features: np.ndarray, cache: dict, params: ZFormerParams):
    """Gradients of pooled output features w.r.t. every layer and the input
    features (returned in the caller's pre-sort order). Both branches' Q/K/V
    gradients are summed first, so the stacked projection takes one backward."""
    g_f_new, g_pool = zorder_pool_bwd(g_features, cache["pool"], params)
    gf_fuse, g_grp, g_sel, g_gate = gated_fuse_bwd(g_f_new, cache["fuse"], params)
    g_qkv_grp, (gw_grp, gb_grp) = group_attention_bwd(g_grp, cache["grp"], params)
    g_qkv_sel, (gw_sel, gb_sel) = topk_attention_bwd(g_sel, cache["sel"], params)
    gf_qkv, gw, gb = linear_backward(g_qkv_grp + g_qkv_sel, cache["f"], params.qkv())
    grads = {
        **dict(zip(("w_q", "w_k", "w_v"), zip(np.split(gw, 3), np.split(gb, 3)))),
        "w_o": (gw_grp + gw_sel, gb_grp + gb_sel),
        **g_gate,
        **g_pool,
    }
    g_sorted = g_f_new + gf_fuse + gf_qkv
    g_input = np.empty_like(g_sorted)
    g_input[cache["perm"]] = g_sorted
    return g_input, grads
