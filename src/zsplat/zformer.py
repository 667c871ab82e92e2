"""Z-order transformer block: serialization-sorted attention and pooling.

A block runs on features in Z-curve order (``morton.z_order``):

1. group attention — queries/keys/values (one projection, shared with top-k)
   are mean-pooled over the blocks of ``_blocks``, the one partition of a
   level that every stage uses, each mean a ``numerics.segment_sums`` run of
   the Z-sorted rows; block-level softmax attention produces both a coarse
   output and the block affinities;
2. top-k attention — each query block attends to the raw tokens of the k
   blocks its affinity row ranks highest (its own block always included), so
   the full token-by-token score matrix is never materialized; the inference
   kernel walks each query block's selected keys in tiles of at most 256,
   scores keys by queries with log2(e) folded into the query scale, so
   ``exp2`` of a score is ``exp`` of the natural one, and takes the softmax
   sums from a ones column appended to each head's values, adding each
   tile's value product into one accumulator and dividing once per chunk; it
   skips the softmax row max when a Cauchy–Schwarz bound on the scores shows
   the exponent cannot overflow or underflow, else it keeps a running row max
   across the tiles;
3. gated fusion — two per-token sigmoid gates mix the branch outputs in head
   space (the group branch's one row per block), ``w_o`` projects the mix
   once (``w_o`` is linear, so this equals gating the two projected
   branches), and the result is added to the input features (residual);
4. Z-order pooling — tokens whose codes agree after dropping ``pool_levels``
   levels collapse to one point (mean features through a projection, mean
   colors, cell-center positions); a cell's members are a contiguous run of
   the Z-sorted rows, so each mean is a segment sum over those rows.

The inference block, ``zformer_block``, keeps the Z-order as a permutation
(``morton.z_order``) and never copies the input features in sorted order: the
stacked Q/K/V and gate products run over fixed row tiles of the sorted
sequence, each tile gathered once through the permutation for both, and the
residual is added tile by tile, gathered the same way. It drops each n-row array once
its last reader has run: the stacked ``qkv`` once the kernel has copied it
into its block arrays, and those once the kernel has run. The public wrappers
multiply the same tiles of already-sorted features, and ``topk_attention``
runs the block's own projection, layout and chunk loop, so the block's output
(and every PLY byte) equals ``sort_by_code`` and the wrappers composed one at
a time. It checks its features once, in the pooled points.

Each op has a ``*_fwd`` variant returning a cache and a matching ``*_bwd``
computing exact gradients by hand; the top-k block selection is treated as
frozen (no gradient through the ranking). Both branches read the stacked
``qkv`` and return head-space outputs, so the block's backward takes ``w_o``'s
gradient from the fusion alone, adds the branches' Q/K/V gradients and
projects them back through Q/K/V once, as the forward projects once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, RangeError
from .morton import Quantizer, decode_array, shift_array, sort_by_code, z_order
from .numerics import (
    LinearLayer,
    derive_seed,
    init_linear,
    linear,
    linear_backward,
    segment_sums,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
)
from .scene import check_fields, integer, one_of

# bytes of gathered keys, values and scores per top-k chunk of query blocks,
# each with one tile of its selected keys: about half of one core's 2 MB L2,
# so a chunk's tiles stay in cache from the gather through both products and
# the softmax. A chunk's floor, one query block with one tile, takes at most
# _TILE_KEYS·(2·width + block_len) values while block_len <= _TILE_KEYS: 224 KiB
# at width 96, block_len 32. Above that a tile is one block, and the floor is
# block_len·(2·width + block_len) values
_CHUNK_BYTES = 2**20

# keys per tile of a query block's selected slots (see _topk_chunks), whole
# key blocks of at most this many keys (one block when block_len is larger):
# above about 768 keys the value product leaves OpenBLAS's small-matrix path
# and costs about twice as much per key on one thread
_TILE_KEYS = 256

# rows per tile of the Z-sorted sequence in a block's input products, the
# stacked Q/K/V and the gate (see _tiled_linear): a 4096 x 96 float32 tile is
# 1.5 MiB, a quarter of sparse-k's first-level feature array
_TILE_ROWS = 4096

# a top-k call's softmax skips the row max when its score bound plus ln(keys)
# plus ln(max(1, max|v|)) is below this (see _scores_are_bounded): float32 exp
# overflows past 88.7 (exp2 past 128, the same value), and e^-80 = 2^-115.4
# is still a normal float32
_EXP_BOUND = 80.0

# the top-k kernel's scores are natural scores times this, so exp2 of them is
# exp of the natural ones
_LOG2E = math.log2(math.e)


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

    @staticmethod
    def shapes(cfg: AttentionConfig) -> dict:
        """Each layer's weight shape, (out, in), by name in ``NAMES`` order."""
        mw, hw = cfg.model_width, cfg.head_width
        return {"w_q": (hw, mw), "w_k": (hw, mw), "w_v": (hw, mw), "w_o": (mw, hw),
                "gate": (2, mw), "pool_proj": (mw, mw)}

    @classmethod
    def init(cls, cfg: AttentionConfig, seed: int) -> "ZFormerParams":
        return cls(**{name: init_linear(n_in, n_out, derive_seed(seed, name))
                      for name, (n_out, n_in) in cls.shapes(cfg).items()})

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


def _blocks(n: int, block_len: int):
    """The blocks of a level of ``n`` Z-sorted rows, as (starts, lengths):
    runs of ``block_len`` consecutive rows, the last shorter when
    ``block_len`` does not divide n, so a level shorter than ``block_len`` is
    one block of its n rows. Every stage cuts a level through this."""
    starts = np.arange(0, n, block_len)
    return starts, np.diff(np.append(starts, n))


def block_pool(x: np.ndarray, block_len: int) -> np.ndarray:
    """Mean over the ``_blocks`` of the rows, summed by ``segment_sums``; a
    short final block averages over its actual length."""
    if x.shape[0] == 0:
        raise InputError("cannot block-pool zero rows")
    starts, lengths = _blocks(x.shape[0], block_len)
    sums = segment_sums([x], starts)[0]
    return sums / lengths[:, None].astype(sums.dtype)


def _unpool(g_blocks: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Adjoint of a segment mean (block_pool, zorder_pool's feature mean):
    each row receives its segment's gradient row / segment length."""
    return np.repeat(g_blocks / counts[:, None], counts, axis=0)


def _tiled_linear(f: np.ndarray, layers, perm: np.ndarray | None = None) -> list:
    """Each layer's ``linear`` of the rows ``f[perm]`` (of ``f`` when ``perm``
    is None), computed over tiles of ``_TILE_ROWS`` consecutive rows.

    Each tile of ``f[perm]`` is gathered once and feeds every layer's
    product, so ``f[perm]`` never exists whole. A matrix product's row can
    round differently at another position in the product, so the block and
    the public wrappers go through the same tiles: a gathered tile of
    unsorted features and the same rows of the sorted ones give the same
    bytes. Up to one tile, this is one ``linear`` per layer."""
    n = len(f) if perm is None else len(perm)
    outs = [np.empty((n, layer.out_width), np.result_type(f, layer.weight))
            for layer in layers]
    for i in range(0, n, _TILE_ROWS):
        rows = slice(i, i + _TILE_ROWS)
        tile = f[rows] if perm is None else f[perm[rows]]
        for out, layer in zip(outs, layers):
            linear(tile, layer, out=out[rows])
    return outs


def _head_slices(cfg: AttentionConfig):
    """Per-head column slices and the score scale 1/sqrt(head width), a python
    float so float32 inputs stay float32."""
    dh = cfg.head_width // cfg.n_heads
    return [slice(h * dh, (h + 1) * dh) for h in range(cfg.n_heads)], dh ** -0.5


# ---------------------------------------------------------------------------
# group attention


def group_attention_fwd(qkv: np.ndarray, cfg: AttentionConfig):
    """Block-pooled attention over ``qkv``, the stacked Q/K/V projections of
    the Z-sorted tokens. Returns (block_out B x head, w_blocks B x B, cache).

    Every token's head-space output is its block's row of ``block_out``
    (``cache["starts"]`` and ``cache["lengths"]`` hold the ``_blocks``);
    ``w_blocks`` is the head-mean of the block softmax matrices, with one
    head exactly the attention over pooled queries/keys. ``gated_fuse``
    applies ``w_o``.
    """
    pooled = block_pool(qkv, cfg.block_len)
    starts, lengths = _blocks(qkv.shape[0], cfg.block_len)
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
    cache = {
        "pooled": pooled, "starts": starts, "lengths": lengths,
        "probs": probs, "scale": scale, "slices": slices,
    }
    return block_out, w_blocks, cache


def group_attention(f: np.ndarray, params: ZFormerParams, cfg: AttentionConfig):
    """Group branch of the Z-sorted features ``f``: (out n x head, w_blocks)."""
    block_out, w_blocks, cache = group_attention_fwd(_tiled_linear(f, [params.qkv()])[0], cfg)
    return np.repeat(block_out, cache["lengths"], axis=0), w_blocks


def group_attention_bwd(g_out: np.ndarray, cache: dict) -> np.ndarray:
    """Gradient of the group branch w.r.t. its ``qkv``, given the gradient of
    its head-space output. No gradient flows out of w_blocks (its only
    consumer, the top-k ranking, is frozen)."""
    g_block_out = segment_sums([g_out], cache["starts"])[0]
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
    return _unpool(g_pooled, cache["lengths"])


# ---------------------------------------------------------------------------
# top-k block selection and attention


def select_blocks(w_blocks: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k blocks each query block attends to, rows sorted
    ascending. A block's own index is always included; remaining slots take
    the highest-affinity blocks, ties resolved toward the lower index.

    Each row keeps every entry at or above its k-th largest value; one
    partition finds that value, so no row is fully sorted. Only a row with
    more entries equal to it than slots left is ranked again, keeping the
    lowest-index ones. A NaN ranks as -inf."""
    n_blocks = w_blocks.shape[0]
    if not 1 <= k <= n_blocks:
        raise RangeError(f"k must be in [1, {n_blocks}], got {k}")
    ranked = np.fmax(w_blocks, -np.inf, dtype=np.promote_types(w_blocks.dtype, np.float32))
    np.fill_diagonal(ranked, np.inf)
    kth = np.partition(ranked, n_blocks - k, axis=1)[:, n_blocks - k, None]
    keep = ranked >= kth
    over = np.flatnonzero(keep.sum(axis=1) > k)
    if over.size:
        rows, row_kth = ranked[over], kth[over]
        above = rows > row_kth
        tied = rows == row_kth
        room = k - above.sum(axis=1, keepdims=True)
        keep[over] = above | (tied & (np.cumsum(tied, axis=1) <= room))
    return np.nonzero(keep)[1].reshape(n_blocks, k)


def _selection(n: int, w_blocks: np.ndarray, cfg: AttentionConfig, selection):
    """The blocks each query block of ``n`` tokens attends to: ``selection``
    when pinned, else the top-k of ``w_blocks``."""
    n_blocks = len(_blocks(n, cfg.block_len)[0])
    if w_blocks.shape != (n_blocks, n_blocks):
        raise InputError(
            f"w_blocks shape {w_blocks.shape} does not match {n_blocks} blocks"
        )
    if selection is None:
        return select_blocks(w_blocks, cfg.resolve_k(n_blocks))
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
    return selection


def _topk_loop_fwd(q, k, v, selection, cfg):
    """Reference path: one python iteration per query block, keeping each
    block's softmax. It builds the gradient cache and is the oracle the
    chunked kernel is checked against. q is scaled by 1/sqrt(head width)
    before the products and the softmax takes natural ``exp``; the kernel
    folds log2(e) into that scale and takes ``exp2``, so the two differ only
    in rounding."""
    starts, lengths = _blocks(len(q), cfg.block_len)
    slices, scale = _head_slices(cfg)
    q_scaled = q * scale
    tok_out = np.empty_like(q)
    blocks = []
    for i in range(len(starts)):
        rows = slice(int(starts[i]), int(starts[i] + lengths[i]))
        idx = np.concatenate([np.arange(starts[b], starts[b] + lengths[b])
                              for b in selection[i]])
        ks, vs = k[idx], v[idx]
        probs = []
        for hs in slices:
            p = softmax_rows(q_scaled[rows, hs] @ ks[:, hs].T)
            probs.append(p)
            tok_out[rows, hs] = p @ vs[:, hs]
        blocks.append({"rows": rows, "idx": idx, "probs": probs})
    return tok_out, blocks


def _scores_are_bounded(q_blocks, k_blocks, v_blocks, n_heads: int, keys: int) -> bool:
    """Whether a top-k call's softmax may skip the row max: true when the
    score bound B plus ln(keys) plus ln(max(1, max|v|)) is below
    ``_EXP_BOUND``, all in natural units.

    The arguments are ``_topk_layout``'s blocks, whose last axis holds
    ``n_heads`` heads side by side. The kernel raises 2 to each score
    q_i·k_j (the layout's q carries log2(e)), so the natural score is
    ln(2)·q_i·k_j. By Cauchy–Schwarz each natural score of a head obeys
    |s| <= B = ln(2)·max‖q_i‖·max‖k_j‖ over that head's columns. Below the
    bound, e^s lies in [e^-80, e^80 / keys], inside float32's normal range, so
    a row's exp-sum over ``keys`` keys stays finite and nonzero and its
    exp-weighted value sums stay below e^80. A non-finite input fails: a NaN
    makes the bound NaN, and NaN < ``_EXP_BOUND`` is false."""
    rows = [x.reshape(-1, n_heads, x.shape[-1] // n_heads) for x in (q_blocks, k_blocks)]
    with np.errstate(over="ignore", invalid="ignore"):
        # each head's largest squared row norm of q, then of k
        q_sq, k_sq = (np.einsum("rhd,rhd->rh", r, r).max(axis=0) for r in rows)
        score_bound = float(np.sqrt((q_sq * k_sq).max())) * math.log(2.0)
        # np.max keeps a NaN, where Python's max would drop it
        v_max = float(np.max([1.0, v_blocks.max(), -v_blocks.min()]))
    return score_bound + math.log(keys) + math.log(v_max) < _EXP_BOUND


def _topk_layout(q, k, v, cfg):
    """The kernel's block arrays of ``n`` tokens: (q_blocks, k_blocks,
    v_blocks), each (n_blocks, block_len, ·), over the ``_blocks`` of the
    level, the first block's length giving block_len and a ragged final
    block padded to a whole one.

    q, k and v arrive as strided column views of the stacked projection; they
    are copied once, so every gathered key/value block is one contiguous run,
    and q is scaled once, by 1/sqrt(head width) times log2(e), so the
    kernel's ``exp2`` of a score is ``exp`` of the natural score. v is copied
    into per-head blocks that each end in a ones column,
    ``[v_0 | 1 | v_1 | 1 …]``.

    The padded rows of q and k repeat row n−1, and the padded rows of v are
    zero, ones column included. A padded key then scores as key n−1 does, in
    the same block, so it never raises a row's max, and it adds +0.0 to every
    numerator and exp-sum; the padded query rows are dropped from the output.
    A caller that holds nothing else of q, k and v can release them before
    ``_topk_chunks`` runs; neither step writes to an array it is given."""
    n, width = q.shape
    lengths = _blocks(n, cfg.block_len)[1]
    n_blocks, block_len = len(lengths), int(lengths[0])
    slices, scale = _head_slices(cfg)
    n_heads, dh = len(slices), width // len(slices)
    q_blocks, k_blocks = (
        np.pad(x, ((0, n_blocks * block_len - n), (0, 0)), mode="edge")
        .reshape(n_blocks, block_len, width)
        for x in (q, k)
    )
    q_blocks *= scale * _LOG2E
    v_blocks = np.zeros((n_blocks * block_len, n_heads, dh + 1), q.dtype)
    v_blocks[:n, :, :dh] = v.reshape(n, n_heads, dh)
    v_blocks[:n, :, dh] = 1
    return q_blocks, k_blocks, v_blocks.reshape(n_blocks, block_len, n_heads * (dh + 1))


def _topk_chunks(q_blocks, k_blocks, v_blocks, n, selection, cfg):
    """The kernel's chunk loop over the ``_topk_layout`` blocks of ``n``
    tokens; returns the n x head output.

    Query blocks run in chunks, and each chunk walks its query blocks'
    selected key blocks in tiles of at most ``_TILE_KEYS`` keys, the same
    slots of every query block at once, gathered straight from the
    selection's columns. Per head, a tile makes three passes over its keys x
    block_len scores: the product ``ks @ q_blockᵀ``, laid out keys by
    queries, ``exp2`` in place (the layout's q carries log2(e)), and the
    value product ``sᵀ @ [v_h | 1]``, which returns each query row's softmax
    numerators and, in its last column, the row's exp-sum. The first tile's
    product is written straight into the head's accumulator and each later
    one is added to it; once the chunk's last tile is in, the accumulator is
    divided by its last column, once. A padded final block needs no mask:
    its padded keys repeat key n−1 with zero values (see ``_topk_layout``).

    No row max is taken when ``_scores_are_bounded`` holds for the call (see
    there): every tile then only adds, since ``exp2`` of the raw scores can
    neither overflow nor underflow. Otherwise the kernel keeps each query
    row's running max over the tiles so far and shifts the tile's scores by
    it before ``exp2``; where a tile raises the max, the accumulator is first
    scaled by 2^(old max - new max) (the online softmax). With one tile this
    is the usual row-max softmax. Outputs agree with the per-block loop
    within 5e-6 in float32 and 1e-12 in float64, not bit for bit; the same
    input always gives the same bytes.

    A chunk holds as many query blocks as fit their gathered tile of keys,
    values and scores in ``_CHUNK_BYTES``, at least one, so the tiles stay in
    L2 from the gather through the two products, at any k. The buffers are
    allocated once and reused; a second product buffer exists only when a
    query block's k·L keys take more than one tile."""
    n_blocks, block_len, width = q_blocks.shape
    slices = _head_slices(cfg)[0]
    n_heads, dh = len(slices), width // len(slices)
    dtype = q_blocks.dtype
    k_sel = selection.shape[1]
    shift = not _scores_are_bounded(q_blocks, k_blocks, v_blocks, n_heads,
                                    k_sel * block_len)
    slots = max(1, min(k_sel, _TILE_KEYS // block_len))
    tiles = [slice(t, min(t + slots, k_sel)) for t in range(0, k_sel, slots)]
    tile_keys = slots * block_len
    chunk = max(1, min(n_blocks, int(_CHUNK_BYTES / (
        tile_keys * dtype.itemsize * (2 * width + block_len)))))
    vw = n_heads * (dh + 1)
    # flat buffers: a short last tile or chunk takes a prefix of each
    ks = np.empty(chunk * tile_keys * width, dtype)
    vs = np.empty(chunk * tile_keys * vw, dtype)
    scores = np.empty(chunk * tile_keys * block_len, dtype)
    acc = np.empty((n_heads, chunk, block_len, dh + 1), dtype)
    row_max = np.empty((n_heads, chunk, 1, block_len), dtype)
    # only a call of more than one tile adds partial products: sparse-k and
    # many-views run one tile and allocate none (paired runs for and against
    # allocating it on every call: ROADMAP, Tried and dropped)
    if len(tiles) > 1:
        part = np.empty((chunk, block_len, dh + 1), dtype)

    def plan(m):
        """Per tile of a chunk of m query blocks, the views of the buffers it
        fills, per head too. Built once per chunk size, so the tile loop
        creates no array: built per chunk instead, they took criterion 7's
        forward under tracemalloc from 15.6-15.8 s to 18.1-18.5 s (2 vCPUs,
        one BLAS thread)."""
        views = []
        for tile in tiles:
            keys = (tile.stop - tile.start) * block_len
            k_t = ks[: m * keys * width].reshape(m, keys, width)
            v_t = vs[: m * keys * vw].reshape(m, keys, vw)
            s = scores[: m * keys * block_len].reshape(m, keys, block_len)
            views.append((tile, k_t.reshape(m, -1, block_len, width),
                          v_t.reshape(m, -1, block_len, vw), s, s.transpose(0, 2, 1),
                          [(k_t[:, :, hs], v_t[:, :, h * (dh + 1) : (h + 1) * (dh + 1)],
                            acc[h, :m], row_max[h, :m]) for h, hs in enumerate(slices)]))
        return views

    full = plan(chunk)
    out = np.empty((n_blocks, block_len, width), dtype)
    for c0 in range(0, n_blocks, chunk):
        c1 = min(c0 + chunk, n_blocks)
        m = c1 - c0
        q_t = [q_blocks[c0:c1, :, hs].transpose(0, 2, 1) for hs in slices]
        for t, (tile, k_g, v_g, s, s_t, heads) in enumerate(full if m == chunk else plan(m)):
            sel = selection[c0:c1, tile]
            # _selection checked the block ids, so "clip" never clips; the
            # default "raise" gathers into a temporary and copies it again
            np.take(k_blocks, sel, axis=0, out=k_g, mode="clip")
            np.take(v_blocks, sel, axis=0, out=v_g, mode="clip")
            for (k_h, v_h, a, run), q_h in zip(heads, q_t):
                np.matmul(k_h, q_h, out=s)
                if shift:
                    if t == 0:
                        s.max(axis=1, keepdims=True, out=run)
                    else:
                        new = np.maximum(run, s.max(axis=1, keepdims=True))
                        a *= np.exp2(run - new).transpose(0, 2, 1)
                        run[...] = new
                    s -= run
                np.exp2(s, out=s)
                if t == 0:
                    np.matmul(s_t, v_h, out=a)
                else:
                    np.matmul(s_t, v_h, out=part[:m])
                    a += part[:m]
        for h, hs in enumerate(slices):
            np.divide(acc[h, :m, :, :dh], acc[h, :m, :, dh:], out=out[c0:c1, :, hs])
    return out.reshape(-1, width)[:n]


def topk_attention_fwd(
    qkv: np.ndarray,
    w_blocks: np.ndarray,
    cfg: AttentionConfig,
    selection: np.ndarray | None = None,
):
    """Sparse branch over ``qkv``, the stacked Q/K/V projections, with a
    gradient cache: the per-block loop keeps every block's softmax. Returns
    (out n x head, cache)."""
    selection = _selection(qkv.shape[0], w_blocks, cfg, selection)
    q, k, v = np.split(qkv, 3, axis=1)
    tok_out, blocks = _topk_loop_fwd(q, k, v, selection, cfg)
    slices, scale = _head_slices(cfg)
    cache = {
        "qkv": qkv, "blocks": blocks, "selection": selection,
        "slices": slices, "scale": scale,
    }
    return tok_out, cache


def topk_attention(
    f: np.ndarray,
    w_blocks: np.ndarray,
    params: ZFormerParams,
    cfg: AttentionConfig,
    selection: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse branch of the Z-sorted features ``f``, in head space (n x head).
    Each query block attends to the raw keys/values of its selected blocks
    only; peak intermediate size is O(n * k * block_len / B), never n x n.
    Pass ``selection`` to pin the block choice (gradient checks freeze it);
    otherwise it is derived from ``w_blocks``. It makes ``zformer_block``'s
    calls in its order, dropping the projection once the kernel has copied it."""
    qkv = _tiled_linear(f, [params.qkv()])[0]
    selection = _selection(len(f), w_blocks, cfg, selection)
    blocks = _topk_layout(*np.split(qkv, 3, axis=1), cfg)
    del qkv
    return _topk_chunks(*blocks, len(f), selection, cfg)


def topk_attention_bwd(g_tok: np.ndarray, cache: dict) -> np.ndarray:
    """Gradient of the sparse branch w.r.t. its ``qkv``, given the gradient of
    its head-space output, with the block selection held fixed."""
    q, k, v = np.split(cache["qkv"], 3, axis=1)
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
    return g_qkv


# ---------------------------------------------------------------------------
# gated fusion


def _w_o_with_bias(w_o: LinearLayer) -> LinearLayer:
    """``w_o`` with its bias moved into one more input column: a row
    [x, s] maps to x·Wᵀ + s·b. The layer's own bias is zero and never added."""
    weight = np.concatenate([w_o.weight, w_o.bias[:, None]], axis=1)
    return LinearLayer(weight, np.zeros_like(w_o.bias), w_o.seed)


def _gated_fuse(z, grp, block_len, sel, params: ZFormerParams):
    """Per-token sigmoid gates mix the head-space branch outputs, and ``w_o``
    projects the mix once: out = w_o(g0·group + g1·selected) with bias
    (g0 + g1)·b, which is g0·w_o(group) + g1·w_o(selected). The mix carries
    g0 + g1 as a last column, so the bias is part of the one product.

    ``z`` holds the gate layer's logits of the Z-sorted features, n x 2.
    ``grp`` holds one row per block of ``block_len`` consecutive tokens, the
    last block possibly short: the group branch's block outputs, or one row
    per token with ``block_len`` 1. ``sel`` (n x head) is overwritten with
    g1·sel. Returns (out, gates, mix)."""
    if z.shape[1] != 2:
        raise InputError(f"gate layer must output 2 values, got {z.shape[1]}")
    g = sigmoid(z)
    n, hw = sel.shape
    whole = n // block_len * block_len
    mix = np.empty((n, hw + 1), np.result_type(grp, sel, g))
    np.multiply(grp[: n // block_len, None], g[:whole, 0:1].reshape(-1, block_len, 1),
                out=mix[:whole, :hw].reshape(-1, block_len, hw))
    if whole < n:
        np.multiply(grp[-1], g[whole:, 0:1], out=mix[whole:, :hw])
    sel *= g[:, 1:2]
    mix[:, :hw] += sel
    np.add(g[:, 0], g[:, 1], out=mix[:, hw])
    w_o = _w_o_with_bias(params.w_o)
    return mix @ w_o.weight.T, g, mix


def gated_fuse_fwd(f, grp_out, sel_out, params: ZFormerParams):
    """The gated fusion of head-space branch outputs given per token (see
    ``_gated_fuse``), with the cache its backward reads."""
    z = _tiled_linear(f, [params.gate])[0]
    out, g, mix = _gated_fuse(z, grp_out, 1, sel_out.copy(), params)
    return out, {"f": f, "g": g, "grp": grp_out, "sel": sel_out, "mix": mix}


def gated_fuse(f, grp_out, sel_out, params: ZFormerParams) -> np.ndarray:
    return gated_fuse_fwd(f, grp_out, sel_out, params)[0]


def gated_fuse_bwd(g_out: np.ndarray, cache: dict, params: ZFormerParams):
    """Gradients of the fused output w.r.t. ``f`` (through the gate), both
    head-space branch outputs, and the gate and ``w_o`` layers."""
    g, grp, sel = cache["g"], cache["grp"], cache["sel"]
    hw = grp.shape[1]
    g_mix, gw_o, _ = linear_backward(g_out, cache["mix"], _w_o_with_bias(params.w_o))
    g_head, g_sum = g_mix[:, :hw], g_mix[:, hw]
    # each gate scales its branch and adds one b to the bias column
    gz = np.stack(
        [
            ((g_head * grp).sum(axis=1) + g_sum) * g[:, 0] * (1.0 - g[:, 0]),
            ((g_head * sel).sum(axis=1) + g_sum) * g[:, 1] * (1.0 - g[:, 1]),
        ],
        axis=1,
    )
    gf, gw, gb = linear_backward(gz, cache["f"], params.gate)
    grads = {"w_o": (gw_o[:, :hw], gw_o[:, hw]), "gate": (gw, gb)}
    return gf, g_head * g[:, 0:1], g_head * g[:, 1:2], grads


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
    member_mean = cfg.position_mode == "member_mean"
    # the sums become the means in place
    mean_feat, colors, *positions = segment_sums(
        [rep.features, rep.colors] + ([rep.positions] if member_mean else []), starts
    )
    mean_feat /= counts[:, None].astype(mean_feat.dtype)
    pooled_feat = linear(mean_feat, params.pool_proj)
    colors /= counts[:, None]
    new_codes = keys[starts]
    if member_mean:
        positions = positions[0] / counts[:, None]
    else:
        coarse = quantizer.coarsen(levels)
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
    valid for the quantizer coarsened by ``cfg.pool_levels``. An overflow
    ends in ``InputError``, as in :func:`zformer_block`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rep_s, codes, perm = sort_by_code(rep, quantizer)
        f = rep_s.features
        qkv = linear(f, params.qkv())
        grp_blocks, w_blocks, c_grp = group_attention_fwd(qkv, cfg)
        grp_out = np.repeat(grp_blocks, c_grp["lengths"], axis=0)
        sel_out, c_sel = topk_attention_fwd(qkv, w_blocks, cfg, selection)
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
    take its chunked path and memory stays proportional to n·k·L, not n².

    The Z-order stays a permutation: the input features are never copied
    whole in sorted order. The stacked Q/K/V product and the gate product
    run over tiles of ``_TILE_ROWS`` rows of the sorted sequence, each tile
    gathered once through the permutation for both, and the residual is
    added to the fused output tile by tile, gathered the same way. Only
    positions, colors and view ids are reindexed whole, and the fused
    features become the sorted points' features unchecked.

    Each n-row array is dropped once its last reader has run. Besides the
    n x 2 gate logits, the block holds at once: the stacked projection
    ``qkv`` (n x 3·head) and the kernel's block copies of it, only while
    they are copied; then the block copies and the kernel's n x head output;
    then that output, overwritten with the gated top-k term, the
    n x (head + 1) mix and the fused n x model_width features. The group
    branch stays one row per block. None of this changes the arithmetic: the
    output, and so every PLY byte, is bit-identical to ``sort_by_code``,
    ``group_attention``, ``topk_attention``, ``gated_fuse`` and
    ``zorder_pool`` composed one at a time.

    Extreme weights can overflow the block's arithmetic. The pooled features
    are checked for finiteness, so an overflow ends in ``InputError``; numpy's
    overflow warnings are silenced meanwhile. A non-finite residual row stays
    so through its segment mean and ``pool_proj`` (inf·0 is NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        codes, perm = z_order(rep, quantizer)
        n = len(perm)
        qkv, z = _tiled_linear(rep.features, [params.qkv(), params.gate], perm)
        grp_blocks, w_blocks, _ = group_attention_fwd(qkv, cfg)
        selection = _selection(n, w_blocks, cfg, None)
        blocks = _topk_layout(*np.split(qkv, 3, axis=1), cfg)
        del qkv, w_blocks
        sel_out = _topk_chunks(*blocks, n, selection, cfg)
        del blocks
        fused = _gated_fuse(z, grp_blocks, cfg.block_len, sel_out, params)[0]
        del sel_out, z
        for i in range(0, n, _TILE_ROWS):
            rows = slice(i, i + _TILE_ROWS)
            fused[rows] += rep.features[perm[rows]]
        rep_s = type(rep)._unchecked(rep.positions[perm], fused, rep.colors[perm],
                                     rep.view_of[perm])
        return zorder_pool(rep_s, codes, cfg.pool_levels, params, quantizer, cfg)


def zformer_block_bwd(g_features: np.ndarray, cache: dict, params: ZFormerParams):
    """Gradients of pooled output features w.r.t. every layer and the input
    features (returned in the caller's pre-sort order). ``w_o``'s gradient
    comes from the fusion alone, where the forward projects through it; both
    branches' Q/K/V gradients are summed first, so the stacked projection
    takes one backward."""
    g_f_new, g_pool = zorder_pool_bwd(g_features, cache["pool"], params)
    gf_fuse, g_grp, g_sel, g_fuse = gated_fuse_bwd(g_f_new, cache["fuse"], params)
    g_qkv = group_attention_bwd(g_grp, cache["grp"])
    g_qkv += topk_attention_bwd(g_sel, cache["sel"])
    gf_qkv, gw, gb = linear_backward(g_qkv, cache["f"], params.qkv())
    grads = {
        **dict(zip(("w_q", "w_k", "w_v"), zip(np.split(gw, 3), np.split(gb, 3)))),
        **g_fuse,
        **g_pool,
    }
    g_sorted = g_f_new + gf_fuse + gf_qkv
    g_input = np.empty_like(g_sorted)
    g_input[cache["perm"]] = g_sorted
    return g_input, grads
