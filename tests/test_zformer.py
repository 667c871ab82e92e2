import tracemalloc
import warnings
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradutil import grads_to_vec, layer_to_vec, vec_to_layer
from zsplat import reference, synthetic, zformer
from zsplat.config import RunConfig
from zsplat.errors import ConfigError, InputError, RangeError
from zsplat.morton import Quantizer, sort_by_code
from zsplat.numerics import (
    LinearLayer,
    grad_check,
    linear,
    linear_backward,
    segment_sums,
    uniform01,
)
from zsplat.pipeline import forward_scene, init_model, make_quantizer
from zsplat.scene import PointRepresentation, assemble


def _features(n, width, seed, dtype=np.float32):
    return (uniform01(seed, n * width).reshape(n, width) * 2 - 1).astype(dtype)


def _params(cfg, seed=11):
    return zformer.ZFormerParams.init(cfg, seed)


def _with_biases(params, seed=13):
    """``params`` with a nonzero bias on every layer."""
    return dc_replace(params, **{
        name: LinearLayer(layer.weight, _features(1, layer.out_width, seed + i,
                                                  layer.bias.dtype)[0], layer.seed)
        for i, (name, layer) in enumerate(params.layers().items())
    })


def _rep(n, width, seed, span=4.0):
    pos = uniform01(seed, 3 * n).reshape(n, 3) * span
    feats = _features(n, width, seed + 1)
    colors = uniform01(seed + 2, 3 * n).reshape(n, 3)
    view = (uniform01(seed + 3, n) * 3).astype(np.int32)
    return PointRepresentation(pos, feats, colors, view)


# ---------------------------------------------------------------------------
# block pooling


@given(
    st.integers(min_value=1, max_value=90),
    st.integers(min_value=1, max_value=33),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_block_pool_matches_loop_reference(n, block_len, seed):
    x = uniform01(seed, n * 3).reshape(n, 3)
    got = zformer.block_pool(x, block_len)
    want = reference.block_pool_reference(x, block_len)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


def test_block_pool_short_final_block_uses_actual_length():
    x = np.arange(10.0).reshape(10, 1)
    out = zformer.block_pool(x, 4)
    assert np.allclose(out.ravel(), [1.5, 5.5, 8.5])


@pytest.mark.parametrize("block_len", [1, 32, 5000])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 907, 4096])
def test_every_stage_cuts_a_level_into_the_same_blocks(n, block_len):
    # the plain cut: runs of block_len rows, the last one shorter
    want = [(s, min(s + block_len, n) - s) for s in range(0, n, block_len)]
    starts, lengths = zformer._blocks(n, block_len)
    assert list(zip(starts.tolist(), lengths.tolist())) == want
    assert zformer.block_pool(np.zeros((n, 1)), block_len).shape == (len(want), 1)
    cfg = zformer.AttentionConfig(block_len=block_len, model_width=2, head_width=2)
    q = k = v = _features(n, 2, seed=171)
    q_blocks = zformer._topk_layout(q, k, v, cfg)[0]
    assert q_blocks.shape[:2] == (len(want), want[0][1])
    own = np.arange(len(want))[:, None]
    loop = zformer._topk_loop_fwd(q, k, v, own, cfg)[1]
    assert [(b["rows"].start, b["rows"].stop - b["rows"].start) for b in loop] == want
    assert all(np.array_equal(b["idx"], np.arange(s, s + m)) for b, (s, m) in zip(loop, want))


# ---------------------------------------------------------------------------
# equivalence ladder against the dense oracle


@pytest.mark.parametrize("n", [7, 33])
def test_group_attention_with_unit_blocks_equals_dense(n):
    cfg = zformer.AttentionConfig(block_len=1, model_width=12, head_width=8)
    params = _params(cfg)
    f = _features(n, 12, seed=21)
    out, w_blocks = zformer.group_attention(f, params, cfg)
    out = linear(out, params.w_o)
    dense = reference.dense_attention_reference(f, params, cfg)
    assert w_blocks.shape == (n, n)
    assert np.abs(out - dense).max() < 1e-5


@pytest.mark.parametrize("n,block_len", [(7, 3), (40, 8)])
def test_topk_with_all_blocks_selected_equals_dense(n, block_len):
    n_blocks = -(-n // block_len)
    cfg = zformer.AttentionConfig(
        block_len=block_len, select_k=n_blocks, model_width=12, head_width=8
    )
    params = _params(cfg)
    f = _features(n, 12, seed=31)
    _, w_blocks = zformer.group_attention(f, params, cfg)
    out = linear(zformer.topk_attention(f, w_blocks, params, cfg), params.w_o)
    dense = reference.dense_attention_reference(f, params, cfg)
    assert np.abs(out - dense).max() < 1e-5


def test_group_w_blocks_rows_are_distributions():
    cfg = zformer.AttentionConfig(block_len=8, model_width=10, head_width=6)
    f = _features(50, 10, seed=41)
    _, w_blocks = zformer.group_attention(f, _params(cfg), cfg)
    assert w_blocks.shape == (7, 7)
    assert np.allclose(w_blocks.sum(axis=1), 1.0, atol=1e-6)
    assert (w_blocks > 0).all()


def test_topk_partial_selection_matches_gather_reference():
    cfg = zformer.AttentionConfig(block_len=16, select_k=3, model_width=12, head_width=8)
    params = _params(cfg)
    f = _features(97, 12, seed=51)  # ragged: 7 blocks, last of length 1
    _, w_blocks = zformer.group_attention(f, params, cfg)
    selection = zformer.select_blocks(w_blocks, 3)
    got = linear(zformer.topk_attention(f, w_blocks, params, cfg), params.w_o)
    want = reference.topk_gather_reference(f, params, cfg, selection)
    assert np.abs(got - want).max() < 1e-5


def _topk_inputs(dtype, n, n_heads, last_every=2):
    """Config, q, k, v and a top-k selection (k=4 of blocks of 32) in which
    every last_every-th query block also attends to the last block, ragged or
    not."""
    cfg = zformer.AttentionConfig(
        block_len=32, select_k=4, model_width=16, head_width=8, n_heads=n_heads
    )
    params = _params(cfg).astype(dtype)
    f = _features(n, 16, seed=61, dtype=dtype)
    q, k, v = np.split(linear(f, params.qkv()), 3, axis=1)
    _, w_blocks = zformer.group_attention(f, params, cfg)
    w_blocks[::last_every, -1] += 1.0
    selection = zformer.select_blocks(w_blocks, 4)
    assert (selection[::last_every] == selection.shape[0] - 1).any(axis=1).all()
    return cfg, q, k, v, selection


def _assert_kernel_matches_loop(cfg, q, k, v, selection, tol, bounded):
    # bounded names the softmax the kernel takes: True skips the row max
    blocks = zformer._topk_layout(q, k, v, cfg)
    keys = selection.shape[1] * cfg.block_len
    assert zformer._scores_are_bounded(*blocks, cfg.n_heads, keys) is bounded
    n = len(q)
    chunked = zformer._topk_chunks(*blocks, n, selection, cfg)
    loop, _ = zformer._topk_loop_fwd(q, k, v, selection, cfg)
    assert chunked.shape == loop.shape == (n, cfg.head_width)
    assert np.abs(chunked.astype(np.float64) - loop.astype(np.float64)).max() < tol


def _assert_chunked_matches_loop(dtype, tol, n, n_heads, last_every=2, max_score=None,
                                 bounded=True):
    cfg, q, k, v, selection = _topk_inputs(dtype, n, n_heads, last_every)
    if max_score is not None:
        # scale the queries so the largest scaled score is max_score: each
        # softmax row is then dominated by its top key
        slices, scale = zformer._head_slices(cfg)
        top = max(np.abs(q[:, hs] @ k[:, hs].T).max() for hs in slices) * scale
        q = q * dtype(max_score / top)
    _assert_kernel_matches_loop(cfg, q, k, v, selection, tol, bounded)


# Each kernel-oracle family runs at the kernel's 256-key tiles and with them
# cut to 64 and 32 keys: the k=4 blocks of 32 that _topk_inputs selects then
# run as one, 2 and 4 tiles, so the accumulator, the padded block and the
# running row max span tiles.
in_tiles = pytest.mark.parametrize("tile_keys", [256, 64, 32])


@in_tiles
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("n", [256, 250, 225])  # 225 leaves a one-row final block
@pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-12)])
def test_topk_chunked_path_matches_loop_path(monkeypatch, tile_keys, dtype, tol, n,
                                             n_heads):
    monkeypatch.setattr(zformer, "_TILE_KEYS", tile_keys)
    _assert_chunked_matches_loop(dtype, tol, n, n_heads)


@in_tiles
@pytest.mark.parametrize("chunk_blocks", [1, 3])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("n", [256, 225])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-12)])
def test_topk_chunked_matches_loop_across_chunks(monkeypatch, tile_keys, dtype, tol, n,
                                                 n_heads, chunk_blocks):
    # a budget of chunk_blocks query blocks (gathered keys, values and scores
    # of one tile, at most the k=4 blocks of 32 rows, width 8): the 8 blocks
    # run as 3 + 3 + 2 or one at a time, every chunk through every tile, and
    # query block 0, in the first chunk, selects the last block
    monkeypatch.setattr(zformer, "_TILE_KEYS", tile_keys)
    per_block = min(tile_keys, 4 * 32) * np.dtype(dtype).itemsize * (2 * 8 + 32)
    monkeypatch.setattr(zformer, "_CHUNK_BYTES", chunk_blocks * per_block)
    _assert_chunked_matches_loop(dtype, tol, n, n_heads)


@in_tiles
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-12)])
def test_topk_chunked_matches_loop_with_one_dominant_key(monkeypatch, tile_keys, dtype, tol,
                                                        n_heads):
    # scaled scores reach +-80, so exp of the shifted scores spans the whole
    # float32 range before the deferred division by the row sums; the score
    # bound fails, so the kernel takes the max-shift softmax. In cut tiles each
    # row's top key lies in one tile, so the running max rises across the
    # tiles and the accumulator is rescaled
    monkeypatch.setattr(zformer, "_TILE_KEYS", tile_keys)
    _assert_chunked_matches_loop(dtype, tol, 250, n_heads, max_score=80.0, bounded=False)


@in_tiles
@pytest.mark.parametrize("side", [-0.05, 0.05, 20.0])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-12)])
def test_topk_chunked_matches_loop_on_both_sides_of_the_score_bound(monkeypatch, tile_keys,
                                                                    dtype, tol, n_heads, side):
    # n = 225 leaves a one-row final block. In each head, the query row of
    # largest norm gets a key parallel to it with k's largest norm, so one
    # score reaches the Cauchy-Schwarz bound; q is then scaled so the bound
    # plus ln(k·L) and ln(max(1, max|v|)) sits 0.05 below the limit (the
    # no-max softmax, exp within e^0.05 of its largest allowed value), 0.05
    # above it (the max shift) or 20 above it, where float32 exp of the top
    # score would overflow without the shift
    monkeypatch.setattr(zformer, "_TILE_KEYS", tile_keys)
    cfg, q, k, v, selection = _topk_inputs(dtype, 225, n_heads)
    slices, scale = zformer._head_slices(cfg)
    q, k = q.copy(), k.copy()
    for hs in slices:
        i = np.argmax(np.linalg.norm(q[:, hs], axis=1))
        k_top = np.linalg.norm(k[:, hs], axis=1).max()
        k[i, hs] = q[i, hs] * dtype(k_top / np.linalg.norm(q[i, hs]))
    bound = max(np.linalg.norm(q[:, hs] * scale, axis=1).max()
                * np.linalg.norm(k[:, hs], axis=1).max() for hs in slices)
    keys = selection.shape[1] * cfg.block_len
    room = zformer._EXP_BOUND - np.log(keys) - np.log(max(1.0, np.abs(v).max()))
    q *= dtype((room + side) / bound)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_kernel_matches_loop(cfg, q, k, v, selection, tol, bounded=side < 0)
    # one NaN or inf in v fails the bound on either side of it
    blocks = zformer._topk_layout(q, k, v, cfg)
    for bad in (np.nan, np.inf):
        blocks[2][0, 0, 0] = bad
        assert not zformer._scores_are_bounded(*blocks, n_heads, keys)


@in_tiles
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("dtype,tol,top,v_max", [(np.float32, 5e-6, -110.0, 0.01),
                                                 (np.float64, 1e-12, -800.0, None)])
def test_topk_chunked_matches_loop_when_every_score_underflows(
        monkeypatch, tile_keys, dtype, tol, top, v_max, n_heads):
    # n = 225 leaves a one-row final block, and every query block selects it.
    # Each head's keys lie near a unit vector u and its queries near -c·u, so
    # every natural score is at most `top`, where exp underflows to 0: the
    # kernel takes the max shift. A zero padded key would score 0, above every
    # real key, and set its rows' max; their real weights would then underflow
    monkeypatch.setattr(zformer, "_TILE_KEYS", tile_keys)
    cfg, q, k, v, selection = _topk_inputs(dtype, 225, n_heads, last_every=1)
    slices, scale = zformer._head_slices(cfg)
    q, k = q.copy(), k.copy()
    for hs in slices:
        dh = hs.stop - hs.start
        u = np.full(dh, dh ** -0.5, dtype)
        k[:, hs] = u + dtype(0.01) * k[:, hs]
        q[:, hs] = dtype(0.01) * q[:, hs] - u * dtype(1.2 * -top / scale)
    assert max((q[:, hs] @ k[:, hs].T).max() for hs in slices) * scale <= top
    if v_max is not None:
        v = v * dtype(v_max / np.abs(v).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_kernel_matches_loop(cfg, q, k, v, selection, tol, bounded=False)


@in_tiles
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("n", [250, 225])  # 225 leaves a one-row final block
@pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-12)])
def test_topk_chunked_matches_loop_when_every_block_selects_the_padded_one(
        monkeypatch, tile_keys, dtype, tol, n, n_heads):
    monkeypatch.setattr(zformer, "_TILE_KEYS", tile_keys)
    _assert_chunked_matches_loop(dtype, tol, n, n_heads, last_every=1)


def test_topk_chunked_working_set_is_cache_sized():
    # the dense-k benchmark's first level: 128 blocks of 32, half selected
    n, width = 4096, 32
    cfg = zformer.AttentionConfig(block_len=32, model_width=width, head_width=width)
    q, k, v = np.split(_features(n, 3 * width, seed=65), 3, axis=1)
    selection = zformer.select_blocks(uniform01(66, 128 * 128).reshape(128, 128), 64)
    # the scores are bounded, so the kernel takes the no-max softmax
    blocks = zformer._topk_layout(q, k, v, cfg)
    assert zformer._scores_are_bounded(*blocks, 1, 64 * 32)
    tracemalloc.start()
    try:
        zformer._topk_chunks(*zformer._topk_layout(q, k, v, cfg), len(q), selection, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"top-k kernel peak allocation {peak / 1e6:.1f} MB"


def test_topk_chunk_stays_within_its_budget_at_any_k():
    # k=256 of 512 blocks of 32: each query block selects 8192 keys, which
    # alone would take 3.1 MB of gathered keys, values and scores at width 32.
    # In tiles, the kernel's peak beyond its 2 MiB output stays within twice
    # its chunk budget
    n, width = 16384, 32
    cfg = zformer.AttentionConfig(block_len=32, model_width=width, head_width=width)
    q, k, v = np.split(_features(n, 3 * width, seed=75), 3, axis=1)
    selection = zformer.select_blocks(uniform01(76, 512 * 512).reshape(512, 512), 256)
    blocks = zformer._topk_layout(q, k, v, cfg)
    tracemalloc.start()
    try:
        out = zformer._topk_chunks(*blocks, n, selection, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 2**21
    assert peak - out.nbytes < 2 * zformer._CHUNK_BYTES, (
        f"top-k kernel peak {peak / 2**20:.2f} MiB with a {out.nbytes / 2**20:.0f} MiB output")


def test_topk_attention_releases_its_projection_before_the_chunk_loop():
    # the sparse-k benchmark's first level: n=16384, width 96, head width 32,
    # select_k 8. The wrapper drops the stacked projection once the kernel has
    # copied it, so the projection, its block copies and the chunk loop's
    # output never coexist; holding the projection through the loop took the
    # peak to 2.53 times the input features
    n = 16384
    cfg = zformer.AttentionConfig(select_k=8)
    assert (cfg.model_width, cfg.head_width, cfg.n_heads) == (96, 32, 1)
    params = _params(cfg)
    f = _features(n, cfg.model_width, seed=69)
    _, w_blocks = zformer.group_attention(f, params, cfg)
    tracemalloc.start()
    try:
        out = zformer.topk_attention(f, w_blocks, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, cfg.head_width)
    assert peak < 2.25 * f.nbytes, (
        f"topk_attention peak {peak / 2**20:.1f} MiB above a {f.nbytes / 2**20:.1f} MiB "
        f"feature array")


def test_segment_sum_working_set_stays_small():
    # the sparse-k benchmark's first pooling: 16384 float32 rows of width 96 in
    # ~3300 Z-order cells; a dense indicator would take ~200 MB
    n, width = 16384, 96
    x = _features(n, width, seed=67)
    starts = np.flatnonzero(np.r_[True, uniform01(68, n - 1) < 3300 / n])
    tracemalloc.start()
    try:
        sums = segment_sums([x], starts)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.shape == (len(starts), width) and sums.dtype == np.float32
    assert peak < 4e6, f"segment_sum peak allocation {peak / 1e6:.1f} MB"


def test_multi_head_group_differs_from_single_head_but_same_shape():
    f = _features(64, 12, seed=71)
    cfg1 = zformer.AttentionConfig(block_len=8, model_width=12, head_width=8, n_heads=1)
    cfg2 = zformer.AttentionConfig(block_len=8, model_width=12, head_width=8, n_heads=2)
    params = _params(cfg1)
    out1, w1 = zformer.group_attention(f, params, cfg1)
    out2, w2 = zformer.group_attention(f, params, cfg2)
    assert out1.shape == out2.shape and w1.shape == w2.shape
    assert not np.allclose(out1, out2)


# ---------------------------------------------------------------------------
# block selection


def test_select_blocks_forces_own_block_and_breaks_ties_low():
    w = np.full((4, 4), 0.25)
    sel = zformer.select_blocks(w, 3)
    # own block plus the two lowest-indexed others, rows ascending
    assert sel.tolist() == [[0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 3]]
    w = np.array([[0.1, 0.2, 0.3, 0.4]] * 4)
    sel = zformer.select_blocks(w, 2)
    assert sel.tolist() == [[0, 3], [1, 3], [2, 3], [2, 3]]


def _select_blocks_oracle(w, k):
    ranked = np.array(w, dtype=np.float64, copy=True)
    np.fill_diagonal(ranked, np.inf)
    return np.sort(np.argsort(-ranked, axis=1, kind="stable")[:, :k], axis=1)


def _mix_rows(tied, spread, rows):
    """``tied``'s rows where ``rows`` holds, ``spread``'s elsewhere."""
    return np.where(rows[:, None], tied, spread)


def _surplus_rows(w, k):
    """Rows with more entries tied at their k-th largest value than slots left."""
    ranked = np.array(w, dtype=np.float64)
    np.fill_diagonal(ranked, np.inf)
    kth = np.sort(ranked, axis=1)[:, -k, None]
    return np.flatnonzero((ranked >= kth).sum(axis=1) > k)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_select_blocks_matches_stable_sort_oracle(data):
    n_blocks = data.draw(st.integers(min_value=1, max_value=24), label="n_blocks")
    k = data.draw(st.sampled_from([1, n_blocks, -(-n_blocks // 2)])
                  | st.integers(min_value=1, max_value=n_blocks), label="k")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    shape = (n_blocks, n_blocks)
    # a handful of values (NaN among them) gives rows with many ties
    tied = arrays(dtype, shape, elements=st.sampled_from([0.0, 0.125, 0.5, 1.0, float("nan")]))
    spread = arrays(dtype, shape, elements=st.floats(0.0, 1.0, width=32))
    w = data.draw(tied | spread | st.builds(_mix_rows, tied, spread,
                                            arrays(np.bool_, n_blocks)), label="w")
    got = zformer.select_blocks(w, k)
    assert np.issubdtype(got.dtype, np.integer)
    assert np.array_equal(got, _select_blocks_oracle(w, k))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tied_rows", [slice(None, None, 3), slice(None)])
def test_select_blocks_ranks_again_only_rows_with_surplus_ties(tied_rows, dtype):
    # distinct affinities everywhere except the tied rows: 0.25 but for three
    # 0.75 entries, so the k-th value is 0.25 with more copies than slots left
    n_blocks, k = 12, 6
    w = uniform01(95, n_blocks * n_blocks).reshape(n_blocks, n_blocks).astype(dtype)
    w[tied_rows] = 0.25
    w[tied_rows, 1::4] = 0.75
    surplus = _surplus_rows(w, k)
    assert np.array_equal(surplus, np.arange(n_blocks)[tied_rows])
    assert np.array_equal(zformer.select_blocks(w, k), _select_blocks_oracle(w, k))


def test_select_blocks_rejects_bad_k():
    w = np.full((3, 3), 1 / 3)
    with pytest.raises(RangeError):
        zformer.select_blocks(w, 0)
    with pytest.raises(RangeError):
        zformer.select_blocks(w, 4)


def test_pinned_selection_is_validated():
    cfg = zformer.AttentionConfig(block_len=8, select_k=3, model_width=12, head_width=8)
    params = _params(cfg)
    f = _features(64, 12, seed=91)
    qkv = linear(f, params.qkv())
    _, w_blocks = zformer.group_attention(f, params, cfg)
    selection = zformer.select_blocks(w_blocks, 3)
    pinned = zformer.topk_attention(f, w_blocks, params, cfg, selection=selection)
    assert np.array_equal(pinned, zformer.topk_attention(f, w_blocks, params, cfg))
    for bad, error in [
        (selection + 8, RangeError),
        (selection - 1, RangeError),
        (selection[:-2], InputError),
        (selection[:, :0], InputError),
        (np.zeros((8, 9), np.int64), InputError),
        (selection[0], InputError),
        (selection.astype(np.float64), InputError),
    ]:
        with pytest.raises(error):
            zformer.topk_attention(f, w_blocks, params, cfg, selection=bad)
        with pytest.raises(error):
            zformer.topk_attention_fwd(qkv, w_blocks, cfg, selection=bad)


def test_resolve_k_half_rule():
    cfg = zformer.AttentionConfig()
    assert cfg.resolve_k(8) == 4
    assert cfg.resolve_k(1) == 1  # never zero
    assert dc_replace(cfg, select_k=5).resolve_k(3) == 3  # capped


def test_attention_config_validation():
    with pytest.raises(ConfigError):
        zformer.AttentionConfig(block_len=0)
    with pytest.raises(ConfigError):
        zformer.AttentionConfig(head_width=6, n_heads=4)
    with pytest.raises(ConfigError):
        zformer.AttentionConfig(position_mode="weird")


# ---------------------------------------------------------------------------
# gated fusion


def test_gated_fuse_zero_gate_averages_branches():
    # the branches arrive in head space and gated_fuse projects them through
    # w_o, bias included
    cfg = zformer.AttentionConfig(model_width=6, head_width=4)
    params = _params(cfg)
    w_o = LinearLayer(params.w_o.weight, _features(1, 6, seed=84)[0], 0)
    zero_gate = dc_replace(
        params,
        gate=LinearLayer(
            np.zeros_like(params.gate.weight), np.zeros_like(params.gate.bias), 0
        ),
        w_o=w_o,
    )
    f = _features(9, 6, seed=81)
    grp = _features(9, 4, seed=82)
    sel = _features(9, 4, seed=83)
    out = zformer.gated_fuse(f, grp, sel, zero_gate)
    assert np.allclose(out, 0.5 * (linear(grp, w_o) + linear(sel, w_o)), atol=1e-7)


# ---------------------------------------------------------------------------
# Z-order pooling


def _sorted_rep_with_codes(n, seed, depth=8, span=None):
    span = span if span is not None else float(2**depth)
    rep = _rep(n, 6, seed, span=span)
    quant = Quantizer(np.zeros(3), 1.0, depth)
    rep_s, codes, perm = sort_by_code(rep, quant)
    return rep_s, codes, perm, quant


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_zorder_pool_partition_matches_brute_force_bucketing(levels):
    cfg = zformer.AttentionConfig(model_width=6, head_width=4, pool_levels=levels)
    params = _params(cfg)
    rep_s, codes, _, quant = _sorted_rep_with_codes(2000, seed=91)
    pooled, new_codes, cache = zformer.zorder_pool_fwd(
        rep_s, codes, levels, params, quant, cfg
    )
    coords = quant.quantize(rep_s.positions)
    want = reference.coarse_clusters_reference(coords, levels)
    starts, counts = cache["starts"], cache["counts"]
    got = {
        frozenset(range(int(s), int(s + c))) for s, c in zip(starts, counts)
    }
    assert got == {frozenset(v) for v in want.values()}
    assert len(pooled) == len(want)
    # pooled codes strictly increase (valid input for the next block)
    assert np.all(np.diff(new_codes.astype(np.int64)) > 0)


def test_zorder_pool_feature_means_under_identity_projection():
    cfg = zformer.AttentionConfig(model_width=6, head_width=4, pool_levels=2)
    params = _params(cfg)
    ident = dc_replace(
        params,
        pool_proj=LinearLayer(np.eye(6, dtype=np.float32), np.zeros(6, np.float32), 0),
    )
    rep_s, codes, _, quant = _sorted_rep_with_codes(300, seed=101)
    pooled, new_codes, cache = zformer.zorder_pool_fwd(
        rep_s, codes, 2, ident, quant, cfg
    )
    starts, counts = cache["starts"], cache["counts"]
    for j in range(len(pooled)):
        members = slice(int(starts[j]), int(starts[j] + counts[j]))
        assert np.allclose(
            pooled.features[j], rep_s.features[members].mean(axis=0), atol=1e-6
        )
        assert np.allclose(pooled.colors[j], rep_s.colors[members].mean(axis=0))
        assert pooled.view_of[j] == rep_s.view_of[members][0]


def test_zorder_pool_positions_are_coarse_cell_centers():
    cfg = zformer.AttentionConfig(model_width=6, head_width=4, pool_levels=2)
    params = _params(cfg)
    rep_s, codes, _, quant = _sorted_rep_with_codes(400, seed=111)
    pooled, new_codes, _ = zformer.zorder_pool_fwd(rep_s, codes, 2, params, quant, cfg)
    coarse = quant.coarsen(2)
    # each pooled position re-quantizes (on the coarse grid) to its own code
    assert np.array_equal(coarse.encode_points(pooled.positions), new_codes)
    # and sits exactly at a cell center: offset from origin is cell * (i + 0.5)
    rel = (pooled.positions - coarse.origin) / coarse.cell - 0.5
    assert np.allclose(rel, np.round(rel), atol=1e-9)


def test_zorder_pool_member_mean_mode():
    cfg = zformer.AttentionConfig(
        model_width=6, head_width=4, pool_levels=1, position_mode="member_mean"
    )
    params = _params(cfg)
    rep_s, codes, _, quant = _sorted_rep_with_codes(200, seed=121)
    pooled, _, cache = zformer.zorder_pool_fwd(rep_s, codes, 1, params, quant, cfg)
    starts, counts = cache["starts"], cache["counts"]
    j = int(np.argmax(counts))
    members = slice(int(starts[j]), int(starts[j] + counts[j]))
    assert np.allclose(pooled.positions[j], rep_s.positions[members].mean(axis=0))


def test_zorder_pool_preconditions():
    cfg = zformer.AttentionConfig(model_width=6, head_width=4)
    params = _params(cfg)
    rep_s, codes, _, quant = _sorted_rep_with_codes(50, seed=131)
    backwards = codes[::-1].copy()
    with pytest.raises(InputError):
        zformer.zorder_pool(rep_s, backwards, 1, params, quant, cfg)
    with pytest.raises(RangeError):
        zformer.zorder_pool(rep_s, codes, quant.depth + 1, params, quant, cfg)
    with pytest.raises(InputError):
        zformer.zorder_pool(rep_s, codes[:-1], 1, params, quant, cfg)


# ---------------------------------------------------------------------------
# whole block


def test_zformer_block_shrinks_and_returns_valid_codes():
    cfg = zformer.AttentionConfig(block_len=8, model_width=6, head_width=4, pool_levels=2)
    params = _params(cfg)
    rep = _rep(500, 6, seed=141, span=32.0)
    quant = Quantizer(np.zeros(3), 1.0, 6)
    pooled, codes = zformer.zformer_block(rep, quant, params, cfg)
    assert 0 < len(pooled) < len(rep)
    assert np.all(np.diff(codes.astype(np.int64)) > 0)
    # pooled codes are exactly the unique coarse codes of the input
    _, fine_codes, _ = sort_by_code(rep, quant)
    assert np.array_equal(np.unique(fine_codes >> np.uint64(6)), codes)
    assert pooled.features.dtype == np.float32


@pytest.mark.parametrize("position_mode", ["cell_center", "member_mean"])
@pytest.mark.parametrize("n_heads", [1, 2])
# 250 leaves a short final block; the last three end one row short of a
# product tile, one row past it, and 37 rows into a third tile
@pytest.mark.parametrize("n", [256, 250, zformer._TILE_ROWS - 1, zformer._TILE_ROWS + 1,
                               2 * zformer._TILE_ROWS + 37])
def test_zformer_block_equals_public_wrapper_composition(n, n_heads, position_mode):
    # the benchmark's traced run calls the public wrappers one at a time and
    # requires forward_scene's levels bit for bit; the block gathers its
    # product tiles through the sort permutation, the wrappers slice them
    # from the sorted features
    cfg = zformer.AttentionConfig(block_len=32, select_k=3, model_width=12, head_width=8,
                                  n_heads=n_heads, pool_levels=1,
                                  position_mode=position_mode)
    params = _with_biases(_params(cfg))
    rep = _rep(n, 12, seed=171, span=16.0)
    quant = Quantizer(np.zeros(3), 1.0, 5)
    pooled, codes = zformer.zformer_block(rep, quant, params, cfg)

    rep_s, codes_s, _ = sort_by_code(rep, quant)
    f = rep_s.features
    grp, w_blocks = zformer.group_attention(f, params, cfg)
    selection = zformer.select_blocks(w_blocks, cfg.resolve_k(w_blocks.shape[0]))
    sel = zformer.topk_attention(f, w_blocks, params, cfg, selection=selection)
    fused = zformer.gated_fuse(f, grp, sel, params)
    want, want_codes = zformer.zorder_pool(rep_s.with_features(f + fused), codes_s,
                                           cfg.pool_levels, params, quant, cfg)
    assert np.array_equal(codes, want_codes)
    for name in ("positions", "features", "colors", "view_of"):
        got, ref = getattr(pooled, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def test_zformer_block_working_set_is_bounded():
    # the sparse-k benchmark's first level: one 128x128 sphere view (n=16384,
    # width 96), cell 1/32, select_k 8, one head. Each n-row array is dropped
    # after its last reader and the input is read through the sort
    # permutation, so the block never holds 3 feature arrays' worth above its
    # input; a sorted copy of the features took it to 3.35, and keeping the
    # stacked projection and n-row branch outputs alive to the end to 5.7
    cfg = RunConfig(cell=0.03125, select_k=8)
    rep = assemble(synthetic.generate_scene({"kind": "sphere", "resolution": [128, 128],
                                             "n_views": 1}))
    assert rep.features.shape == (16384, 96) and cfg.n_heads == 1
    params = init_model(cfg).blocks[0]
    quant = make_quantizer(rep.positions, cfg)
    tracemalloc.start()
    try:
        zformer.zformer_block(rep, quant, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rep.features.nbytes, (
        f"block peak {peak / 2**20:.1f} MiB above a {rep.features.nbytes / 2**20:.1f} MiB "
        f"feature array")


def test_block_and_kernel_leave_their_inputs_untouched():
    cfg = zformer.AttentionConfig(block_len=32, select_k=3, model_width=12, head_width=8,
                                  n_heads=2, pool_levels=1)
    params = _with_biases(_params(cfg))
    rep = _rep(250, 12, seed=173, span=16.0)
    before = [getattr(rep, name).copy() for name in ("positions", "features", "colors",
                                                     "view_of")]
    zformer.zformer_block(rep, Quantizer(np.zeros(3), 1.0, 5), params, cfg)
    for name, was in zip(("positions", "features", "colors", "view_of"), before):
        assert getattr(rep, name).tobytes() == was.tobytes(), name

    cfg, q, k, v, selection = _topk_inputs(np.float32, 225, 2)
    before = [x.copy() for x in (q, k, v)]
    zformer._topk_chunks(*zformer._topk_layout(q, k, v, cfg), len(q), selection, cfg)
    for x, was in zip((q, k, v), before):
        assert x.tobytes() == was.tobytes()


def test_zformer_block_is_deterministic():
    cfg = zformer.AttentionConfig(block_len=8, model_width=6, head_width=4)
    params = _params(cfg)
    rep = _rep(120, 6, seed=151, span=16.0)
    quant = Quantizer(np.zeros(3), 1.0, 5)
    a, ca = zformer.zformer_block(rep, quant, params, cfg)
    b, cb = zformer.zformer_block(rep, quant, params, cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(ca, cb)


def test_a_level_shorter_than_block_len_is_one_block_of_its_own_rows():
    # padded to one whole block of 4096 rows, these 128 points would take a
    # 4096 x 4096 float32 score buffer, 64 MiB
    rep = _rep(128, 96, seed=157, span=16.0)
    quant = Quantizer(np.zeros(3), 1.0, 5)
    params = _params(zformer.AttentionConfig())
    want = zformer.zformer_block(rep, quant, params, zformer.AttentionConfig(block_len=128))
    tracemalloc.start()
    try:
        got = zformer.zformer_block(rep, quant, params, zformer.AttentionConfig(block_len=4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[1].tobytes() == want[1].tobytes()
    for name in ("positions", "features", "colors", "view_of"):
        assert getattr(got[0], name).tobytes() == getattr(want[0], name).tobytes(), name
    assert peak < 2**20, f"block peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# gradients (hand-written backward vs central differences)


def _grad_setup():
    cfg = zformer.AttentionConfig(
        block_len=8, select_k=2, model_width=6, head_width=4, n_heads=2, pool_levels=1
    )
    params = _params(cfg, seed=7).astype(np.float64)
    rep64 = _rep(24, 6, seed=161, span=4.0)
    rep64 = rep64.with_features(rep64.features.astype(np.float64))
    quant = Quantizer(np.zeros(3), 1.0, 6)
    _, _, cache = zformer.zformer_block_fwd(rep64, quant, params, cfg)
    selection = cache["sel"]["selection"]
    return cfg, params, rep64, quant, selection


def _block_loss(rep, quant, params, cfg, selection):
    pooled, _, cache = zformer.zformer_block_fwd(rep, quant, params, cfg, selection)
    loss = 0.5 * float((pooled.features**2).sum())
    g_in, grads = zformer.zformer_block_bwd(pooled.features, cache, params)
    return loss, g_in, grads


@pytest.mark.parametrize("name", list(zformer.ZFormerParams.NAMES))
def test_block_gradient_matches_finite_differences_per_layer(name):
    cfg, params, rep, quant, selection = _grad_setup()
    base_layer = getattr(params, name)

    def loss_of(vec):
        candidate = dc_replace(params, **{name: vec_to_layer(vec, base_layer)})
        return _block_loss(rep, quant, candidate, cfg, selection)[0]

    def analytic(vec):
        candidate = dc_replace(params, **{name: vec_to_layer(vec, base_layer)})
        grads = _block_loss(rep, quant, candidate, cfg, selection)[2]
        return grads_to_vec(grads[name])

    err = grad_check(loss_of, analytic, layer_to_vec(base_layer))
    assert err < 1e-4, f"{name}: gradient error {err}"


def test_block_gradient_wrt_input_features():
    cfg, params, rep, quant, selection = _grad_setup()
    shape = rep.features.shape

    def loss_of(vec):
        cand = rep.with_features(vec.reshape(shape))
        return _block_loss(cand, quant, params, cfg, selection)[0]

    def analytic(vec):
        cand = rep.with_features(vec.reshape(shape))
        return _block_loss(cand, quant, params, cfg, selection)[1].ravel()

    err = grad_check(loss_of, analytic, rep.features.ravel())
    assert err < 1e-4


def test_gradients_sum_contributions_from_both_branches():
    # shared projections receive gradient from group and top-k paths: each
    # branch alone gives a nonzero w_q gradient, and neither alone is the sum
    cfg, params, rep, quant, selection = _grad_setup()
    pooled, _, cache = zformer.zformer_block_fwd(rep, quant, params, cfg, selection)
    _, grads_full = zformer.zformer_block_bwd(pooled.features, cache, params)
    hw = cfg.head_width
    upstream = np.ones((len(rep), hw))
    g_qkv_grp = zformer.group_attention_bwd(upstream, cache["grp"])
    g_qkv_sel = zformer.topk_attention_bwd(upstream, cache["sel"])
    gw_q_grp = g_qkv_grp[:, :hw].T @ cache["f"]
    gw_q_sel = g_qkv_sel[:, :hw].T @ cache["f"]
    assert np.abs(gw_q_grp).max() > 0 and np.abs(gw_q_sel).max() > 0
    assert not np.allclose(gw_q_grp, grads_full["w_q"][0])
    assert not np.allclose(gw_q_sel, gw_q_grp)


def test_block_backward_projects_qkv_once(monkeypatch):
    # the branches return gradients of the stacked Q/K/V product, which the
    # block sums and sends through one linear_backward
    cfg, params, rep, quant, selection = _grad_setup()
    stacked = params.qkv().weight
    calls = []

    def counted(grad, x, layer):
        calls.append(np.array_equal(layer.weight, stacked))
        return linear_backward(grad, x, layer)

    pooled, _, cache = zformer.zformer_block_fwd(rep, quant, params, cfg, selection)
    monkeypatch.setattr(zformer, "linear_backward", counted)
    zformer.zformer_block_bwd(pooled.features, cache, params)
    assert sum(calls) == 1, f"{sum(calls)} backward passes through the stacked Q/K/V"


def test_block_projects_through_w_o_once(monkeypatch):
    # the branches stay in head space: the forward's one n-row product
    # through w_o is the fusion's, and so is the backward's one
    # linear_backward through w_o
    cfg, params, rep, quant, selection = _grad_setup()
    products = []

    class Counted(np.ndarray):
        """Records the rows of every matrix product it enters, also after
        numpy functions such as np.concatenate have built on it."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(inputs[0].shape[0])
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            out = super().__array_function__(func, types, args, kwargs)
            return out.view(Counted) if isinstance(out, np.ndarray) else out

    w_o = params.w_o
    counted = dc_replace(params, w_o=LinearLayer(w_o.weight.view(Counted),
                                                 w_o.bias.view(Counted), w_o.seed))
    zformer.zformer_block(rep, quant, counted, cfg)
    assert products == [len(rep)]
    products.clear()
    zformer.zformer_block_fwd(rep, quant, counted, cfg, selection)
    assert products == [len(rep)]

    hw = cfg.head_width
    calls = []

    def tracked(grad, x, layer):
        calls.append(np.array_equal(layer.weight[:, :hw], w_o.weight))
        return linear_backward(grad, x, layer)

    pooled, _, cache = zformer.zformer_block_fwd(rep, quant, params, cfg, selection)
    monkeypatch.setattr(zformer, "linear_backward", tracked)
    zformer.zformer_block_bwd(pooled.features, cache, params)
    assert sum(calls) == 1, f"{sum(calls)} backward passes through w_o"


def test_overflowing_pool_projection_ends_in_input_error():
    # pooling checks the features it computes, so the overflow ends in
    # InputError, and numpy's overflow warning (an error under this suite's
    # warning filter) stays silent, in the inference block and in the
    # training forward alike
    cfg = RunConfig(seed=3, cell=0.5)
    model = init_model(cfg)
    pool = model.blocks[0].pool_proj
    huge = LinearLayer(np.full_like(pool.weight, 1e38), pool.bias, pool.seed)
    model = dc_replace(model, blocks=(dc_replace(model.blocks[0], pool_proj=huge),
                                      *model.blocks[1:]))
    rep = _rep(300, cfg.attention_config().model_width, seed=181)
    rep = rep.with_features(np.abs(rep.features) + 1.0)
    with pytest.raises(InputError, match="non-finite"):
        forward_scene(rep, cfg, model)
    with pytest.raises(InputError, match="non-finite"):
        zformer.zformer_block_fwd(rep, make_quantizer(rep.positions, cfg), model.blocks[0], cfg)


def test_overflowing_residual_ends_in_input_error():
    # a huge w_o on the first block, with features ten times the usual size,
    # makes the residual f + fused non-finite; such a row stays non-finite
    # through its segment mean and pool_proj, so the pooled check ends the
    # request in InputError, with numpy's overflow warnings silent, in the
    # request and in the inference block alike
    cfg = RunConfig(seed=3, cell=0.5)
    acfg = cfg.attention_config()
    model = init_model(cfg)
    w_o = model.blocks[0].w_o
    huge = LinearLayer(np.full_like(w_o.weight, 1e38), w_o.bias, w_o.seed)
    params = dc_replace(model.blocks[0], w_o=huge)
    model = dc_replace(model, blocks=(params, *model.blocks[1:]))
    rep = _rep(300, acfg.model_width, seed=181)
    rep = rep.with_features(rep.features * 10.0)
    quant = make_quantizer(rep.positions, cfg)
    f = sort_by_code(rep, quant)[0].features
    with np.errstate(over="ignore", invalid="ignore"):
        grp, w_blocks = zformer.group_attention(f, params, acfg)
        sel = zformer.topk_attention(f, w_blocks, params, acfg)
        assert not np.isfinite(f + zformer.gated_fuse(f, grp, sel, params)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="non-finite"):
            forward_scene(rep, cfg, model)
        with pytest.raises(InputError, match="non-finite"):
            zformer.zformer_block(rep, quant, params, acfg)


def test_overflowing_pooled_positions_end_in_input_error():
    # the second block pools two finite x positions into one cell, and their
    # member mean overflows: pooled points go through the checked
    # constructor, so the sum ends in InputError with numpy's overflow
    # warning silent
    cfg = RunConfig(position_mode="member_mean", cell=1e306)
    width = cfg.attention_config().model_width
    positions = np.array([[1.5e308, 0.0, 0.0], [1.6e308, 0.0, 0.0]])
    rep = PointRepresentation(positions, np.zeros((2, width), np.float32),
                              np.zeros((2, 3)), np.zeros(2, np.int32))
    with pytest.raises(InputError, match="positions contain non-finite values"):
        forward_scene(rep, cfg, init_model(cfg))
