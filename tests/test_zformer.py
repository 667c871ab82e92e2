import tracemalloc
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradutil import grads_to_vec, layer_to_vec, vec_to_layer
from zsplat import reference, zformer
from zsplat.errors import ConfigError, InputError, RangeError
from zsplat.morton import Quantizer, sort_by_code
from zsplat.numerics import (
    LinearLayer,
    grad_check,
    linear,
    linear_backward,
    segment_sum,
    uniform01,
)
from zsplat.scene import PointRepresentation


def _features(n, width, seed, dtype=np.float32):
    return (uniform01(seed, n * width).reshape(n, width) * 2 - 1).astype(dtype)


def _params(cfg, seed=11):
    return zformer.ZFormerParams.init(cfg, seed)


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


# ---------------------------------------------------------------------------
# equivalence ladder against the dense oracle


@pytest.mark.parametrize("n", [7, 33])
def test_group_attention_with_unit_blocks_equals_dense(n):
    cfg = zformer.AttentionConfig(block_len=1, model_width=12, head_width=8)
    params = _params(cfg)
    f = _features(n, 12, seed=21)
    out, w_blocks = zformer.group_attention(f, params, cfg)
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
    out = zformer.topk_attention(f, w_blocks, params, cfg)
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
    got = zformer.topk_attention(f, w_blocks, params, cfg)
    want = reference.topk_gather_reference(f, params, cfg, selection)
    assert np.abs(got - want).max() < 1e-5


def _assert_chunked_matches_loop(dtype, tol, n, n_heads):
    cfg = zformer.AttentionConfig(
        block_len=32, select_k=4, model_width=16, head_width=8, n_heads=n_heads
    )
    params = _params(cfg).astype(dtype)
    f = _features(n, 16, seed=61, dtype=dtype)
    q, k, v = np.split(linear(f, params.qkv()), 3, axis=1)
    _, w_blocks = zformer.group_attention(f, params, cfg)
    # every even query block also attends to the last block, ragged or not
    w_blocks[::2, -1] += 1.0
    selection = zformer.select_blocks(w_blocks, 4)
    assert (selection[::2] == selection.shape[0] - 1).any(axis=1).all()
    counts = zformer._block_counts(n, 32)
    chunked = zformer._topk_chunked(q, k, v, selection, cfg)
    loop, _ = zformer._topk_loop_fwd(q, k, v, selection, counts, cfg)
    assert chunked.shape == loop.shape == (n, 8)
    assert np.abs(chunked.astype(np.float64) - loop.astype(np.float64)).max() < tol


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("n", [256, 250, 225])  # 225 leaves a one-row final block
@pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-12)])
def test_topk_chunked_path_matches_loop_path(dtype, tol, n, n_heads):
    _assert_chunked_matches_loop(dtype, tol, n, n_heads)


@pytest.mark.parametrize("chunk_blocks", [1, 3])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("n", [256, 225])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 5e-6), (np.float64, 1e-12)])
def test_topk_chunked_matches_loop_across_chunks(monkeypatch, dtype, tol, n, n_heads,
                                                 chunk_blocks):
    # a budget of chunk_blocks query blocks (gathered keys, values and scores
    # of k=4 blocks of 32 rows, width 8): the 8 blocks run as 3 + 3 + 2 or one
    # at a time, and query block 0, in the first chunk, selects the last block
    per_block = 4 * 32 * np.dtype(dtype).itemsize * (2 * 8 + 32)
    monkeypatch.setattr(zformer, "_CHUNK_BYTES", chunk_blocks * per_block)
    _assert_chunked_matches_loop(dtype, tol, n, n_heads)


def test_topk_chunked_working_set_is_cache_sized():
    # the dense-k benchmark's first level: 128 blocks of 32, half selected
    n, width = 4096, 32
    cfg = zformer.AttentionConfig(block_len=32, model_width=width, head_width=width)
    q, k, v = np.split(_features(n, 3 * width, seed=65), 3, axis=1)
    selection = zformer.select_blocks(uniform01(66, 128 * 128).reshape(128, 128), 64)
    tracemalloc.start()
    try:
        zformer._topk_chunked(q, k, v, selection, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"top-k kernel peak allocation {peak / 1e6:.1f} MB"


def test_segment_sum_working_set_stays_small():
    # the sparse-k benchmark's first pooling: 16384 float32 rows of width 96 in
    # ~3300 Z-order cells; a dense indicator would take ~200 MB
    n, width = 16384, 96
    x = _features(n, width, seed=67)
    starts = np.flatnonzero(np.r_[True, uniform01(68, n - 1) < 3300 / n])
    tracemalloc.start()
    try:
        sums = segment_sum(x, starts)
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


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_select_blocks_matches_stable_sort_oracle(data):
    n_blocks = data.draw(st.integers(min_value=1, max_value=24), label="n_blocks")
    k = data.draw(st.sampled_from([1, n_blocks, -(-n_blocks // 2)])
                  | st.integers(min_value=1, max_value=n_blocks), label="k")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    shape = (n_blocks, n_blocks)
    # a handful of values (NaN among them) gives rows with many ties
    tied = st.sampled_from([0.0, 0.125, 0.5, 1.0, float("nan")])
    w = data.draw(arrays(dtype, shape, elements=tied)
                  | arrays(dtype, shape, elements=st.floats(0.0, 1.0, width=32)), label="w")
    got = zformer.select_blocks(w, k)
    assert np.issubdtype(got.dtype, np.integer)
    assert np.array_equal(got, _select_blocks_oracle(w, k))


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
            zformer.topk_attention_fwd(qkv, w_blocks, params, cfg, selection=bad)


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
    cfg = zformer.AttentionConfig(model_width=6, head_width=4)
    params = _params(cfg)
    zero_gate = dc_replace(
        params,
        gate=LinearLayer(
            np.zeros_like(params.gate.weight), np.zeros_like(params.gate.bias), 0
        ),
    )
    f = _features(9, 6, seed=81)
    grp = _features(9, 6, seed=82)
    sel = _features(9, 6, seed=83)
    out = zformer.gated_fuse(f, grp, sel, zero_gate)
    assert np.allclose(out, 0.5 * (grp + sel), atol=1e-7)


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


def test_zformer_block_is_deterministic():
    cfg = zformer.AttentionConfig(block_len=8, model_width=6, head_width=4)
    params = _params(cfg)
    rep = _rep(120, 6, seed=151, span=16.0)
    quant = Quantizer(np.zeros(3), 1.0, 5)
    a, ca = zformer.zformer_block(rep, quant, params, cfg)
    b, cb = zformer.zformer_block(rep, quant, params, cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(ca, cb)


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
    upstream = np.ones_like(rep.features)
    g_qkv_grp, _ = zformer.group_attention_bwd(upstream, cache["grp"], params)
    g_qkv_sel, _ = zformer.topk_attention_bwd(upstream, cache["sel"], params)
    hw = cfg.head_width
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
