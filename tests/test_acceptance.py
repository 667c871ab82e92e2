"""Acceptance gate: one test per release criterion.

Each criterion is a single test so ``pytest -v`` reports one pass/fail line
apiece. Tolerances and runtime bounds are part of the criteria and asserted
here; failure messages carry the measured numbers.
"""

import itertools
import json
import time
import tracemalloc
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from gradutil import grads_to_vec, layer_to_vec, vec_to_layer
from zsplat import gaussian_head as gh
from zsplat import morton, reference, view_select, zformer
from zsplat.cli import main as cli_main
from zsplat.config import RunConfig
from zsplat.morton import Quantizer, sort_by_code
from zsplat.numerics import grad_check, linear, splitmix64, uniform01
from zsplat.pipeline import forward_scene, init_model
from zsplat.scene import PointRepresentation, assemble
from zsplat.synthetic import generate_scene


def _features(n, width, seed, dtype=np.float32, span=1.0):
    return ((uniform01(seed, n * width).reshape(n, width) * 2 - 1) * span).astype(dtype)


def _rep(n, width, seed, span=8.0):
    pos = uniform01(seed, 3 * n).reshape(n, 3) * span
    feats = _features(n, width, seed + 1)
    colors = uniform01(seed + 2, 3 * n).reshape(n, 3)
    return PointRepresentation(pos, feats, colors, np.zeros(n, np.int32))


# ---------------------------------------------------------------------------
# 1. Morton code correctness, exhaustively at shallow depths


def test_criterion_1_morton_roundtrip_and_nesting_exhaustive():
    start = time.perf_counter()
    for depth in range(1, 6):
        side = np.arange(1 << depth, dtype=np.uint32)
        grids = np.meshgrid(side, side, side, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        codes = morton.encode_array(coords, depth)
        assert np.array_equal(morton.decode_array(codes, depth), coords), (
            f"roundtrip failed at depth {depth}"
        )
        for h in (1, 2, 3):
            if h > depth:
                continue
            shifted = morton.shift_array(codes, h, depth)
            if h == depth:
                assert not shifted.any()
            else:
                want = morton.encode_array(coords >> np.uint32(h), depth - h)
                assert np.array_equal(shifted, want), (
                    f"nesting failed at depth {depth}, shift {h}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"exhaustive sweep took {elapsed:.2f}s (bound: 5s)"


# ---------------------------------------------------------------------------
# 2. sparse attention degenerates to dense attention


def test_criterion_2_attention_equivalence_ladder():
    start = time.perf_counter()
    for n in (7, 32, 257):
        unit = zformer.AttentionConfig(block_len=1, model_width=16, head_width=8)
        params = zformer.ZFormerParams.init(unit, seed=23)
        f = _features(n, 16, seed=100 + n)
        dense = reference.dense_attention_reference(f, params, unit)

        grp, _ = zformer.group_attention(f, params, unit)
        grp = linear(grp, params.w_o)
        err = np.abs(grp - dense).max()
        assert err < 1e-5, f"group(L=1) vs dense at n={n}: max abs {err:.3g}"

        n_blocks = -(-n // 8)
        full = zformer.AttentionConfig(
            block_len=8, select_k=n_blocks, model_width=16, head_width=8
        )
        full_params = zformer.ZFormerParams.init(full, seed=23)
        dense8 = reference.dense_attention_reference(f, full_params, full)
        _, w_blocks = zformer.group_attention(f, full_params, full)
        sel = linear(zformer.topk_attention(f, w_blocks, full_params, full), full_params.w_o)
        err = np.abs(sel - dense8).max()
        assert err < 1e-5, f"topk(k=B) vs dense at n={n}: max abs {err:.3g}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"ladder took {elapsed:.2f}s (bound: 10s)"


# ---------------------------------------------------------------------------
# 3. analytic gradients of every learned parameter


def test_criterion_3_gradient_oracle_every_parameter():
    start = time.perf_counter()
    n = 32
    cfg = zformer.AttentionConfig(
        block_len=8, select_k=2, model_width=8, head_width=4, n_heads=2,
        pool_levels=1,
    )
    params = zformer.ZFormerParams.init(cfg, seed=7).astype(np.float64)
    rep = _rep(n, 8, seed=301, span=4.0)
    rep = rep.with_features(rep.features.astype(np.float64))
    quant = Quantizer(np.zeros(3), 1.0, 6)
    _, _, cache = zformer.zformer_block_fwd(rep, quant, params, cfg)
    selection = cache["sel"]["selection"]

    def block_loss(p):
        pooled, _, c = zformer.zformer_block_fwd(rep, quant, p, cfg, selection)
        loss = 0.5 * float((pooled.features**2).sum())
        _, grads = zformer.zformer_block_bwd(pooled.features, c, p)
        return loss, grads

    errors = {}
    for name in zformer.ZFormerParams.NAMES:
        base = getattr(params, name)
        errors[name] = grad_check(
            lambda v: block_loss(dc_replace(params, **{name: vec_to_layer(v, base)}))[0],
            lambda v: grads_to_vec(
                block_loss(dc_replace(params, **{name: vec_to_layer(v, base)}))[1][name]
            ),
            layer_to_vec(base),
        )

    head = gh.HeadParams.init(8, 16, seed=17).astype(np.float64)

    def head_loss(p):
        g, c = gh.predict_fwd(rep, p, 0.5)
        fields = {
            "centers": g.centers, "opacities": g.opacities,
            "rotations": g.rotations, "scales": g.scales, "sh": g.sh,
        }
        loss = sum(0.5 * float((v**2).sum()) for v in fields.values())
        grads, _, _ = gh.predict_bwd(fields, c, p)
        return loss, grads

    for name in ("hidden", "output"):
        base = getattr(head, name)

        def rebuild(vec, _name=name, _base=base):
            layer = vec_to_layer(vec, _base)
            if _name == "hidden":
                return gh.HeadParams(layer, head.output)
            return gh.HeadParams(head.hidden, layer)

        errors[f"head.{name}"] = grad_check(
            lambda v: head_loss(rebuild(v))[0],
            lambda v: grads_to_vec(head_loss(rebuild(v))[1][name]),
            layer_to_vec(base),
        )

    assert len(errors) == 8
    bad = {k: v for k, v in errors.items() if not v < 1e-4}
    assert not bad, f"gradient errors over 1e-4: {bad}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.2f}s (bound: 60s)"


# ---------------------------------------------------------------------------
# 4. pooling is exactly coarse-grid bucketing


def test_criterion_4_pooling_partition_matches_brute_force():
    n = 10_000
    cfg = zformer.AttentionConfig(block_len=8, model_width=4, head_width=4)
    params = zformer.ZFormerParams.init(cfg, seed=3)
    quant = Quantizer(np.zeros(3), 1.0, 10)
    for seed in range(50):
        levels = 1 + seed % 3
        coords = (splitmix64(seed * 37 + 1, 3 * n) % 64).reshape(n, 3)
        rep = PointRepresentation(
            coords.astype(np.float64) + 0.5,
            _features(n, 4, seed=seed + 900),
            np.full((n, 3), 0.5),
            np.zeros(n, np.int32),
        )
        rep_s, codes, perm = sort_by_code(rep, quant)
        pooled, new_codes, cache = zformer.zorder_pool_fwd(
            rep_s, codes, levels, params, quant, cfg
        )
        counts = cache["counts"]
        assert int(counts.sum()) == n, "cluster sizes must conserve the points"
        assert np.all(new_codes[:-1] < new_codes[1:]), "pooled codes not increasing"
        assert len(pooled) == len(new_codes) == len(counts)

        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        got = {
            frozenset(perm[s : s + c].tolist())
            for s, c in zip(starts, counts)
        }
        want = {
            frozenset(members)
            for members in reference.coarse_clusters_reference(coords, levels).values()
        }
        assert got == want, f"partition mismatch at seed {seed}, levels {levels}"


# ---------------------------------------------------------------------------
# 5. array greedy selection is the textbook greedy


def _coverage_instance(seed):
    words = splitmix64(seed, 3)
    n_sets = 1 + int(words[0] % 20)
    universe = 10 + int(words[1] % 91)
    budget = 1 + int(words[2] % n_sets)
    draw = splitmix64(seed + 1, n_sets * 12)
    cands = []
    for i in range(n_sets):
        chunk = draw[i * 12 : (i + 1) * 12]
        size = 1 + int(chunk[0] % 12)
        keys = frozenset(int(w % universe) for w in chunk[:size])
        cands.append(view_select.ViewCandidate(i, keys))
    return cands, budget


def test_criterion_5_greedy_selection_equivalence():
    for seed in range(1000):
        cands, budget = _coverage_instance(seed * 101)
        fast = view_select.select(cands, budget)
        slow = view_select.naive_greedy(cands, budget)
        assert fast.selected == slow.selected, f"instance {seed}"
        assert fast.covered == slow.covered
        assert fast.marginal_gains == slow.marginal_gains

    # exhaustively searchable instances stay within the greedy guarantee
    for seed in range(60):
        words = splitmix64(seed * 7 + 5, 10 * 8)
        cands = [
            view_select.ViewCandidate(
                i,
                frozenset(
                    int(w % 18) for w in words[i * 8 : i * 8 + 1 + int(words[i * 8] % 6)]
                ),
            )
            for i in range(10)
        ]
        for budget in (1, 2, 3, 4):
            greedy = view_select.select(cands, budget)
            best = max(
                len(frozenset().union(*(c.coverage_keys for c in combo)))
                for combo in itertools.combinations(cands, budget)
            )
            assert greedy.covered >= (1 - 1 / np.e) * best - 1e-9

    hand = [
        view_select.ViewCandidate(1, frozenset("abc")),
        view_select.ViewCandidate(2, frozenset("bc")),
        view_select.ViewCandidate(3, frozenset("d")),
    ]
    result = view_select.select(hand, 2)
    assert result.selected == (1, 3)
    assert result.covered == 4


# ---------------------------------------------------------------------------
# 6. stacked blocks compress a planar scene stage by stage


def test_criterion_6_two_level_compression_structure():
    views = generate_scene(
        {"kind": "plane", "resolution": [64, 64], "n_views": 2,
         "feature_width": 32, "seed": 5}
    )
    rep = assemble(views)
    n_in = len(rep)
    assert n_in == 2 * 64 * 64
    cfg = RunConfig(
        model_width=32, head_width=16, head_hidden=16, n_blocks=2,
        pool_levels=2, serialize_depth=16, cell=0.0625,
    )  # cell matched to the pixel footprint so pooling merges real neighborhoods
    model = init_model(cfg)
    levels = forward_scene(rep, cfg, model)
    assert len(levels) == 2
    m1, m2 = len(levels[0].rep), len(levels[1].rep)
    assert m2 < m1 < n_in, f"sizes must shrink: {n_in} -> {m1} -> {m2}"
    for coarse, fine in ((n_in, m1), (m1, m2)):
        ratio = coarse / fine
        assert 4.0 <= ratio <= 64.0, (
            f"stage reduction {coarse}/{fine} = {ratio:.1f} outside [4, 64]"
        )


# ---------------------------------------------------------------------------
# 7. sparse attention: no quadratic buffers, and it must actually be faster


def test_criterion_7_sparse_memory_and_speed_contract():
    n = 65_536
    cfg = zformer.AttentionConfig(
        block_len=32, select_k=0, model_width=96, head_width=96
    )
    params = zformer.ZFormerParams.init(cfg, seed=13)
    rep = _rep(n, 96, seed=501, span=8.0)
    quant = Quantizer(np.zeros(3), 0.25, 8)

    tracemalloc.start()
    zformer.zformer_block(rep, quant, params, cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # any n-by-n array, even single-byte, would weigh at least n*n bytes
    assert peak < n * n, f"peak allocation {peak / 1e9:.2f} GB suggests an n^2 buffer"

    start = time.perf_counter()
    zformer.zformer_block(rep, quant, params, cfg)
    sparse_dt = time.perf_counter() - start
    assert sparse_dt < 60.0, f"sparse forward took {sparse_dt:.1f}s (bound: 60s)"

    n_dense = 8192
    f_dense = rep.features[:n_dense]
    start = time.perf_counter()
    reference.dense_attention_reference(f_dense, params, cfg)
    dense_dt = time.perf_counter() - start
    scaled = dense_dt * (n / n_dense) ** 2
    assert sparse_dt * 2.0 <= scaled, (
        f"sparse {sparse_dt:.1f}s not 2x under dense-extrapolated {scaled:.1f}s"
    )


# ---------------------------------------------------------------------------
# 8. the CLI pipeline is bit-deterministic


def test_criterion_8_end_to_end_determinism(tmp_path):
    scene = tmp_path / "scene"
    assert cli_main(["gen-scene", "--out", str(scene), "--seed", "3"]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cell": 0.0625, "serialize_depth": 16}))
    ckpt = tmp_path / "ckpt"
    assert cli_main(
        ["init-checkpoint", "--out", str(ckpt), "--config", str(cfg_path)]
    ) == 0

    blobs = []
    for run in range(3):
        out_dir = tmp_path / f"run{run}"
        rc = cli_main(
            ["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
             "--out-dir", str(out_dir), "--config", str(cfg_path)]
        )
        assert rc == 0
        blobs.append(
            tuple((out_dir / name).read_bytes()
                  for name in ("level_1.ply", "level_2.ply"))
        )
    assert blobs[0] == blobs[1] == blobs[2], "PLY outputs differ between runs"


# ---------------------------------------------------------------------------
# 9. the head only ever emits renderable primitives


def test_criterion_9_head_output_validity():
    params = gh.HeadParams.init(8, 16, seed=29)
    for band, span in enumerate((1.0, 10.0, 1e3, 1e6)):
        n = 2500
        rep = PointRepresentation(
            uniform01(band * 3 + 1, 3 * n).reshape(n, 3) * 20 - 10,
            _features(n, 8, seed=band * 3 + 2, span=span),
            uniform01(band * 3 + 3, 3 * n).reshape(n, 3),
            np.zeros(n, np.int32),
        )
        g = gh.predict(rep, params)
        g.validate()  # raises, naming the first bad primitive, on any violation
        assert (g.opacities > 0.0).all() and (g.opacities < 1.0).all()
        assert (g.scales > 0.0).all()
        assert np.allclose(np.linalg.norm(g.rotations, axis=1), 1.0, atol=1e-9)

    rep = PointRepresentation(
        uniform01(91, 300).reshape(100, 3),
        _features(100, 8, seed=92),
        uniform01(93, 300).reshape(100, 3),
        np.zeros(100, np.int32),
    )
    g = gh.predict(rep, gh.HeadParams.init(8, 16, seed=31).zeroed())
    assert np.allclose(gh.sh_to_color(g.sh), rep.colors, atol=1e-12)
    assert np.array_equal(g.centers, rep.positions)
