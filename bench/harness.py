"""One benchmark request, its traced decomposition, and its checks.

A request calls only public functions of the package, in the order a
serving process would: load the scene directory, build coverage candidates
from every view, greedily select views, assemble the selected ones, run
``forward_scene``, run the head on every level and write one PLY per level.

The traced variant records a span around each of those calls and replaces
``forward_scene`` with the same per-block calls made one at a time, so
group attention, block ranking, top-k attention, fusion and pooling get
spans of their own. ``same_levels`` checks that decomposition bit for bit
against ``forward_scene``; no tracing is added inside the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from zsplat.config import RunConfig
from zsplat.errors import ZsplatError
from zsplat.gaussian_head import predict
from zsplat.morton import Quantizer, sort_by_code
from zsplat.pipeline import (
    LevelOutput,
    forward_scene,
    init_model,
    make_quantizer,
    predict_levels,
    save_checkpoint,
)
from zsplat.scene import (
    assemble,
    load_scene_dir,
    read_gaussians_ply,
    unproject,
    write_gaussians_ply,
    write_scene_dir,
)
from zsplat.synthetic import generate_scene
from zsplat.view_select import build_candidates, select
from zsplat.zformer import (
    gated_fuse,
    group_attention,
    select_blocks,
    topk_attention,
    zformer_block,
    zformer_block_fwd,
    zorder_pool,
)


class GateError(Exception):
    """A request produced output that fails the benchmark's checks."""


# errors that count as a failed request rather than stopping the run
REQUEST_ERRORS = (ZsplatError, GateError)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: dict, seed: int, workdir: str, pool_size: int) -> dict:
    """Write the checkpoint and a pool of scene directories for ``seed``.

    Sphere radius, center and features vary per scene, so pooled sizes vary
    while the point count entering the model stays the workload's stated
    size. Returns the request description a fresh process can serve from.
    """
    rng = random.Random(f"{seed}")
    cfg = RunConfig(seed=seed, **workload["run"])
    checkpoint = os.path.join(workdir, "checkpoint")
    save_checkpoint(init_model(cfg), checkpoint)
    scenes = []
    for i in range(pool_size):
        overrides = dict(workload["scene"])
        overrides.update(
            kind="sphere",
            seed=rng.randrange(1 << 31),
            sphere_radius=rng.uniform(0.85, 1.15),
            sphere_center=[rng.uniform(-0.15, 0.15) for _ in range(3)],
        )
        path = os.path.join(workdir, f"scene_{i}")
        write_scene_dir(path, generate_scene(overrides))
        scenes.append(path)
    return {
        "run": {**workload["run"], "seed": seed},
        "max_views": workload["max_views"],
        "coverage_depth": workload["coverage_depth"],
        "checkpoint": checkpoint,
        "scenes": scenes,
    }


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans and counts of traced requests, kept in memory until the end.

    A span is [request id, name, start, end, parent span index]; counts are
    summed per request and name.
    """

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self.request = -1

    def begin_request(self) -> None:
        self.request += 1
        self.counts.append({})

    @contextmanager
    def span(self, name: str):
        record = [self.request, name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value) -> None:
        counts = self.counts[self.request]
        counts[name] = counts.get(name, 0) + value

    def self_times(self) -> list:
        """Per request: {span name: summed duration minus child spans}."""
        child = [0.0] * len(self.spans)
        for rid, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_request = [{} for _ in self.counts]
        for i, (rid, name, start, end, parent) in enumerate(self.spans):
            layers = per_request[rid]
            layers[name] = layers.get(name, 0.0) + (end - start) - child[i]
        return per_request

    def write(self, path: str) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for rid, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "request": rid, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent if parent >= 0 else None,
                }) + "\n")


def _untraced(name):
    return nullcontext()


# ---------------------------------------------------------------------------
# the request


@dataclass
class Served:
    rep: object
    levels: list
    gaussians: list
    paths: list


def serve(scene_dir, out_dir, cfg: RunConfig, model, max_views: int,
          coverage_depth: int, tracer: Tracer | None = None) -> Served:
    """Serve one request; with a tracer, record spans and counts."""
    span = tracer.span if tracer is not None else _untraced
    with span("request"):
        with span("scene.load"):
            views = load_scene_dir(scene_dir, max_workers=1)
        with span("scene.unproject"):
            point_sets = [unproject(depth, camera) for depth, camera, _, _ in views]
        with span("morton.fit"):
            coverage = Quantizer.fit(np.concatenate(point_sets), coverage_depth)
        with span("view_select.build"):
            candidates = build_candidates(point_sets, coverage)
        with span("view_select.select"):
            chosen = select(candidates, max_views)
        with span("scene.assemble"):
            rep = assemble([views[i] for i in sorted(chosen.selected)])
        if tracer is None:
            levels = forward_scene(rep, cfg, model)
            gaussians = predict_levels(levels, model)
        else:
            with span("pipeline.forward"):
                levels, blocks = traced_forward(rep, cfg, model, tracer)
            gaussians = []
            for lv in levels:
                with span("gaussian_head.predict"):
                    gaussians.append(predict(lv.rep, model.head, lv.offset_scale))
        paths = []
        for i, g in enumerate(gaussians):
            path = os.path.join(out_dir, f"level_{i + 1}.ply")
            with span("scene.write_ply"):
                write_gaussians_ply(path, g)
            paths.append(path)
    if tracer is not None:
        count_blocks(tracer, cfg.attention_config(), blocks)
        tracer.add("scene.load.bytes", dir_bytes(scene_dir))
        tracer.add("view_select.build.cells",
                   sum(len(c.coverage_keys) for c in candidates))
        tracer.add("view_select.select.covered_cells", chosen.covered)
        tracer.add("gaussian_head.predict.gaussians", sum(len(g) for g in gaussians))
        tracer.add("scene.write_ply.bytes", sum(os.path.getsize(p) for p in paths))
    return Served(rep, levels, gaussians, paths)


def traced_forward(rep, cfg: RunConfig, model, tracer: Tracer):
    """``forward_scene`` as separate calls per block, each in its own span.

    Mirrors ``zformer_block`` with the block ranking taken out of
    ``topk_attention`` and passed back in as ``selection``. Returns the
    levels and, per block, (points in, selection, top-k seconds, points
    out) for ``count_blocks``.
    """
    acfg = cfg.attention_config()
    quant = make_quantizer(rep.positions, cfg)
    levels, blocks = [], []
    current = rep
    for params in model.blocks:
        n = len(current)
        with tracer.span("morton.sort"):
            rep_s, codes, _ = sort_by_code(current, quant)
        f = rep_s.features
        with tracer.span("zformer.group"):
            grp_out, w_blocks = group_attention(f, params, acfg)
        n_blocks = w_blocks.shape[0]
        with tracer.span("zformer.select"):
            selection = select_blocks(w_blocks, acfg.resolve_k(n_blocks))
        with tracer.span("zformer.topk") as topk:
            sel_out = topk_attention(f, w_blocks, params, acfg, selection=selection)
        with tracer.span("zformer.fuse"):
            fused = gated_fuse(f, grp_out, sel_out, params)
            rep_mid = rep_s.with_features(f + fused)
        with tracer.span("zformer.pool"):
            current, codes = zorder_pool(rep_mid, codes, acfg.pool_levels, params,
                                         quant, acfg)
        with tracer.span("morton.coarsen"):
            coarse = quant.coarsen(acfg.pool_levels)
        offset = cfg.offset_scale if cfg.offset_scale is not None else 2.0 * coarse.cell
        levels.append(LevelOutput(current, codes, coarse, offset))
        quant = coarse
        blocks.append((n, selection, topk[3] - topk[2], len(current)))
    return levels, blocks


def count_blocks(tracer: Tracer, acfg, blocks: list) -> None:
    """Per-block counts of ``traced_forward``, added once the request's spans
    have closed so the arithmetic lands in no layer's self time."""
    width = acfg.head_width
    for n, selection, topk_s, n_out in blocks:
        n_blocks = selection.shape[0]
        counts = np.diff(np.minimum(np.arange(n_blocks + 1) * acfg.block_len, n))
        gathered = counts[selection].sum(axis=1)
        tracer.add("morton.sort.points", n)
        tracer.add("zformer.group.score_flops", 4 * n_blocks * n_blocks * width)
        tracer.add("zformer.select.blocks", n_blocks)
        tracer.add("zformer.topk.score_flops", 4 * width * int(counts @ gathered))
        # float32 keys and values, one gathered row each per selected token
        tracer.add("zformer.topk.gather_bytes", 2 * width * 4 * int(gathered.sum()))
        tracer.add("zformer.topk.s", topk_s)
        if n % acfg.block_len:
            tracer.add("zformer.topk.ragged_s", topk_s)
        tracer.add("zformer.pool.in", n)
        tracer.add("zformer.pool.out", n_out)


# ---------------------------------------------------------------------------
# checks


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _as_stored(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, np.float32).astype(np.float64)


def gate(served: Served, cfg: RunConfig, digests: list | None) -> list:
    """Check one request's outputs; returns the PLY digests.

    Raises GateError when a Gaussian set is invalid, a level's size differs
    from the count of distinct coarse cells, the PLY does not read back to
    what was written, or ``digests`` (the same scene's earlier outputs)
    differs from this request's bytes.
    """
    acfg = cfg.attention_config()
    quant = make_quantizer(served.rep.positions, cfg)
    codes = np.sort(quant.encode_points(served.rep.positions))
    found = []
    for level, (g, path) in enumerate(zip(served.gaussians, served.paths), start=1):
        try:
            g.validate()
        except ZsplatError as exc:
            raise GateError(f"level {level}: {exc}") from exc
        cells = np.unique(codes >> np.uint64(3 * acfg.pool_levels * level)).size
        if len(g) != cells:
            raise GateError(f"level {level}: {len(g)} gaussians for {cells} coarse cells")
        back = read_gaussians_ply(path)
        exact = all(
            np.array_equal(getattr(back, name), _as_stored(getattr(g, name)))
            for name in ("centers", "rotations", "sh")
        )
        # opacity and scales are stored as a float32 logit and log, so they
        # come back through exp in float64 and match only to float32 rounding
        close = (np.allclose(back.opacities, g.opacities, rtol=1e-5, atol=0)
                 and np.allclose(back.scales, g.scales, rtol=1e-5, atol=0))
        if len(back) != len(g) or not exact or not close:
            raise GateError(f"level {level}: PLY read-back differs from the written Gaussians")
        found.append(file_digest(path))
    if digests is not None and found != digests:
        raise GateError("repeated scene produced different PLY bytes")
    return found


def same_levels(a: list, b: list) -> bool:
    """Bit equality of two ``forward_scene`` results."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        pairs = [
            (x.rep.positions, y.rep.positions), (x.rep.features, y.rep.features),
            (x.rep.colors, y.rep.colors), (x.rep.view_of, y.rep.view_of),
            (x.codes, y.codes),
        ]
        if not all(p.dtype == q.dtype and np.array_equal(p, q) for p, q in pairs):
            return False
        if x.quantizer.cell != y.quantizer.cell or x.offset_scale != y.offset_scale:
            return False
    return True


def kernel_oracle(served: Served, cfg: RunConfig, model, rtol: float, atol: float) -> float:
    """Largest ``zformer_block`` vs ``zformer_block_fwd`` feature difference
    over the request's blocks, relative to the tolerance (<= 1 passes).

    Both take the same block selection; the second runs top-k through the
    per-block loop instead of the chunked path. Codes, positions and colors
    must agree exactly. Returns infinity on any exact mismatch.
    """
    acfg = cfg.attention_config()
    quant = make_quantizer(served.rep.positions, cfg)
    inputs = [served.rep] + [lv.rep for lv in served.levels[:-1]]
    quants = [quant] + [lv.quantizer for lv in served.levels[:-1]]
    worst = 0.0
    for rep, q, params in zip(inputs, quants, model.blocks):
        fast, fast_codes = zformer_block(rep, q, params, acfg)
        slow, slow_codes, _ = zformer_block_fwd(rep, q, params, acfg)
        if not (np.array_equal(fast_codes, slow_codes)
                and np.array_equal(fast.positions, slow.positions)
                and np.array_equal(fast.colors, slow.colors)):
            return float("inf")
        excess = np.abs(fast.features - slow.features) / (atol + rtol * np.abs(slow.features))
        worst = max(worst, float(excess.max()))
    return worst
