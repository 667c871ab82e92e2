"""Stacked transformer blocks, quantizer management, and checkpoints.

Between blocks the quantizer is coarsened by the pooling depth (cell scaled
by 2^h, bit depth reduced by h), so the grid a block sorts and pools on is
exactly the grid its input points were pooled to. Cell-center positions then
re-quantize to the same cells, and each stage merges a genuinely coarser
neighborhood instead of re-splitting the previous one.

A checkpoint is a directory: ``manifest.json`` mapping parameter names to
tensor-container files (plus layer seeds), one pair of files per layer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import CheckpointError
from .gaussian_head import HeadParams, predict
from .morton import Quantizer
from .numerics import LinearLayer, derive_seed
from .scene import PointRepresentation, read_json_object, read_tensor, write_tensor
from .zformer import ZFormerParams, zformer_block

CHECKPOINT_FORMAT = "zsplat-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelParams:
    blocks: tuple
    head: HeadParams


@dataclass(frozen=True)
class LevelOutput:
    """One pooling level: its representation, codes (valid at ``quantizer``
    coarsened by the pool depth), and the head offset scale for this level."""

    rep: PointRepresentation
    codes: np.ndarray
    quantizer: Quantizer
    offset_scale: float


def init_model(cfg: RunConfig) -> ModelParams:
    blocks = tuple(
        ZFormerParams.init(cfg, derive_seed(cfg.seed, f"block{i}"))
        for i in range(cfg.n_blocks)
    )
    head = HeadParams.init(cfg.model_width, cfg.head_hidden, derive_seed(cfg.seed, "head"))
    return ModelParams(blocks, head)


def make_quantizer(points: np.ndarray, cfg: RunConfig) -> Quantizer:
    """Explicit cell/origin from the config when given, else a bbox fit."""
    if cfg.cell is None:
        return Quantizer.fit(points, cfg.serialize_depth)
    points = np.asarray(points, dtype=np.float64)
    if cfg.origin is not None:
        origin = np.asarray(cfg.origin, dtype=np.float64)
    else:
        origin = points.min(axis=0) - 1e-3 * cfg.cell
    return Quantizer(origin, cfg.cell, cfg.serialize_depth)


def forward_scene(rep: PointRepresentation, cfg: RunConfig, model: ModelParams):
    """Run every block, coarsening the grid between them.

    Returns the per-level outputs, finest first. The offset scale defaults to
    two coarse cells of the grid the level was pooled onto.
    """
    quant = make_quantizer(rep.positions, cfg)
    levels = []
    current = rep
    for block_params in model.blocks:
        current, codes = zformer_block(current, quant, block_params, cfg)
        coarse = quant.coarsen(cfg.pool_levels)
        offset = (
            cfg.offset_scale if cfg.offset_scale is not None else 2.0 * coarse.cell
        )
        levels.append(LevelOutput(current, codes, coarse, offset))
        quant = coarse
    return levels


def predict_levels(levels, model: ModelParams):
    """Gaussians for every level through the shared head."""
    return [predict(lv.rep, model.head, lv.offset_scale) for lv in levels]


# ---------------------------------------------------------------------------
# checkpoints


def _named_layers(model: ModelParams) -> dict:
    layers = {}
    for i, block in enumerate(model.blocks):
        for name, layer in block.layers().items():
            layers[f"block{i}/{name}"] = layer
    layers["head/hidden"] = model.head.hidden
    layers["head/output"] = model.head.output
    return layers


def save_checkpoint(model: ModelParams, path) -> int:
    """Write every layer and the manifest; returns the number of layers."""
    os.makedirs(path, exist_ok=True)
    layers = _named_layers(model)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "params": {},
    }
    for name, layer in sorted(layers.items()):
        stem = name.replace("/", "__")
        write_tensor(os.path.join(path, f"{stem}.weight.tns"), layer.weight)
        write_tensor(os.path.join(path, f"{stem}.bias.tns"), layer.bias)
        manifest["params"][name] = {
            "weight": f"{stem}.weight.tns",
            "bias": f"{stem}.bias.tns",
            "seed": layer.seed,
        }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return len(layers)


def _read_layer(path, entry, name: str) -> LinearLayer:
    if not isinstance(entry, dict):
        raise CheckpointError(f"{name}: manifest entry must be a JSON object")
    files = [entry.get("weight"), entry.get("bias")]
    if not all(isinstance(f, str) for f in files):
        raise CheckpointError(f"{name}: weight and bias must name files, got {files}")
    seed = entry.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise CheckpointError(f"{name}: seed must be an integer, got {seed!r}")
    weight, bias = [read_tensor(os.path.join(path, f)) for f in files]
    if weight.ndim != 2 or bias.shape != (weight.shape[0],):
        raise CheckpointError(
            f"{name}: weight {weight.shape} and bias {bias.shape} do not align"
        )
    return LinearLayer(weight.astype(np.float32), bias.astype(np.float32), seed)


def load_checkpoint(path, cfg: RunConfig) -> ModelParams:
    """Load and check a checkpoint against the config's expected shapes."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise CheckpointError(f"no manifest.json under {path}")
    manifest = read_json_object(manifest_path, "manifest", CheckpointError)
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    entries = manifest.get("params", {})
    if not isinstance(entries, dict):
        raise CheckpointError("manifest params must be a JSON object")
    expected = _named_layers(init_model(cfg))
    missing = sorted(set(expected) - set(entries))
    extra = sorted(set(entries) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match config: missing {missing}, unexpected {extra}"
        )
    loaded = {}
    for name, reference_layer in expected.items():
        layer = _read_layer(path, entries[name], name)
        if layer.weight.shape != reference_layer.weight.shape:
            raise CheckpointError(
                f"{name}: weight shape {layer.weight.shape} != expected "
                f"{reference_layer.weight.shape} for this config"
            )
        loaded[name] = layer
    blocks = tuple(
        ZFormerParams(**{n: loaded[f"block{i}/{n}"] for n in ZFormerParams.NAMES})
        for i in range(cfg.n_blocks)
    )
    head = HeadParams(loaded["head/hidden"], loaded["head/output"])
    return ModelParams(blocks, head)
