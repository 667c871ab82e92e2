"""Stacked transformer blocks, quantizer management, and checkpoints.

Between blocks the quantizer is coarsened by the pooling depth (cell scaled
by 2^h, bit depth reduced by h), so the grid a block sorts and pools on is
exactly the grid its input points were pooled to. Cell-center positions then
re-quantize to the same cells, and each stage merges a genuinely coarser
neighborhood instead of re-splitting the previous one.

A checkpoint is a directory: ``manifest.json`` mapping each layer's name to
its pair of tensor-container files, named after it, plus its seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import CheckpointError, ConfigError, FormatError, RangeError
from .gaussian_head import HeadParams, predict
from .morton import Quantizer, bounding_box
from .numerics import LinearLayer, derive_seed
from .scene import (PointRepresentation, check_fields, integer, one_of, optional,
                    read_json_object, read_tensor, worded, write_tensor)
from .zformer import ZFormerParams, zformer_block

CHECKPOINT_FORMAT = "zsplat-checkpoint"
CHECKPOINT_VERSION = 1
_MANIFEST_FIELDS = {
    "format": worded(one_of(CHECKPOINT_FORMAT), "unrecognized checkpoint format {!r}"),
    "version": worded(integer(CHECKPOINT_VERSION, CHECKPOINT_VERSION), "unsupported version {!r}"),
    "params": lambda name, value: not isinstance(value, dict) and f"{name} must be a JSON object",
}


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


def _layer_shapes(cfg: RunConfig) -> dict:
    """Every layer's weight shape, (out, in), under its checkpoint name, as
    the block and head initialisers draw them.

    Each block pools ``cfg.pool_levels`` levels off the serialization depth,
    so the blocks must leave at least one."""
    if cfg.n_blocks * cfg.pool_levels >= cfg.serialize_depth:
        raise ConfigError(
            f"{cfg.n_blocks} blocks of {cfg.pool_levels} pooling levels "
            f"exhaust serialize_depth {cfg.serialize_depth}"
        )
    shapes = {f"block{i}/{name}": shape for i in range(cfg.n_blocks)
              for name, shape in ZFormerParams.shapes(cfg).items()}
    head = HeadParams.shapes(cfg.model_width, cfg.head_hidden)
    shapes.update({f"head/{name}": shape for name, shape in head.items()})
    return shapes


def init_model(cfg: RunConfig) -> ModelParams:
    """Seeded blocks and head; the blocks' pooling must leave at least one
    level of the serialization depth (see ``_layer_shapes``)."""
    _layer_shapes(cfg)  # raises ConfigError when they do not
    blocks = tuple(
        ZFormerParams.init(cfg, derive_seed(cfg.seed, f"block{i}"))
        for i in range(cfg.n_blocks)
    )
    head = HeadParams.init(cfg.model_width, cfg.head_hidden, derive_seed(cfg.seed, "head"))
    return ModelParams(blocks, head)


def make_quantizer(points: np.ndarray, cfg: RunConfig) -> Quantizer:
    """A grid of ``cfg.cell`` starting just below the points, else a bbox fit.

    The explicit grid must hold every point: where ``Quantizer.quantize``
    would clamp one onto the grid's far face, this raises RangeError."""
    if cfg.cell is None:
        return Quantizer.fit(points, cfg.serialize_depth)
    lo, hi = bounding_box(points)
    # the far corner's cell, in the float64 arithmetic quantize uses; an
    # overflow here leaves an infinite cell index, which the check rejects
    with np.errstate(over="ignore"):
        quant = Quantizer(lo - 1e-3 * cfg.cell, cfg.cell, cfg.serialize_depth)
        top = np.floor((hi - quant.origin) / quant.cell)
        extent = hi - lo
    if (top > (1 << quant.depth) - 1).any():
        raise RangeError(
            f"points span ({', '.join(f'{v:.6g}' for v in extent)}) per axis, but cell "
            f"{cfg.cell} at depth {quant.depth} gives a grid spanning "
            f"{(1 << quant.depth) * quant.cell:.6g}"
        )
    return quant


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


def _layer_files(name: str) -> dict:
    """The weight and bias files saved for layer ``name``: the only ones its entry may name."""
    stem = name.replace("/", "__")
    return {"weight": f"{stem}.weight.tns", "bias": f"{stem}.bias.tns"}


def save_checkpoint(model: ModelParams, path) -> int:
    """Write every layer and the manifest; returns the number of layers."""
    os.makedirs(path, exist_ok=True)
    layers = _named_layers(model)
    manifest = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, "params": {}}
    for name, layer in sorted(layers.items()):
        files = _layer_files(name)
        for part, file in files.items():
            write_tensor(os.path.join(path, file), getattr(layer, part))
        manifest["params"][name] = dict(files, seed=layer.seed)
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return len(layers)


def _read_layer(path, entry, name: str, shape) -> LinearLayer:
    """Layer ``name`` from its :func:`_layer_files`, which ``entry`` must name:
    regular files, not symlinks, of a ``shape`` weight and a ``shape[:1]`` bias.
    A file ``read_tensor`` rejects is a ``CheckpointError`` naming both."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{name}: manifest entry must be a JSON object")
    files = _layer_files(name)
    rules = {part: worded(one_of(file), f"{part} must be {file!r}, got {{!r}}")
             for part, file in files.items()}
    check_fields(entry, dict(rules, seed=optional(integer())),
                 lambda message: CheckpointError(f"{name}: {message}"))
    arrays = {}
    for (part, file), want in zip(files.items(), (shape, shape[:1])):
        file_path = os.path.join(path, file)
        if os.path.islink(file_path) or not os.path.isfile(file_path):
            raise CheckpointError(f"{name}: {file_path} is not a regular file")
        try:
            values = read_tensor(file_path)
        except FormatError as exc:
            raise CheckpointError(f"{name}: {file_path}: {exc}") from exc
        if values.shape != want:
            raise CheckpointError(f"{name}: {part} shape {values.shape} != {want} for this config")
        with np.errstate(over="ignore"):  # a value past float32 range casts to inf
            arrays[part] = values.astype(np.float32)
        if not np.isfinite(arrays[part]).all():
            raise CheckpointError(f"{name}: {part} holds a value that is not a finite float32")
    return LinearLayer(**arrays, seed=entry.get("seed", 0))


def load_checkpoint(path, cfg: RunConfig) -> ModelParams:
    """Load and check a checkpoint against the config's expected shapes; no
    weight is drawn to find them."""
    expected = _layer_shapes(cfg)
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise CheckpointError(f"no manifest.json under {path}")
    manifest = read_json_object(manifest_path, "manifest", CheckpointError)
    check_fields(manifest, _MANIFEST_FIELDS, lambda m: CheckpointError(f"bad manifest: {m}"))
    entries = manifest["params"]
    missing = sorted(set(expected) - set(entries))
    extra = sorted(set(entries) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match config: missing {missing}, unexpected {extra}"
        )
    loaded = {name: _read_layer(path, entries[name], name, shape)
              for name, shape in expected.items()}
    blocks = tuple(
        ZFormerParams(**{n: loaded[f"block{i}/{n}"] for n in ZFormerParams.NAMES})
        for i in range(cfg.n_blocks)
    )
    head = HeadParams(loaded["head/hidden"], loaded["head/output"])
    return ModelParams(blocks, head)
