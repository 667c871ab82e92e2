"""Argument guards that no pipeline or CLI test reaches: each raises its own
class and message, with no numpy warning first."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from zsplat import morton, view_select
from zsplat.errors import ConfigError, InputError, RangeError, ShapeError
from zsplat.gaussian_head import RAW_WIDTH, HeadParams, raw_to_gaussians
from zsplat.numerics import grad_check, init_linear
from zsplat.scene import PointRepresentation
from zsplat.synthetic import scene_config
from zsplat.zformer import (AttentionConfig, ZFormerParams, block_pool, gated_fuse,
                            topk_attention)

CFG = AttentionConfig(block_len=4, model_width=8, head_width=4)
PARAMS = ZFormerParams.init(CFG, 7)
F = np.ones((8, 8), np.float32)  # two blocks of four tokens
GRID = morton.Quantizer(np.zeros(3), 1.0, 4)
EMPTY = PointRepresentation(np.zeros((0, 3)), np.zeros((0, 4), np.float32),
                            np.zeros((0, 3)), np.zeros(0, np.int32))

GUARDS = {
    "head-output-width": (
        lambda: HeadParams(init_linear(7, 4, 0), init_linear(4, RAW_WIDTH + 1, 1)),
        InputError, f"head output width must be {RAW_WIDTH}, got {RAW_WIDTH + 1}"),
    "head-widths-chain": (
        lambda: HeadParams(init_linear(7, 4, 0), init_linear(5, RAW_WIDTH, 1)),
        InputError, "head layer widths do not chain"),
    "raw-width": (
        lambda: raw_to_gaussians(np.zeros((2, RAW_WIDTH - 1)), np.zeros((2, 3)), np.zeros((2, 3))),
        InputError, f"raw must be (M, {RAW_WIDTH}), got (2, {RAW_WIDTH - 1})"),
    "encode-coords": (
        lambda: morton.encode_array(np.zeros((2, 2), np.int64), 4),
        InputError, "expected (N, 3) integer coordinates, got (2, 2)"),
    "quantize-3-vectors": (
        lambda: GRID.quantize(np.zeros((2, 2))),
        InputError, "expected 3-vectors, got shape (2, 2)"),
    "coarsen-past-depth": (
        lambda: GRID.coarsen(4),
        RangeError, "cannot coarsen depth 4 by 4"),
    "z-order-empty": (
        lambda: morton.z_order(EMPTY, GRID),
        InputError, "cannot serialize an empty point representation"),
    "grad-check-step": (
        lambda: grad_check(np.sum, np.ones_like, np.zeros(2), step=0.0),
        ValueError, "step must be positive"),
    "grad-check-shape": (
        lambda: grad_check(np.sum, lambda x: np.zeros(3), np.zeros(2)),
        ShapeError, "analytic gradient shape (3,) != point shape (2,)"),
    "layer-widths": (
        lambda: init_linear(0, 4, 0),
        ValueError, "layer widths must be >= 1, got in=0, out=4"),
    "scene-config-object": (
        lambda: scene_config([1]),
        ConfigError, "scene config must be a JSON object, got [1]"),
    "block-pool-empty": (
        lambda: block_pool(np.zeros((0, 4)), 32),
        InputError, "cannot block-pool zero rows"),
    "topk-w-blocks-shape": (
        lambda: topk_attention(F, np.zeros((3, 3)), PARAMS, CFG),
        InputError, "w_blocks shape (3, 3) does not match 2 blocks"),
    "fuse-gate-outputs": (
        lambda: gated_fuse(F, np.zeros((8, 4)), np.zeros((8, 4)),
                           replace(PARAMS, gate=init_linear(8, 3, 1))),
        InputError, "gate layer must output 2 values, got 3"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_each_guard_raises_its_class_and_message(name):
    call, error, message = GUARDS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def test_no_point_sets_build_no_candidates():
    assert view_select.build_candidates([], GRID) == []
