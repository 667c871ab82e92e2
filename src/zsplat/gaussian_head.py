"""Shared MLP head mapping pooled points to Gaussian primitives.

Input per point is the feature vector concatenated with its RGB color; a
two-layer GELU MLP emits 38 raw values decoded as:

* 0:3   bounded center offset  mu = position + offset_scale * tanh(raw)
* 3     opacity logit          sigma = sigmoid(raw), raw clamped to +-15 so
        the result stays strictly inside (0, 1) in floating point
* 4:8   rotation               unit-normalized (raw + (1, 0, 0, 0)); the
        identity quaternion is the zero-raw fixed point
* 8:11  log scales             s = exp(raw clamped to [-10, 3])
* 11:38 SH residual            added to the color-seeded coefficients

The SH seed places (color - 0.5) / C0 in the three DC slots (C0 the constant
zeroth SH basis value), zeros elsewhere, so a zero-weight head reproduces the
input color exactly under SH evaluation. The same head weights serve every
pooling level.

The MLP runs in the features' dtype (float32 at inference, colors cast to
it); the decode runs in float64, so the SH seed and centers take the input
colors and positions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import (
    LinearLayer,
    derive_seed,
    gelu,
    gelu_grad,
    init_linear,
    linear,
    linear_backward,
    sigmoid,
)
from .scene import Gaussians

SH_C0 = 0.28209479177
RAW_WIDTH = 38

_OPACITY_CLAMP = 15.0
_SCALE_CLAMP = (-10.0, 3.0)
_QUAT_EPS = 1e-8


@dataclass(frozen=True)
class HeadParams:
    """Two affine layers: (features + color) -> hidden -> 38 raw values."""

    hidden: LinearLayer
    output: LinearLayer

    def __post_init__(self):
        if self.output.out_width != RAW_WIDTH:
            raise InputError(
                f"head output width must be {RAW_WIDTH}, got {self.output.out_width}"
            )
        if self.output.in_width != self.hidden.out_width:
            raise InputError("head layer widths do not chain")

    @property
    def feature_width(self) -> int:
        return self.hidden.in_width - 3

    @staticmethod
    def shapes(feature_width: int, hidden_width: int) -> dict:
        """Each layer's weight shape, (out, in), by name."""
        return {"hidden": (hidden_width, feature_width + 3),
                "output": (RAW_WIDTH, hidden_width)}

    @classmethod
    def init(cls, feature_width: int, hidden_width: int, seed: int = 0):
        return cls(**{name: init_linear(n_in, n_out, derive_seed(seed, f"head/{name}"))
                      for name, (n_out, n_in)
                      in cls.shapes(feature_width, hidden_width).items()})

    def astype(self, dtype) -> "HeadParams":
        return HeadParams(self.hidden.astype(dtype), self.output.astype(dtype))

    def zeroed(self) -> "HeadParams":
        """Same shapes with all weights and biases zero (raw output 0)."""
        return HeadParams(
            LinearLayer(np.zeros_like(self.hidden.weight), np.zeros_like(self.hidden.bias), self.hidden.seed),
            LinearLayer(np.zeros_like(self.output.weight), np.zeros_like(self.output.bias), self.output.seed),
        )


def sh_from_color(colors: np.ndarray) -> np.ndarray:
    """Color-seeded SH coefficients: DC = (c - 0.5) / C0, higher orders 0."""
    colors = np.asarray(colors, dtype=np.float64)
    sh = np.zeros((colors.shape[0], 27))
    sh[:, 0:3] = (colors - 0.5) / SH_C0
    return sh


def sh_to_color(sh: np.ndarray) -> np.ndarray:
    """View-independent SH evaluation: C0 * DC + 0.5."""
    return SH_C0 * np.asarray(sh)[:, 0:3] + 0.5


def raw_to_gaussians(raw, positions, colors, offset_scale: float = 1.0):
    """Decode raw head outputs into primitives; returns (Gaussians, cache)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != RAW_WIDTH:
        raise InputError(f"raw must be (M, {RAW_WIDTH}), got {raw.shape}")
    positions = np.asarray(positions, dtype=np.float64)
    t = np.tanh(raw[:, 0:3])
    centers = positions + offset_scale * t
    op_z = np.clip(raw[:, 3], -_OPACITY_CLAMP, _OPACITY_CLAMP)
    opacities = sigmoid(op_z)
    quat = raw[:, 4:8].copy()
    quat[:, 0] += 1.0
    norms = np.linalg.norm(quat, axis=1)
    degenerate = norms < _QUAT_EPS
    if degenerate.any():
        quat[degenerate] = [1.0, 0.0, 0.0, 0.0]
        norms = np.where(degenerate, 1.0, norms)
    rotations = quat / norms[:, None]
    sc_z = np.clip(raw[:, 8:11], *_SCALE_CLAMP)
    scales = np.exp(sc_z)
    sh = sh_from_color(colors) + raw[:, 11:38]
    gaussians = Gaussians(centers, opacities, rotations, scales, sh)
    cache = {
        "raw": raw, "t": t, "op_z": op_z, "opacities": opacities,
        "quat": quat, "norms": norms, "degenerate": degenerate,
        "rotations": rotations, "sc_z": sc_z, "scales": scales,
        "offset_scale": offset_scale,
    }
    return gaussians, cache


def _raw_bwd(g_out: dict, cache: dict) -> np.ndarray:
    """Gradient of the decode step: upstream arrays keyed like Gaussians
    fields, missing keys meaning zero."""
    raw = cache["raw"]
    g_raw = np.zeros_like(raw)
    if "centers" in g_out:
        g_raw[:, 0:3] = g_out["centers"] * cache["offset_scale"] * (1.0 - cache["t"] ** 2)
    if "opacities" in g_out:
        inside = np.abs(raw[:, 3]) < _OPACITY_CLAMP
        s = cache["opacities"]
        g_raw[:, 3] = g_out["opacities"] * s * (1.0 - s) * inside
    if "rotations" in g_out:
        r, nrm = cache["rotations"], cache["norms"]
        g_r = g_out["rotations"]
        inner = np.sum(g_r * r, axis=1, keepdims=True)
        g_quat = (g_r - r * inner) / nrm[:, None]
        g_quat[cache["degenerate"]] = 0.0
        g_raw[:, 4:8] = g_quat
    if "scales" in g_out:
        inside = (raw[:, 8:11] > _SCALE_CLAMP[0]) & (raw[:, 8:11] < _SCALE_CLAMP[1])
        g_raw[:, 8:11] = g_out["scales"] * cache["scales"] * inside
    if "sh" in g_out:
        g_raw[:, 11:38] = g_out["sh"]
    return g_raw


def predict_fwd(rep, params: HeadParams, offset_scale: float = 1.0):
    """Run the head on a point representation; returns (Gaussians, cache)."""
    if rep.feature_width != params.feature_width:
        raise InputError(
            f"representation feature width {rep.feature_width} != head width "
            f"{params.feature_width}"
        )
    x = np.concatenate([rep.features, rep.colors], axis=1, dtype=rep.features.dtype)
    pre = linear(x, params.hidden)
    act = gelu(pre)
    raw = linear(act, params.output)
    gaussians, decode_cache = raw_to_gaussians(raw, rep.positions, rep.colors, offset_scale)
    cache = {"x": x, "pre": pre, "act": act, "decode": decode_cache,
             "width": rep.feature_width}
    return gaussians, cache


def predict(rep, params: HeadParams, offset_scale: float = 1.0) -> Gaussians:
    return predict_fwd(rep, params, offset_scale)[0]


def predict_bwd(g_out: dict, cache: dict, params: HeadParams):
    """Returns ({'hidden': (gw, gb), 'output': (gw, gb)}, g_features, g_colors).

    ``g_colors`` covers both the MLP input path and the SH seeding path.
    """
    g_raw = _raw_bwd(g_out, cache["decode"])
    g_act, gw2, gb2 = linear_backward(g_raw, cache["act"], params.output)
    g_pre = g_act * gelu_grad(cache["pre"])
    g_x, gw1, gb1 = linear_backward(g_pre, cache["x"], params.hidden)
    width = cache["width"]
    g_features = g_x[:, :width]
    g_colors = g_x[:, width:].copy()
    if "sh" in g_out:
        g_colors += np.asarray(g_out["sh"])[:, 0:3] / SH_C0
    return {"hidden": (gw1, gb1), "output": (gw2, gb2)}, g_features, g_colors
