"""Dense linear algebra, activations, deterministic initialization, and a
finite-difference gradient oracle.

Matrices are plain 2-D numpy arrays (row-major). Production paths run in
float32. Linear layers (``matmul``, ``linear``) accumulate in float64 whatever
the storage dtype; attention score and value products (the group scores and
the top-k kernel in ``zformer``) do not, and accumulate in the storage dtype.
Gradient-oracle paths run in float64 end to end.

Random initialization uses SplitMix64, fixed here by constant: output i of a
stream seeded with ``s`` is ``mix64(s + (i+1) * 0x9E3779B97F4A7C15)`` where
``mix64`` is the standard xor-shift/multiply finalizer. The generator is free
of platform or library-version dependence, so identical seeds give
bit-identical parameters everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of a SplitMix64 stream as uint64."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform01(seed: int, count: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1), float64, from the 53 high bits."""
    return (splitmix64(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def derive_seed(seed: int, label: str) -> int:
    """Stable per-name child seed, so named parameters draw disjoint streams."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return int(splitmix64(seed ^ h, 1)[0])


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation, cast back to the input dtype."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return out.astype(np.result_type(a, b), copy=False)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    x = np.asarray(x)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_rows_backward(grad: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient of a row-wise softmax, given its output ``probs``."""
    inner = np.sum(grad * probs, axis=-1, keepdims=True)
    return probs * (grad - inner)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU."""
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    phi = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * phi


def grad_check(f, analytic_grad, point: np.ndarray, step: float = 1e-5) -> float:
    """Max relative disagreement between ``analytic_grad`` and central differences.

    Central difference per coordinate: (f(x + h e_i) - f(x - h e_i)) / 2h.
    The error is |analytic - numeric| / max(1, |numeric|), maximized over
    coordinates. Evaluation runs in float64.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(point, dtype=np.float64).copy()
    ana = np.asarray(analytic_grad(x), dtype=np.float64)
    if ana.shape != x.shape:
        raise ShapeError(f"analytic gradient shape {ana.shape} != point shape {x.shape}")
    worst = 0.0
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + step
        fp = float(f(x))
        x.flat[i] = orig - step
        fm = float(f(x))
        x.flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite probe at coordinate {i}: f+={fp}, f-={fm}")
        numeric = (fp - fm) / (2.0 * step)
        err = abs(ana.flat[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class LinearLayer:
    """Affine map x -> x @ weight.T + bias, with its originating seed."""

    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    seed: int

    @property
    def in_width(self) -> int:
        return self.weight.shape[1]

    @property
    def out_width(self) -> int:
        return self.weight.shape[0]

    def astype(self, dtype) -> "LinearLayer":
        return LinearLayer(self.weight.astype(dtype), self.bias.astype(dtype), self.seed)


def init_linear(n_in: int, n_out: int, seed: int) -> LinearLayer:
    """Deterministic Glorot-uniform layer: weights in +-sqrt(6/(in+out)), zero bias.

    Weight entries are drawn row-major from the SplitMix64 stream of ``seed``.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError(f"layer widths must be >= 1, got in={n_in}, out={n_out}")
    limit = np.sqrt(6.0 / (n_in + n_out))
    u = uniform01(seed, n_out * n_in)
    weight = ((2.0 * u - 1.0) * limit).reshape(n_out, n_in).astype(np.float32)
    bias = np.zeros(n_out, dtype=np.float32)
    return LinearLayer(weight, bias, seed)


def linear(x: np.ndarray, layer: LinearLayer) -> np.ndarray:
    if x.shape[-1] != layer.in_width:
        raise ShapeError(f"linear input width {x.shape[-1]} != layer width {layer.in_width}")
    return matmul(x, layer.weight.T) + layer.bias


def linear_backward(grad: np.ndarray, x: np.ndarray, layer: LinearLayer):
    """Returns (d_input, d_weight, d_bias) for y = x @ W.T + b."""
    gx = matmul(grad, layer.weight)
    gw = matmul(grad.T, x)
    gb = grad.sum(axis=0)
    return gx, gw, gb
