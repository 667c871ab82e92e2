"""Dense linear algebra, activations, deterministic initialization, and a
finite-difference gradient oracle, on numpy alone.

Matrices are plain 2-D numpy arrays (row-major). One precision rule holds
everywhere: a product accumulates in its operands' dtype. Inference runs in
float32 (linear layers, attention scores and values, activations); callers
that pass float64 operands, the reference implementations and the gradient
oracles, get float64 end to end. Constants are python floats, which take the
array's dtype instead of promoting it. ``segment_sums``, the one reduction
over contiguous runs of rows (the Z-order cluster means of pooling, block
means and the group branch's gradient), follows the same rule: it adds each
segment's rows in row order onto +0.0 in the rows' dtype, so float32 rows
are summed in float32, at every width.

The activations keep the input dtype. ``sigmoid`` is a tanh form, exact to
about one float32 or float64 rounding. ``erf`` (and so ``gelu`` and
``gelu_grad``) is the Abramowitz & Stegun 7.1.26 approximation in float32,
within 7e-7 of the exact value, and ``math.erf`` per element in float64.

Random initialization uses SplitMix64, fixed here by constant: output i of a
stream seeded with ``s`` is ``mix64(s + (i+1) * 0x9E3779B97F4A7C15)`` where
``mix64`` is the standard xor-shift/multiply finalizer. The generator is free
of platform or library-version dependence, so identical seeds give
bit-identical parameters everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ShapeError

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# segments of at most this many rows are summed together, one row per step
_SHORT_SEGMENT = 64

# Abramowitz & Stegun 7.1.26: erf(a) = 1 - t (a1 + t (a2 + ... + t a5)) exp(-a^2)
# with t = 1 / (1 + p a), a >= 0, |error| <= 1.5e-7 in exact arithmetic
_ERF_P = 0.3275911
_ERF_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# float32 elements per erf tile: the temporaries stay in cache
_ERF_TILE = 16384
_erf64 = np.vectorize(math.erf, otypes=[np.float64])


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


def segment_sums(arrays, starts: np.ndarray) -> list:
    """Per array ``x`` of ``arrays``, each n x width, row i of the result is
    ``x[starts[i]:starts[i+1]].sum(0)`` in ``x``'s dtype, the last segment
    running to the end. The starts are checked and the plan built once.

    Each segment's rows are added in row order onto +0.0, at every width, so
    the result is bit-equal to a per-segment loop ``acc = 0; acc += row``.
    Where every segment but the last has one length, as blocks cut rows, they
    are one numpy reduction down the middle axis of a (segments, length,
    width) view and the last is one more. Otherwise segments of at most
    ``_SHORT_SEGMENT`` rows are ordered longest first and step p adds row p of
    every one longer than p, a prefix of that order; each longer segment is
    one numpy reduction. The Python-level steps are at most ``_SHORT_SEGMENT``
    plus one per longer segment: fewer than ``64 + len(x) / 65`` whatever the
    lengths. ``starts`` must begin at 0, rise strictly and stay below the row
    count: every segment holds at least one row."""
    arrays = [np.ascontiguousarray(x) for x in arrays]
    starts = np.asarray(starts)
    n = arrays[0].shape[0]
    if any(x.shape[0] != n for x in arrays):
        raise InputError(f"segment sums need one row count, got {[len(x) for x in arrays]}")
    if (starts.ndim != 1 or not np.issubdtype(starts.dtype, np.integer)
            or len(starts) == 0 or starts[0] != 0 or starts[-1] >= n
            or np.any(starts[1:] <= starts[:-1])):
        raise InputError(
            f"segment starts must be integers rising strictly from 0 below {n}"
        )
    lengths = np.diff(starts, append=n)
    # numpy reductions, each over `count` consecutive segments of one length
    # from segment `i`: blocks take two, other layouts one per long segment
    if (lengths[:-1] == lengths[0]).all():
        short, runs = np.empty(0, np.int64), [(0, len(starts) - 1), (len(starts) - 1, 1)]
    else:
        short = np.flatnonzero(lengths <= _SHORT_SEGMENT)
        runs = [(i, 1) for i in np.flatnonzero(lengths > _SHORT_SEGMENT)]
    # stable, so each step's gather walks x forward
    order = short[np.argsort(-lengths[short], kind="stable")]
    first, longest_first = starts[order], lengths[order]
    # step p runs over the segments of the order longer than p, a prefix
    active = np.searchsorted(-longest_first, -np.arange(longest_first.max(initial=0)))
    sums = [x[first] for x in arrays]
    for s in sums:
        s += 0.0  # 0.0 + row 0, as the loop does: -0.0 becomes +0.0
    for p, k in enumerate(active[1:], start=1):
        rows = first[:k] + p
        for s, x in zip(sums, arrays):
            s[:k] += x[rows]
    out = []
    for x in arrays:
        total = np.empty((len(starts), x.shape[1]), x.dtype)
        total[order] = sums.pop(0)  # each step sum is freed once scattered
        for i, count in runs:
            a, length = starts[i], lengths[i]
            seg = x[a:a + count * length].reshape(count, length, x.shape[1])
            # numpy sums down the rows in row order from +0.0, but one column
            # pairwise; a running sum is in row order by definition
            if x.shape[1] > 1:
                seg.sum(axis=1, out=total[i:i + count])
            else:
                total[i:i + count] = 0.0 + np.add.accumulate(seg, axis=1)[:, -1]
        out.append(total)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as ``0.5 * tanh(x / 2) + 0.5`` in ``x``'s dtype: it
    neither overflows nor warns at any input, and gives 0 and 1 at -inf and
    inf. Absolute error against the exact value: <= 1e-7 in float32 (seen
    6.0e-8) and <= 4.5e-16 in float64 (seen 2.2e-16); ``1 - sigmoid(x)``
    matches ``sigmoid(-x)`` within the same bounds."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


def erf(x: np.ndarray) -> np.ndarray:
    """Error function in ``x``'s dtype.

    float32 runs Abramowitz & Stegun 7.1.26 in float32, in tiles of
    ``_ERF_TILE`` elements, with absolute error <= 7e-7 (seen 6.7e-7 near 0,
    where ``1 - poly * exp`` cancels). Every other dtype is computed as
    float64 by ``math.erf`` per element, within a few float64 ulps; only the
    reference paths and the gradient oracles pass float64."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        return _erf64(x)
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _ERF_TILE):
        xt = flat[i:i + _ERF_TILE]
        # erf(4) rounds to 1 in float32, and the clip keeps a * a finite
        a = np.minimum(np.abs(xt), 4.0)
        t = 1.0 / (1.0 + _ERF_P * a)
        poly = _ERF_A[-1] * t
        for c in _ERF_A[-2::-1]:
            poly += c
            poly *= t
        np.copysign(1.0 - poly * np.exp(-a * a), xt, out=out[i:i + _ERF_TILE])
    return out.reshape(x.shape)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU, ``x/2 * (1 + erf(x/sqrt(2)))``; in float32 it is
    within 2.5e-7 * max(1, |x|) of the exact value (seen 2.1e-7)."""
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


def linear(x: np.ndarray, layer: LinearLayer, out: np.ndarray | None = None) -> np.ndarray:
    """x @ weight.T + bias, written into ``out`` when given."""
    if x.shape[-1] != layer.in_width:
        raise ShapeError(f"linear input width {x.shape[-1]} != layer width {layer.in_width}")
    y = np.matmul(x, layer.weight.T, out=out)
    y += layer.bias
    return y


def linear_backward(grad: np.ndarray, x: np.ndarray, layer: LinearLayer):
    """Returns (d_input, d_weight, d_bias) for y = x @ W.T + b."""
    gx = grad @ layer.weight
    gw = grad.T @ x
    gb = grad.sum(axis=0)
    return gx, gw, gb
