"""Morton (Z-order) codes: quantization, bit interleaving, code shifts, and
sorting of point representations along the curve.

Codes pack three ``depth``-bit coordinates into one 64-bit word, bit ``i`` of x
landing at position ``3i``, y at ``3i+1``, z at ``3i+2``. ``depth`` is capped
at 21 so the code fits a single word. Shifting a code by ``h`` levels discards
``3h`` interleaved bits, which nests: the shifted code equals the code of the
coordinates each shifted right by ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, RangeError

MAX_DEPTH = 21

# fractional growth of a fitted quantizer's bounding box, so the extreme
# points land inside the grid rather than on its far edge
_FIT_PAD = 1e-3

_U = np.uint64


def _spread3(v: np.ndarray) -> np.ndarray:
    """Space the low 21 bits of each value three apart (bit i -> bit 3i)."""
    v = v & _U(0x1FFFFF)
    v = (v | (v << _U(32))) & _U(0x1F00000000FFFF)
    v = (v | (v << _U(16))) & _U(0x1F0000FF0000FF)
    v = (v | (v << _U(8))) & _U(0x100F00F00F00F00F)
    v = (v | (v << _U(4))) & _U(0x10C30C30C30C30C3)
    v = (v | (v << _U(2))) & _U(0x1249249249249249)
    return v


def _compact3(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread3` (bit 3i -> bit i)."""
    v = v & _U(0x1249249249249249)
    v = (v ^ (v >> _U(2))) & _U(0x10C30C30C30C30C3)
    v = (v ^ (v >> _U(4))) & _U(0x100F00F00F00F00F)
    v = (v ^ (v >> _U(8))) & _U(0x1F0000FF0000FF)
    v = (v ^ (v >> _U(16))) & _U(0x1F00000000FFFF)
    v = (v ^ (v >> _U(32))) & _U(0x1FFFFF)
    return v


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise RangeError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")


def encode_array(coords: np.ndarray, depth: int) -> np.ndarray:
    """Interleave integer (N, 3) coordinates into uint64 Morton codes."""
    _check_depth(depth)
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise InputError(f"expected (N, 3) integer coordinates, got {coords.shape}")
    hi = 1 << depth
    if coords.size and (coords.min() < 0 or coords.max() >= hi):
        raise RangeError(f"coordinates must lie in [0, {hi - 1}] at depth {depth}")
    c = coords.astype(np.uint64)
    return _spread3(c[:, 0]) | (_spread3(c[:, 1]) << _U(1)) | (_spread3(c[:, 2]) << _U(2))


def decode_array(codes: np.ndarray, depth: int) -> np.ndarray:
    """De-interleave uint64 Morton codes into (N, 3) int64 coordinates."""
    _check_depth(depth)
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.size and int(codes.max()) >= 1 << (3 * depth):
        raise RangeError(f"code exceeds 2^(3*{depth})")
    x = _compact3(codes)
    y = _compact3(codes >> _U(1))
    z = _compact3(codes >> _U(2))
    return np.stack([x, y, z], axis=1).astype(np.int64)


def shift_array(codes: np.ndarray, levels: int, depth: int) -> np.ndarray:
    """Drop ``levels`` coordinate levels (3 bits each) from depth-``depth``
    codes: values shifted right by ``3 * levels``.

    Satisfies the nesting law: the shifted codes of ``coords`` equal the codes
    of ``coords >> levels`` at depth ``depth - levels``.
    """
    if not 0 <= levels <= depth:
        raise RangeError(f"shift levels {levels} out of [0, {depth}]")
    return np.asarray(codes, dtype=np.uint64) >> _U(3 * levels)


def bounding_box(points: np.ndarray):
    """Per-axis minimum and maximum of non-empty (n, 3) points, in float64.

    Both reductions run over one contiguous (3, n) copy: reducing an (n, 3)
    array down axis 0 takes over ten times as long."""
    axes = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    return axes.min(axis=1), axes.max(axis=1)


@dataclass(frozen=True)
class Quantizer:
    """Uniform grid mapping world points to integer cells.

    ``origin`` is the world position of cell (0,0,0)'s corner, ``cell`` the
    edge length of one cell, ``depth`` the per-axis bit budget. Quantized
    coordinates are clamped to [0, 2^depth - 1].
    """

    origin: np.ndarray  # (3,)
    cell: float
    depth: int

    def __post_init__(self):
        _check_depth(self.depth)
        if not (np.isfinite(self.cell) and self.cell > 0):
            raise RangeError(f"cell size must be positive, got {self.cell}")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        object.__setattr__(self, "origin", origin)

    @classmethod
    def fit(cls, points: np.ndarray, depth: int = 16) -> "Quantizer":
        """Bounding-box quantizer: box expanded by ``_FIT_PAD`` (fractional),
        cell equal to the longest expanded extent divided by 2^depth. A box
        whose origin or cell overflows float64 is a RangeError."""
        _check_depth(depth)
        points = np.asarray(points, dtype=np.float64)
        if points.size == 0:
            raise InputError("cannot fit a quantizer to an empty point set")
        lo, hi = bounding_box(points)
        # min and max carry a NaN or an infinity through, so finite bounds
        # mean finite points
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InputError("points contain non-finite values")
        with np.errstate(over="ignore"):  # an overflow is reported below
            extent = hi - lo
            span = float(extent.max())
            if span <= 0.0:
                span = 1.0
            margin = 0.5 * _FIT_PAD * np.maximum(extent, span * 1e-12)
            origin = lo - margin
            cell = span * (1.0 + _FIT_PAD) / (1 << depth)
        if not (np.isfinite(origin).all() and np.isfinite(cell)):
            raise RangeError(f"points span {lo.tolist()} to {hi.tolist()}, past float64 range")
        return cls(origin, cell, depth)

    def quantize(self, points: np.ndarray) -> np.ndarray:
        """Component-wise floor((p - origin) / cell), clamped to the grid."""
        points = np.asarray(points, dtype=np.float64)
        squeeze = points.ndim == 1
        pts = np.atleast_2d(points)
        if pts.shape[-1] != 3:
            raise InputError(f"expected 3-vectors, got shape {points.shape}")
        if not np.isfinite(pts).all():
            raise InputError("cannot quantize non-finite points")
        # clamp in float64: a cell index past int64 range would cast to INT64_MIN
        with np.errstate(over="ignore"):
            idx = np.floor((pts - self.origin) / self.cell)
        np.clip(idx, 0, (1 << self.depth) - 1, out=idx)
        idx = idx.astype(np.int64)
        return idx[0] if squeeze else idx

    def encode_points(self, points: np.ndarray) -> np.ndarray:
        """Morton codes of world points under this grid."""
        return encode_array(self.quantize(np.atleast_2d(points)), self.depth)

    def coarsen(self, levels: int) -> "Quantizer":
        """The grid after discarding ``levels`` coordinate levels."""
        if not 0 <= levels < self.depth:
            raise RangeError(f"cannot coarsen depth {self.depth} by {levels}")
        return Quantizer(self.origin, self.cell * (1 << levels), self.depth - levels)

    def cell_centers(self, coords: np.ndarray) -> np.ndarray:
        """World-space centers of integer cells (same grid level as self)."""
        coords = np.asarray(coords, dtype=np.float64)
        return self.origin + (coords + 0.5) * self.cell


def z_order(rep, quantizer: Quantizer):
    """The Z-curve order of a point representation, without moving its rows.

    Returns (sorted uint64 codes, permutation): row ``perm[i]`` of ``rep``
    is the i-th point along the curve. The sort is stable: equal codes keep
    their input order.
    """
    if len(rep) == 0:
        raise InputError("cannot serialize an empty point representation")
    codes = quantizer.encode_points(rep.positions)
    perm = np.argsort(codes, kind="stable")
    return codes[perm], perm


def sort_by_code(rep, quantizer: Quantizer):
    """Order a point representation along the Z-curve: :func:`z_order`, then
    every array of ``rep`` reindexed, features included.

    Returns (sorted representation, sorted uint64 codes, permutation).
    ``zformer_block`` keeps the order as the permutation instead and never
    makes this sorted copy of the features.
    """
    codes, perm = z_order(rep, quantizer)
    return rep.take(perm), codes, perm
