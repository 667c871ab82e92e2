"""Greedy max-coverage selection of informative views.

Each candidate view covers a sorted array of distinct coarse grid cells
(Morton codes of its unprojected depth points). The plain greedy picks at
most ``max_views`` views, each time the one adding the most uncovered cells,
ties to the lower candidate index; it covers at least a (1 - 1/e) fraction of
the optimum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .morton import Quantizer
from .scene import check_fields, integer


@dataclass(frozen=True)
class ViewCandidate:
    """A selectable view: caller-assigned index plus covered cell keys. Any
    iterable of keys is normalized to a sorted array of distinct keys."""

    index: int
    coverage_keys: np.ndarray = ()

    def __post_init__(self):
        keys = self.coverage_keys
        keys = np.sort(np.ravel(keys if isinstance(keys, np.ndarray) else list(keys)))
        # np.unique's own mask, without its per-call overhead
        distinct = np.empty(len(keys), dtype=bool)
        distinct[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        object.__setattr__(self, "coverage_keys", keys[distinct])


@dataclass(frozen=True)
class SelectionResult:
    """Chosen view indices in acceptance order, total covered cells, and the
    marginal gain each acceptance contributed."""

    selected: tuple
    covered: int
    marginal_gains: tuple

    def validate(self) -> None:
        if len(self.selected) != len(self.marginal_gains):
            raise InputError("one marginal gain per selected view required")
        if len(set(self.selected)) != len(self.selected):
            raise InputError("selected view indices must be unique")
        if any(g <= 0 for g in self.marginal_gains):
            raise InputError("marginal gains must be positive")
        if sum(self.marginal_gains) != self.covered:
            raise InputError(
                f"gains sum to {sum(self.marginal_gains)}, covered is {self.covered}"
            )


def build_candidates(point_sets, quantizer: Quantizer):
    """Candidates from world-point arrays: coverage is the set of occupied
    cells of ``quantizer``. Candidate ``i`` is ``point_sets[i]``, so the
    candidates are numbered 0..n-1 in the order given."""
    points = [np.asarray(p, dtype=np.float64) for p in point_sets]
    points = [p.reshape(0, 3) if p.size == 0 else p for p in points]
    if any(p.ndim != 2 or p.shape[1] != 3 for p in points):
        raise InputError("each point set must be an (n, 3) array")
    if not points:
        return []
    # one quantize/encode pass over every view, split back per view
    codes = quantizer.encode_points(np.concatenate(points))
    parts = np.split(codes, np.cumsum([len(p) for p in points])[:-1])
    return [ViewCandidate(i, keys) for i, keys in enumerate(parts)]


def _check_candidates(candidates, max_views: int, min_gain: int) -> dict:
    limits = {"max_views": max_views, "min_gain": min_gain}
    check_fields(limits, dict.fromkeys(limits, integer(0)), InputError)
    by_index = {}
    for cand in candidates:
        if cand.index in by_index:
            raise InputError(f"duplicate candidate index {cand.index}")
        by_index[cand.index] = cand
    return by_index


def select(candidates, max_views: int, min_gain: int = 0) -> SelectionResult:
    """Array greedy max coverage: keys become dense cell ids, ``owner`` maps
    each id entry to its candidate (ascending index), and a pick's gains are
    one ``np.bincount`` of the still-uncovered entries per owner; ``argmax``
    keeps the lowest index among equal gains. Stops after ``max_views`` picks
    or when the best gain is ``min_gain`` or below."""
    by_index = _check_candidates(candidates, max_views, min_gain)
    order = sorted(by_index)
    keys = [by_index[i].coverage_keys for i in order]
    nonempty = [k for k in keys if len(k)]  # () is float64; mixed in, it casts keys
    if not nonempty:
        return SelectionResult((), 0, ())
    cells, cell = np.unique(np.concatenate(nonempty), return_inverse=True)
    owner = np.repeat(np.arange(len(order)), [len(k) for k in keys])
    covered = np.zeros(len(cells), dtype=bool)
    selected, gains = [], []
    while len(selected) < max_views:
        gain = np.bincount(owner, weights=~covered[cell], minlength=len(order))
        best = int(np.argmax(gain))
        if gain[best] <= min_gain:
            break
        selected.append(order[best])
        gains.append(int(gain[best]))
        covered[cell[owner == best]] = True
    return SelectionResult(tuple(selected), int(covered.sum()), tuple(gains))


def naive_greedy(candidates, max_views: int, min_gain: int = 0) -> SelectionResult:
    """Rescan-everything greedy on Python sets: the selection oracle."""
    by_index = _check_candidates(candidates, max_views, min_gain)
    order = sorted(by_index)
    cover = {idx: set(by_index[idx].coverage_keys.tolist()) for idx in order}
    covered: set = set()
    selected, gains = [], []
    while len(selected) < max_views:
        best_idx, best_gain = None, min_gain
        for idx in order:
            if idx in selected:
                continue
            gain = len(cover[idx] - covered)
            if gain > best_gain:
                best_idx, best_gain = idx, gain
        if best_idx is None:
            break
        selected.append(best_idx)
        gains.append(best_gain)
        covered |= cover[best_idx]
    return SelectionResult(tuple(selected), len(covered), tuple(gains))
