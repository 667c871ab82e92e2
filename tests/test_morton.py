import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsplat import morton, reference
from zsplat.config import RunConfig
from zsplat.errors import InputError, RangeError
from zsplat.numerics import uniform01
from zsplat.pipeline import make_quantizer
from zsplat.scene import PointRepresentation

coords21 = st.integers(min_value=0, max_value=2**21 - 1)


def _encode(coords, depth):
    return [int(c) for c in morton.encode_array(np.array(coords, dtype=np.int64), depth)]


def test_encode_frozen_values():
    # single-bit axes land at interleaved positions 0, 1, 2
    assert _encode([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1) == [1, 2, 4]
    # worked example: x=011, y=101, z=110 interleave to 0b110101011
    assert _encode([[3, 5, 6]], 3) == [427]
    # frozen from the bit-loop oracle
    assert _encode([[99999, 12345, 54321]], 17) == [476506356938319]
    # all 63 bits populated at full depth
    top = 2**21 - 1
    assert _encode([[top, top, top]], 21) == [2**63 - 1]


@given(st.lists(st.tuples(coords21, coords21, coords21), min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_encode_matches_bit_loop_oracle_at_full_depth(triples):
    assert _encode(triples, 21) == [reference.encode_reference(*t, 21) for t in triples]


def _triples(data, depth):
    hi = 2**depth - 1
    coord = st.integers(0, hi)
    return data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=16))


@given(st.data(), st.integers(min_value=1, max_value=21))
@settings(max_examples=150, deadline=None)
def test_roundtrip_at_any_depth(data, depth):
    triples = _triples(data, depth)
    codes = morton.encode_array(np.array(triples, dtype=np.int64), depth)
    assert morton.decode_array(codes, depth).tolist() == [list(t) for t in triples]
    assert [reference.decode_reference(int(c), depth) for c in codes] == triples


@given(st.data(), st.integers(min_value=1, max_value=21))
@settings(max_examples=150, deadline=None)
def test_shift_equals_encode_of_shifted_coords(data, depth):
    coords = np.array(_triples(data, depth), dtype=np.int64)
    levels = data.draw(st.integers(0, depth))
    shifted = morton.shift_array(morton.encode_array(coords, depth), levels, depth)
    assert shifted.dtype == np.uint64
    # a valid code of the reduced depth
    assert int(shifted.max()) < 1 << (3 * (depth - levels))
    if levels < depth:
        want = morton.encode_array(coords >> levels, depth - levels)
        assert np.array_equal(shifted, want)
    else:
        assert not shifted.any()


def test_array_ops_agree_with_scalar_ops():
    vals = (uniform01(17, 3 * 500) * 2**14).astype(np.int64).reshape(-1, 3)
    codes = morton.encode_array(vals, 14)
    back = morton.decode_array(codes, 14)
    assert np.array_equal(back, vals)
    for row, code in zip(vals[:32], codes[:32]):
        assert reference.encode_reference(*(int(v) for v in row), 14) == int(code)
        assert reference.decode_reference(int(code), 14) == tuple(int(v) for v in row)
    shifted = morton.shift_array(codes, 5, 14)
    assert np.array_equal(shifted, morton.encode_array(vals >> 5, 9))


def test_encode_rejects_out_of_range_inputs():
    with pytest.raises(RangeError):
        morton.encode_array([[8, 0, 0]], 3)
    with pytest.raises(RangeError):
        morton.encode_array([[-1, 0, 0]], 3)
    with pytest.raises(RangeError):
        morton.encode_array([[0, 0, 0]], 22)
    with pytest.raises(RangeError):
        morton.encode_array([[0, 0, 0]], 0)
    with pytest.raises(RangeError):
        morton.shift_array(morton.encode_array([[1, 1, 1]], 4), 5, 4)
    with pytest.raises(RangeError):
        morton.decode_array([8], 1)


def test_quantizer_frozen_example():
    q = morton.Quantizer(np.zeros(3), 0.5, 4)
    assert tuple(q.quantize(np.array([1.26, 0.74, 0.01]))) == (2, 1, 0)
    # clamped at the grid edges, also from past int64 and float64 range, without warning
    tiny = morton.Quantizer(np.zeros(3), 5e-324, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tuple(q.quantize(np.array([-3.0, 9.9, 7.9]))) == (0, 15, 15)
        assert q.quantize([[1e30, -1e30, 5.0]]).tolist() == [[15, 0, 10]]
        assert tiny.quantize([[1.0, -1.0, 2.5e-323]]).tolist() == [[65535, 0, 5]]


def test_quantizer_fit_covers_all_points():
    pts = (uniform01(23, 3 * 400).reshape(-1, 3) - 0.3) * 12
    for depth in (4, 10, 16):
        q = morton.Quantizer.fit(pts, depth)
        idx = q.quantize(pts)
        assert idx.min() >= 0
        assert idx.max() < 2**depth
        # interior fit: no point sits clamped at the upper edge
        back = q.origin + idx * q.cell
        assert np.all(back <= pts + 1e-9)


def test_quantizer_fit_handles_degenerate_extents():
    flat = np.column_stack(
        [uniform01(3, 50), uniform01(4, 50), np.zeros(50)]
    )
    q = morton.Quantizer.fit(flat, 8)
    idx = q.quantize(flat)
    assert (idx[:, 2] == idx[0, 2]).all()
    single = np.tile([1.0, 2.0, 3.0], (5, 1))
    q2 = morton.Quantizer.fit(single, 8)
    assert q2.cell > 0


def _fit_from_axis0_reductions(points, depth):
    # Quantizer.fit's box as min(axis=0) / max(axis=0) of the (n, 3) rows
    lo, hi = points.min(axis=0), points.max(axis=0)
    extent = hi - lo
    span = float(extent.max()) or 1.0
    margin = 0.5 * morton._FIT_PAD * np.maximum(extent, span * 1e-12)
    return lo - margin, span * (1.0 + morton._FIT_PAD) / (1 << depth)


@pytest.mark.parametrize("case", ["random", "single", "collinear", "extent 1e12"])
def test_quantizer_fit_matches_axis0_reductions_bit_for_bit(case):
    t = uniform01(37, 500)[:, None]
    points = {
        "random": (uniform01(36, 3 * 500).reshape(-1, 3) - 0.4) * 7,
        "single": np.array([[1.5, -2.25, 3.0]]),
        "collinear": np.array([-1.0, 2.0, 0.5]) + t * np.array([0.3, -1.2, 2.0]),
        "extent 1e12": np.column_stack([t[:, 0] * 1e12 - 3e11, -t[:, 0], t[:, 0] * 1e-3]),
    }[case]
    for depth in (4, 16, 21):
        q = morton.Quantizer.fit(points, depth)
        origin, cell = _fit_from_axis0_reductions(points, depth)
        assert q.origin.tobytes() == origin.tobytes()
        assert q.cell == cell
        assert [a.tolist() for a in morton.bounding_box(points)] == [
            points.min(axis=0).tolist(), points.max(axis=0).tolist()]


def test_quantizer_coarsen_matches_shifted_cells():
    pts = (uniform01(31, 3 * 300).reshape(-1, 3)) * 40 - 11
    q = morton.Quantizer.fit(pts, 12)
    for levels in (1, 3, 7):
        coarse = q.coarsen(levels)
        assert coarse.depth == 12 - levels
        assert coarse.cell == pytest.approx(q.cell * 2**levels)
        fine_idx = q.quantize(pts)
        assert np.array_equal(coarse.quantize(pts), fine_idx >> levels)


def test_cell_centers_requantize_to_same_cell():
    q = morton.Quantizer(np.array([-2.0, 0.5, 3.0]), 0.25, 10)
    ijk = (uniform01(41, 3 * 200) * 2**10).astype(np.int64).reshape(-1, 3)
    centers = q.cell_centers(ijk)
    assert np.array_equal(q.quantize(centers), ijk)


def test_quantizer_rejects_bad_construction():
    with pytest.raises(RangeError):
        morton.Quantizer(np.zeros(3), 0.0, 4)
    with pytest.raises(RangeError):
        morton.Quantizer(np.zeros(3), 1.0, 25)
    with pytest.raises(InputError):
        morton.Quantizer(np.zeros(3), 1.0, 4).quantize(np.array([np.nan, 0, 0]))
    with pytest.raises(InputError):
        morton.Quantizer.fit(np.zeros((0, 3)), 4)
    for bad in (np.nan, np.inf, -np.inf):  # seen through the box's bounds
        with pytest.raises(InputError, match="non-finite"):
            morton.Quantizer.fit(np.array([[0.0, 1.0, 2.0], [0.5, bad, 0.0]]), 4)
    for depth in (-1, 0, 22, 10**6):  # the depth is checked before the points
        with pytest.raises(RangeError, match="depth must be in"):
            morton.Quantizer.fit(np.zeros((0, 3)), depth)


def test_an_explicit_cell_puts_the_origin_just_below_the_box():
    points = (uniform01(36, 3 * 500).reshape(-1, 3) - 0.4) * 7
    for cell in (0.01, 0.0625):
        q = make_quantizer(points, RunConfig(cell=cell))
        assert q.origin.tobytes() == (points.min(axis=0) - 1e-3 * cell).tobytes()
        assert (q.cell, q.depth) == (cell, 16)


@pytest.mark.parametrize("cell", [None, 0.1], ids=["fitted", "explicit-cell"])
@pytest.mark.parametrize("points, message", [
    (np.zeros((0, 3)), "expected non-empty (n, 3) points, got shape (0, 3)"),
    (np.array([[0.0, np.nan, 0.0]]), "points contain non-finite values"),
    (np.array([[0.0, np.inf, 0.0]]), "points contain non-finite values"),
    (np.array([[0.0, -np.inf, 0.0], [1.0, 1.0, 1.0]]), "points contain non-finite values"),
    (np.zeros((4, 2)), "expected non-empty (n, 3) points, got shape (4, 2)"),
], ids=["empty", "nan", "inf", "-inf", "n-by-2"])
def test_both_grid_fits_reject_the_same_points(cell, points, message):
    # make_quantizer is Quantizer.fit with the config's cell, so both grids
    # share one set of input checks, raised before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as info:
            make_quantizer(points, RunConfig(cell=cell))
    assert str(info.value) == message


@pytest.mark.parametrize("origin, error, message", [
    (np.full(3, -np.inf), RangeError, "grid origin must be finite, got [-inf, -inf, -inf]"),
    (np.array([0.0, np.nan, 0.0]), RangeError, "grid origin must be finite, got [0.0, nan, 0.0]"),
    (np.zeros(2), InputError, "grid origin must hold 3 values, got shape (2,)"),
], ids=["-inf", "nan", "two-values"])
def test_a_quantizer_refuses_an_origin_no_grid_can_have(origin, error, message):
    # refused when built: encoding would clamp every point onto one corner
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            morton.Quantizer(origin, 1.0, 4).encode_points(np.zeros((2, 3)))
    assert str(info.value) == message


def _random_rep(n, seed):
    pos = uniform01(seed, 3 * n).reshape(n, 3) * 8 - 4
    feats = uniform01(seed + 1, 4 * n).reshape(n, 4).astype(np.float32)
    colors = uniform01(seed + 2, 3 * n).reshape(n, 3)
    return PointRepresentation(pos, feats, colors, np.zeros(n, dtype=np.int32))


def test_sort_by_code_orders_codes_and_permutes_consistently():
    rep = _random_rep(257, seed=50)
    q = morton.Quantizer.fit(rep.positions, 10)
    rep_s, codes, perm = morton.sort_by_code(rep, q)
    assert np.all(codes[1:] >= codes[:-1])
    assert sorted(perm) == list(range(257))
    assert np.array_equal(rep_s.positions, rep.positions[perm])
    assert np.array_equal(rep_s.features, rep.features[perm])
    # codes really belong to the permuted points
    assert np.array_equal(codes, q.encode_points(rep_s.positions))


def test_sort_by_code_is_stable_for_equal_codes():
    # all points in one cell: permutation must be identity
    rep = _random_rep(40, seed=60)
    q = morton.Quantizer(rep.positions.min(axis=0) - 1.0, 100.0, 4)
    _, codes, perm = morton.sort_by_code(rep, q)
    assert np.unique(codes).size == 1
    assert np.array_equal(perm, np.arange(40))
