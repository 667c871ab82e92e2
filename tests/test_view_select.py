import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsplat.errors import InputError
from zsplat.morton import Quantizer
from zsplat.numerics import splitmix64, uniform01
from zsplat import view_select as vs


def _candidates(sets, indices=None):
    if indices is None:
        indices = range(len(sets))
    return [
        vs.ViewCandidate(i, frozenset(s)) for i, s in zip(indices, sets)
    ]


def test_hand_worked_instance():
    cands = _candidates(
        [{"a", "b", "c"}, {"b", "c"}, {"d"}], indices=[1, 2, 3]
    )
    result = vs.select(cands, max_views=2)
    assert result.selected == (1, 3)
    assert result.covered == 4
    assert result.marginal_gains == (3, 1)
    result.validate()


@pytest.mark.parametrize("selected, covered, gains, message", [
    ((0, 1), 3, (3,), "one marginal gain per selected view"),
    ((2, 2), 3, (2, 1), "indices must be unique"),
    ((0, 1), 3, (3, 0), "gains must be positive"),
    ((0, 1), 4, (2, 1), "gains sum to 3, covered is 4"),
], ids=["gain-count", "repeated-view", "zero-gain", "sum"])
def test_selection_result_validate_rejects(selected, covered, gains, message):
    with pytest.raises(InputError, match=message):
        vs.SelectionResult(selected, covered, gains).validate()


def test_first_pick_is_largest_set():
    cands = _candidates([{1, 2}, {1, 2, 3, 4, 5}, {6}])
    result = vs.select(cands, max_views=1)
    assert result.selected == (1,)
    assert result.covered == 5


def test_ties_break_toward_lower_index():
    cands = _candidates([{"x", "y"}, {"x", "y"}, {"z", "w"}])
    result = vs.select(cands, max_views=2)
    assert result.selected[0] == 0
    # second pick: candidate 1 now gains 0, candidate 2 gains 2
    assert result.selected == (0, 2)


def test_stops_when_no_candidate_clears_min_gain():
    # acceptance is strict: a marginal gain equal to min_gain is not enough
    cands = _candidates([{1, 2, 3}, {3, 4, 5}, {6}])
    result = vs.select(cands, max_views=3, min_gain=1)
    assert result.selected == (0, 1)  # gains 3 and 2 clear the bar, 1 does not
    assert result.covered == 5
    barely = vs.select(_candidates([{1, 2, 3}, {3, 4}]), max_views=2, min_gain=1)
    assert barely.selected == (0,)


def test_zero_budget_and_empty_candidates():
    cands = _candidates([{1}])
    assert vs.select(cands, max_views=0).selected == ()
    assert vs.select([], max_views=3).selected == ()


def test_duplicate_candidate_indices_rejected():
    cands = _candidates([{1}, {2}], indices=[7, 7])
    with pytest.raises(InputError):
        vs.select(cands, max_views=1)


@pytest.mark.parametrize("greedy", [vs.select, vs.naive_greedy])
def test_negative_budget_or_min_gain_rejected(greedy):
    cands = _candidates([{1}, {2}])
    with pytest.raises(InputError):
        greedy(cands, max_views=-1)
    with pytest.raises(InputError):
        greedy(cands, max_views=2, min_gain=-1)
    with pytest.raises(InputError, match="max_views must be an integer"):
        greedy(cands, max_views=True)
    with pytest.raises(InputError, match="min_gain must be an integer"):
        greedy(cands, max_views=2, min_gain=0.5)


def _random_instance(seed, n_sets, universe, max_size):
    words = splitmix64(seed, n_sets * max_size)
    sets = []
    for i in range(n_sets):
        chunk = words[i * max_size : (i + 1) * max_size]
        size = int(chunk[0] % max_size) + 1
        sets.append({int(w % universe) for w in chunk[:size]})
    return _candidates(sets)


@given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_array_selection_matches_naive_rescan(seed, budget):
    cands = _random_instance(seed, n_sets=12, universe=30, max_size=9)
    fast = vs.select(cands, max_views=budget)
    slow = vs.naive_greedy(cands, max_views=budget)
    assert fast.selected == slow.selected
    assert fast.covered == slow.covered
    assert fast.marginal_gains == slow.marginal_gains
    fast.validate()


def _optimal_coverage(cands, budget):
    best = 0
    for combo in itertools.combinations(cands, min(budget, len(cands))):
        union = frozenset().union(*(c.coverage_keys for c in combo)) if combo else frozenset()
        best = max(best, len(union))
    return best


@given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_greedy_meets_approximation_guarantee(seed, budget):
    cands = _random_instance(seed, n_sets=10, universe=18, max_size=6)
    greedy = vs.select(cands, max_views=budget)
    optimal = _optimal_coverage(cands, budget)
    assert greedy.covered >= (1 - 1 / np.e) * optimal - 1e-9


@given(
    st.sampled_from([np.int64, np.uint64]),
    st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    st.sampled_from(["array", "list", "tuple"]),
    st.integers(min_value=0, max_value=2**62),
)
@settings(max_examples=150, deadline=None)
def test_coverage_keys_normalize_like_np_unique(dtype, small, form, spread):
    # small values make duplicates likely; the spread puts some near 2^63
    keys = np.array(small, dtype=dtype) * dtype(1 + spread % 7) + dtype(spread)
    given_keys = {"array": keys, "list": keys.tolist(), "tuple": tuple(keys)}[form]
    got = vs.ViewCandidate(0, given_keys).coverage_keys
    want = np.unique(given_keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("empty", [(), [], np.array([], dtype=np.uint64)])
def test_coverage_keys_of_empty_input_match_np_unique(empty):
    got = vs.ViewCandidate(0, empty).coverage_keys
    want = np.unique(empty)
    assert got.dtype == want.dtype and got.shape == want.shape == (0,)


def test_build_candidates_quantizes_points_per_view():
    q = Quantizer(origin=np.zeros(3), cell=1.0, depth=4)
    view_a = np.array([[0.2, 0.2, 0.2], [0.8, 0.3, 0.1], [3.5, 0.0, 0.0]])
    view_b = np.array([[0.1, 0.9, 0.4], [3.4, 0.2, 0.3]])
    cands = vs.build_candidates([view_a, view_b], q)
    assert [c.index for c in cands] == [0, 1]
    # first two points of view_a share cell (0,0,0)
    assert len(cands[0].coverage_keys) == 2
    assert len(cands[1].coverage_keys) == 2
    # the (3,0,0) cell is shared between views
    shared = np.intersect1d(cands[0].coverage_keys, cands[1].coverage_keys)
    assert np.isin(q.encode_points(np.array([3.5, 0.0, 0.0])), shared).all()


def test_build_candidates_rejects_malformed_input():
    q = Quantizer(origin=np.zeros(3), cell=1.0, depth=4)
    pts = np.array([[0.5, 0.5, 0.5]])
    with pytest.raises(InputError):
        vs.build_candidates([pts, np.zeros((2, 2))], q)


@given(
    st.integers(min_value=0, max_value=2**62),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([0.0, 2.0**21 - 8]),
)
@settings(max_examples=100, deadline=None)
def test_selection_on_built_candidates_matches_oracle(seed, n_views, budget, offset):
    # offset 2^21 - 8 puts every cell near the top of a depth-21 grid, so the
    # Morton codes exceed 2^53 and would collide if cast to float64
    q = Quantizer(origin=np.full(3, -offset), cell=1.0, depth=21)
    sizes = splitmix64(seed, n_views) % 24
    points = [uniform01(seed + 1 + i, 3 * int(s)).reshape(-1, 3) * 4
              for i, s in enumerate(sizes)]
    points.append(np.empty((0, 3)))  # a view that sees nothing
    points.append(points[0][: len(points[0]) // 2])  # cells inside view 0's
    cands = vs.build_candidates(points, q)
    assert len(cands[n_views].coverage_keys) == 0
    fast = vs.select(cands, max_views=budget)
    slow = vs.naive_greedy(cands, max_views=budget)
    assert fast == slow
    # the CLI json.dumps the result, so it must hold Python ints
    assert all(type(x) is int
               for x in (*fast.selected, fast.covered, *fast.marginal_gains))
    fast.validate()


def test_coarse_quantizer_merges_coverage():
    fine = Quantizer(origin=np.zeros(3), cell=0.25, depth=6)
    pts = np.array([[0.1, 0.1, 0.1], [0.4, 0.1, 0.1], [0.9, 0.9, 0.9]])
    fine_cands = vs.build_candidates([pts], fine)
    coarse_cands = vs.build_candidates([pts], fine.coarsen(2))
    assert len(fine_cands[0].coverage_keys) == 3
    assert len(coarse_cands[0].coverage_keys) == 1
