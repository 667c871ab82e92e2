import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsplat import numerics
from zsplat.errors import InputError, NumericError, ShapeError

# First outputs of the SplitMix64 stream, frozen from an independent
# pure-python implementation of the reference mixer.
SPLITMIX_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SPLITMIX_SEED42 = (0xBDD732262FEB6E95, 0x28EFE333B266F103)


def test_splitmix64_matches_frozen_reference_stream():
    got = numerics.splitmix64(0, 3)
    assert tuple(int(v) for v in got) == SPLITMIX_SEED0
    got42 = numerics.splitmix64(42, 2)
    assert tuple(int(v) for v in got42) == SPLITMIX_SEED42


def test_splitmix64_prefix_stability():
    # the first k outputs never depend on how many are requested
    long = numerics.splitmix64(7, 100)
    short = numerics.splitmix64(7, 10)
    assert np.array_equal(long[:10], short)


def test_uniform01_frozen_values_and_range():
    vals = numerics.uniform01(0, 2)
    assert vals[0] == pytest.approx(0.8833108082136426, abs=0.0)
    assert vals[1] == pytest.approx(0.43152799704850997, abs=0.0)
    many = numerics.uniform01(3, 10_000)
    assert many.min() >= 0.0 and many.max() < 1.0
    # crude uniformity sanity
    assert abs(many.mean() - 0.5) < 0.02


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=30, deadline=None)
def test_derive_seed_is_stable_and_label_sensitive(seed):
    a = numerics.derive_seed(seed, "w_q")
    assert a == numerics.derive_seed(seed, "w_q")
    assert a != numerics.derive_seed(seed, "w_k")


def test_linear_matches_triple_loop():
    x = numerics.uniform01(1, 12).reshape(3, 4)
    layer = numerics.LinearLayer(
        numerics.uniform01(2, 20).reshape(5, 4), numerics.uniform01(3, 5), seed=0
    )
    want = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            want[i, j] = layer.bias[j]
            for k in range(4):
                want[i, j] += x[i, k] * layer.weight[j, k]
    # the product accumulates in its operands' dtype
    for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        cast = layer.astype(dtype)
        got = numerics.linear(x.astype(dtype), cast)
        assert got.dtype == dtype
        assert np.array_equal(got, x.astype(dtype) @ cast.weight.T + cast.bias)
        assert np.allclose(got, want, rtol=0, atol=atol)


@st.composite
def _segmented_rows(draw):
    """Rows of one width and dtype cut into ragged, length-1 or one segment."""
    n = draw(st.integers(min_value=1, max_value=300))
    layout = draw(st.sampled_from(["ragged", "length-1", "single"]))
    if layout == "single" or n == 1:
        starts = [0]
    elif layout == "length-1":
        starts = list(range(n))
    else:
        starts = [0] + sorted(draw(st.sets(st.integers(1, n - 1), max_size=40)))
    width = draw(st.integers(min_value=1, max_value=96))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    x = ((numerics.uniform01(seed, n * width) * 2 - 1) * scale).reshape(n, width)
    return x.astype(dtype), np.array(starts, dtype=np.int64)


@given(_segmented_rows())
@settings(max_examples=150, deadline=None)
def test_segment_sum_matches_float64_loop(case):
    x, starts = case
    got = numerics.segment_sums([x], starts)[0]
    assert got.dtype == x.dtype
    ends = list(starts[1:]) + [len(x)]
    want = np.stack([x[a:b].astype(np.float64).sum(0) for a, b in zip(starts, ends)])
    magnitude = np.stack([np.abs(x[a:b].astype(np.float64)).sum(0)
                          for a, b in zip(starts, ends)])
    rtol = 1e-6 if x.dtype == np.float32 else 1e-12
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * magnitude)


def _sequential_sums(x, starts):
    """Per-segment loop in x's dtype: start at 0.0, add the rows in row order."""
    ends = list(starts[1:]) + [len(x)]
    out = np.zeros((len(starts),) + x.shape[1:], x.dtype)
    for acc, a, b in zip(out, starts, ends):
        for row in x[a:b]:
            acc += row
    return out


def _assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(_segmented_rows())
@settings(max_examples=150, deadline=None)
def test_segment_sum_is_bit_equal_to_sequential_loop(case):
    x, starts = case
    _assert_bit_equal(numerics.segment_sums([x], starts)[0], _sequential_sums(x, starts))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 2, 96])
@pytest.mark.parametrize("layout", ["one-segment", "length-1", "past-cutoff", "mixed",
                                    "blocks", "blocks-exact"])
def test_segment_sum_is_bit_equal_on_degenerate_layouts(layout, width, dtype):
    n, cut = 1000, numerics._SHORT_SEGMENT
    x = ((numerics.uniform01(81, n * width) * 2 - 1) * 1e3).reshape(n, width).astype(dtype)
    # a column that is -0.0 over a whole segment sums to +0.0, as from 0.0
    x[: n // 2, 0] = -0.0
    starts = {
        "one-segment": [0],
        "length-1": range(n),
        "past-cutoff": range(0, n, cut + 1),
        "mixed": [0, 1, 2, 3 + cut, 4 + cut, 5 + 3 * cut, 6 + 3 * cut],
        # block means: 31 runs of 32 and a short last run of 8, then 25 of 40
        "blocks": range(0, n, 32),
        "blocks-exact": range(0, n, 40),
    }[layout]
    starts = np.array(starts, dtype=np.int64)
    _assert_bit_equal(numerics.segment_sums([x], starts)[0], _sequential_sums(x, starts))
    # several arrays over one plan, as pooling sums features, colors and positions
    other = np.repeat(x[:, :1], 3, axis=1).astype(np.float64) * 3.0
    for got, y in zip(numerics.segment_sums([x, other], starts), (x, other)):
        _assert_bit_equal(got, _sequential_sums(y, starts))
    with pytest.raises(InputError):
        numerics.segment_sums([x, other[1:]], starts)


@given(_segmented_rows(), st.sampled_from(["unsorted", "repeated", "nonzero-first", "past-end"]))
@settings(max_examples=60, deadline=None)
def test_segment_sum_rejects_starts_that_leave_a_segment_empty(case, fault):
    x, starts = case
    n = len(x)
    if fault == "unsorted":  # a lone start at 0 has no smaller start to fall back to
        bad = np.r_[starts, starts[-1] - 1] if starts[-1] > 0 else np.r_[0, n, 1]
    elif fault == "repeated":
        bad = np.r_[starts, starts[-1]]
    elif fault == "nonzero-first":
        bad = np.r_[1, starts[1:]]
    else:
        bad = np.r_[starts, n + (starts[-1] % 3)]
    with pytest.raises(InputError):
        numerics.segment_sums([x], bad)


def test_linear_width_error_names_both_widths():
    layer = numerics.init_linear(3, 2, seed=0)
    with pytest.raises(ShapeError, match=r"width 4 != layer width 3"):
        numerics.linear(np.zeros((2, 4), np.float32), layer)
    with pytest.raises(ShapeError):
        numerics.linear(np.zeros(2, np.float32), layer)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(rows, cols, seed):
    x = numerics.uniform01(seed, rows * cols).reshape(rows, cols) * 20 - 10
    p = numerics.softmax_rows(x)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()
    shifted = numerics.softmax_rows(x + 1000.0)
    assert np.allclose(p, shifted, atol=1e-12)


def test_softmax_rows_backward_matches_numeric_jacobian():
    x = numerics.uniform01(5, 8).reshape(2, 4) * 4 - 2
    g = numerics.uniform01(6, 8).reshape(2, 4) - 0.5
    p = numerics.softmax_rows(x)
    got = numerics.softmax_rows_backward(g, p)
    h = 1e-6
    for i in range(2):
        for j in range(4):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            num = (
                (numerics.softmax_rows(xp) * g).sum()
                - (numerics.softmax_rows(xm) * g).sum()
            ) / (2 * h)
            assert got[i, j] == pytest.approx(num, abs=1e-8)


def test_sigmoid_is_stable_at_extremes():
    x = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    s = numerics.sigmoid(x)
    assert np.isfinite(s).all()
    assert s[2] == 0.5
    assert 0.0 <= s[0] < 1e-8 and 1.0 - 1e-8 < s[4] <= 1.0


def _exact_sigmoid(v: float) -> float:
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float(1 / (1 + decimal.Decimal(-v).exp()))


@given(st.floats(min_value=-1e4, max_value=1e4), st.sampled_from([np.float32, np.float64]))
@settings(max_examples=200, deadline=None)
def test_sigmoid_stays_within_stated_bound_and_is_odd(value, dtype):
    bound = 1e-7 if dtype == np.float32 else 4.5e-16
    x = np.array([value, -value], dtype)
    s = numerics.sigmoid(x)
    assert s.dtype == dtype
    assert np.all(np.abs(s - [_exact_sigmoid(float(v)) for v in x]) <= bound)
    # sigma(-x) = 1 - sigma(x)
    assert abs(float(s[1]) - (1.0 - float(s[0]))) <= bound


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_erf_are_quiet_at_extremes(dtype):
    x = np.array([-np.inf, -1e4, 0.0, 1e4, np.inf], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = numerics.sigmoid(x)
        e = numerics.erf(x)
    assert s.dtype == e.dtype == dtype
    assert s.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
    assert e.tolist() == [-1.0, -1.0, 0.0, 1.0, 1.0]


def _exact_gelu(v: float) -> float:
    return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4, width=32), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_float32_erf_and_gelu_stay_within_stated_bounds(values):
    x = np.array(values, np.float32)
    x64 = x.astype(np.float64)
    got_erf, got_gelu = numerics.erf(x), numerics.gelu(x)
    assert got_erf.dtype == got_gelu.dtype == np.float32
    want_erf = np.array([math.erf(v) for v in x64])
    assert np.all(np.abs(got_erf - want_erf) <= 7e-7)
    want_gelu = np.array([_exact_gelu(v) for v in x64])
    assert np.all(np.abs(got_gelu - want_gelu) <= 2.5e-7 * np.maximum(1.0, np.abs(x64)))
    # float64 is math.erf itself
    _assert_bit_equal(numerics.erf(x64), want_erf)


def test_float32_erf_is_the_same_across_tiles():
    # more elements than two tiles, in a shape that does not divide them
    x = np.linspace(-5, 5, 7 * 4700, dtype=np.float32).reshape(7, 4700)
    got = numerics.erf(x)
    assert got.shape == x.shape and got.dtype == np.float32
    pieces = np.array_split(x.ravel(), 100)
    _assert_bit_equal(got.ravel(), np.concatenate([numerics.erf(p) for p in pieces]))


def test_gelu_frozen_values():
    # exact-erf formulation: gelu(x) = x/2 * (1 + erf(x / sqrt(2)))
    assert numerics.gelu(np.array([0.0]))[0] == 0.0
    assert numerics.gelu(np.array([1.0]))[0] == pytest.approx(0.8413447460685429, rel=1e-14)
    assert numerics.gelu(np.array([-0.5]))[0] == pytest.approx(-0.15426876936299344, rel=1e-13)


@given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_gelu_grad_matches_central_difference(x):
    h = 1e-6
    fp = float(numerics.gelu(np.array([x + h]))[0])
    fm = float(numerics.gelu(np.array([x - h]))[0])
    num = (fp - fm) / (2 * h)
    assert float(numerics.gelu_grad(np.array([x]))[0]) == pytest.approx(num, abs=1e-7)


def test_grad_check_accepts_true_gradient_and_flags_wrong_one():
    point = numerics.uniform01(9, 6) * 2 - 1

    def f(x):
        return 0.5 * float((x**2).sum())

    assert numerics.grad_check(f, lambda x: x, point) < 1e-9
    assert numerics.grad_check(f, lambda x: 1.1 * x, point) > 1e-2


def test_grad_check_raises_on_non_finite_probe():
    def f(x):
        with np.errstate(invalid="ignore"):
            return float(np.log(x[0]))

    with pytest.raises(NumericError):
        numerics.grad_check(f, lambda x: 1.0 / x, np.array([1e-9]))


def test_init_linear_is_deterministic_glorot():
    layer = numerics.init_linear(6, 4, seed=123)
    again = numerics.init_linear(6, 4, seed=123)
    assert np.array_equal(layer.weight, again.weight)
    assert layer.weight.shape == (4, 6)
    assert layer.weight.dtype == np.float32
    limit = np.sqrt(6.0 / 10.0)
    assert np.abs(layer.weight).max() <= limit
    assert np.all(layer.bias == 0.0)
    other = numerics.init_linear(6, 4, seed=124)
    assert not np.array_equal(layer.weight, other.weight)


def test_linear_backward_matches_numeric_gradients():
    layer = numerics.init_linear(5, 3, seed=7).astype(np.float64)
    x = (numerics.uniform01(8, 10).reshape(2, 5) - 0.5) * 2
    g = numerics.uniform01(9, 6).reshape(2, 3) - 0.5

    def loss_of_weight(w):
        out = x @ w.reshape(3, 5).T + layer.bias
        return float((out * g).sum())

    gx, gw, gb = numerics.linear_backward(g, x, layer)
    err = numerics.grad_check(
        loss_of_weight, lambda w: gw.ravel(), layer.weight.ravel()
    )
    assert err < 1e-7
    assert np.allclose(gb, g.sum(axis=0))
    assert np.allclose(gx, g @ layer.weight)
