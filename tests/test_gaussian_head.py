import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradutil import grads_to_vec, layer_to_vec, vec_to_layer
from zsplat import gaussian_head as gh
from zsplat.errors import InputError
from zsplat.numerics import grad_check, uniform01
from zsplat.pipeline import LevelOutput, ModelParams, predict_levels
from zsplat.scene import PointRepresentation


def _rep(n, width, seed, feature_span=1.0):
    pos = uniform01(seed, 3 * n).reshape(n, 3) * 6 - 3
    feats = (
        (uniform01(seed + 1, n * width).reshape(n, width) * 2 - 1) * feature_span
    ).astype(np.float32)
    colors = uniform01(seed + 2, 3 * n).reshape(n, 3)
    return PointRepresentation(pos, feats, colors, np.zeros(n, np.int32))


def test_zero_weight_head_reproduces_input_colors_exactly():
    rep = _rep(64, 16, seed=1)
    params = gh.HeadParams.init(16, 32, seed=9).zeroed()
    g = gh.predict(rep, params, offset_scale=0.7)
    g.validate()
    assert np.allclose(gh.sh_to_color(g.sh), rep.colors, atol=1e-12)
    assert np.array_equal(g.centers, rep.positions)
    assert np.all(g.opacities == 0.5)
    assert np.all(g.scales == 1.0)
    assert np.allclose(g.rotations, np.tile([1, 0, 0, 0], (64, 1)))
    # higher-order SH stay zero
    assert np.all(g.sh[:, 3:] == 0.0)


def test_sh_seed_layout_puts_dc_first():
    colors = np.array([[0.5, 1.0, 0.0]])
    sh = gh.sh_from_color(colors)
    assert sh.shape == (1, 27)
    assert sh[0, 0] == 0.0
    assert sh[0, 1] == pytest.approx(0.5 / gh.SH_C0)
    assert sh[0, 2] == pytest.approx(-0.5 / gh.SH_C0)
    assert np.all(sh[0, 3:] == 0.0)


def test_center_offsets_are_bounded_by_offset_scale():
    rep = _rep(200, 8, seed=11, feature_span=100.0)  # drive tanh to saturation
    params = gh.HeadParams.init(8, 16, seed=3)
    scale = 0.25
    g = gh.predict(rep, params, offset_scale=scale)
    assert np.abs(g.centers - rep.positions).max() <= scale + 1e-12


@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.1, max_value=1000.0))
@settings(max_examples=30, deadline=None)
def test_primitives_are_valid_for_arbitrary_feature_magnitudes(seed, span):
    rep = _rep(50, 8, seed=seed, feature_span=span)
    params = gh.HeadParams.init(8, 16, seed=5)
    g = gh.predict(rep, params)
    g.validate()  # raises on any invalid primitive
    assert (g.opacities > 0).all() and (g.opacities < 1).all()
    assert (g.scales > 0).all()
    assert np.allclose(np.linalg.norm(g.rotations, axis=1), 1.0, atol=1e-9)


def test_degenerate_quaternion_falls_back_to_identity():
    raw = np.zeros((2, gh.RAW_WIDTH))
    raw[0, 4] = -1.0  # cancels the +1 seed exactly: zero-length rotation
    g, _ = gh.raw_to_gaussians(raw, np.zeros((2, 3)), np.full((2, 3), 0.5))
    g.validate()
    assert np.allclose(g.rotations[0], [1.0, 0.0, 0.0, 0.0])


def test_extreme_raw_values_stay_valid():
    raw = np.zeros((3, gh.RAW_WIDTH))
    raw[0] = 1e6
    raw[1] = -1e6
    g, _ = gh.raw_to_gaussians(raw, np.zeros((3, 3)), np.full((3, 3), 0.5))
    g.validate()
    assert 0.0 < g.opacities.min() and g.opacities.max() < 1.0
    assert np.isfinite(g.scales).all()
    assert g.scales.max() == pytest.approx(np.exp(3.0))
    assert g.scales.min() == pytest.approx(np.exp(-10.0))


def test_head_is_width_configurable():
    rep = _rep(10, 8, seed=21)
    params = gh.HeadParams.init(8, 12, seed=7)
    assert params.feature_width == 8
    g = gh.predict(rep, params)
    assert len(g) == 10
    wide = gh.HeadParams.init(96, 128, seed=7)
    with pytest.raises(InputError):
        gh.predict(rep, wide)


def test_multilevel_shares_weights_and_is_levelwise_identical():
    rep = _rep(40, 8, seed=31)
    model = ModelParams(blocks=(), head=gh.HeadParams.init(8, 16, seed=13))

    def levels(*offset_scales):
        return [LevelOutput(rep, None, None, s) for s in offset_scales]

    g1, g2 = predict_levels(levels(0.5, 0.5), model)
    assert np.array_equal(g1.centers, g2.centers)
    assert np.array_equal(g1.sh, g2.sh)
    # different offset scales move centers only
    g1b, g2b = predict_levels(levels(0.5, 1.0), model)
    assert not np.array_equal(g1b.centers, g2b.centers)
    assert np.array_equal(g1b.sh, g2b.sh)


def _loss_weights(n, seed=41):
    fields = {
        "centers": (n, 3), "opacities": (n,), "rotations": (n, 4),
        "scales": (n, 3), "sh": (n, 27),
    }
    weights = {}
    offset = 0
    for name, shape in fields.items():
        size = int(np.prod(shape))
        weights[name] = (
            uniform01(seed + offset, size).reshape(shape) + 0.5
        )
        offset += 1
    return weights


def _head_loss(rep, params, weights, offset_scale=0.5):
    g, cache = gh.predict_fwd(rep, params, offset_scale)
    fields = {
        "centers": g.centers, "opacities": g.opacities, "rotations": g.rotations,
        "scales": g.scales, "sh": g.sh,
    }
    loss = sum(0.5 * float(((weights[k] * v) ** 2).sum()) for k, v in fields.items())
    upstream = {k: weights[k] ** 2 * fields[k] for k in fields}
    grads, g_feat, g_col = gh.predict_bwd(upstream, cache, params)
    return loss, grads, g_feat


@pytest.mark.parametrize("layer_name", ["hidden", "output"])
def test_head_gradients_match_finite_differences(layer_name):
    rep = _rep(12, 5, seed=51)
    rep = rep.with_features(rep.features.astype(np.float64))
    params = gh.HeadParams.init(5, 8, seed=17).astype(np.float64)
    weights = _loss_weights(12)
    base = getattr(params, layer_name)

    def rebuild(vec):
        layer = vec_to_layer(vec, base)
        if layer_name == "hidden":
            return gh.HeadParams(layer, params.output)
        return gh.HeadParams(params.hidden, layer)

    err = grad_check(
        lambda v: _head_loss(rep, rebuild(v), weights)[0],
        lambda v: grads_to_vec(_head_loss(rep, rebuild(v), weights)[1][layer_name]),
        layer_to_vec(base),
    )
    assert err < 1e-4, f"{layer_name}: gradient error {err}"


def test_head_gradient_wrt_features():
    rep = _rep(10, 5, seed=61)
    rep = rep.with_features(rep.features.astype(np.float64))
    params = gh.HeadParams.init(5, 8, seed=19).astype(np.float64)
    weights = _loss_weights(10, seed=71)
    shape = rep.features.shape

    err = grad_check(
        lambda v: _head_loss(rep.with_features(v.reshape(shape)), params, weights)[0],
        lambda v: _head_loss(rep.with_features(v.reshape(shape)), params, weights)[
            2
        ].ravel(),
        rep.features.ravel(),
    )
    assert err < 1e-4
