"""The precision contract: a product accumulates in its operands' dtype.

Inference runs in float32 from the loaded features to the head's raw
outputs; the same model cast to float64 is the oracle it is held to, within
a stated tolerance, on tiny scenes shaped like the benchmark workloads.
"""

import numpy as np
import pytest

from zsplat.config import RunConfig
from zsplat.morton import Quantizer
from zsplat.pipeline import ModelParams, forward_scene, init_model, predict_levels
from zsplat.scene import assemble, unproject
from zsplat.synthetic import generate_scene
from zsplat.view_select import build_candidates, select

# Feature drift is measured relative to the level's largest feature, Gaussian
# drift absolutely. Observed on these scenes and on full-size ones: features
# <= 4.4e-7, Gaussian fields <= 1.5e-6.
FEATURE_RTOL = 1e-5
GAUSSIAN_ATOL = 1e-5

GAUSSIAN_FIELDS = ("centers", "opacities", "rotations", "scales", "sh")

# (scene overrides, RunConfig overrides, views kept by greedy coverage)
WORKLOADS = {
    "dense-k": ({"resolution": [16, 16], "n_views": 1}, {"cell": 0.25}, 1),
    "sparse-k": ({"resolution": [32, 32], "n_views": 1},
                 {"cell": 0.125, "select_k": 8}, 1),
    "many-views": ({"resolution": [8, 8], "n_views": 8},
                   {"cell": 0.125, "select_k": 8}, 3),
}


def _sphere_rep(scene: dict, max_views: int, seed: int):
    views = generate_scene({"kind": "sphere", "seed": seed, "sphere_radius": 1.1,
                            "sphere_center": [0.1, -0.05, 0.0], **scene})
    point_sets = [unproject(depth, camera) for depth, camera, _, _ in views]
    coverage = Quantizer.fit(np.concatenate(point_sets), 8)
    chosen = select(build_candidates(point_sets, coverage), max_views)
    return assemble([views[i] for i in sorted(chosen.selected)])


def _float64(model: ModelParams) -> ModelParams:
    return ModelParams(tuple(b.astype(np.float64) for b in model.blocks),
                       model.head.astype(np.float64))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_float32_inference_matches_float64_within_stated_tolerance(workload):
    scene, run, max_views = WORKLOADS[workload]
    cfg = RunConfig(seed=11, **run)
    model = init_model(cfg)
    rep = _sphere_rep(scene, max_views, seed=5)
    assert rep.features.dtype == np.float32

    levels32 = forward_scene(rep, cfg, model)
    levels64 = forward_scene(rep.with_features(rep.features.astype(np.float64)), cfg,
                             _float64(model))
    for i, (a, b) in enumerate(zip(levels32, levels64, strict=True), start=1):
        assert a.rep.features.dtype == np.float32, f"level {i}"
        assert b.rep.features.dtype == np.float64, f"level {i}"
        assert np.array_equal(a.codes, b.codes), f"level {i}: codes differ"
        assert np.array_equal(a.rep.positions, b.rep.positions)
        assert np.array_equal(a.rep.colors, b.rep.colors)
        drift = np.abs(a.rep.features - b.rep.features).max() / np.abs(b.rep.features).max()
        assert drift <= FEATURE_RTOL, f"level {i}: feature drift {drift:.3g}"

    gauss32 = predict_levels(levels32, model)
    gauss64 = predict_levels(levels64, _float64(model))
    for i, (a, b) in enumerate(zip(gauss32, gauss64, strict=True), start=1):
        for name in GAUSSIAN_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape, f"level {i} {name}"
            err = np.abs(x - y).max()
            assert err <= GAUSSIAN_ATOL, f"level {i} {name}: drift {err:.3g}"
