"""Self-check suites behind the ``verify`` subcommand.

Each suite returns (name, passed, detail) triples; the CLI prints one line
per check and fails the process if any check fails. These are smoke-level
checks against the built-in references, not the full test suite.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import morton, reference, synthetic
from .config import RunConfig
from .errors import FormatError
from .numerics import uniform01
from .pipeline import forward_scene, init_model, predict_levels
from .scene import (
    Camera,
    Gaussians,
    assemble,
    read_camera,
    read_gaussians_ply,
    read_tensor,
    write_camera,
    write_gaussians_ply,
    write_tensor,
)


def _check(name, passed, detail=""):
    return (name, bool(passed), detail)


def run_morton_suite():
    checks = []
    # encode agrees with the bit-loop definition on random triples at depths
    # exercising every magic-mask stage; the detail names the first mismatch
    detail = ""
    for depth in (1, 4, 9, 16, morton.MAX_DEPTH):
        vals = (uniform01(depth, 3 * 64) * (1 << depth)).astype(np.int64).reshape(-1, 3)
        got = morton.encode_array(vals, depth)
        for row, code in zip(vals, got):
            want = reference.encode_reference(*(int(c) for c in row), depth)
            if int(code) != want:
                detail = f"depth {depth}: {row} -> {int(code)} != {want}"
                break
        if detail:
            break
    checks.append(_check("morton/encode-matches-bit-loop", not detail, detail))
    # roundtrip and nesting at depth 16
    vals = (uniform01(99, 3 * 256) * (1 << 16)).astype(np.int64).reshape(-1, 3)
    codes = morton.encode_array(vals, 16)
    back = morton.decode_array(codes, 16)
    checks.append(_check("morton/roundtrip", np.array_equal(vals, back)))
    shifted = morton.shift_array(codes, 3, 16)
    direct = morton.encode_array(vals >> 3, 13)
    checks.append(_check("morton/shift-nesting", np.array_equal(shifted, direct)))
    return checks


def run_format_suite():
    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        arr = uniform01(7, 60).reshape(3, 20).astype(np.float32)
        p = os.path.join(tmp, "a.tns")
        write_tensor(p, arr)
        back = read_tensor(p)
        checks.append(_check("format/tensor-roundtrip",
                             back.dtype == arr.dtype and np.array_equal(back, arr)))
        with open(p, "r+b") as fh:
            fh.truncate(os.path.getsize(p) - 8)
        try:
            read_tensor(p)
            checks.append(_check("format/tensor-truncation-detected", False))
        except FormatError as exc:
            checks.append(_check("format/tensor-truncation-detected", exc.offset is not None))
        cam = Camera(80.0, 80.0, 31.5, 31.5, np.eye(4))
        cp = os.path.join(tmp, "cam.json")
        write_camera(cp, cam)
        cam2 = read_camera(cp)
        checks.append(
            _check(
                "format/camera-roundtrip",
                cam2.fx == cam.fx and np.array_equal(cam2.cam_to_world, cam.cam_to_world),
            )
        )
        m = 17
        vals = uniform01(11, m * 38)
        g = Gaussians(
            centers=vals[: 3 * m].reshape(m, 3),
            opacities=0.1 + 0.8 * vals[3 * m : 4 * m],
            rotations=np.tile([1.0, 0.0, 0.0, 0.0], (m, 1)),
            scales=0.5 + vals[4 * m : 7 * m].reshape(m, 3),
            sh=vals[7 * m : 34 * m].reshape(m, 27) - 0.5,
        )
        gp = os.path.join(tmp, "g.ply")
        write_gaussians_ply(gp, g)
        g2 = read_gaussians_ply(gp)
        close = (
            np.allclose(g2.centers, g.centers, atol=1e-6)
            and np.allclose(g2.opacities, g.opacities, atol=1e-6)
            and np.allclose(g2.scales, g.scales, atol=1e-6)
            and np.allclose(g2.sh, g.sh, atol=1e-6)
        )
        checks.append(_check("format/ply-roundtrip", close))
    return checks


def run_pipeline_suite():
    checks = []
    views = synthetic.generate_scene(
        {"resolution": [16, 16], "n_views": 2, "feature_width": 32}
    )
    rep = assemble(views)
    # cell = pixel footprint (distance / focal), so pooling has work to do
    cfg = RunConfig(
        model_width=32, head_width=16, head_hidden=24, serialize_depth=10, cell=0.25
    )
    model = init_model(cfg)
    levels = forward_scene(rep, cfg, model)
    counts = [len(lv.rep) for lv in levels]
    checks.append(
        _check(
            "pipeline/levels-shrink",
            all(a > b for a, b in zip([len(rep)] + counts, counts)),
            f"counts {[len(rep)] + counts}",
        )
    )
    gaussians = predict_levels(levels, model)
    try:
        for g in gaussians:
            g.validate()
        checks.append(_check("pipeline/gaussians-valid", True))
    except Exception as exc:  # noqa: BLE001 - report any validation failure
        checks.append(_check("pipeline/gaussians-valid", False, str(exc)))
    levels2 = forward_scene(rep, cfg, model)
    same = all(
        np.array_equal(a.rep.features, b.rep.features)
        and np.array_equal(a.codes, b.codes)
        for a, b in zip(levels, levels2)
    )
    checks.append(_check("pipeline/deterministic", same))
    return checks


SUITES = {
    "morton": run_morton_suite,
    "formats": run_format_suite,
    "pipeline": run_pipeline_suite,
}


def run_suites(names):
    checks = []
    for name in names:
        checks.extend(SUITES[name]())
    return checks
