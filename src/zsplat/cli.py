"""Command line entry point.

Exit codes: 0 success, 1 verification failure, otherwise the failing
error's ``exit_code`` (see ``errors.py``: 2 malformed input or file format,
3 out-of-range argument, 4 checkpoint/config mismatch); an OS error reading
or writing a path exits 2.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported anywhere in this
# process: outputs must not depend on the host's threading defaults. The
# package root deliberately imports no numpy so this runs first under the
# console script. ZSPLAT_THREADS controls only the scene loader pool below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig
from .errors import ConfigError, InputError, RangeError, ZsplatError
from .morton import MAX_DEPTH, Quantizer, sort_by_code
from .pipeline import (
    forward_scene,
    init_model,
    load_checkpoint,
    make_quantizer,
    predict_levels,
    save_checkpoint,
)
from .scene import (
    assemble,
    load_scene_dir,
    read_json_object,
    unproject,
    write_gaussians_ply,
    write_scene_dir,
    write_tensor,
)
from .synthetic import generate_scene
from .verify import SUITES, run_suites
from .view_select import build_candidates, select


def _loader_threads() -> int:
    raw = os.environ.get("ZSPLAT_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"ZSPLAT_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError(f"ZSPLAT_THREADS must be >= 1, got {value}")
    return value


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return RunConfig.from_json(args.config)
    return RunConfig()


def _parse_resolution(text: str):
    try:
        h, w = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise InputError(f"resolution must look like 64x64, got {text!r}") from None
    return [h, w]


def cmd_gen_scene(args) -> int:
    overrides = {}
    if args.scene_config:
        overrides = read_json_object(args.scene_config, "scene config", ConfigError)
    if args.kind:
        overrides["kind"] = args.kind
    if args.views is not None:
        overrides["n_views"] = args.views
    if args.res:
        overrides["resolution"] = _parse_resolution(args.res)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.feature_width is not None:
        overrides["feature_width"] = args.feature_width
    views = generate_scene(overrides)
    write_scene_dir(args.out, views)
    h, w = views[0][0].shape
    print(f"wrote {len(views)} views of {h}x{w} to {args.out}")
    return 0


def cmd_serialize(args) -> int:
    cfg = _load_config(args)
    if args.depth is not None:
        if not 1 <= args.depth <= MAX_DEPTH:
            raise RangeError(f"--depth must be in [1, {MAX_DEPTH}], got {args.depth}")
        cfg = replace(cfg, serialize_depth=args.depth)
    views = load_scene_dir(args.scene, _loader_threads())
    rep = assemble(views)
    quant = make_quantizer(rep.positions, cfg)
    _, codes, _ = sort_by_code(rep, quant)
    # codes can exceed exact float64 integers, so store 32-bit halves
    half = np.uint64(0xFFFFFFFF)
    pairs = np.stack(
        [(codes >> np.uint64(32)).astype(np.float64), (codes & half).astype(np.float64)],
        axis=1,
    )
    write_tensor(args.out, pairs)
    occupied = int(np.unique(codes).size)
    print(
        f"{len(codes)} points, {occupied} occupied cells at depth "
        f"{quant.depth} -> {args.out}"
    )
    return 0


def cmd_forward(args) -> int:
    cfg = _load_config(args)
    model = load_checkpoint(args.checkpoint, cfg)
    views = load_scene_dir(args.scene, _loader_threads())
    rep = assemble(views)
    if rep.feature_width != cfg.model_width:
        raise InputError(
            f"scene feature width {rep.feature_width} != model width {cfg.model_width}"
        )
    levels = forward_scene(rep, cfg, model)
    gaussians = predict_levels(levels, model)
    os.makedirs(args.out_dir, exist_ok=True)
    sizes = []
    for i, g in enumerate(gaussians):
        out = os.path.join(args.out_dir, f"level_{i + 1}.ply")
        write_gaussians_ply(out, g)
        sizes.append(len(g))
    print(
        f"{len(rep)} points -> "
        + " -> ".join(str(s) for s in sizes)
        + f" gaussians across {len(sizes)} levels in {args.out_dir}"
    )
    return 0


def cmd_select_views(args) -> int:
    views = load_scene_dir(args.scene, _loader_threads())
    point_sets = [unproject(depth, camera) for depth, camera, _, _ in views]
    quant = Quantizer.fit(np.concatenate(point_sets), args.depth)
    candidates = build_candidates(point_sets, quant)
    result = select(candidates, args.max_views, args.min_gain)
    result.validate()
    print(
        f"selected views: {' '.join(str(i) for i in result.selected)} "
        f"(covering {result.covered} cells at depth {args.depth})"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "selected": list(result.selected),
                    "covered": result.covered,
                    "marginal_gains": list(result.marginal_gains),
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    return 0


def cmd_init_checkpoint(args) -> int:
    cfg = _load_config(args)
    n_layers = save_checkpoint(init_model(cfg), args.out)
    print(f"initialized {n_layers} layers (seed {cfg.seed}) in {args.out}")
    return 0


def cmd_verify(args) -> int:
    names = args.suite or sorted(SUITES)
    checks = run_suites(names)
    failed = 0
    for name, ok, detail in checks:
        mark = "PASS" if ok else "FAIL"
        line = f"{mark} {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsplat",
        description="Z-order transformer for feed-forward Gaussian scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write a synthetic posed-RGBD scene")
    p.add_argument("--out", required=True)
    p.add_argument("--scene-config", help="JSON file of generator overrides")
    p.add_argument("--kind", choices=["plane", "sphere"])
    p.add_argument("--views", type=int)
    p.add_argument("--res", help="resolution as HxW, e.g. 64x64")
    p.add_argument("--seed", type=int)
    p.add_argument("--feature-width", type=int)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("serialize", help="sort a scene along the Z-curve")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--depth", type=int, help="override serialization depth")
    p.set_defaults(func=cmd_serialize)

    p = sub.add_parser("forward", help="scene -> Gaussian PLY per pooling level")
    p.add_argument("--scene", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="run config JSON")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("select-views", help="greedy max-coverage view subset")
    p.add_argument("--scene", required=True)
    p.add_argument("--max-views", type=int, required=True)
    p.add_argument("--depth", type=int, default=8, help="coverage grid depth")
    p.add_argument("--min-gain", type=int, default=0)
    p.add_argument("--out", help="write the selection as JSON")
    p.set_defaults(func=cmd_select_views)

    p = sub.add_parser("init-checkpoint", help="write freshly seeded weights")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="run config JSON")
    p.set_defaults(func=cmd_init_checkpoint)

    p = sub.add_parser("verify", help="run built-in self checks")
    p.add_argument("--suite", action="append", choices=sorted(SUITES))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZsplatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
