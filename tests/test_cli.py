import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from zsplat import cli, errors, reference
from zsplat.cli import main
from zsplat.scene import (assemble, decode_json_object, load_scene_dir, read_gaussians_ply,
                          read_tensor, view_points, write_tensor)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


SMALL_CFG = {
    "model_width": 32,
    "head_width": 16,
    "head_hidden": 24,
    "serialize_depth": 10,
    "cell": 0.25,
}


def _write_cfg(path, **extra):
    cfg = dict(SMALL_CFG, **extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def _gen(tmp_path, name="scene", res="16x16", views=2, width=32, kind="plane"):
    out = tmp_path / name
    rc = main(
        [
            "gen-scene", "--out", str(out), "--kind", kind, "--views",
            str(views), "--res", res, "--feature-width", str(width),
        ]
    )
    assert rc == 0
    return out


def test_gen_scene_writes_expected_layout(tmp_path, capsys):
    out = _gen(tmp_path, views=3)
    dirs = sorted(p.name for p in out.iterdir())
    assert dirs == ["view_0", "view_1", "view_2"]
    for d in out.iterdir():
        names = sorted(p.name for p in d.iterdir())
        assert names == ["camera.json", "color.tns", "depth.tns", "feature.tns"]
        assert read_tensor(d / "depth.tns").shape == (16, 16)
        assert read_tensor(d / "feature.tns").shape == (16 * 16, 32)
    assert "wrote 3 views" in capsys.readouterr().out


def test_serialize_emits_sorted_code_pairs(tmp_path):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "codes.tns"
    assert main(["serialize", "--scene", str(scene), "--out", str(out),
                 "--config", cfg]) == 0
    pairs = read_tensor(out)
    assert pairs.shape == (2 * 16 * 16, 2)
    codes = pairs[:, 0].astype(np.uint64) << np.uint64(32)
    codes |= pairs[:, 1].astype(np.uint64)
    assert np.all(codes[:-1] <= codes[1:])
    assert codes.max() < 1 << (3 * 10)


def test_serialize_reads_positions_only(tmp_path, capsys):
    # serialize sorts positions alone: feature payloads are never read, so
    # NaN features leave its codes file unchanged, while forward rejects them
    scene = _gen(tmp_path, views=3)
    cfg = _write_cfg(tmp_path / "cfg.json")
    clean, poisoned = tmp_path / "clean.tns", tmp_path / "poisoned.tns"
    assert main(["serialize", "--scene", str(scene), "--out", str(clean),
                 "--config", cfg]) == 0
    for view in scene.iterdir():
        shape = read_tensor(view / "feature.tns").shape
        write_tensor(view / "feature.tns", np.full(shape, np.nan, dtype=np.float32))
    assert main(["serialize", "--scene", str(scene), "--out", str(poisoned),
                 "--config", cfg]) == 0
    assert poisoned.read_bytes() == clean.read_bytes()
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "out"), "--config", cfg]) == 2
    assert "features contain non-finite values" in capsys.readouterr().err


def test_serialize_of_a_scene_without_pixels_exits_2(tmp_path, capsys):
    scene = _gen(tmp_path)
    for view in scene.iterdir():
        write_tensor(view / "depth.tns", np.zeros((0, 16), dtype=np.float32))
    assert main(["serialize", "--scene", str(scene), "--out", str(tmp_path / "c.tns"),
                 "--config", _write_cfg(tmp_path / "cfg.json")]) == 2
    assert "has a pixel" in capsys.readouterr().err


def test_forward_is_deterministic_and_writes_level_plys(tmp_path):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0

    outs = []
    for run in range(2):
        out_dir = tmp_path / f"run{run}"
        assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                     "--out-dir", str(out_dir), "--config", cfg]) == 0
        outs.append(out_dir)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["level_1.ply", "level_2.ply"]
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b
    g1 = read_gaussians_ply(outs[0] / "level_1.ply")
    g2 = read_gaussians_ply(outs[0] / "level_2.ply")
    g1.validate()
    g2.validate()
    assert len(g2) < len(g1) < 2 * 16 * 16


def test_select_views_writes_selection_json(tmp_path, capsys):
    scene = _gen(tmp_path, views=4, kind="sphere", res="24x24")
    out = tmp_path / "sel.json"
    assert main(["select-views", "--scene", str(scene), "--max-views", "2",
                 "--depth", "6", "--out", str(out)]) == 0
    sel = json.loads(out.read_text())
    assert set(sel) == {"selected", "covered", "marginal_gains"}
    assert len(sel["selected"]) <= 2
    assert sum(sel["marginal_gains"]) == sel["covered"] > 0
    printed = capsys.readouterr().out
    assert "selected views:" in printed


def test_select_views_prints_nothing_when_its_out_file_cannot_be_written(tmp_path, capsys):
    scene = _gen(tmp_path, views=2)
    capsys.readouterr()
    assert main(["select-views", "--scene", str(scene), "--max-views", "1",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


def test_gen_scene_refuses_a_directory_holding_more_views(tmp_path, capsys):
    _gen(tmp_path, views=4)
    scene = _gen(tmp_path, views=4, width=8)  # the same views are overwritten
    capsys.readouterr()
    assert main(["gen-scene", "--out", str(scene), "--views", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: view_2, view_3 under {scene} would not be "
                            f"overwritten by this run; remove or write elsewhere\n")
    # nothing was written: view 0 keeps its 16x16 pixels of width 8
    assert sorted(p.name for p in scene.iterdir()) == [f"view_{i}" for i in range(4)]
    assert read_tensor(scene / "view_0" / "feature.tns").shape == (16 * 16, 8)


def test_forward_refuses_an_out_dir_holding_more_levels(tmp_path, capsys):
    scene = _gen(tmp_path, res="8x8")
    out = tmp_path / "ply"
    runs = {}
    for n_blocks, seed in ((2, 0), (1, 5)):
        cfg = _write_cfg(tmp_path / f"cfg{n_blocks}.json", n_blocks=n_blocks, seed=seed)
        ckpt = tmp_path / f"ckpt{n_blocks}"
        assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
        runs[n_blocks] = ["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                          "--out-dir", str(out), "--config", cfg]
    assert main(runs[2]) == 0
    assert main(runs[2]) == 0  # the same levels are overwritten
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written) == ["level_1.ply", "level_2.ply"]
    capsys.readouterr()
    assert main(runs[1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: level_2.ply under {out} would not be overwritten "
                            f"by this run; remove or write elsewhere\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_select_views_negative_min_gain_exits_2(tmp_path):
    scene = _gen(tmp_path, views=2)
    assert main(["select-views", "--scene", str(scene), "--max-views", "2",
                 "--min-gain", "-1"]) == 2


def test_verify_passes_and_prints_per_check_lines(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_verify_names_the_first_failing_depth(monkeypatch, capsys):
    # an off-by-one reference fails at every depth; the detail names the first
    encode = reference.encode_reference
    monkeypatch.setattr(reference, "encode_reference", lambda *args: encode(*args) + 1)
    assert main(["verify", "--suite", "morton"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL morton/encode-matches-bit-loop (depth 1: ")
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed"


def test_unknown_config_key_exits_2(tmp_path):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json", blok_len=8)
    assert main(["serialize", "--scene", str(scene),
                 "--out", str(tmp_path / "c.tns"), "--config", cfg]) == 2


def test_depth_out_of_range_exits_3(tmp_path):
    scene = _gen(tmp_path)
    assert main(["serialize", "--scene", str(scene),
                 "--out", str(tmp_path / "c.tns"), "--depth", "25"]) == 3
    for depth in ("0", "-1", "22", "1000000"):
        assert main(["select-views", "--scene", str(scene), "--max-views", "1",
                     "--depth", depth]) == 3


def test_block_budget_is_checked_where_the_blocks_are_built(tmp_path, capsys):
    # serialize builds no block, so every depth the grid allows serializes
    scene = _gen(tmp_path, views=1)
    for depth in range(1, 22):
        assert main(["serialize", "--scene", str(scene), "--out", str(tmp_path / "c.tns"),
                     "--depth", str(depth)]) == 0
    deep = tmp_path / "deep.json"
    deep.write_text('{"n_blocks": 8}')
    capsys.readouterr()
    assert main(["init-checkpoint", "--out", str(tmp_path / "ckpt"), "--config", str(deep)]) == 2
    # forward checks the budget before it reads the checkpoint
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(tmp_path / "nope"),
                 "--out-dir", str(tmp_path / "o"), "--config", str(deep)]) == 2
    assert capsys.readouterr().err == (
        "error: 8 blocks of 2 pooling levels exhaust serialize_depth 16\n" * 2)
    assert not (tmp_path / "ckpt").exists() and not (tmp_path / "o").exists()


def test_a_grid_too_small_for_the_scene_exits_3_and_writes_nothing(tmp_path, capsys):
    scene = _gen(tmp_path, views=1)
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt),
                 "--config", _write_cfg(tmp_path / "cfg.json")]) == 0
    tiny = _write_cfg(tmp_path / "tiny.json", cell=1e-6)
    capsys.readouterr()
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", tiny]) == 3
    assert main(["serialize", "--scene", str(scene), "--out", str(tmp_path / "c.tns"),
                 "--config", tiny]) == 3
    err = capsys.readouterr().err
    assert err.count("but cell 1e-06 at depth 10 gives a grid spanning 0.001024") == 2
    assert not (tmp_path / "o").exists() and not (tmp_path / "c.tns").exists()


@pytest.mark.parametrize("cells, code", [(1023.5, 0), (1024.5, 3)],
                         ids=["just-holds", "just-short"])
def test_an_explicit_grid_must_hold_the_scene(tmp_path, cells, code):
    # SMALL_CFG's depth 10 gives 1024 cells per axis; the grid starts 1e-3
    # cells below the points, so an extent of 1023.5 cells fits and 1024.5 does not
    scene = _gen(tmp_path, views=1)
    points = np.concatenate(view_points(load_scene_dir(str(scene))))
    extent = float(np.ptp(points, axis=0).max())
    cfg = _write_cfg(tmp_path / "cfg.json", cell=extent / cells)
    out = tmp_path / "c.tns"
    assert main(["serialize", "--scene", str(scene), "--out", str(out),
                 "--config", cfg]) == code
    assert out.exists() == (code == 0)


def test_init_checkpoint_reports_the_layers_it_saved(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", n_blocks=3)
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    saved = json.loads((ckpt / "manifest.json").read_text())["params"]
    assert len(saved) == 20
    assert f"initialized {len(saved)} layers" in capsys.readouterr().out


def test_load_checkpoint_draws_no_weights(tmp_path, monkeypatch):
    # the expected layer shapes come from the table the initialisers read,
    # not from a model whose every weight is drawn only to be measured
    from zsplat import numerics
    from zsplat.config import RunConfig
    from zsplat.pipeline import init_model, load_checkpoint, save_checkpoint

    cfg = RunConfig(**SMALL_CFG, n_blocks=2)
    saved = init_model(cfg)
    save_checkpoint(saved, tmp_path / "ckpt")

    def refuse(seed, count):
        raise AssertionError("load_checkpoint drew weights")

    monkeypatch.setattr(numerics, "uniform01", refuse)
    loaded = load_checkpoint(tmp_path / "ckpt", cfg)
    for want, got in zip(saved.blocks + (saved.head,), loaded.blocks + (loaded.head,)):
        for name, layer in vars(want).items():
            assert np.array_equal(getattr(got, name).weight, layer.weight), name
    with pytest.raises(AssertionError, match="drew weights"):
        init_model(cfg)


def test_checkpoint_mismatch_exits_4(tmp_path):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    main(["init-checkpoint", "--out", str(ckpt), "--config", cfg])
    wide = _write_cfg(tmp_path / "wide.json", model_width=64, head_width=32)
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", wide]) == 4
    assert main(["forward", "--scene", str(scene),
                 "--checkpoint", str(tmp_path / "nope"),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 4


def _set_first_entry(manifest, key, value):
    name = sorted(manifest["params"])[0]
    if key is None:
        manifest["params"][name] = value
    else:
        manifest["params"][name][key] = value
    return json.dumps(manifest).encode()


def _swap_first_entry_files(manifest):
    # the 1-D bias read as the weight: "weight ... and bias ... do not align"
    entry = manifest["params"][sorted(manifest["params"])[0]]
    entry["weight"], entry["bias"] = entry["bias"], entry["weight"]
    return json.dumps(manifest).encode()


MALFORMED_MANIFESTS = {
    "not-utf8": lambda m: b"\xff\xfe{",
    "json-list": lambda m: b"[1]",
    "string-entry": lambda m: _set_first_entry(m, None, "block0__wq.weight.tns"),
    "string-seed": lambda m: _set_first_entry(m, "seed", "abc"),
    "absolute-path": lambda m: _set_first_entry(m, "weight", "/dev/zero"),
    "parent-path": lambda m: _set_first_entry(m, "bias", "../other/x.tns"),
    "empty-name": lambda m: _set_first_entry(m, "weight", ""),
    "symlink-out": lambda m: _set_first_entry(m, "weight", "outside.tns"),
    "version-99": lambda m: json.dumps(dict(m, version=99)).encode(),
    "version-bool": lambda m: json.dumps(dict(m, version=True)).encode(),
    "unknown-top-key": lambda m: json.dumps(dict(m, bogus=1)).encode(),
    "swapped-files": _swap_first_entry_files,
}


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_malformed_manifest_exits_4(tmp_path, capsys, case):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    manifest = json.loads((ckpt / "manifest.json").read_text())
    # a valid layer file outside the checkpoint, linked from inside it
    weight = manifest["params"][sorted(manifest["params"])[0]]["weight"]
    shutil.copy(ckpt / weight, tmp_path / "outside.tns")
    os.symlink(tmp_path / "outside.tns", ckpt / "outside.tns")
    (ckpt / "manifest.json").write_bytes(MALFORMED_MANIFESTS[case](manifest))
    capsys.readouterr()
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value, dtype", [
    (np.nan, np.float32), (np.inf, np.float32), (1e300, np.float64),
], ids=["nan", "inf", "f64-past-f32"])
@pytest.mark.parametrize("part", ["weight", "bias"])
def test_checkpoint_value_that_is_not_a_finite_float32_exits_4(tmp_path, capsys, part,
                                                               value, dtype):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    path = ckpt / f"block0__w_k.{part}.tns"
    values = read_tensor(path).astype(dtype)
    values.flat[0] = value
    write_tensor(path, values)
    capsys.readouterr()
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 4
    assert capsys.readouterr().err == (f"error: block0/w_k: {part} holds a value that "
                                       f"is not a finite float32\n")


def _name_another_layers_files(ckpt):
    # same shapes as block0/w_q's own files, so only the names can tell
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["params"]["block0/w_q"].update(weight="block0__w_k.weight.tns",
                                            bias="block1__w_q.bias.tns")
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _link_a_derived_name(ckpt):
    # the manifest is untouched; the file it names is a symlink to the moved original
    moved = shutil.move(ckpt / "block0__w_q.weight.tns", ckpt.parent / "w_q.tns")
    os.symlink(moved, ckpt / "block0__w_q.weight.tns")


@pytest.mark.parametrize("edit", [_name_another_layers_files, _link_a_derived_name],
                         ids=["another-layers-files", "symlink-at-derived-name"])
def test_checkpoint_reads_only_the_files_it_writes(tmp_path, capsys, edit):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    edit(ckpt)
    capsys.readouterr()
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 4
    assert capsys.readouterr().err.startswith("error: block0/w_q: ")
    assert not (tmp_path / "o").exists()


def _cut_to_100_bytes(path):
    with open(path, "r+b") as fh:
        fh.truncate(100)


def _write_garbage(path):
    path.write_bytes(b"garbage")


# a layer file the tensor reader rejects: the layer, its file, the edit and
# the reader's message
DAMAGED_LAYER_FILES = {
    "truncated": ("block0/w_q", "block0__w_q.weight.tns", _cut_to_100_bytes,
                  "header implies 2048 (byte offset 100)"),
    "garbage": ("head/hidden", "head__hidden.bias.tns", _write_garbage,
                "missing header newline (byte offset 7)"),
}


@pytest.mark.parametrize("case", DAMAGED_LAYER_FILES)
def test_a_damaged_layer_file_exits_4_naming_its_layer_and_file(tmp_path, capsys, case):
    layer, file, damage, reason = DAMAGED_LAYER_FILES[case]
    scene = _gen(tmp_path, res="8x8")
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    damage(ckpt / file)
    capsys.readouterr()
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {layer}: {ckpt / file}: ") and err.endswith(f"{reason}\n")
    assert not (tmp_path / "o").exists()


# a value assemble must reject in one view's payload: the view, the file, its
# dtype and the value written over its first element
BAD_PAYLOADS = {
    "f64-feature-past-f32": ("view_1", "feature.tns", np.float64, 1e300),
    "nan-feature": ("view_1", "feature.tns", np.float32, np.nan),
    "nan-color": ("view_0", "color.tns", np.float32, np.nan),
}


@pytest.mark.parametrize("case", BAD_PAYLOADS)
def test_a_bad_payload_value_exits_2_naming_its_view_and_file(tmp_path, capsys, case):
    view, name, dtype, value = BAD_PAYLOADS[case]
    scene = _gen(tmp_path, res="8x8")
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    path = scene / view / name
    values = read_tensor(path).astype(dtype)
    values.flat[0] = value
    write_tensor(path, values)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                     "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 2
    what = ("colors must lie in [0, 1]" if name == "color.tns"
            else "features contain non-finite values")
    assert capsys.readouterr().err == f"error: {path}: {what}\n"


def test_a_span_past_float64_exits_3_on_every_fitted_grid(tmp_path, capsys):
    # cameras at x = +-1e308 put the points' extent past float64 range; with
    # no cell in the config, select-views, serialize and forward all fit a grid
    scene = _gen(tmp_path, res="4x4")
    for i, x in enumerate([1e308, -1e308]):
        camera = scene / f"view_{i}" / "camera.json"
        record = json.loads(camera.read_text())
        record["cam_to_world"] = [1, 0, 0, x, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
        camera.write_text(json.dumps(record))
    cfg = _write_cfg(tmp_path / "cfg.json", cell=None)
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    capsys.readouterr()
    for args in (["select-views", "--scene", str(scene), "--max-views", "1"],
                 ["serialize", "--scene", str(scene), "--out", str(tmp_path / "c.tns"),
                  "--config", cfg],
                 ["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                  "--out-dir", str(tmp_path / "o"), "--config", cfg]):
        assert main(args) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and len(set(lines)) == 1
    assert lines[0].startswith("error: points span [-1e+308, ")
    assert lines[0].endswith(", past float64 range")


# one payload per way decoding a JSON object can fail
HOSTILE_JSON = {
    "too-deep": b"[" * 30000,  # past the recursion limit, inside a tensor header line
    "long-int": b'{"n": ' + b"1" * 5000 + b"}",  # past the 4300-digit limit
    "not-utf8": b'{"n": "\xff"}',
    "invalid": b"{not json",
    "json-list": b"[1, 2]",
}


@pytest.mark.parametrize("case", HOSTILE_JSON)
def test_decoder_raises_only_the_callers_error(case):
    with pytest.raises(errors.CheckpointError) as err:
        decode_json_object(HOSTILE_JSON[case], "thing", errors.CheckpointError)
    assert type(err.value) is errors.CheckpointError
    assert str(err.value).startswith(
        "thing must be a JSON object" if case == "json-list" else "bad thing JSON: "
    )


def _select_views_over(name):
    def run(tmp_path, data):
        scene = _gen(tmp_path, views=1)
        (scene / "view_0" / name).write_bytes(data)
        return main(["select-views", "--scene", str(scene), "--max-views", "1"]), None
    return run


def _init_checkpoint_with_config(tmp_path, data):
    cfg, out = tmp_path / "cfg.json", tmp_path / "ckpt"
    cfg.write_bytes(data)
    return main(["init-checkpoint", "--out", str(out), "--config", str(cfg)]), out


def _gen_scene_with_config(tmp_path, data):
    cfg, out = tmp_path / "scene.json", tmp_path / "scene"
    cfg.write_bytes(data)
    return main(["gen-scene", "--out", str(out), "--scene-config", str(cfg)]), out


def _forward_with_manifest(tmp_path, data):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    (ckpt / "manifest.json").write_bytes(data)
    return main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]), None


# each JSON reader, the command that reaches it, and its documented exit code;
# the second value a command returns is an output it must not have written
JSON_READERS = {
    "tensor-header": (_select_views_over("depth.tns"), 2),
    "camera": (_select_views_over("camera.json"), 2),
    "run-config": (_init_checkpoint_with_config, 2),
    "scene-config": (_gen_scene_with_config, 2),
    "manifest": (_forward_with_manifest, 4),
}


@pytest.mark.parametrize("case", HOSTILE_JSON)
@pytest.mark.parametrize("reader", JSON_READERS)
def test_hostile_json_exits_with_the_readers_code(tmp_path, capsys, reader, case):
    command, code = JSON_READERS[reader]
    # the newline ends a tensor header line; JSON readers skip it as whitespace
    rc, unwritten = command(tmp_path, HOSTILE_JSON[case] + b"\n")
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("error: ") and "Traceback" not in err
    assert unwritten is None or not unwritten.exists()


# camera numbers that are not finite floats, as literal JSON text
CAMERA_NUMBERS = {
    "fx-long-int": ("fx", "1" + "0" * 400),
    "matrix-long-int": ("cam_to_world", "[" + ", ".join(["1" + "0" * 400] + ["0"] * 15) + "]"),
    "fx-1e400": ("fx", "1e400"),
    "cx-infinity": ("cx", "Infinity"),
    "cy-nan": ("cy", "NaN"),
    "fx-bool": ("fx", "true"),
    "fx-string": ("fx", '"1.5"'),
    "fx-tiny": ("fx", "1e-308"),
}


@pytest.mark.parametrize("case", CAMERA_NUMBERS)
def test_camera_number_that_is_not_a_finite_float_exits_2(tmp_path, capsys, case):
    field, literal = CAMERA_NUMBERS[case]
    scene = _gen(tmp_path, views=1)
    camera = scene / "view_0" / "camera.json"
    record = dict(json.loads(camera.read_text()), **{field: "@"})
    camera.write_text(json.dumps(record).replace('"@"', literal))
    assert main(["select-views", "--scene", str(scene), "--max-views", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_feature_width_mismatch_exits_2(tmp_path):
    scene = _gen(tmp_path, width=16)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    main(["init-checkpoint", "--out", str(ckpt), "--config", cfg])
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 2


def test_scene_loads_start_no_thread(tmp_path, monkeypatch):
    scene = _gen(tmp_path, views=4)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    started, start = [], threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 0
    assert main(["select-views", "--scene", str(scene), "--max-views", "2"]) == 0
    assert started == []


# runs the CLI after lowering the process's open-file limit to 40
_CLI_UNDER_40_FILES = (
    "import resource, sys; hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]; "
    "resource.setrlimit(resource.RLIMIT_NOFILE, (min(40, hard), hard)); "
    "from zsplat.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_a_scene_with_more_views_than_open_files_loads(tmp_path):
    # a loaded view holds no open file, so 60 views need no 60 descriptors
    scene = _gen(tmp_path, res="4x4", views=60)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for args in (["select-views", "--scene", str(scene), "--max-views", "4"],
                 ["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                  "--out-dir", str(tmp_path / "o"), "--config", cfg]):
        proc = subprocess.run([sys.executable, "-c", _CLI_UNDER_40_FILES, *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


# runs the CLI after limiting the process's address space to 3 GB
_CLI_IN_3_GB = (
    "import resource, sys; hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
    "limit = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard); "
    "resource.setrlimit(resource.RLIMIT_AS, (limit, hard)); "
    "from zsplat.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_a_scene_too_large_to_allocate_exits_3(tmp_path):
    # 10^12 pixels per view: numpy's allocation fails under the limit, whatever
    # the host's overcommit policy, and the CLI names it in one line
    out = tmp_path / "s"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _CLI_IN_3_GB, "gen-scene", "--out",
                           str(out), "--res", "1000000x1000000"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_missing_scene_dir_exits_2(tmp_path):
    assert main(["select-views", "--scene", str(tmp_path / "void"),
                 "--max-views", "1"]) == 2


def test_hostile_scene_files_exit_2(tmp_path):
    scene = _gen(tmp_path, views=1)
    os.makedirs(scene / "view_x")
    assert main(["select-views", "--scene", str(scene), "--max-views", "1"]) == 2
    os.rmdir(scene / "view_x")
    (scene / "view_0" / "depth.tns").write_bytes(
        b'{"dtype": "f32", "shape": [4294967296, 4294967296]}\n'
    )
    assert main(["select-views", "--scene", str(scene), "--max-views", "1"]) == 2


_IDENTITY = np.eye(4).ravel().tolist()
_SHEARED = np.eye(4)
_SHEARED[0, 1] = 0.5


@pytest.mark.parametrize("mat", [
    ["a"] * 16, [[1, 2], [3]], [v == 1 for v in _IDENTITY], [str(v) for v in _IDENTITY],
    np.diag([2.0, 2.0, 2.0, 1.0]).ravel().tolist(), _SHEARED.ravel().tolist(),
    np.diag([-1.0, 1.0, 1.0, 1.0]).ravel().tolist(),
], ids=["strings", "ragged", "bools", "numeric-strings", "scaled", "sheared", "mirrored"])
def test_malformed_camera_matrix_exits_2(tmp_path, capsys, mat):
    scene = _gen(tmp_path, views=1)
    camera = scene / "view_0" / "camera.json"
    record = json.loads(camera.read_text())
    camera.write_text(json.dumps(dict(record, cam_to_world=mat)))
    assert main(["select-views", "--scene", str(scene), "--max-views", "1"]) == 2
    assert "bad camera record" in capsys.readouterr().err


@pytest.mark.parametrize("name, blob, message", [
    ("depth.tns", lambda b: b[:-4], "payload holds 252 bytes, header implies 256"),
    ("camera.json", lambda b: b.replace(b'"fx": 8.0', b'"fx": true'), "bad camera record: fx"),
], ids=["truncated-depth", "fx-bool"])
def test_a_view_that_fails_to_load_is_named_once(tmp_path, capsys, name, blob, message):
    scene = _gen(tmp_path, views=3, res="8x8")
    path = scene / "view_2" / name
    path.write_bytes(blob(path.read_bytes()))
    assert main(["select-views", "--scene", str(scene), "--max-views", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("view_2") == 1 and "Traceback" not in err


def test_a_view_that_fails_to_unproject_is_named_once(tmp_path, capsys):
    scene = _gen(tmp_path, views=3, res="8x8")
    camera = scene / "view_1" / "camera.json"
    camera.write_text(json.dumps(dict(json.loads(camera.read_text()), fx=1e-308)))
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    capsys.readouterr()
    for argv in (["select-views", "--max-views", "1"],
                 ["forward", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "o"),
                  "--config", cfg]):
        assert main(argv + ["--scene", str(scene)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: view 1: depth map holds a non-finite value")
        assert err.count("view 1") == 1 and "Traceback" not in err


def test_view_payload_unlike_its_depth_map_exits_2(tmp_path, capsys):
    scene = _gen(tmp_path, res="8x8")
    path = scene / "view_1" / "color.tns"
    write_tensor(path, np.full((2, 2, 3), 0.5, np.float32))
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: colors (2, 2, 3) are not")


# a payload whose element count fits its depth map but whose layout does not:
# the scene's resolution and views, the file, and the rewrite of its array
MISSHAPED_PAYLOADS = {
    "color-channel-first": ("8x8", 2, "color.tns", lambda c: np.moveaxis(c, -1, 0)),
    "color-3-by-pixels": ("8x8", 2, "color.tns", lambda c: np.moveaxis(c, -1, 0).reshape(3, -1)),
    "color-flat": ("8x8", 2, "color.tns", np.ravel),
    "color-transposed": ("8x16", 1, "color.tns", lambda c: c.transpose(1, 0, 2)),
    "feature-transposed": ("8x16", 1, "feature.tns",
                           lambda f: f.reshape(8, 16, -1).transpose(1, 0, 2)),
}


@pytest.mark.parametrize("case", MISSHAPED_PAYLOADS)
def test_a_payload_laid_out_unlike_its_depth_map_exits_2(tmp_path, capsys, case):
    res, views, name, rewrite = MISSHAPED_PAYLOADS[case]
    scene = _gen(tmp_path, res=res, views=views)
    path = scene / "view_0" / name
    write_tensor(path, rewrite(read_tensor(path)))
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 2
    what = "colors" if name == "color.tns" else "features"
    assert capsys.readouterr().err.startswith(f"error: {path}: {what} ")
    # the same arrays handed to assemble name their view
    arrays = [(depth, camera, read_tensor(color), read_tensor(feature))
              for depth, camera, color, feature in load_scene_dir(scene)]
    with pytest.raises(errors.InputError, match=f"^view 0: {what} "):
        assemble(arrays)


@pytest.mark.parametrize("field", [
    {"block_len": "32"}, {"cell": "x"}, {"origin": 5}, {"origin": [0, 0, "a"]},
    {"n_blocks": True}, {"select_k": 2.5}, {"position_mode": None},
], ids=["block_len-str", "cell-str", "origin-int", "origin-str", "n_blocks-bool",
        "select_k-float", "position_mode-null"])
def test_config_field_of_wrong_type_exits_2(tmp_path, capsys, field):
    cfg = _write_cfg(tmp_path / "cfg.json", **field)
    assert main(["init-checkpoint", "--out", str(tmp_path / "ckpt"), "--config", cfg]) == 2
    assert next(iter(field)) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-scene", "init-checkpoint"])
def test_directory_given_as_a_config_file_exits_2(tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out"
    flag = "--scene-config" if command == "gen-scene" else "--config"
    assert main([command, "--out", str(out), flag, str(folder)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# every ZsplatError subclass and the exit code errors.py documents for it
DOCUMENTED_EXIT_CODES = {
    errors.ShapeError: 2,
    errors.InputError: 2,
    errors.RangeError: 3,
    errors.ConfigError: 2,
    errors.NumericError: 2,
    errors.FormatError: 2,
    errors.CheckpointError: 4,
    errors.ValidationError: 2,
}


def test_exit_code_table_covers_every_error_class():
    assert set(DOCUMENTED_EXIT_CODES) == set(errors.ZsplatError.__subclasses__())


@pytest.mark.parametrize("error, code", DOCUMENTED_EXIT_CODES.items(),
                         ids=[e.__name__ for e in DOCUMENTED_EXIT_CODES])
def test_each_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch,
                                                        error, code):
    def fail(overrides):
        raise error("planted failure")

    monkeypatch.setattr(cli, "generate_scene", fail)
    assert main(["gen-scene", "--out", str(tmp_path / "s")]) == code
    assert capsys.readouterr().err == "error: planted failure\n"


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ran = 0
    for words in (shlex.split(line, comments=True) for line in block.splitlines()):
        if words[:1] == ["echo"]:
            assert words[2:] == [">", "run.json"], words
            (tmp_path / "run.json").write_text(words[1])
        elif words:
            assert words[0] == "zsplat", words
            assert main(words[1:]) == 0, words
            ran += 1
    assert ran == 6
    assert (tmp_path / "gaussians" / "level_1.ply").is_file()
    assert (tmp_path / "gaussians" / "level_2.ply").is_file()


def test_cli_and_pipeline_import_no_scipy():
    # numpy is the only runtime dependency: a fresh process that imports the
    # CLI and the pipeline holds no scipy module
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, zsplat.cli, zsplat.pipeline; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_malformed_resolution_exits_2(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["gen-scene", "--out", str(out), "--res", "64by64"]) == 2
    assert "resolution must look like 64x64, got '64by64'" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_scene_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-scene", "--out", str(tmp_path / "s"),
                 "--scene-config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"n_view": 3}')
    assert main(["gen-scene", "--out", str(tmp_path / "s"),
                 "--scene-config", str(unknown)]) == 2


@pytest.mark.parametrize("payload, named", [
    (b'{"n_views": "3"}', "n_views"),
    (b'{"resolution": [8]}', "resolution"),
    (b'{"resolution": [8, 0]}', "resolution"),
    (b'{"kind": "sphere", "sphere_radius": "x"}', "sphere_radius"),
    (b'{"feature_width": "8"}', "feature_width"),
    (b'{"feature_width": 0}', "feature_width"),
    (b'{"sphere_center": [0, 0, NaN]}', "sphere_center"),
    (b'{"focal": "wide"}', "focal"),
    (b'{"background": [1]}', "background"),
    (b'{"seed": true}', "seed"),
    (b'[1, 2]', "JSON object"),
    (b'{"kind": "\xff"}', "utf-8"),
    # values whose scenes the loader would reject, or would fail without naming the field
    (b'{"kind": "plane", "distance": -4}', "distance must be > 0"),
    (b'{"kind": "sphere", "distance": 0}', "distance must be > 0"),
    (b'{"background": -1}', "background must be > 0"),
    (b'{"focal": -5}', "focal must be > 0"),
], ids=["n_views-str", "resolution-one", "resolution-zero", "sphere_radius-str",
        "feature_width-str", "feature_width-0", "sphere_center-nan", "focal-str",
        "background-list", "seed-bool", "not-an-object", "not-utf8", "plane-distance-neg",
        "sphere-distance-0", "background-neg", "focal-neg"])
def test_scene_config_value_of_wrong_type_exits_2(tmp_path, capsys, payload, named):
    path = tmp_path / "scene.json"
    path.write_bytes(payload)
    out = tmp_path / "s"
    assert main(["gen-scene", "--out", str(out), "--scene-config", str(path)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def _tree_digest(path):
    """SHA-256 over every file's relative path and content digest, sorted."""
    lines = []
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{os.path.relpath(full, path)} {digest}\n")
    return hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()


# The benchmark's inputs, written by the CLI: init-checkpoint for the default
# config and for each workload's seed-1 run config (bench/spec.py; weights
# depend on the seed and the shapes only, so the three agree), and a default
# gen-scene, a plane. Both use only integer mixing and IEEE arithmetic, so the
# bytes hold across numpy builds. Sphere scenes, the benchmark's pools, are
# left out: their camera poses go through np.sin, np.cos and np.linalg.norm,
# whose last bit can vary between numpy builds.
GOLDEN_INPUTS = {
    "checkpoint-default": (["init-checkpoint"], None,
                           "c088ad8663d0e1ec2bb9f4ac749c79ebdecd9c729bbf90dd6c1c8681478bba9d"),
    "checkpoint-dense-k": (["init-checkpoint"], {"cell": 0.0625, "seed": 1},
                           "50acf47c711eea89b943ef674b8c1ab0b1402950167799c55575799dca634165"),
    "checkpoint-sparse-k": (["init-checkpoint"], {"cell": 0.03125, "select_k": 8, "seed": 1},
                            "50acf47c711eea89b943ef674b8c1ab0b1402950167799c55575799dca634165"),
    "checkpoint-many-views": (["init-checkpoint"], {"cell": 0.125, "select_k": 8, "seed": 1},
                              "50acf47c711eea89b943ef674b8c1ab0b1402950167799c55575799dca634165"),
    "plane-scene": (["gen-scene"], None,
                    "a34364adb61ea569c2f98a1ee4d4f9b813004362fc266f8084e1eadcd0fef2dd"),
}


@pytest.mark.parametrize("case", GOLDEN_INPUTS)
def test_benchmark_inputs_match_their_golden_digests(tmp_path, case):
    argv, run, digest = GOLDEN_INPUTS[case]
    out = tmp_path / "out"
    argv = argv + ["--out", str(out)]
    if run is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run))
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    assert _tree_digest(out) == digest
