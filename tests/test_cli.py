import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from zsplat import cli, errors
from zsplat.cli import main
from zsplat.scene import decode_json_object, read_gaussians_ply, read_tensor, write_tensor

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


def test_select_views_negative_min_gain_exits_2(tmp_path):
    scene = _gen(tmp_path, views=2)
    assert main(["select-views", "--scene", str(scene), "--max-views", "2",
                 "--min-gain", "-1"]) == 2


def test_verify_passes_and_prints_per_check_lines(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


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


def test_init_checkpoint_reports_the_layers_it_saved(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", n_blocks=3)
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    saved = json.loads((ckpt / "manifest.json").read_text())["params"]
    assert len(saved) == 20
    assert f"initialized {len(saved)} layers" in capsys.readouterr().out


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
    monkeypatch.setenv("ZSPLAT_THREADS", "4")
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 0
    assert main(["select-views", "--scene", str(scene), "--max-views", "2"]) == 0
    assert started == []


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
    write_tensor(scene / "view_1" / "color.tns", np.full((2, 2, 3), 0.5, np.float32))
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    assert main(["init-checkpoint", "--out", str(ckpt), "--config", cfg]) == 0
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 2
    assert "view 1" in capsys.readouterr().err


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


def test_demo_script_writes_a_ply_per_level(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_pipeline.py"),
         "--workdir", "demo", "--res", "16x16", "--cell", "0.25"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    plys = sorted(p.name for p in (tmp_path / "demo" / "gaussians").iterdir())
    assert plys == ["level_1.ply", "level_2.ply"]


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
], ids=["n_views-str", "resolution-one", "resolution-zero", "sphere_radius-str",
        "feature_width-str", "feature_width-0", "sphere_center-nan", "focal-str",
        "background-list", "seed-bool", "not-an-object", "not-utf8"])
def test_scene_config_value_of_wrong_type_exits_2(tmp_path, capsys, payload, named):
    path = tmp_path / "scene.json"
    path.write_bytes(payload)
    out = tmp_path / "s"
    assert main(["gen-scene", "--out", str(out), "--scene-config", str(path)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
