import json
import os

import numpy as np
import pytest

from zsplat.cli import main
from zsplat.scene import read_gaussians_ply, read_tensor


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


def test_forward_output_unaffected_by_loader_thread_count(tmp_path, monkeypatch):
    scene = _gen(tmp_path)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    main(["init-checkpoint", "--out", str(ckpt), "--config", cfg])
    blobs = []
    for threads in ("1", "7"):
        monkeypatch.setenv("ZSPLAT_THREADS", threads)
        out_dir = tmp_path / f"t{threads}"
        assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                     "--out-dir", str(out_dir), "--config", cfg]) == 0
        blobs.append((out_dir / "level_2.ply").read_bytes())
    assert blobs[0] == blobs[1]


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
    assert main(["select-views", "--scene", str(scene), "--max-views", "1",
                 "--depth", "0"]) == 3


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


def test_feature_width_mismatch_exits_2(tmp_path):
    scene = _gen(tmp_path, width=16)
    cfg = _write_cfg(tmp_path / "cfg.json")
    ckpt = tmp_path / "ckpt"
    main(["init-checkpoint", "--out", str(ckpt), "--config", cfg])
    assert main(["forward", "--scene", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "o"), "--config", cfg]) == 2


def test_invalid_thread_env_exits_2(tmp_path, monkeypatch):
    scene = _gen(tmp_path)
    monkeypatch.setenv("ZSPLAT_THREADS", "frog")
    assert main(["select-views", "--scene", str(scene), "--max-views", "1"]) == 2
    monkeypatch.setenv("ZSPLAT_THREADS", "0")
    assert main(["select-views", "--scene", str(scene), "--max-views", "1"]) == 2


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


def test_malformed_scene_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-scene", "--out", str(tmp_path / "s"),
                 "--scene-config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"n_view": 3}')
    assert main(["gen-scene", "--out", str(tmp_path / "s"),
                 "--scene-config", str(unknown)]) == 2
