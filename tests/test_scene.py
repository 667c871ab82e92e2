import gc
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsplat import scene, synthetic
from zsplat.errors import FormatError, InputError, ValidationError
from zsplat.numerics import uniform01


def _rotation_about_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    mat = np.eye(4)
    mat[:3, :3] = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
    return mat


def test_unproject_frozen_identity_camera():
    cam = scene.Camera(2.0, 2.0, 0.5, 0.5, np.eye(4))
    pts = scene.unproject(np.ones((2, 2)), cam)
    want = np.array(
        [
            [-0.25, -0.25, 1.0],
            [0.25, -0.25, 1.0],
            [-0.25, 0.25, 1.0],
            [0.25, 0.25, 1.0],
        ]
    )
    assert np.allclose(pts, want, atol=1e-12)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_project_inverts_unproject_under_rotation(angle, seed):
    mat = _rotation_about_y(angle)
    mat[:3, 3] = [0.3, -1.2, 0.7]
    cam = scene.Camera(40.0, 44.0, 15.5, 16.0, mat)
    depth = 1.0 + uniform01(seed, 6 * 5).reshape(6, 5) * 4.0
    pts = scene.unproject(depth, cam)
    uvz = scene.project(pts, cam)
    v, u = np.mgrid[0:6, 0:5]
    assert np.allclose(uvz[:, 0], u.ravel(), atol=1e-9)
    assert np.allclose(uvz[:, 1], v.ravel(), atol=1e-9)
    assert np.allclose(uvz[:, 2], depth.ravel(), atol=1e-9)


def _unproject_mgrid(depth, camera):
    """The mgrid form of unproject's pixel grid, kept as its oracle."""
    h, w = depth.shape
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    x_cam = (u - camera.cx) / camera.fx * depth
    y_cam = (v - camera.cy) / camera.fy * depth
    pts_cam = np.stack([x_cam, y_cam, depth], axis=-1).reshape(-1, 3)
    return pts_cam @ camera.rotation.T + camera.position


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_unproject_matches_the_mgrid_formula_bit_for_bit(seed, h, w):
    vals = uniform01(seed, 10 + h * w)
    mat = _rotation_about_y(6.0 * vals[0] - 3.0)
    mat[:3, 3] = 4.0 * vals[1:4] - 2.0
    cam = scene.Camera(10.0 + 90.0 * vals[4], 10.0 + 90.0 * vals[5],
                       w * vals[6], h * vals[7], mat)
    depth = 5.0 * vals[10:].reshape(h, w)
    got = scene.unproject(depth, cam)
    want = _unproject_mgrid(depth, cam)
    assert got.shape == want.shape == (h * w, 3)
    assert got.tobytes() == want.tobytes()


def test_unproject_rejects_bad_depth():
    cam = scene.Camera(2.0, 2.0, 0.5, 0.5, np.eye(4))
    with pytest.raises(InputError):
        scene.unproject(np.array([[1.0, -0.5]]), cam)
    with pytest.raises(InputError):
        scene.unproject(np.array([[np.inf, 1.0]]), cam)
    with pytest.raises(InputError):
        scene.unproject(np.ones(4), cam)


def test_camera_validation():
    with pytest.raises(InputError):
        scene.Camera(-1.0, 2.0, 0.0, 0.0, np.eye(4))
    bad = np.eye(4)
    bad[3, 0] = 0.1
    with pytest.raises(InputError):
        scene.Camera(1.0, 1.0, 0.0, 0.0, bad)
    with pytest.raises(InputError):
        scene.Camera(1.0, 1.0, 0.0, 0.0, np.eye(3))
    with pytest.raises(InputError, match="orthonormal"):
        scene.Camera(4.0, 4.0, 1.5, 1.5, np.diag([2.0, 2.0, 2.0, 1.0]))
    # a reflection passes R^T R = I but is not a rotation
    with pytest.raises(InputError, match="mirrored"):
        scene.Camera(4.0, 4.0, 1.5, 1.5, np.diag([-1.0, 1.0, 1.0, 1.0]))
    # a rotation written with 6 decimals is rigid within the tolerance
    scene.Camera(1.0, 1.0, 0.0, 0.0, np.round(_rotation_about_y(0.8), 6))


def test_camera_json_roundtrip(tmp_path):
    mat = _rotation_about_y(0.8)
    mat[:3, 3] = [1.0, 2.0, 3.0]
    cam = scene.Camera(100.0, 101.0, 31.5, 32.5, mat)
    path = tmp_path / "camera.json"
    scene.write_camera(path, cam)
    cam2 = scene.read_camera(path)
    assert cam2.fx == cam.fx and cam2.fy == cam.fy
    assert np.array_equal(cam2.cam_to_world, cam.cam_to_world)
    # layout on disk is the documented flat row-major list
    data = json.loads(path.read_text())
    assert len(data["cam_to_world"]) == 16
    assert data["cam_to_world"][3] == 1.0  # translation x in row-major row 0


def test_camera_json_errors(tmp_path):
    path = tmp_path / "camera.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        scene.read_camera(path)
    path.write_text(json.dumps({"fx": 1.0}))
    with pytest.raises(FormatError):
        scene.read_camera(path)
    for mat in (["a"] * 16, [[1, 2], [3]]):
        path.write_text(json.dumps({"fx": 1, "fy": 1, "cx": 0, "cy": 0, "cam_to_world": mat}))
        with pytest.raises(FormatError, match="camera"):
            scene.read_camera(path)
    path.write_bytes(b'{"fx": "\xff"}')
    with pytest.raises(FormatError):
        scene.read_camera(path)


def _tiny_views(n_views=2, res=4, width=6):
    views = []
    for i in range(n_views):
        mat = np.eye(4)
        mat[:3, 3] = [0.1 * i, 0.0, -2.0]
        cam = scene.Camera(float(res), float(res), (res - 1) / 2, (res - 1) / 2, mat)
        depth = np.full((res, res), 2.0)
        colors = uniform01(100 + i, res * res * 3).reshape(res, res, 3)
        feats = uniform01(200 + i, res * res * width).reshape(res * res, width)
        views.append((depth, cam, colors, feats.astype(np.float32)))
    return views


def test_assemble_concatenates_views_in_order():
    views = _tiny_views(3, res=4, width=6)
    rep = scene.assemble(views)
    assert len(rep) == 3 * 16
    assert rep.feature_width == 6
    assert np.array_equal(rep.view_of, np.repeat([0, 1, 2], 16))
    # first view's points come from its own unprojection
    pts0 = scene.unproject(views[0][0], views[0][1])
    assert np.allclose(rep.positions[:16], pts0)
    assert rep.features.dtype == np.float32


def test_assemble_rejects_mismatched_views():
    views = _tiny_views(2)
    bad = list(views)
    depth, cam, colors, feats = bad[1]
    bad[1] = (depth, cam, colors, feats[:, :3])
    with pytest.raises(InputError):
        scene.assemble(bad)
    bad[1] = (depth, cam, colors + 2.0, feats)
    with pytest.raises(InputError):
        scene.assemble(bad)
    with pytest.raises(InputError):
        scene.assemble([])


def test_assemble_rejects_payload_sizes_unlike_the_depth_map():
    views = _tiny_views(2, res=8, width=6)
    depth, cam, colors, feats = views[1]
    for bad in ((depth, cam, colors[:2, :2], feats), (depth, cam, colors, feats[:4]),
                (depth, cam, colors, feats.ravel()),
                (np.zeros((0, 0)), cam, colors[:0], feats[:0])):
        with pytest.raises(InputError, match="view 1"):
            scene.assemble([views[0], bad])


def test_point_representation_take_and_validation():
    rep = scene.assemble(_tiny_views(1))
    perm = np.arange(len(rep))[::-1]
    back = rep.take(perm)
    assert np.array_equal(back.positions, rep.positions[::-1])
    with pytest.raises(InputError):
        scene.PointRepresentation(
            rep.positions, rep.features[:3], rep.colors, rep.view_of
        )
    with pytest.raises(InputError):
        scene.PointRepresentation(
            rep.positions * np.nan, rep.features, rep.colors, rep.view_of
        )


# ---------------------------------------------------------------------------
# tensor container


def test_tensor_container_frozen_header_bytes(tmp_path):
    path = tmp_path / "z.tns"
    scene.write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    blob = path.read_bytes()
    header = b'{"dtype": "f32", "shape": [2, 2]}\n'
    assert blob[: len(header)] == header
    assert blob[len(header) :] == b"\x00" * 16


@given(
    st.lists(
        st.floats(width=32, allow_nan=True, allow_infinity=True),
        min_size=0,
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_tensor_container_roundtrip_is_bit_exact_f32(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("tns")
    arr = np.array(values, dtype=np.float32).reshape(-1, 1)
    path = tmp / "x.tns"
    scene.write_tensor(path, arr)
    back = scene.read_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_tensor_container_roundtrip_f64_and_shapes(tmp_path):
    arr = uniform01(77, 24).reshape(2, 3, 4)
    path = tmp_path / "y.tns"
    scene.write_tensor(path, arr)
    back = scene.read_tensor(path)
    assert back.dtype == np.float64
    assert back.shape == (2, 3, 4)
    assert back.tobytes() == arr.tobytes()


def test_tensor_container_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(InputError):
        scene.write_tensor(tmp_path / "i.tns", np.zeros(3, dtype=np.int32))


def test_tensor_container_format_errors_carry_offsets(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"no newline here")
    with pytest.raises(FormatError) as err:
        scene.read_tensor(path)
    assert err.value.offset == 15

    path.write_bytes(b'{"dtype": "f32", "shape": [4]}\n' + b"\x00" * 7)
    with pytest.raises(FormatError) as err:
        scene.read_tensor(path)
    assert "7 bytes" in str(err.value)
    assert err.value.offset == 31 + 7

    path.write_bytes(b'{"dtype": "i8", "shape": [1]}\n\x00')
    with pytest.raises(FormatError):
        scene.read_tensor(path)

    path.write_bytes(b'{"dtype": "f32", "shape": [-1]}\n')
    with pytest.raises(FormatError):
        scene.read_tensor(path)

    path.write_bytes(b"]]]garbage\n")
    with pytest.raises(FormatError) as err:
        scene.read_tensor(path)
    assert err.value.offset == 0


def test_tensor_container_rejects_shape_whose_int64_product_wraps(tmp_path):
    # 2**32 * 2**32 is 0 in int64, which an empty payload would match
    path = tmp_path / "huge.tns"
    path.write_bytes(b'{"dtype": "f32", "shape": [4294967296, 4294967296]}\n')
    with pytest.raises(FormatError, match="0 bytes"):
        scene.read_tensor(path)


# every malformed case of test_tensor_container_format_errors_carry_offsets,
# plus a few more, with the message and byte offset both readers must report
_MALFORMED_TENSORS = [
    (b"no newline here", "missing header newline", 15),
    (b"x" * 70000, "missing header newline", 65536),
    (b"", "missing header newline", 0),
    (b'{"dtype": "f32", "shape": [4]}\n' + b"\x00" * 7,
     "payload holds 7 bytes, header implies 16", 38),
    (b'{"dtype": "f64", "shape": [2]}\n' + b"\x00" * 17,
     "payload holds 17 bytes, header implies 16", 47),
    (b'{"dtype": "i8", "shape": [1]}\n\x00', "unsupported dtype 'i8'", 0),
    (b'{"dtype": "f32", "shape": [-1]}\n', "bad shape [-1]", 0),
    (b"]]]garbage\n", "bad header JSON: Expecting value: line 1 column 1 (char 0)", 0),
    (b"\xff\n", "bad header JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte", 0),
    (b"[1]\n", "header must be a JSON object", 0),
    (b'{"dtype": "f32", "shape": [true, 64]}\n' + b"\x00" * 256, "bad shape [True, 64]", 0),
    (b'{"dtype": ["f32"], "shape": [1]}\n\x00', "unsupported dtype ['f32']", 0),
    (b'{"dtype": "f32", "shape": [4294967296, 4294967296]}\n',
     "payload holds 0 bytes, header implies 73786976294838206464", 52),
]


@pytest.mark.parametrize("reader", [scene.read_tensor, scene.map_tensor])
@pytest.mark.parametrize("blob,message,offset", _MALFORMED_TENSORS)
def test_both_tensor_readers_report_the_same_format_errors(tmp_path, reader, blob,
                                                           message, offset):
    path = tmp_path / "bad.tns"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        reader(path)
    assert type(err.value) is FormatError
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


def test_read_tensor_returns_an_aligned_array_owning_its_data(tmp_path):
    # the 34-byte header puts the float64 payload off an 8-byte boundary
    arr = uniform01(3, 12).reshape(3, 4)
    path = tmp_path / "a.tns"
    scene.write_tensor(path, arr)
    back = scene.read_tensor(path)
    assert back.flags.owndata and back.flags.aligned and back.flags.c_contiguous
    assert back.flags.writeable
    assert back.tobytes() == arr.tobytes()


@pytest.mark.parametrize("reader", [scene.read_tensor, scene.map_tensor])
@pytest.mark.parametrize("shape", [(0,), (0, 96), (4, 0, 3)])
def test_zero_size_payloads_in_both_readers(tmp_path, reader, shape):
    path = tmp_path / "empty.tns"
    scene.write_tensor(path, np.zeros(shape, dtype=np.float32))
    back = reader(path)
    assert back.shape == shape and back.dtype == np.float32


def test_writing_into_a_mapped_array_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "f.tns"
    scene.write_tensor(path, uniform01(4, 40).reshape(8, 5).astype(np.float32))
    before = path.read_bytes()
    mapped = scene.map_tensor(path)
    assert mapped.flags.writeable
    mapped[:] = -1.0
    assert np.all(mapped == -1.0)
    assert path.read_bytes() == before
    assert np.array_equal(scene.map_tensor(path), scene.read_tensor(path))


def test_camera_record_intrinsics_are_stored_as_floats():
    cam = scene.Camera.from_dict({"fx": 2, "fy": 2, "cx": 2**70, "cy": 0,
                                  "cam_to_world": np.eye(4).ravel().tolist()})
    assert [type(v) for v in (cam.fx, cam.fy, cam.cx, cam.cy)] == [float] * 4
    assert cam.to_dict()["cx"] == float(2**70)


def test_scene_config_returns_its_own_containers():
    cfg = synthetic.scene_config()
    cfg["resolution"][0] = 8
    cfg["sphere_center"][0] = 9.0
    assert synthetic.scene_config()["resolution"] == [64, 64]
    assert synthetic.scene_config()["sphere_center"] == [0.0, 0.0, 0.0]


def test_loaded_features_survive_a_file_replaced_after_loading(tmp_path):
    views = synthetic.generate_scene({"resolution": [8, 8], "n_views": 2, "feature_width": 5})
    scene.write_scene_dir(tmp_path / "scene", views)
    loaded = scene.load_scene_dir(tmp_path / "scene")
    before = [np.array(v[3]) for v in loaded]
    for i in range(2):
        fresh = tmp_path / f"fresh_{i}.tns"
        scene.write_tensor(fresh, np.full((64, 5), 7.0, dtype=np.float32))
        os.replace(fresh, tmp_path / "scene" / f"view_{i}" / "feature.tns")
    for (_, _, _, features), want in zip(loaded, before):
        assert np.array_equal(features, want)
    assert np.all(scene.load_scene_dir(tmp_path / "scene")[0][3] == 7.0)


# ---------------------------------------------------------------------------
# gaussian PLY


def _valid_gaussians(m, seed=5):
    vals = uniform01(seed, m * 40)
    quat = vals[: 4 * m].reshape(m, 4) - 0.5
    quat[:, 0] += 2.0
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    return scene.Gaussians(
        centers=vals[4 * m : 7 * m].reshape(m, 3) * 4 - 2,
        opacities=0.05 + 0.9 * vals[7 * m : 8 * m],
        rotations=quat,
        scales=0.01 + vals[8 * m : 11 * m].reshape(m, 3),
        sh=vals[11 * m : 38 * m].reshape(m, 27) * 2 - 1,
    )


def test_ply_header_layout(tmp_path):
    g = _valid_gaussians(3)
    path = tmp_path / "g.ply"
    scene.write_gaussians_ply(path, g)
    blob = path.read_bytes()
    header, _, payload = blob.partition(b"end_header\n")
    lines = header.decode("ascii").splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format binary_little_endian 1.0"
    assert lines[2] == "element vertex 3"
    props = [l.split()[-1] for l in lines if l.startswith("property")]
    assert len(props) == 41
    assert props[:9] == ["x", "y", "z", "nx", "ny", "nz", "f_dc_0", "f_dc_1", "f_dc_2"]
    assert props[-8:] == [
        "opacity", "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3",
    ]
    assert all(l.split()[1] == "float" for l in lines if l.startswith("property"))
    assert len(payload) == 3 * 41 * 4


def test_ply_roundtrip_within_float32(tmp_path):
    g = _valid_gaussians(23)
    path = tmp_path / "g.ply"
    scene.write_gaussians_ply(path, g)
    g2 = scene.read_gaussians_ply(path)
    assert np.allclose(g2.centers, g.centers, atol=1e-6)
    assert np.allclose(g2.opacities, g.opacities, atol=1e-6)
    assert np.allclose(g2.rotations, g.rotations, atol=1e-6)
    assert np.allclose(g2.scales, g.scales, rtol=1e-5)
    assert np.allclose(g2.sh, g.sh, atol=1e-6)


def test_ply_roundtrip_of_zero_gaussians(tmp_path):
    g = _valid_gaussians(0)
    path = tmp_path / "g.ply"
    scene.write_gaussians_ply(path, g)
    assert path.read_bytes().endswith(b"end_header\n")
    g2 = scene.read_gaussians_ply(path)
    assert len(g2) == 0 and g2.sh.shape == (0, 27) and g2.rotations.shape == (0, 4)


def test_ply_opacity_stored_as_logit(tmp_path):
    g = _valid_gaussians(4)
    g = scene.Gaussians(
        g.centers, np.full(4, 0.75), g.rotations, np.ones((4, 3)), g.sh
    )
    path = tmp_path / "g.ply"
    scene.write_gaussians_ply(path, g)
    blob = path.read_bytes()
    payload = blob.partition(b"end_header\n")[2]
    rec = np.frombuffer(payload, dtype=np.dtype([(n, "<f4") for n in scene._PLY_FIELDS]))
    assert rec["opacity"][0] == pytest.approx(1.0986122886681098, rel=1e-6)
    assert np.all(rec["scale_0"] == 0.0)  # ln(1)
    assert np.all(rec["nx"] == 0.0) and np.all(rec["nz"] == 0.0)


def test_ply_read_maps_an_extreme_logit_to_zero_without_warning(tmp_path):
    g = _valid_gaussians(2)
    path = tmp_path / "g.ply"
    scene.write_gaussians_ply(path, g)
    header, tag, payload = path.read_bytes().partition(b"end_header\n")
    rows = np.frombuffer(payload, "<f4").reshape(2, len(scene._PLY_FIELDS)).copy()
    rows[0, scene._PLY_FIELDS.index("opacity")] = -1000.0
    path.write_bytes(header + tag + rows.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = scene.read_gaussians_ply(path)
    assert back.opacities[0] == 0.0
    assert back.opacities[1] == pytest.approx(g.opacities[1], abs=1e-6)


@pytest.mark.parametrize("field, value", [("x", np.nan), ("scale_1", 1e30)],
                         ids=["nan-center", "overflowing-log-scale"])
def test_ply_read_rejects_what_validate_would_without_warning(tmp_path, field, value):
    g = _valid_gaussians(3)
    path = tmp_path / "g.ply"
    scene.write_gaussians_ply(path, g)
    header, tag, payload = path.read_bytes().partition(b"end_header\n")
    rows = np.frombuffer(payload, "<f4").reshape(3, len(scene._PLY_FIELDS)).copy()
    rows[1, scene._PLY_FIELDS.index(field)] = value
    path.write_bytes(header + tag + rows.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="vertex 1") as err:
            scene.read_gaussians_ply(path)
    assert err.value.exit_code == 2
    assert err.value.offset == len(header + tag) + rows[0].nbytes


def test_ply_rejects_invalid_gaussians(tmp_path):
    g = _valid_gaussians(4)
    bad = scene.Gaussians(g.centers, g.opacities * 0.0, g.rotations, g.scales, g.sh)
    with pytest.raises(ValidationError, match="index 0"):
        scene.write_gaussians_ply(tmp_path / "bad.ply", bad)
    bad = scene.Gaussians(g.centers, g.opacities, g.rotations * 2.0, g.scales, g.sh)
    with pytest.raises(ValidationError, match="rotations"):
        scene.write_gaussians_ply(tmp_path / "bad.ply", bad)


def test_ply_read_rejects_foreign_layout(tmp_path):
    path = tmp_path / "x.ply"
    path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 0\nend_header\n")
    with pytest.raises(FormatError):
        scene.read_gaussians_ply(path)
    g = _valid_gaussians(2)
    good = tmp_path / "g.ply"
    scene.write_gaussians_ply(good, g)
    blob = good.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="bytes"):
        scene.read_gaussians_ply(path)


def test_ply_read_rejects_unnamed_property(tmp_path):
    good = tmp_path / "g.ply"
    scene.write_gaussians_ply(good, _valid_gaussians(2))
    blob = good.read_bytes().replace(b"property float opacity", b"property float")
    path = tmp_path / "x.ply"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="property float <name>") as info:
        scene.read_gaussians_ply(path)
    assert info.value.offset == blob.find(b"property float\n")


def test_ply_read_rejects_non_numeric_vertex_count(tmp_path):
    good = tmp_path / "g.ply"
    scene.write_gaussians_ply(good, _valid_gaussians(2))
    path = tmp_path / "x.ply"
    path.write_bytes(good.read_bytes().replace(b"element vertex 2", b"element vertex abc"))
    with pytest.raises(FormatError, match="vertex count"):
        scene.read_gaussians_ply(path)


# ---------------------------------------------------------------------------
# scene directories


def test_scene_dir_roundtrip(tmp_path):
    views = synthetic.generate_scene(
        {"resolution": [8, 8], "n_views": 3, "feature_width": 5}
    )
    scene.write_scene_dir(tmp_path / "scene", views)
    assert sorted(os.listdir(tmp_path / "scene")) == ["view_0", "view_1", "view_2"]
    # max_workers is accepted and ignored; the benchmark harness passes it
    loaded = scene.load_scene_dir(tmp_path / "scene", max_workers=1)
    assert len(loaded) == 3
    for (d1, c1, col1, f1), (d0, c0, col0, f0) in zip(loaded, views):
        assert np.array_equal(c1.cam_to_world, c0.cam_to_world)
        assert np.allclose(d1, d0, atol=1e-6)  # stored as float32
        assert np.allclose(col1, col0, atol=1e-6)
        assert np.array_equal(f1, f0)


def test_load_scene_dir_requires_views(tmp_path):
    os.makedirs(tmp_path / "empty")
    with pytest.raises(InputError):
        scene.load_scene_dir(tmp_path / "empty")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_loaded_views_hold_at_most_one_descriptor_each(tmp_path):
    n_views = 6
    views = synthetic.generate_scene({"resolution": [8, 8], "n_views": n_views})
    scene.write_scene_dir(tmp_path / "scene", views)

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    gc.collect()  # close what earlier tests left unreferenced before counting
    base = open_fds()
    loaded = scene.load_scene_dir(tmp_path / "scene")
    assert len(loaded) == n_views
    assert open_fds() - base <= n_views
    del loaded
    gc.collect()
    assert open_fds() == base


@pytest.mark.parametrize("old, new", [
    ("view_1", "view_x"), ("view_1", "view_2"), ("view_0", "view_00"),
], ids=["non-numeric", "gap", "leading-zero"])
def test_load_scene_dir_rejects_non_numeric_view_name(tmp_path, old, new):
    # a view's index is its position in the list, so view_<i> must say it
    views = synthetic.generate_scene({"resolution": [4, 4], "n_views": 2})
    scene.write_scene_dir(tmp_path / "scene", views)
    os.rename(tmp_path / "scene" / old, tmp_path / "scene" / new)
    with pytest.raises(InputError, match=f"{new} under"):
        scene.load_scene_dir(tmp_path / "scene")
