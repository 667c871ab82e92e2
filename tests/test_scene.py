import json
import os

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


def test_ply_read_rejects_non_numeric_vertex_count(tmp_path):
    good = tmp_path / "g.ply"
    scene.write_gaussians_ply(good, _valid_gaussians(2))
    path = tmp_path / "x.ply"
    path.write_bytes(good.read_bytes().replace(b"element vertex 2", b"element vertex abc"))
    with pytest.raises(FormatError, match="vertex count"):
        scene.read_gaussians_ply(path)


# ---------------------------------------------------------------------------
# scene directories


def test_scene_dir_roundtrip_and_threaded_load(tmp_path):
    views = synthetic.generate_scene(
        {"resolution": [8, 8], "n_views": 3, "feature_width": 5}
    )
    scene.write_scene_dir(tmp_path / "scene", views)
    assert sorted(os.listdir(tmp_path / "scene")) == ["view_0", "view_1", "view_2"]
    loaded1 = scene.load_scene_dir(tmp_path / "scene", max_workers=1)
    loaded4 = scene.load_scene_dir(tmp_path / "scene", max_workers=4)
    assert len(loaded1) == 3
    for (d1, c1, col1, f1), (d4, c4, col4, f4), (d0, c0, col0, f0) in zip(
        loaded1, loaded4, views
    ):
        assert np.array_equal(d1, d4)
        assert np.array_equal(col1, col4)
        assert np.array_equal(f1, f4)
        assert np.array_equal(c1.cam_to_world, c0.cam_to_world)
        assert np.allclose(d1, d0, atol=1e-6)  # stored as float32
    rep1 = scene.assemble(loaded1)
    rep4 = scene.assemble(loaded4)
    assert np.array_equal(rep1.features, rep4.features)
    assert np.array_equal(rep1.positions, rep4.positions)


def test_load_scene_dir_requires_views(tmp_path):
    os.makedirs(tmp_path / "empty")
    with pytest.raises(InputError):
        scene.load_scene_dir(tmp_path / "empty")


def test_load_scene_dir_rejects_non_numeric_view_name(tmp_path):
    views = synthetic.generate_scene({"resolution": [4, 4], "n_views": 1})
    scene.write_scene_dir(tmp_path / "scene", views)
    os.makedirs(tmp_path / "scene" / "view_x")
    with pytest.raises(InputError, match="view_x"):
        scene.load_scene_dir(tmp_path / "scene")
