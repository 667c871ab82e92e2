"""Cameras, point-cloud assembly from posed depth maps, and file IO.

The on-disk formats are:

* tensor container: one JSON header line ``{"dtype": "f32", "shape": [...]}``
  followed by little-endian row-major payload bytes;
* camera JSON: pinhole intrinsics plus a 16-element row-major camera-to-world
  matrix;
* Gaussian PLY: binary little-endian with the 3DGS vertex layout (positions,
  zero normals, f_dc/f_rest SH coefficients, logit opacity, log scales,
  quaternion rotation), one float32 per property.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real

import numpy as np

from .errors import FormatError, InputError, ValidationError, ZsplatError
from .numerics import sigmoid

_FLOAT_MAX = sys.float_info.max

# ---------------------------------------------------------------------------
# JSON


def decode_json_object(data: bytes, what: str, error) -> dict:
    """Decode UTF-8 JSON ``data`` that must hold an object. Bytes that are
    not UTF-8 JSON, nesting past the recursion limit, an integer past the
    digit limit and a non-object each raise ``error(message)``."""
    try:
        value = json.loads(data.decode("utf-8"))
    # UnicodeDecodeError, JSONDecodeError and the digit limit are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise error(f"bad {what} JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object")
    return value


def read_json_object(path, what: str, error) -> dict:
    """:func:`decode_json_object` on a file's bytes, messages prefixed by its path."""
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_json_object(data, what, lambda message: error(f"{path}: {message}"))


def named(prefix: str, call, *args):
    """``call(*args)``; a ZsplatError it raises gains ``prefix: `` in front of
    its message and keeps its class, exit code and byte offset."""
    try:
        return call(*args)
    except ZsplatError as exc:
        exc.args = (f"{prefix}: {exc}",)
        raise


def check_fields(record: dict, rules: dict, error) -> None:
    """Raise ``error(message)`` for a key of ``record`` without a rule, or for the
    first field its rule rejects (a missing field is checked as None). A rule below
    returns a falsy value or the message to report; a None rule accepts anything."""
    if not record.keys() <= rules.keys():
        raise error(f"unknown keys: {sorted(record.keys() - rules.keys())}")
    for name, rule in rules.items():
        if rule and (problem := rule(name, record.get(name))):
            raise error(problem)


def number(low=None):
    """A finite number that is not a bool, above ``low`` when given."""
    def rule(name, value):
        # JSON's exact types first; abs() compares a huge int without overflow
        if not ((type(value) in (float, int) or not isinstance(value, bool)
                 and isinstance(value, Real)) and abs(value) <= _FLOAT_MAX):
            return f"{name} must be a finite number, got {value!r}"
        if low is not None and not value > low:
            return f"{name} must be > {low}, got {value!r}"
    return rule


def integer(low=None, high=None):
    """An integer that is not a bool, within [low, high] where given."""
    def rule(name, value):
        if not (type(value) is int or not isinstance(value, bool) and isinstance(value, Integral)):
            return f"{name} must be an integer, got {value!r}"
        if high is not None and not low <= value <= high:
            return f"{name} must be in [{low}, {high}], got {value!r}"
        if low is not None and value < low:
            return f"{name} must be >= {low}, got {value!r}"
    return rule


def one_of(*choices):
    """A string from ``choices``."""
    def rule(name, value):
        if not (isinstance(value, str) and value in choices):
            return f"unknown {name} {value!r}: expected {' or '.join(map(repr, choices))}"
    return rule


def list_of(rule, count=None):
    """A list (or tuple) of ``count`` items, any number when None, each under ``rule``."""
    def check(name, value):
        if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
            return f"{name} must be a list of {count or 'any number of'} items, got {value!r}"
        for i, item in enumerate(value):
            if rule(name, item):
                return rule(f"{name}[{i}]", item)
    return check


def optional(rule):
    """None, or a value under ``rule``."""
    return lambda name, value: value is not None and rule(name, value)


def worded(rule, message):
    """``rule`` reporting ``message.format(value)`` in place of its own message."""
    return lambda name, value: rule(name, value) and message.format(value)


# ---------------------------------------------------------------------------
# cameras

def _matrix(name, value):
    """A finite (4, 4) array, or camera.json's 16 row-major numbers under one type test."""
    if not (isinstance(value, np.ndarray) and value.shape == (4, 4) and np.isfinite(value).all()
            or isinstance(value, list) and len(value) == 16
            and all(type(v) in (float, int) and abs(v) <= _FLOAT_MAX for v in value)):
        return f"{name} must be a finite 4x4 array or a list of 16 finite numbers, got {value!r}"


_CAMERA_FIELDS = {"fx": number(0), "fy": number(0), "cx": number(), "cy": number(),
                  "cam_to_world": _matrix}
_LAST_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_LAST_ROW_TOL = 1e-9 + 1e-5 * np.abs(_LAST_ROW)
# a rotation written with 6 decimals keeps every entry of R^T R within ~3e-6 of I
_RIGID_TOL = 1e-5
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class Camera:
    """Pinhole camera with a rigid camera-to-world transform. The constructor
    checks that every field is finite, fx and fy > 0, the last row is [0, 0, 0, 1]
    and the rotation block R has R^T R within 1e-5 of I entrywise and det R > 0
    (a rotation, not a reflection)."""

    fx: float
    fy: float
    cx: float
    cy: float
    cam_to_world: np.ndarray  # (4, 4) float64

    def __post_init__(self):
        check_fields(vars(self), _CAMERA_FIELDS, InputError)
        m = np.asarray(self.cam_to_world, dtype=np.float64).reshape(4, 4)
        # np.allclose(m[3], _LAST_ROW, atol=1e-9) for a matrix already finite
        if not (np.abs(m[3] - _LAST_ROW) <= _LAST_ROW_TOL).all():
            raise InputError("cam_to_world last row must be [0, 0, 0, 1]")
        r = m[:3, :3]
        if not (np.abs(r.T @ r - _EYE3) <= _RIGID_TOL).all():
            raise InputError(f"cam_to_world rotation block must be orthonormal "
                             f"(R^T R within {_RIGID_TOL} of I), got {r.tolist()}")
        if np.linalg.det(r) <= 0:
            raise InputError(f"cam_to_world rotation block is mirrored (det R < 0), "
                             f"got {r.tolist()}")
        vars(self).update(fx=float(self.fx), fy=float(self.fy), cx=float(self.cx),
                          cy=float(self.cy), cam_to_world=m)

    @property
    def rotation(self) -> np.ndarray:
        return self.cam_to_world[:3, :3]

    @property
    def position(self) -> np.ndarray:
        return self.cam_to_world[:3, 3]

    def to_dict(self) -> dict:
        return dict(vars(self), cam_to_world=self.cam_to_world.ravel().tolist())

    @classmethod
    def from_dict(cls, data: dict) -> "Camera":
        try:  # a missing or unknown key is a TypeError
            return cls(**data)
        except (InputError, TypeError) as exc:
            raise FormatError(f"bad camera record: {exc}") from exc


def read_camera(path) -> Camera:
    with open(path, "rb") as fh:
        return Camera.from_dict(decode_json_object(fh.read(), "camera", FormatError))


def write_camera(path, camera: Camera) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(camera.to_dict(), fh, indent=2)
        fh.write("\n")


def unproject(depth: np.ndarray, camera: Camera) -> np.ndarray:
    """Lift an (H, W) depth map to world points, row-major pixel order.

    Depth is the camera-space z distance of the surface along each pixel ray
    ((u - cx)/fx, (v - cy)/fy, 1). Non-finite or negative depths, and points
    past float64 range, are rejected; zero depth is allowed and degenerates
    to the camera center.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise InputError(f"depth map must be 2-D, got shape {depth.shape}")
    if depth.size and depth.min() < 0:
        raise InputError("depth map contains negative values")
    h, w = depth.shape
    # pixel coordinates broadcast over the rows and columns of the map
    u = np.arange(w, dtype=np.float64)
    v = np.arange(h, dtype=np.float64)[:, None]
    z = depth
    with np.errstate(over="ignore", invalid="ignore"):
        x_cam = (u - camera.cx) / camera.fx * z
        y_cam = (v - camera.cy) / camera.fy * z
        pts_cam = np.stack([x_cam, y_cam, z], axis=-1).reshape(-1, 3)
        points = pts_cam @ camera.rotation.T + camera.position
    # one check for a non-finite depth and for an overflow (say, a tiny focal length)
    if not np.isfinite(points).all():
        raise InputError("depth map holds a non-finite value, or its points overflow float64")
    return points


def project(points: np.ndarray, camera: Camera) -> np.ndarray:
    """World points to (u, v, z_cam) pixel coordinates; inverse of unproject."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pts_cam = (points - camera.position) @ camera.rotation
    z = pts_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = pts_cam[:, 0] / z * camera.fx + camera.cx
        v = pts_cam[:, 1] / z * camera.fy + camera.cy
    return np.stack([u, v, z], axis=1)


# ---------------------------------------------------------------------------
# point representation


@dataclass(frozen=True)
class PointRepresentation:
    """Structure-of-arrays point set carried through the transformer.

    positions (M, 3) float64, features (M, C) float32, colors (M, 3) float64
    in [0, 1], view_of (M,) int32 source-view index; each array C-contiguous
    and the floating ones finite.

    The constructor checks all four arrays, and every point set computed
    anew, pooled points included, goes through it. :func:`assemble` checks
    the rows of each view as it reads them, and ``take`` and ``with_features``
    build on rows already checked: ``take`` checks nothing, ``with_features``
    only the new features it is given.
    """

    positions: np.ndarray
    features: np.ndarray
    colors: np.ndarray
    view_of: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        col = np.ascontiguousarray(self.colors, dtype=np.float64)
        view = np.ascontiguousarray(self.view_of, dtype=np.int32)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InputError(f"positions must be (M, 3), got {pos.shape}")
        m = pos.shape[0]
        feat = _checked_features(self.features, m)
        if col.shape != (m, 3):
            raise InputError(f"colors must be (M, 3), got {col.shape}")
        if view.shape != (m,):
            raise InputError(f"view_of must be (M,), got {view.shape}")
        for name, arr in (("positions", pos), ("colors", col)):
            _check_finite(name, arr)
        self._set(pos, feat, col, view)

    def _set(self, positions, features, colors, view_of) -> None:
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "view_of", view_of)

    @classmethod
    def _unchecked(cls, positions, features, colors, view_of) -> "PointRepresentation":
        """An instance over arrays already in checked form, or over features
        whose one reader's output is checked (the inference block's)."""
        rep = cls.__new__(cls)
        rep._set(positions, features, colors, view_of)
        return rep

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def feature_width(self) -> int:
        return self.features.shape[1]

    def take(self, index: np.ndarray) -> "PointRepresentation":
        """Reindex every array with the same permutation / selection, a 1-D
        array of indices or a boolean mask. The rows come from checked arrays,
        so nothing is checked again."""
        index = np.asarray(index)
        if index.ndim != 1:
            raise InputError(f"take needs a 1-D index, got shape {index.shape}")
        return self._unchecked(self.positions[index], self.features[index],
                               self.colors[index], self.view_of[index])

    def with_features(self, features: np.ndarray) -> "PointRepresentation":
        """The same points with new ``features``; only they are checked."""
        return self._unchecked(self.positions, _checked_features(features, len(self)),
                               self.colors, self.view_of)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contain non-finite values")


def _checked_features(features, m: int) -> np.ndarray:
    feat = np.ascontiguousarray(features)
    if feat.ndim != 2 or feat.shape[0] != m:
        raise InputError(f"features must be (M, C), got {feat.shape} for M={m}")
    _check_finite("features", feat)
    return feat


def view_points(views) -> list:
    """Each (depth, Camera, ...) view's :func:`unproject` points; an error
    names its view by its position in ``views``."""
    return [named(f"view {i}", unproject, depth, camera)
            for i, (depth, camera, _, _) in enumerate(views)]


def _open_payload(data, files: ExitStack, view: str):
    """A per-pixel payload given as an array, or as the path of its tensor
    container: (name, shape, fill), where ``name`` is the path, else ``view``,
    and ``fill(rows)`` copies the payload into ``rows``, which hold as many
    elements. A path is opened on ``files`` and its header checked here;
    ``fill`` reads its payload. An error names the file."""
    if not isinstance(data, str):
        data = np.asarray(data)
        return view, data.shape, lambda rows: np.copyto(rows, data.reshape(rows.shape), "unsafe")
    fh = files.enter_context(open(data, "rb"))
    dtype, shape, start = named(data, _read_header, fh)
    return data, tuple(shape), lambda rows: named(data, _read_payload, fh, rows, dtype, start)


def assemble(views) -> PointRepresentation:
    """Concatenate per-view unprojections into one representation.

    ``views`` is a sequence of (depth (H, W), Camera, colors, features)
    tuples. Both payloads lead with the depth map's (H, W), or with (H*W,),
    and end in their width: 3 for colors, C for features, which must agree
    across views. Either may be the path of its tensor container, read here
    straight into the rows of the concatenated arrays, which are allocated
    once. view_of records each point's position in the input sequence. A
    payload of another shape, a colour outside [0, 1] (NaN included) or a
    non-finite feature is an InputError that names its file, or its view for
    an array.
    """
    if len(views) == 0:
        raise InputError("assemble needs at least one view")
    parts_pos = view_points(views)
    sizes = [pts.shape[0] for pts in parts_pos]
    all_colors = np.empty((sum(sizes), 3), np.float64)
    all_features = None
    end = 0
    for i, ((depth, _, colors, features), m) in enumerate(zip(views, sizes)):
        if m == 0:
            raise InputError(f"view {i}: depth map {np.shape(depth)} has no pixels")
        rows = slice(end, end + m)
        end += m
        # a payload value past its array's range narrows to inf, rejected below
        with ExitStack() as files, np.errstate(over="ignore"):
            color_name, colors_shape, fill_colors = _open_payload(colors, files, f"view {i}")
            feature_name, shape, fill_features = _open_payload(features, files, f"view {i}")
            pixels = (np.shape(depth), (m,))
            if colors_shape[:-1] not in pixels or colors_shape[-1:] != (3,):
                raise InputError(f"{color_name}: colors {colors_shape} are not (H, W, 3) "
                                 f"or (H*W, 3) for the {np.shape(depth)} depth map")
            if shape[:-1] not in pixels:
                raise InputError(f"{feature_name}: features {shape} are not (H, W, C) "
                                 f"or (H*W, C) for the {np.shape(depth)} depth map")
            fill_colors(all_colors[rows])
            # a NaN fails both comparisons
            if not (all_colors[rows].min() >= 0.0 and all_colors[rows].max() <= 1.0):
                raise InputError(f"{color_name}: colors must lie in [0, 1]")
            if all_features is None:
                all_features = np.empty((len(all_colors), shape[-1]), np.float32)
            elif shape[-1] != all_features.shape[1]:
                raise InputError(
                    f"view {i}: feature width {shape[-1]} != {all_features.shape[1]} of view 0"
                )
            fill_features(all_features[rows])
            named(feature_name, _check_finite, "features", all_features[rows])
    view_of = np.repeat(np.arange(len(views), dtype=np.int32), sizes)
    # unproject checked the positions and the loop every colour and feature
    return PointRepresentation._unchecked(np.concatenate(parts_pos), all_features,
                                          all_colors, view_of)


# ---------------------------------------------------------------------------
# Gaussians


@dataclass(frozen=True)
class Gaussians:
    """Predicted primitives: centers (M, 3), opacities (M,) in (0, 1),
    unit quaternions (M, 4), positive scales (M, 3), SH coefficients (M, 27)."""

    centers: np.ndarray
    opacities: np.ndarray
    rotations: np.ndarray
    scales: np.ndarray
    sh: np.ndarray

    def __len__(self) -> int:
        return self.centers.shape[0]

    def validate(self) -> None:
        """Raise ValidationError naming the first offending primitive."""
        m = len(self)
        checks = [
            ("centers", self.centers, (m, 3)),
            ("opacities", self.opacities, (m,)),
            ("rotations", self.rotations, (m, 4)),
            ("scales", self.scales, (m, 3)),
            ("sh", self.sh, (m, 27)),
        ]
        for name, arr, shape in checks:
            if arr.shape != shape:
                raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
            bad = ~np.isfinite(arr).reshape(m, math.prod(shape[1:])).all(axis=1)
            if bad.any():
                raise ValidationError(f"{name}: non-finite at index {int(bad.argmax())}")
        bad = (self.opacities <= 0.0) | (self.opacities >= 1.0)
        if bad.any():
            i = int(bad.argmax())
            raise ValidationError(
                f"opacities: value {self.opacities[i]} at index {i} not in (0, 1)"
            )
        norms = np.linalg.norm(self.rotations, axis=1)
        bad = np.abs(norms - 1.0) > 1e-6
        if bad.any():
            i = int(bad.argmax())
            raise ValidationError(f"rotations: norm {norms[i]} at index {i} != 1")
        bad = (self.scales <= 0.0).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise ValidationError(f"scales: non-positive entry at index {i}")


# ---------------------------------------------------------------------------
# tensor container


_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_HEADER_LIMIT = 65536  # the header line, newline included, fits in this
_HEADER_FIELDS = {"dtype": worded(one_of(*_DTYPES), "unsupported dtype {!r}"),
                  "shape": worded(list_of(integer(0)), "bad shape {!r}")}


def write_tensor(path, array: np.ndarray) -> None:
    """Write a float32/float64 array: JSON header line, then raw payload."""
    array = np.asarray(array)
    name = _DTYPE_NAMES.get(array.dtype)
    if name is None:
        raise InputError(f"container supports float32/float64, got {array.dtype}")
    header = json.dumps(
        {"dtype": name, "shape": list(array.shape)}, separators=(", ", ": ")
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(array, dtype=_DTYPES[name]).tobytes())


def _read_header(fh):
    """Check a tensor container's header against the file's size.

    Returns (dtype, shape, payload offset) and leaves ``fh`` at the payload;
    FormatError carries the failing byte offset.
    """
    size = os.fstat(fh.fileno()).st_size
    line = fh.readline(_HEADER_LIMIT)
    if not line.endswith(b"\n"):
        raise FormatError("missing header newline", offset=min(size, _HEADER_LIMIT))
    error = partial(FormatError, offset=0)
    header = decode_json_object(line[:-1], "header", error)
    check_fields(header, _HEADER_FIELDS, error)
    dtype, shape = _DTYPES[header["dtype"]], header["shape"]
    # numpy's limits, which only a zero-size shape can break and match its payload
    if len(shape) > 32 or 0 in shape and (
            math.prod(filter(None, shape)) * dtype.itemsize > sys.maxsize):
        raise error(f"bad shape {shape!r}")
    # python ints: an int64 product of huge dimensions can wrap to 0
    _check_payload(size - len(line), math.prod(shape) * dtype.itemsize, len(line))
    return dtype, shape, len(line)


def _check_payload(have: int, expected: int, start: int) -> None:
    if have != expected:
        raise FormatError(
            f"payload holds {have} bytes, header implies {expected}",
            offset=start + min(have, expected),
        )


def read_tensor(path) -> np.ndarray:
    """Read a tensor container into a new array that owns its data;
    FormatError carries the failing byte offset."""
    with open(path, "rb") as fh:
        dtype, shape, start = _read_header(fh)
        array = np.empty(shape, dtype)
        _read_payload(fh, array, dtype, start)
    return array


def _read_payload(fh, rows: np.ndarray, dtype, start: int) -> None:
    """Read the payload at ``fh``, ``dtype`` from byte ``start``, into
    ``rows``, which hold as many elements as its header: straight in when
    ``rows`` has the file's dtype, else through one array of it."""
    buf = rows if rows.dtype == dtype else np.empty(rows.shape, dtype)
    # a file shortened since the size check reads short
    _check_payload(fh.readinto(buf), buf.nbytes, start)
    if buf is not rows:
        rows[...] = buf


# ---------------------------------------------------------------------------
# scene directories (view_<i>/{depth.tns, camera.json, color.tns, feature.tns})


def refuse_stale(path, names, prefix: str, suffix: str = "") -> None:
    """Raise InputError when directory ``path`` holds an entry named
    ``prefix``...``suffix`` that is not one of ``names``, the entries a
    command is about to write there: an earlier, larger run's output would
    stay beside the new one and be read with it. Nothing is deleted, and a
    missing directory holds nothing stale."""
    if not os.path.isdir(path):
        return
    stale = sorted(d for d in os.listdir(path)
                   if d.startswith(prefix) and d.endswith(suffix) and d not in names)
    if stale:
        raise InputError(f"{', '.join(stale)} under {path} would not be overwritten "
                         f"by this run; remove or write elsewhere")


def write_scene_dir(path, views) -> None:
    """Write (depth, Camera, colors, features) tuples as a scene directory,
    refusing one that holds another ``view_`` entry (see ``refuse_stale``)."""
    refuse_stale(path, {f"view_{i}" for i in range(len(views))}, "view_")
    os.makedirs(path, exist_ok=True)
    for i, (depth, camera, colors, features) in enumerate(views):
        vdir = os.path.join(path, f"view_{i}")
        os.makedirs(vdir, exist_ok=True)
        write_tensor(os.path.join(vdir, "depth.tns"), np.asarray(depth, np.float32))
        write_camera(os.path.join(vdir, "camera.json"), camera)
        write_tensor(os.path.join(vdir, "color.tns"), np.asarray(colors, np.float32))
        write_tensor(os.path.join(vdir, "feature.tns"), np.asarray(features, np.float32))


def _checked_tensor_path(path) -> str:
    """``path`` once its tensor header agrees with the file's size."""
    with open(path, "rb") as fh:
        _read_header(fh)
    return path


_VIEW_FILES = (("depth.tns", read_tensor), ("camera.json", read_camera),
               ("color.tns", _checked_tensor_path), ("feature.tns", _checked_tensor_path))


def load_view_dir(vdir):
    """Read depth and camera; check the colour and feature headers and return
    their files' paths, since the payloads are most of a view's bytes and a
    request reads them only for the views it assembles. An error names its file."""
    view = []
    for name, read in _VIEW_FILES:
        path = os.path.join(vdir, name)
        view.append(named(path, read, path))
    return tuple(view)


def load_scene_dir(path, max_workers: int = 1):
    """Load the ``view_0`` ... ``view_{n-1}`` subdirectories in index order, on
    the calling thread, as :func:`load_view_dir` tuples; no file stays open.
    A view's index is its position in the returned list, so any other
    ``view_`` name (a gap, a leading zero) is rejected.

    ``max_workers`` is accepted and ignored, for callers that still pass it.
    """
    found = {d for d in os.listdir(path) if d.startswith("view_")}
    if not found:
        raise InputError(f"no view_<i> directories under {path}")
    names = [f"view_{i}" for i in range(len(found))]
    if found != set(names):
        stray = ", ".join(sorted(found.difference(names)))
        raise InputError(f"{stray} under {path}: {len(found)} views must be named "
                         f"view_0 ... view_{len(found) - 1}")
    return [load_view_dir(os.path.join(path, d)) for d in names]


# ---------------------------------------------------------------------------
# Gaussian PLY


_PLY_FIELDS = (
    ["x", "y", "z", "nx", "ny", "nz"]
    + [f"f_dc_{i}" for i in range(3)]
    + [f"f_rest_{i}" for i in range(24)]
    + ["opacity"]
    + [f"scale_{i}" for i in range(3)]
    + [f"rot_{i}" for i in range(4)]
)
# first column of the normals, SH, opacity, scales and rotations
_PLY_SPLITS = [3, 6, 33, 34, 37]
_MAX_LOG_SCALE = np.log(np.finfo(np.float64).max)


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _unreadable_vertices(rows: np.ndarray) -> np.ndarray:
    """Indices of float32 vertex rows :func:`read_gaussians_ply` refuses: one
    holding a non-finite value, or a log-scale whose exp overflows float64."""
    log_scales = rows[:, _PLY_SPLITS[3]:_PLY_SPLITS[4]]
    return np.flatnonzero(~np.isfinite(rows).all(axis=1)
                          | (log_scales > _MAX_LOG_SCALE).any(axis=1))


_PLY_BEFORE_COUNT = b"ply\nformat binary_little_endian 1.0\nelement vertex "
_PLY_PROPERTIES = "".join(f"property float {name}\n" for name in _PLY_FIELDS).encode("ascii")


def _ply_header(count: int) -> bytes:
    """The header :func:`write_gaussians_ply` writes for ``count`` vertices,
    the only one :func:`read_gaussians_ply` accepts."""
    return b"%s%d\n%send_header\n" % (_PLY_BEFORE_COUNT, count, _PLY_PROPERTIES)


def write_gaussians_ply(path, gaussians: Gaussians) -> None:
    """Write primitives in the 3DGS binary vertex layout.

    Opacity is stored as its logit and scales as their logs, so a renderer
    applying sigmoid/exp recovers the constructor values. f_dc holds the
    first SH coefficient per channel, f_rest the remaining 24 channel-major.
    """
    gaussians.validate()
    m = len(gaussians)
    with np.errstate(over="ignore"):  # a value past float32 range casts to inf
        rows = np.concatenate(
            [
                gaussians.centers,
                np.zeros((m, 3)),
                gaussians.sh,
                _logit(gaussians.opacities)[:, None],
                np.log(gaussians.scales),
                gaussians.rotations,
            ],
            axis=1,
            dtype="<f4",
        )
    bad = _unreadable_vertices(rows)
    if bad.size:
        raise ValidationError(f"vertex {bad[0]} overflows its float32 record")
    with open(path, "wb") as fh:
        fh.write(_ply_header(m))
        fh.write(rows.tobytes())


def read_gaussians_ply(path) -> Gaussians:
    """Read a PLY in exactly the layout :func:`write_gaussians_ply` writes,
    undoing the opacity/scale transforms. Any other header line, a comment
    included, is a FormatError at that line's byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # the vertex count is the header's one variable field; no file holds
    # 10**18 vertices, so 19 bytes show whether it is a count
    i = len(_PLY_BEFORE_COUNT)
    text = blob[i:i + 19].partition(b"\n")[0]
    known = blob.startswith(_PLY_BEFORE_COUNT) and text.isdigit() and len(text) <= 18
    header = _ply_header(int(text) if known else 0)
    if not blob.startswith(header):
        # some line differs, the count line at the latest when it is not known
        at = 0
        for want in header.splitlines(keepends=True):
            got = blob[at:blob.find(b"\n", at) + 1 or len(blob)]
            if got != want:
                what = "the vertex count line" if want.startswith(b"element") else repr(want)
                raise FormatError(f"header differs from the Gaussian layout: expected "
                                  f"{what}, got {got[:80]!r}", offset=at)
            at += len(got)
    count = int(text)
    start = len(header)
    payload = blob[start:]
    _check_payload(len(payload), count * 4 * len(_PLY_FIELDS), start)
    rows = np.frombuffer(payload, dtype="<f4").reshape(count, len(_PLY_FIELDS))
    bad = _unreadable_vertices(rows)
    if bad.size:
        raise FormatError(f"vertex {bad[0]} holds a non-finite value or an overflowing scale",
                          offset=start + rows.strides[0] * int(bad[0]))
    centers, _, sh, opacity, log_scales, rotations = np.split(
        rows.astype(np.float64), _PLY_SPLITS, axis=1
    )
    return Gaussians(centers, sigmoid(opacity[:, 0]), rotations, np.exp(log_scales), sh)
