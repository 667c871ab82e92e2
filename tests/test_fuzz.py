"""Hostile-input fuzzing of every reader: only ``ZsplatError`` may escape.

Each target starts from a valid file or record and applies mutations: byte
flips, truncation, JSON tokens (``true``, ``[``, ``1e999``, long digit runs)
spliced into headers, field values swapped for arbitrary JSON, and scenes
whose views mix resolutions and feature widths. Any other exception, or any
warning raised in package code (an error under the project's warning filter),
fails the test. Examples are derandomized with a fixed budget, so
the suite is reproducible.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zsplat import scene
from zsplat.config import RunConfig
from zsplat.errors import ZsplatError
from zsplat.pipeline import init_model, load_checkpoint, save_checkpoint
from zsplat.synthetic import _RULES as SCENE_FIELDS
from zsplat.synthetic import scene_config

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

TOKENS = [b"true", b"false", b"null", b"[", b"]", b"{", b"}", b",", b'"', b"1e999",
          b"-1", b"0", b"NaN", b"-Infinity", b'"f32"', b"1" * 400, b"9" * 5000]

# names a manifest may not give its layer files
FILE_NAMES = st.sampled_from(["", ".", "..", "/dev/zero", "../ckpt/x.tns", "sub/x.tns", "a\0b"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
    | st.floats() | st.sampled_from(["", "f32", "1.5"]),
    lambda inner: st.lists(inner, max_size=17) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=20,
)


@st.composite
def mutated(draw, blob: bytes, head: int | None = None):
    """``blob`` after one to three mutations; splices land in ``blob[:head]``."""
    head = len(blob) if head is None else head
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "splice", "replace"]))
        if kind == "flip" and blob:
            i = draw(st.integers(0, len(blob) - 1))
            blob = blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
        elif kind == "truncate" and blob:
            blob = blob[:draw(st.integers(0, len(blob) - 1))]
        else:
            i = draw(st.integers(0, min(head, len(blob))))
            j = i if kind == "splice" else draw(st.integers(i, min(head, len(blob))))
            blob = blob[:i] + draw(st.sampled_from(TOKENS)) + blob[j:]
    return blob


@st.composite
def reworded(draw, record: dict):
    """JSON text of ``record`` with one or two fields, or a new key, set to any JSON."""
    record = dict(record)
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(sorted(record) + ["bogus"]))
        record[key] = draw(JSON_VALUES)
    return json.dumps(record).encode()


def _only_zsplat_errors(call, *args):
    try:
        return call(*args)
    except ZsplatError:
        return None


# ---------------------------------------------------------------------------
# JSON decoder, tensor containers and PLY


def _tensor_blob(array) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tns")
        scene.write_tensor(path, array)
        with open(path, "rb") as fh:
            return fh.read()


TENSORS = [_tensor_blob(np.arange(6, dtype=np.float32).reshape(2, 3)),
           _tensor_blob(np.zeros((0, 3))), _tensor_blob(np.float64(2.5))]
HEADERS = [{"dtype": "f32", "shape": [2, 3]}, {"dtype": "f64", "shape": [0, 3]}]


def _tensor_inputs():
    spliced = st.sampled_from(TENSORS).flatmap(lambda b: mutated(b, b.index(b"\n")))
    fielded = st.sampled_from(HEADERS).flatmap(reworded).map(lambda h: h + b"\n" + b"\0" * 24)
    # zero-size shapes whose other dimensions, or whose count, numpy cannot hold
    shaped = st.lists(st.sampled_from([0, 1, 3, 2**40, 2**63, 10**30]), max_size=70).map(
        lambda shape: json.dumps({"dtype": "f32", "shape": shape}).encode() + b"\n")
    return spliced | fielded | shaped


@FUZZ
@given(data=st.sampled_from([b'{"a": [1, 2.5, "x"], "b": {"c": null}}'])
       .flatmap(mutated))
def test_json_decoder_raises_only_the_callers_error(data):
    value = _only_zsplat_errors(scene.decode_json_object, data, "thing", ZsplatError)
    assert value is None or isinstance(value, dict)


@FUZZ
@given(blob=_tensor_inputs())
def test_tensor_reader_raises_only_format_errors(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tns")
        with open(path, "wb") as fh:
            fh.write(blob)
        array = _only_zsplat_errors(scene.read_tensor, path)
        assert array is None or isinstance(array, np.ndarray)


def _ply_blob() -> bytes:
    g = scene.Gaussians(
        np.arange(6.0).reshape(2, 3), np.array([0.25, 0.75]),
        np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), np.full((2, 3), 0.5), np.zeros((2, 27)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.ply")
        scene.write_gaussians_ply(path, g)
        with open(path, "rb") as fh:
            return fh.read()


PLY = _ply_blob()


@FUZZ
@given(blob=mutated(PLY, PLY.index(b"end_header"))
       | st.sampled_from(TOKENS).map(lambda t: PLY.replace(b"vertex 2", b"vertex " + t))
       | mutated(PLY))
def test_ply_reader_raises_only_format_errors(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.ply")
        with open(path, "wb") as fh:
            fh.write(blob)
        g = _only_zsplat_errors(scene.read_gaussians_ply, path)
    assert g is None or np.isfinite(g.centers).all() and np.isfinite(g.scales).all()


# ---------------------------------------------------------------------------
# scene directories


def _view(h, w, width, i):
    mat = np.eye(4)
    mat[:3, 3] = [0.1 * i, 0.0, -2.0]
    cam = scene.Camera(float(w), float(w), (w - 1) / 2, (h - 1) / 2, mat)
    colors = np.full((h, w, 3), 0.5)
    return np.full((h, w), 2.0), cam, colors, np.ones((h * w, width), np.float32)


VIEW_FILES = ["depth.tns", "camera.json", "color.tns", "feature.tns"]


@st.composite
def scene_cases(draw):
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.sampled_from([3, 4])),
                           min_size=1, max_size=3))
    target = draw(st.integers(0, len(shapes) - 1)), draw(st.sampled_from(VIEW_FILES + [None]))
    return shapes, target, draw(st.data())


@FUZZ
@given(case=scene_cases())
def test_scene_loading_and_assembly_raise_only_zsplat_errors(case):
    shapes, (view, name), data = case
    with tempfile.TemporaryDirectory() as tmp:
        scene.write_scene_dir(tmp, [_view(h, w, c, i) for i, (h, w, c) in enumerate(shapes)])
        if name is not None:
            path = os.path.join(tmp, f"view_{view}", name)
            with open(path, "rb") as fh:
                blob = fh.read()
            if name == "camera.json":
                blob = data.draw(mutated(blob) | reworded(json.loads(blob)))
            else:
                blob = data.draw(mutated(blob, blob.index(b"\n")))
            with open(path, "wb") as fh:
                fh.write(blob)
        rep = _only_zsplat_errors(lambda: scene.assemble(scene.load_scene_dir(tmp)))
        if name is None and len({c for _, _, c in shapes}) == 1:
            assert rep is not None and len(rep) == sum(h * w for h, w, _ in shapes)
        del rep


# ---------------------------------------------------------------------------
# configs and checkpoints


def _records(keys):
    return st.dictionaries(st.sampled_from(sorted(keys) + ["bogus"]), JSON_VALUES, max_size=4)


@FUZZ
@given(record=_records(SCENE_FIELDS))
def test_scene_config_raises_only_config_errors(record):
    _only_zsplat_errors(scene_config, record)


@FUZZ
@given(record=_records(RunConfig.FIELDS))
def test_run_config_raises_only_config_errors(record):
    _only_zsplat_errors(RunConfig.from_dict, record)


CKPT_CFG = RunConfig(model_width=8, head_width=4, head_hidden=8, n_blocks=1,
                     pool_levels=1, serialize_depth=4)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ckpt"
    save_checkpoint(init_model(CKPT_CFG), path)
    return str(path)


@FUZZ
@given(data=st.data())
def test_checkpoint_loading_raises_only_zsplat_errors(checkpoint, data):
    # the manifest half of the time, else one of the tensor files it names
    name = data.draw(st.just("manifest.json") | st.sampled_from(sorted(os.listdir(checkpoint))))
    with open(os.path.join(checkpoint, name), "rb") as fh:
        blob = fh.read()
    if name == "manifest.json":
        manifest = json.loads(blob)
        entry = manifest["params"][data.draw(st.sampled_from(sorted(manifest["params"])))]
        key = data.draw(st.sampled_from(["weight", "bias", "seed", "bogus"]))
        entry[key] = data.draw(FILE_NAMES | JSON_VALUES)
        # then maybe a top-level field, or a new top-level key
        top = data.draw(st.sampled_from([None, "format", "version", "params", "bogus"]))
        if top is not None:
            manifest[top] = data.draw(JSON_VALUES)
        blob = data.draw(st.just(json.dumps(manifest).encode()) | mutated(blob))
    else:
        blob = data.draw(mutated(blob, blob.index(b"\n")))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = shutil.copytree(checkpoint, os.path.join(tmp, "ckpt"))
        with open(os.path.join(ckpt, name), "wb") as fh:
            fh.write(blob)
        _only_zsplat_errors(load_checkpoint, ckpt, CKPT_CFG)
