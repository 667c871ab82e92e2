"""Synthetic posed-RGBD scenes with analytically known geometry.

Two families: a fronto-parallel plane (constant depth per view) and a sphere
in front of a far wall (per-pixel ray-sphere intersection). Colors are a
deterministic coordinate ramp with a checker channel; per-view features are
drawn from the seeded generator, so scenes are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .numerics import derive_seed, uniform01
from .scene import Camera, check_fields, integer, list_of, number, one_of, optional

# each key's default and the rule its value must meet
_FIELDS = {
    "kind": ("plane", one_of("plane", "sphere")),
    "resolution": ([64, 64], list_of(integer(1), 2)),
    "n_views": (2, integer(1)),
    "feature_width": (96, integer(1)),
    "seed": (0, integer()),
    "focal": (None, optional(number(0))),  # defaults to image width
    "distance": (4.0, number(0)),
    "spread": (0.25, number()),
    "plane_z": (0.0, number()),
    "sphere_center": ([0.0, 0.0, 0.0], list_of(number(), 3)),
    "sphere_radius": (1.0, number()),
    "background": (None, optional(number(0))),  # defaults to 2 * distance
}
_DEFAULTS = {key: default for key, (default, _) in _FIELDS.items()}
_RULES = {key: rule for key, (_, rule) in _FIELDS.items()}


def scene_config(overrides: dict | None = None) -> dict:
    """Defaults merged with overrides; unknown keys and values of the wrong
    type or range are rejected."""
    if overrides is not None and not isinstance(overrides, dict):
        raise ConfigError(f"scene config must be a JSON object, got {overrides!r}")
    cfg = {**_DEFAULTS, **(overrides or {})}
    check_fields(cfg, _RULES, ConfigError)
    # checked lists hold only numbers: a shallow copy leaves the caller its own
    cfg = {k: list(v) if isinstance(v, list) else v for k, v in cfg.items()}
    h, w = cfg["resolution"]
    if cfg["focal"] is None:
        cfg["focal"] = float(w)
    if cfg["background"] is None:
        cfg["background"] = 2.0 * float(cfg["distance"])
    return cfg


def _colors(h: int, w: int) -> np.ndarray:
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    red = u / max(w - 1, 1)
    green = v / max(h - 1, 1)
    blue = ((u // 8 + v // 8) % 2) * 0.75 + 0.125
    return np.stack([red, green, blue], axis=-1)


def _features(h: int, w: int, width: int, seed: int, view: int) -> np.ndarray:
    vals = uniform01(derive_seed(seed, f"view{view}/features"), h * w * width)
    return (2.0 * vals - 1.0).astype(np.float32).reshape(h * w, width)


def _look_at(eye, target) -> np.ndarray:
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, 1.0, 0.0])
    if abs(fwd @ up) > 0.999:
        up = np.array([1.0, 0.0, 0.0])
    right = np.cross(up, fwd)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    mat = np.eye(4)
    mat[:3, 0] = right
    mat[:3, 1] = down
    mat[:3, 2] = fwd
    mat[:3, 3] = eye
    return mat


def _plane_views(cfg: dict):
    h, w = cfg["resolution"]
    focal = float(cfg["focal"])
    dist = float(cfg["distance"])
    views = []
    for i in range(cfg["n_views"]):
        off = float(cfg["spread"]) * (i - (cfg["n_views"] - 1) / 2.0)
        mat = np.eye(4)
        mat[:3, 3] = [off, 0.0, float(cfg["plane_z"]) - dist]
        cam = Camera(focal, focal, (w - 1) / 2.0, (h - 1) / 2.0, mat)
        depth = np.full((h, w), dist, dtype=np.float64)
        views.append((depth, cam, _colors(h, w), _features(h, w, cfg["feature_width"], cfg["seed"], i)))
    return views


def _sphere_views(cfg: dict):
    h, w = cfg["resolution"]
    focal = float(cfg["focal"])
    dist = float(cfg["distance"])
    center = np.asarray(cfg["sphere_center"], dtype=np.float64)
    radius = float(cfg["sphere_radius"])
    background = float(cfg["background"])
    views = []
    for i in range(cfg["n_views"]):
        angle = 2.0 * np.pi * i / max(cfg["n_views"], 1)
        eye = center + dist * np.array([np.sin(angle), 0.0, -np.cos(angle)])
        mat = _look_at(eye, center)
        cam = Camera(focal, focal, (w - 1) / 2.0, (h - 1) / 2.0, mat)
        v, u = np.mgrid[0:h, 0:w].astype(np.float64)
        dirs = np.stack(
            [(u - cam.cx) / focal, (v - cam.cy) / focal, np.ones_like(u)], axis=-1
        ).reshape(-1, 3)
        dirs_w = dirs @ cam.rotation.T
        oc = eye - center
        a = np.einsum("ij,ij->i", dirs_w, dirs_w)
        b = 2.0 * dirs_w @ oc
        c = oc @ oc - radius * radius
        disc = b * b - 4.0 * a * c
        hit = disc >= 0.0
        t = np.full(dirs.shape[0], background)
        if hit.any():
            root = (-b[hit] - np.sqrt(disc[hit])) / (2.0 * a[hit])
            good = root > 1e-9
            idx = np.flatnonzero(hit)[good]
            t[idx] = root[good]
        depth = t.reshape(h, w)
        views.append((depth, cam, _colors(h, w), _features(h, w, cfg["feature_width"], cfg["seed"], i)))
    return views


def generate_scene(overrides: dict | None = None):
    """Build the configured views as (depth, Camera, colors, features) tuples."""
    cfg = scene_config(overrides)
    if cfg["kind"] == "plane":
        return _plane_views(cfg)
    return _sphere_views(cfg)
