"""Run configuration: the block shape (``zformer.AttentionConfig``, whose
fields, defaults and range checks it inherits) plus model depth, serialization
depth and quantizer overrides. Read from one flat JSON object; unknown keys
are rejected rather than ignored so config typos fail loudly."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

from .errors import ConfigError
from .morton import MAX_DEPTH
from .zformer import AttentionConfig

# accepted value types per field annotation
_FIELD_TYPES = {
    "int": (Integral, "an integer"),
    "str": (str, "a string"),
    "float | None": ((Real, type(None)), "a finite number or null"),
    "tuple | None": ((tuple, list, type(None)), "3 finite numbers or null"),
}


def is_finite_number(value) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class RunConfig(AttentionConfig):
    """The block shape (every ``AttentionConfig`` field) plus the run fields."""

    seed: int = 0
    n_blocks: int = 2
    serialize_depth: int = 16
    head_hidden: int = 128
    cell: float | None = None  # explicit quantizer cell; None fits the bbox
    origin: tuple | None = None  # explicit quantizer origin (used with cell)
    offset_scale: float | None = None  # None = 2 coarse cells per level

    def __post_init__(self):
        for f in fields(self):
            kind, what = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or isinstance(value, Real) and not is_finite_number(value):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        super().__post_init__()
        if self.n_blocks < 1:
            raise ConfigError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if not 1 <= self.serialize_depth <= MAX_DEPTH:
            raise ConfigError(
                f"serialize_depth must be in [1, {MAX_DEPTH}], got {self.serialize_depth}"
            )
        if self.head_hidden < 1:
            raise ConfigError(f"head_hidden must be >= 1, got {self.head_hidden}")
        if self.n_blocks * self.pool_levels >= self.serialize_depth:
            raise ConfigError(
                f"{self.n_blocks} blocks of {self.pool_levels} pooling levels "
                f"exhaust serialize_depth {self.serialize_depth}"
            )
        if self.cell is not None and self.cell <= 0:
            raise ConfigError(f"cell must be positive, got {self.cell}")
        if self.origin is not None:
            if len(self.origin) != 3 or not all(map(is_finite_number, self.origin)):
                raise ConfigError(f"origin must be 3 finite numbers, got {self.origin!r}")
            object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))

    def attention_config(self) -> AttentionConfig:
        """The block shape, which this config already is."""
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)
