"""Run configuration: the block shape (``zformer.AttentionConfig``, whose
fields, defaults and field rules it inherits) plus the run fields. Read from
one flat JSON object; unknown keys are rejected rather than ignored so config
typos fail loudly. ``pipeline.init_model`` checks the block budget."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .morton import MAX_DEPTH
from .scene import integer, number, optional, read_json_object
from .zformer import AttentionConfig


@dataclass(frozen=True)
class RunConfig(AttentionConfig):
    """The block shape (every ``AttentionConfig`` field) plus the run fields."""

    seed: int = 0
    n_blocks: int = 2
    serialize_depth: int = 16
    head_hidden: int = 128
    cell: float | None = None  # explicit quantizer cell; None fits the bbox
    offset_scale: float | None = None  # None = 2 coarse cells per level

    FIELDS = {
        **AttentionConfig.FIELDS,
        "seed": integer(),
        "n_blocks": integer(1),
        "serialize_depth": integer(1, MAX_DEPTH),
        "head_hidden": integer(1),
        "cell": optional(number(0)),
        "offset_scale": optional(number()),
    }

    def attention_config(self) -> AttentionConfig:
        """The block shape, which this config already is."""
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if unknown := data.keys() - cls.FIELDS.keys():
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(read_json_object(path, "config", ConfigError))
