import json
from dataclasses import fields, replace

import pytest

from zsplat.config import RunConfig
from zsplat.errors import ConfigError
from zsplat.zformer import AttentionConfig

SHAPE_FIELDS = [f.name for f in fields(AttentionConfig)]


def test_run_config_is_the_block_shape_plus_run_fields():
    cfg = RunConfig()
    assert isinstance(cfg, AttentionConfig)
    assert cfg.attention_config() is cfg
    # the block shape is declared once, in zformer
    assert not set(SHAPE_FIELDS) & set(vars(RunConfig)["__annotations__"])
    shape = AttentionConfig()
    assert all(getattr(cfg, n) == getattr(shape, n) for n in SHAPE_FIELDS)


def test_json_stays_flat(tmp_path):
    data = {"block_len": 8, "select_k": 3, "model_width": 32, "head_width": 16,
            "n_heads": 2, "pool_levels": 1, "position_mode": "member_mean",
            "seed": 4, "n_blocks": 3, "serialize_depth": 12, "head_hidden": 24,
            "cell": 0.5, "offset_scale": 0.1}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    cfg = RunConfig.from_json(path)
    assert {n: getattr(cfg, n) for n in data} == data
    assert replace(cfg, serialize_depth=14).block_len == 8


@pytest.mark.parametrize("field, message", [
    ({"block_len": 0}, "block_len must be >= 1"),
    ({"head_width": 6, "n_heads": 4}, "must divide into 4 heads"),
    ({"position_mode": "weird"}, "unknown position_mode"),
    ({"block_len": "8"}, "block_len must be an integer"),
    ({"n_heads": None}, "n_heads must be an integer"),
    ({"serialize_depth": 22}, r"serialize_depth must be in \[1, 21\]"),
    ({"n_blocks": 0}, "n_blocks must be >= 1"),
], ids=["block_len-0", "heads", "position_mode", "block_len-str", "n_heads-null",
        "depth-22", "n_blocks-0"])
def test_inherited_and_own_checks_raise_config_error(field, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(**field)
