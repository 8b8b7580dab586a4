"""Config text format: parse/render round trips and rejection paths."""

import dataclasses
import typing

import pytest

from flowagg import config as config_module
from flowagg.aggregator import AggregatorConfig
from flowagg.config import (
    ConfigError,
    RunConfig,
    TrainSettings,
    config_defaults,
    parse_config,
    parse_config_file,
    render_config,
)
from flowagg.scenegen import GenerationError, SceneConfig

SCENE_FLOATS = [f.name for f in dataclasses.fields(SceneConfig) if f.type in (float, "float")]
TRAIN_FLOATS = [f.name for f in dataclasses.fields(TrainSettings) if f.type in (float, "float")]


def test_defaults_round_trip():
    cfg = parse_config(config_defaults())
    assert cfg == RunConfig()
    assert render_config(cfg) == config_defaults()


def test_parse_assigns_sections():
    cfg = parse_config("""
# comment line
scene.n_clusters = 4
scene.occlusion_mode = global   # trailing comment
module.k = 6
module.scale_logits = false
train.steps = 50
train.learning_rate = 0.02
""")
    assert cfg.scene.n_clusters == 4
    assert cfg.scene.occlusion_mode == "global"
    assert cfg.module.k == 6
    assert cfg.module.scale_logits is False
    assert cfg.train.steps == 50
    assert cfg.train.learning_rate == 0.02


def test_tuple_field():
    cfg = parse_config("module.score_hidden = 8, 4\n")
    assert cfg.module.score_hidden == (8, 4)
    cfg = parse_config("module.score_hidden = 16\n")
    assert cfg.module.score_hidden == (16,)


def test_render_is_reparseable_after_changes():
    cfg = RunConfig()
    cfg.scene.occlusion_fraction = 0.3
    cfg.scene.occlusion_mode = "local"
    cfg.module.disp_hidden = (4, 4)
    cfg.train.freeze_alpha = True
    again = parse_config(render_config(cfg))
    assert again == cfg


def test_field_types_resolve_once_per_section_class(monkeypatch):
    # Resolving a dataclass's string annotations compiles each of them, so
    # a parse resolves them once per section class, not once per line.
    calls = []
    resolve = typing.get_type_hints

    def counted(cls, *args, **kwargs):
        calls.append(cls)
        return resolve(cls, *args, **kwargs)
    monkeypatch.setattr(typing, "get_type_hints", counted)
    config_module._field_types.cache_clear()
    text = config_defaults()   # every key of every section, one per line
    for _ in range(2):
        assert render_config(parse_config(text)) == text
    assert sorted(cls.__name__ for cls in calls) == ["AggregatorConfig", "SceneConfig",
                                                     "TrainSettings"]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("scene.wibble = 3\n")
    with pytest.raises(ConfigError):
        parse_config("orbit.radius = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("train.steps = 5\ntrain.steps = 6\n")


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError):
        parse_config("train.steps\n")
    with pytest.raises(ConfigError):
        parse_config("steps = 5\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("train.steps = many\n")
    with pytest.raises(ConfigError):
        parse_config("module.scale_logits = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("scene.cluster_spread = wide\n")


def test_bool_accepts_true_false_only():
    assert parse_config("train.freeze_alpha = true\n").train.freeze_alpha is True
    assert parse_config("train.freeze_alpha = false\n").train.freeze_alpha is False
    with pytest.raises(ConfigError):
        parse_config("train.freeze_alpha = 1\n")


def test_validate_catches_bad_settings():
    with pytest.raises(ValueError):
        parse_config("train.learning_rate = -0.5\n").train.validate()
    with pytest.raises(ValueError):
        parse_config("train.optimizer = lbfgs\n").train.validate()


@pytest.mark.parametrize("key", ["scene.r_match", "train.learning_rate",
                                 "train.adam_eps", "scene.cluster_spread"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_float_rejected_by_name(key, raw):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(f"{key} = {raw}\n")


def test_float_field_lists_are_read_from_the_dataclasses():
    assert "r_match" in SCENE_FLOATS and "adam_eps" in TRAIN_FLOATS


@pytest.mark.parametrize("name", SCENE_FLOATS)
def test_scene_validate_rejects_nan_built_in_code(name):
    with pytest.raises(GenerationError):
        dataclasses.replace(SceneConfig(), **{name: float("nan")}).validate()


@pytest.mark.parametrize("name", TRAIN_FLOATS)
def test_train_validate_rejects_nan_built_in_code(name):
    with pytest.raises(ConfigError):
        dataclasses.replace(TrainSettings(), **{name: float("nan")}).validate()


@pytest.mark.parametrize("name", ["disp_hidden", "score_hidden", "weight_hidden",
                                  "plain_hidden"])
def test_hidden_widths_must_be_positive(name):
    for widths in ((0,), (-3,), (8, 0)):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(AggregatorConfig(), **{name: widths}).validate()
    dataclasses.replace(AggregatorConfig(), **{name: ()}).validate()


def test_file_loading(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scene.seed = 9\n")
    assert parse_config_file(path).scene.seed == 9
