"""Line-oriented key=value run configuration.

A run config is plain text: one ``section.key = value`` per line, ``#``
starts a comment, blank lines ignored. Sections are ``scene`` (synthetic
scene parameters), ``module`` (aggregator dimensions and switches), and
``train`` (optimization). Every key has a documented default, so an empty
file is a valid config; unknown or duplicate keys are rejected by name,
and parsing is order-independent.

Value syntax per field type: integers and floats as Python literals
(floats must be finite: ``nan`` and ``inf`` are rejected), booleans
``true``/``false``, strings bare, integer tuples comma-separated
(``16,32``; empty value for the empty tuple). Validation then checks
ranges; for instance every ``module.*_hidden`` width must be positive.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, field

from .aggregator import AggregatorConfig
from .scenegen import SceneConfig


class ConfigError(ValueError):
    """Raised for unknown keys, duplicates, or unparsable values."""


@dataclass
class TrainSettings:
    """Optimization settings.

    ``optimizer`` is "sgd" or "adam" (beta/eps fields apply to adam only).
    ``seed`` drives parameter initialization, independent of the scene
    seed. ``freeze_alpha`` is the no-aggregation baseline used in
    experiments: the module stays at its initial pass-through (the gate
    at zero), so the decoder reads the input motion features, no module
    runs whatever the head, and only the decoder trains.
    """

    steps: int = 300
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    freeze_alpha: bool = False

    def validate(self) -> None:
        if self.steps < 0:
            raise ConfigError("train.steps must be non-negative")
        if not self.learning_rate >= 0.0:
            raise ConfigError("train.learning_rate must be non-negative")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"train.optimizer must be sgd or adam, got {self.optimizer!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ConfigError("train.adam_eps must be positive")


@dataclass
class RunConfig:
    """One experiment: a scene, a module, and a training recipe."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    module: AggregatorConfig = field(default_factory=AggregatorConfig)
    train: TrainSettings = field(default_factory=TrainSettings)


_SECTIONS = ("scene", "module", "train")


def _section_obj(cfg: RunConfig, section: str):
    if section not in _SECTIONS:
        raise ConfigError(f"unknown config section {section!r}")
    return getattr(cfg, section)


@functools.cache
def _field_types(section_cls: type) -> dict[str, type]:
    """The field types of a section's dataclass, resolved from its string
    annotations once per class. Callers must not mutate the dict."""
    return typing.get_type_hints(section_cls)


def _parse_value(raw: str, typ, key: str):
    raw = raw.strip()
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("floats must be finite")
            return value
        if typ is bool:
            if raw == "true":
                return True
            if raw == "false":
                return False
            raise ValueError("expected true or false")
        if typ is str:
            return raw
        if typ == tuple[int, ...]:
            if not raw:
                return ()
            return tuple(int(p.strip()) for p in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
    raise ConfigError(f"unsupported type for {key}")


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig with defaults filled in."""
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} lacks a section prefix")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        seen.add(key)
        section, name = key.split(".", 1)
        obj = _section_obj(cfg, section)
        types = _field_types(type(obj))
        if name not in types:
            raise ConfigError(f"unknown config key {key}")
        setattr(obj, name, _parse_value(raw, types[name], key))
    return cfg


def parse_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: RunConfig) -> str:
    """Canonical text for a RunConfig: every key, in dataclass field
    order, one per line. parse_config(render_config(c)) round-trips."""
    lines = []
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in dataclasses.fields(obj):
            lines.append(f"{section}.{f.name}={_render_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def config_defaults() -> str:
    """The documented defaults, as canonical config text."""
    return render_config(RunConfig())
