"""Flat `key = value` configuration shared by the library and the CLI.

Unknown keys are a load error so typos never silently fall back to
defaults; an absent file means pure defaults.
"""

from __future__ import annotations

import dataclasses
import math
import os

from .nn import TrainConfig
from .raster import read_utf8
from .structural import StructuralConfig


class ConfigError(Exception):
    pass


class UnknownConfigKeyError(ConfigError):
    pass


class BadConfigValueError(ConfigError):
    pass


@dataclasses.dataclass
class Config(StructuralConfig, TrainConfig):
    """Every knob in one flat namespace: the structural thresholds and
    training settings come from their own dataclasses, declared once."""

    # raster
    max_spur: int = 3
    # features
    feature_cap: float = 5.0
    # synthesis
    amplitude: int = 2
    per_class: int = 100

    def validate(self):
        # each base validates its own fields and neither chains to the other
        StructuralConfig.validate(self)
        TrainConfig.validate(self)
        if self.max_spur < 0:
            raise ValueError("max_spur must be >= 0")
        if not self.feature_cap > 0:
            raise ValueError("feature_cap must be positive")


_FIELDS = {f.name: f.type for f in dataclasses.fields(Config)}


def _coerce(key, text):
    kind = _FIELDS[key]
    try:
        if kind == "int":
            return int(text)
        if kind == "str":
            return text
        if math.isfinite(float(text)):
            return float(text)
    except ValueError:
        pass
    raise BadConfigValueError("bad value %r for key %r" % (text, key))


def load_config(path=None):
    """Parse `key = value` lines ('#' comments) into a validated Config;
    None yields defaults."""
    cfg = Config()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigError("config file %s does not exist" % path)
    for lineno, line in enumerate(read_utf8(path, ConfigError).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise UnknownConfigKeyError("%s:%d: unknown key %r" % (path, lineno, key))
        setattr(cfg, key, _coerce(key, value.strip()))
    try:
        cfg.validate()
    except ValueError as exc:
        raise BadConfigValueError("%s: %s" % (path, exc))
    return cfg
