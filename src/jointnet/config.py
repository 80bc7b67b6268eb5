"""Run configuration: the flat key=value config file read by the CLI.

A run is an architecture (``ArchConfig``), an optimization recipe
(``TrainConfig``) and a training mode. Every config key is a field of one
of these, with that field's type and default, so an empty file is a valid
config. Values are validated eagerly on parse; error messages carry the
file name, line, and the violated constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .kvio import parse_kv
from .network import ArchConfig
from .training import MODES, TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """All knobs for one training run; architecture plus optimization."""

    arch: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "joint"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def pairs(self) -> list[tuple[str, object]]:
        """Fully-resolved settings as config keys in declaration order
        (architecture, then training, then mode), floats via repr."""
        out: list[tuple[str, object]] = []
        for f in fields(self):
            value = getattr(self, f.name)
            items = ([(g.name, getattr(value, g.name)) for g in fields(value)]
                     if is_dataclass(value) else [(f.name, value)])
            out += [(key, repr(v) if isinstance(v, float) else v) for key, v in items]
        return out


def _typed_fields(cls) -> list[tuple[str, type]]:
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


# the RunConfig fields that are records of their own, by field name
_PARTS = {name: kind for name, kind in _typed_fields(RunConfig) if is_dataclass(kind)}
# config key -> (the part that declares it, or None for a plain RunConfig
# field; the key's type), in RunConfig order
_KEYS: dict[str, tuple[str | None, type]] = {}
for _name, _kind in _typed_fields(RunConfig):
    if _name in _PARTS:
        _KEYS.update((key, (_name, kind)) for key, kind in _typed_fields(_kind))
    else:
        _KEYS[_name] = (None, _kind)


def parse_config_text(text: str, source: str = "config") -> RunConfig:
    raw = parse_kv(text, source=source)
    values: dict[str | None, dict[str, object]] = {part: {} for part in (*_PARTS, None)}
    for key, value in raw.items():
        if key not in _KEYS:
            raise ConfigError(
                f"{source}: unknown key '{key}' (valid: {', '.join(_KEYS)})")
        part, kind = _KEYS[key]
        try:
            values[part][key] = kind(value)
        except ValueError as e:
            raise ConfigError(
                f"{source}: key '{key}' needs a {kind.__name__}, got {value!r}") from e
    own = values.pop(None)
    return RunConfig(**{part: _PARTS[part](**kw) for part, kw in values.items()},
                     **own)


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: config is not UTF-8 at byte {e.start}") from e
    return parse_config_text(text, source=str(path))
