"""Run configuration: the flat key=value config file read by the CLI.

A run is an architecture (``ArchConfig``) and a training recipe
(``TrainConfig``, which includes the mode). Every config key is a field of
one of these, with that field's type and default, so an empty file is a
valid config. Values are validated eagerly on parse. Every error message
names the file and the violated constraint; a syntax error (a line that is
not ``key = value``, a missing key, a duplicate) also names its line. A
value that does not convert names its key, and a range error names the
field, but neither has a line: records are checked after the whole file
is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .kvio import parse_kv, parse_records, record_pairs
from .network import ArchConfig
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """All knobs for one training run; architecture plus training recipe."""

    arch: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def pairs(self) -> list[tuple[str, object]]:
        """Fully-resolved settings as config keys in declaration order
        (architecture, then training), floats via repr."""
        return record_pairs(self.arch) + record_pairs(self.train)


def parse_config_text(text: str, source: str = "config") -> RunConfig:
    return RunConfig(*parse_records(get_type_hints(RunConfig).values(),
                                    parse_kv(text, source=source), source))


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: config is not UTF-8 at byte {e.start}") from e
    return parse_config_text(text, source=str(path))
