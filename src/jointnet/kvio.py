"""Line-oriented ``key = value`` text: the one config/report syntax used by
config files, checkpoint headers, and metric reports.

Rules: one pair per line, ``#`` starts a comment, blank lines are ignored,
duplicate keys are an error. Writers emit ``key = value`` with single
spaces so identical inputs serialize to identical bytes.

A config record (a dataclass such as ``ArchConfig`` or ``TrainConfig``) is
written with ``record_pairs`` and read back with ``parse_record``, several
at once with ``parse_records``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, get_type_hints

from .errors import ConfigError


def parse_kv(text: str, source: str = "config") -> dict[str, str]:
    """Parse, preserving first-seen key order; errors carry line numbers."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: missing key before '='")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        values[key] = value
    return values


def format_kv(pairs: Iterable[tuple[str, object]]) -> str:
    """The pairs as text that ``parse_kv`` reads back as written, values as
    ``str(value)``. A pair it would read back otherwise is a ``ConfigError``
    naming the key: a key that is empty, repeated, or holds ``=``, and a
    key or value that holds ``#`` or a line break or has whitespace at
    either end."""
    lines: list[str] = []
    seen: set[str] = set()
    for key, value in pairs:
        value = str(value)
        if key in seen:
            raise ConfigError(f"cannot write key {key!r} twice")
        if not key or "=" in key or not (_inline(key) and _inline(value)):
            raise ConfigError(f"cannot write key {key!r} with value {value!r}: "
                              f"it would not read back as written")
        seen.add(key)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def _inline(text: str) -> bool:
    """Whether ``text`` reads back whole between a line's ``=`` and its end:
    no comment mark, no line break, nothing that ``strip`` removes."""
    return "#" not in text and len(text.splitlines()) <= 1 and text == text.strip()


def record_pairs(record) -> list[tuple[str, object]]:
    """A record's fields as (key, value) pairs in declaration order, floats
    via ``repr`` so they read back bit-exactly."""
    return [(f.name, repr(value) if isinstance(value, float) else value)
            for f in fields(record) for value in [getattr(record, f.name)]]


def parse_record(cls, raw: dict[str, str], source: str):
    """``cls`` from text values for some of its fields, each converted by its
    field's type; an int or float must be ASCII without ``_``, as ``int``
    and ``float`` alone also read ``1_0`` and other scripts' digits. A value
    that does not convert is a ``ConfigError`` naming the key. Other fields
    keep their defaults; ``cls`` validates the result, and a ``ConfigError``
    it raises is prefixed with ``source``, as every error here is."""
    kinds = get_type_hints(cls)
    values = {}
    for key, text in raw.items():
        try:
            if kinds[key] in (int, float) and not (text.isascii() and "_" not in text):
                raise ValueError
            values[key] = kinds[key](text)
        except ValueError as e:
            raise ConfigError(f"{source}: key '{key}' needs a {kinds[key].__name__}, "
                              f"got {text!r}") from e
    try:
        return cls(**values)
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from e


def parse_records(kinds, raw: dict[str, str], source: str) -> list:
    """One record of each type in ``kinds``, in order, each read by
    ``parse_record`` from the keys its fields declare. A key that no type
    declares is a ``ConfigError`` listing the valid keys."""
    owners = {f.name: kind for kind in kinds for f in fields(kind)}
    for key in raw:
        if key not in owners:
            raise ConfigError(
                f"{source}: unknown key '{key}' (valid: {', '.join(owners)})")
    return [parse_record(kind, {k: v for k, v in raw.items() if owners[k] is kind}, source)
            for kind in kinds]
