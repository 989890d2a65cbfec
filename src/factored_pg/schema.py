"""The one typed reader of JSON documents (configs, env params and fixtures)
and the one writer of run-directory files.

Each document section is a frozen dataclass; ``section`` fills it from a JSON
object and turns every way the object can be wrong into a ``ConfigError``.
``write_text`` and ``write_json`` write a file whole or not at all.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError


def json_object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(raw).__name__}")
    return raw


def _value(hint, value, where: str):
    """``value`` checked against the field type ``hint``."""
    if is_dataclass(hint):
        return section(hint, value, where)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...] from a JSON list
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {type(value).__name__}")
        return tuple(_value(args[0], v, where) for v in value)
    if args:  # T | None
        return None if value is None else _value(args[0], value, where)
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r:.60}")
    return value


def section(cls, raw, where: str, **given):
    """The dataclass ``cls`` from the JSON object ``raw``, with the fields in
    ``given`` built by the caller. An unknown key, a missing required field,
    a value of the wrong JSON type (a bool is not an int; an int is accepted
    for a float) or a ``ValueError`` from ``cls`` is a ``ConfigError`` naming
    ``where``."""
    raw = json_object(raw, where)
    known = fields(cls)
    unknown = sorted(set(raw) - {f.name for f in known})
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown}; valid: {[f.name for f in known]}")
    missing = [f.name for f in known if f.name not in raw and f.name not in given
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}: missing required fields {missing}")
    hints = typing.get_type_hints(cls)
    values = {k: _value(hints[k], v, f"{where}.{k}") for k, v in raw.items() if k not in given}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``<path>.tmp`` and rename it to ``path`` (a str or
    path-like), so ``path`` never holds a partial file."""
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path, obj, indent: int | None = None) -> None:
    """``obj`` as sorted-key JSON plus a newline, through ``write_text``."""
    write_text(path, json.dumps(obj, indent=indent, sort_keys=True) + "\n")
