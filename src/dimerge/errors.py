"""Exception hierarchy shared across the package.

Every error carries a machine-readable ``error_class`` (dotted string) and an
``exit_code`` used by the command-line front end: 2 for configuration
problems, 3 for I/O and file-format problems, 4 for numeric or shape
problems. Config has one reader, :meth:`Record.from_dict`, which reads
every section and value through :func:`read_section` and :func:`read_value`,
and one writer, :meth:`Record.to_dict`.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from typing import ClassVar


class DimergeError(Exception):
    """Base class for all package errors."""

    error_class = "error"
    exit_code = 1

    def __init__(self, message: str, error_class: str | None = None):
        super().__init__(message)
        if error_class is not None:
            self.error_class = error_class


class ConfigError(DimergeError):
    error_class = "config.invalid"
    exit_code = 2


# a string given for one of these sections is short for an object with this one key
SHORT_FORMS = {"merge.aggregation": "kind", "merge.scope": "preset", "remap": "preset", "diagnose.schema": "preset"}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _list_of(value, kind) -> bool:
    return isinstance(value, (list, tuple)) and all(_is(v, kind) for v in value)


# value kind -> (what it must be, check, conversion); no kind admits a bool
_KINDS = {
    "number": ("a finite number", lambda v: _is(v, (int, float)) and abs(v) <= sys.float_info.max, float),
    "integer": ("an integer", lambda v: _is(v, int), int),
    "count": ("an integer of at least 1", lambda v: _is(v, int) and v >= 1, int),
    "string": ("a string", lambda v: _is(v, str), str),
    "strings": ("a list of strings", lambda v: _list_of(v, str), tuple),
    "pairs": ("a list of string pairs",
              lambda v: _list_of(v, (list, tuple)) and all(len(p) == 2 and _list_of(p, str) for p in v),
              lambda v: tuple(map(tuple, v))),
    "range": ("an integer pair", lambda v: _list_of(v, int) and len(v) == 2, tuple),
}
# a field's value kind when its metadata names none: its default's type's
_DEFAULT_KINDS = ((str, "string"), (float, "number"), (int, "integer"), (tuple, "strings"))


def read_section(data, section: str, known=None) -> dict:
    """A config section as an object: null is an empty one and a string is
    the section's short form (``SHORT_FORMS``). Anything else, or a key
    outside ``known`` (when given), is a config error."""
    if data is None:
        return {}
    if isinstance(data, str) and section in SHORT_FORMS:
        return {SHORT_FORMS[section]: data}
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section} must be an object, got {data!r}", error_class="config.bad_value")
    unknown = sorted(set(data) - set(known)) if known is not None else ()
    if unknown:
        name = f"{section}.{unknown[0]}" if section else unknown[0]
        raise ConfigError(f"unknown config key {name}", error_class="config.unknown_key")
    return data


def _bad_value(section: str, key: str, expected: str, value) -> ConfigError:
    name = f"{section}.{key}" if section else key
    return ConfigError(f"config value {name} must be {expected}, got {value!r}", error_class="config.bad_value")


def read_value(data: dict, section: str, key: str, kind: str, default=None):
    """``data[key]`` as a value of ``kind``, or ``default`` when it is absent
    or null; any other value is a config error naming ``section.key``."""
    value = data.get(key)
    if value is None:
        return default
    expected, check, convert = _KINDS[kind]
    if not check(value):
        raise _bad_value(section, key, expected, value)
    return convert(value)


def _plain(value):
    """A field value as JSON data: a record as an object, a tuple or list as
    a list and anything else as it is."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class Record:
    """Base of the config and report dataclasses. A field's metadata may
    give its config ``key`` (the field name by default), the ``choices``
    its value must be one of, checked when the record is made (the one
    check of a named value, its error naming ``section.key``), and its
    value ``kind`` (a ``_KINDS`` name, or a record class) where its
    default's type does not tell it. A config record names its
    ``section``, and may give ``presets``: a value of its first field ->
    the defaults that value gives its other fields."""

    section: ClassVar[str | None] = None
    presets: ClassVar[dict] = {}

    def __post_init__(self):
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name, None)
            if choices is not None and value not in tuple(choices):
                raise _bad_value(self.section, f.metadata.get("key", f.name), f"one of {', '.join(choices)}", value)

    @classmethod
    def from_dict(cls, data):
        """Read the record's ``section``: each init field under its key, as
        its kind. A field left out or null keeps its default, or the one its
        first field's preset gives it; a record-valued field is read as its
        own section."""
        own = [f for f in fields(cls) if f.init]
        data = read_section(data, cls.section, [f.metadata.get("key", f.name) for f in own])
        values = {}
        for f in own:
            key, kind = f.metadata.get("key", f.name), f.metadata.get("kind")
            if isinstance(kind, type):
                if data.get(key) is not None:
                    values[f.name] = kind.from_dict(data[key])
                continue
            default = cls.presets.get(values.get(own[0].name), {}).get(f.name, f.default)
            kind = kind or next(name for t, name in _DEFAULT_KINDS if isinstance(f.default, t))
            values[f.name] = read_value(data, cls.section, key, kind, default)
        return cls(**values)

    def to_dict(self) -> dict:
        """Each init field under its key, as JSON data."""
        return {f.metadata.get("key", f.name): _plain(getattr(self, f.name)) for f in fields(self) if f.init}


class FormatError(DimergeError):
    """Malformed tensor file, header, or index manifest."""

    error_class = "io.format"
    exit_code = 3


class ShardError(DimergeError):
    """Index manifest inconsistent with shard contents."""

    error_class = "io.shard"
    exit_code = 3


class RemapCollisionError(DimergeError):
    """Two keys map to the same name after prefix rewriting."""

    error_class = "remap.collision"
    exit_code = 4


class AlignmentError(DimergeError):
    """Checkpoints cannot be aligned under the active shape policy."""

    error_class = "align.shape"
    exit_code = 4


class ShapeError(DimergeError):
    error_class = "numeric.shape"
    exit_code = 4


class NumericError(DimergeError):
    error_class = "numeric.value"
    exit_code = 4
