"""Exception hierarchy shared across the package.

Every error carries a machine-readable ``error_class`` (dotted string) and an
``exit_code`` used by the command-line front end: 2 for configuration
problems, 3 for I/O and file-format problems, 4 for numeric or shape
problems.
"""

from __future__ import annotations


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


def check_keys(data: dict, known, section: str) -> None:
    """Refuse a config section that holds a key outside ``known``."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key {section}.{unknown[0]}", error_class="config.unknown_key")


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
