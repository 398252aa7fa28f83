"""Key-pattern scope filters selecting which tensors a merge may touch.

Patterns are shell-style globs matched against full parameter names. Layer
indices are parsed with a glob pattern containing a single ``{n}`` numeric
capture, e.g. ``"*.layers.{n}.*"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from .errors import ConfigError, Record

DEFAULT_LAYER_PATTERN = "*.layers.{n}.*"

# default family naming (LLaMA-style); presets are data and user-overridable
EMBED_PATTERNS = ("*embed_tokens*",)
HEAD_PATTERNS = ("*lm_head*",)
LAYER_BLOCK_PATTERNS = ("*.layers.*",)

# preset -> the fields it sets; the keys given beside a preset replace its own
SCOPE_PRESETS = {
    "custom": {},   # no preset: a scope given by its fields alone
    "full": {},
    "empty": {"include": ()},   # admits nothing: every tensor passes through from the anchor
    "embed_only": {"include": EMBED_PATTERNS},
    "llm_only": {"include": LAYER_BLOCK_PATTERNS},
    "lmhead_only": {"include": HEAD_PATTERNS},
    # a contiguous block of transformer layers (its layer_range) plus embeddings and head
    "layers": {"range_exempt": EMBED_PATTERNS + HEAD_PATTERNS},
}


def _glob_to_regex(glob: str) -> str:
    out = []
    for ch in glob:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def compile_layer_pattern(pattern: str, name: str) -> re.Pattern:
    """Translate a glob with one ``{n}`` capture into a compiled regex; any
    other pattern is a config error naming the config key ``name``."""
    parts = pattern.split("{n}")
    if len(parts) != 2:
        raise ConfigError(f"{name} {pattern!r} must contain exactly one {{n}} capture",
                          error_class="config.bad_value")
    return re.compile(_glob_to_regex(parts[0]) + r"(\d+)" + _glob_to_regex(parts[1]) + r"\Z")


def parse_layer_index(key: str, layer_regex: re.Pattern) -> int | None:
    """The layer index ``layer_regex`` (:func:`compile_layer_pattern`) captures in ``key``, or None."""
    m = layer_regex.match(key)
    return int(m.group(1)) if m else None


@dataclass(frozen=True)
class ScopeFilter(Record):
    """A key is in scope iff it matches an include pattern, matches no
    exclude pattern, and (when a layer range is set) its parsed layer index
    lies in the inclusive range or the key matches a range-exempt pattern.

    Keys without a parsable layer index are out of scope while a layer range
    is active, unless range-exempt. The layer pattern is checked and compiled
    once, when the filter is made. In a config (``merge.scope``) a preset
    sets the fields, and each key given beside it replaces the preset's own;
    only :meth:`from_dict` applies it, so a preset named in code sets nothing.
    """

    section = "merge.scope"
    presets = SCOPE_PRESETS

    preset: str = field(default="custom", metadata={"choices": SCOPE_PRESETS})
    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()
    layer_range: tuple[int, int] | None = field(default=None, metadata={"kind": "range"})
    layer_pattern: str = DEFAULT_LAYER_PATTERN
    range_exempt: tuple[str, ...] = ()
    layer_regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "layer_regex", compile_layer_pattern(self.layer_pattern, "merge.scope.layer_pattern"))
        if self.layer_range is not None and not 0 <= self.layer_range[0] <= self.layer_range[1]:
            raise ConfigError(f"merge.scope.layer_range must be [lo, hi], 0 <= lo <= hi, got {list(self.layer_range)}")
        if self.preset == "layers" and self.layer_range is None:
            raise ConfigError("merge.scope preset layers needs a layer_range")

    def admits(self, key: str) -> bool:
        if not any(fnmatchcase(key, pat) for pat in self.include):
            return False
        if any(fnmatchcase(key, pat) for pat in self.exclude):
            return False
        if self.layer_range is not None:
            if any(fnmatchcase(key, pat) for pat in self.range_exempt):
                return True
            idx = parse_layer_index(key, self.layer_regex)
            if idx is None:
                return False
            lo, hi = self.layer_range
            return lo <= idx <= hi
        return True
