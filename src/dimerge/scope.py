"""Key-pattern scope filters selecting which tensors a merge may touch.

Patterns are shell-style globs matched against full parameter names. Layer
indices are parsed with a glob pattern containing a single ``{n}`` numeric
capture, e.g. ``"*.layers.{n}.*"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fnmatch import fnmatchcase

from .errors import ConfigError, check_keys

DEFAULT_LAYER_PATTERN = "*.layers.{n}.*"

# default family naming (LLaMA-style); presets are data and user-overridable
EMBED_PATTERNS = ("*embed_tokens*",)
HEAD_PATTERNS = ("*lm_head*",)
LAYER_BLOCK_PATTERNS = ("*.layers.*",)


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


def compile_layer_pattern(pattern: str) -> re.Pattern:
    """Translate a glob with one ``{n}`` capture into a compiled regex."""
    parts = pattern.split("{n}")
    if len(parts) != 2:
        raise ConfigError(f"layer pattern {pattern!r} must contain exactly one {{n}} capture")
    return re.compile(_glob_to_regex(parts[0]) + r"(\d+)" + _glob_to_regex(parts[1]) + r"\Z")


def parse_layer_index(key: str, pattern: str = DEFAULT_LAYER_PATTERN) -> int | None:
    m = compile_layer_pattern(pattern).match(key)
    return int(m.group(1)) if m else None


@dataclass(frozen=True)
class ScopeFilter:
    """A key is in scope iff it matches an include pattern, matches no
    exclude pattern, and (when a layer range is set) its parsed layer index
    lies in the inclusive range or the key matches a range-exempt pattern.

    Keys without a parsable layer index are out of scope while a layer range
    is active, unless range-exempt.
    """

    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()
    layer_range: tuple[int, int] | None = None
    layer_pattern: str = DEFAULT_LAYER_PATTERN
    range_exempt: tuple[str, ...] = ()
    preset: str = "custom"

    def admits(self, key: str) -> bool:
        if not any(fnmatchcase(key, pat) for pat in self.include):
            return False
        if any(fnmatchcase(key, pat) for pat in self.exclude):
            return False
        if self.layer_range is not None:
            if any(fnmatchcase(key, pat) for pat in self.range_exempt):
                return True
            idx = parse_layer_index(key, self.layer_pattern)
            if idx is None:
                return False
            lo, hi = self.layer_range
            return lo <= idx <= hi
        return True

    # ---- presets -----------------------------------------------------

    @classmethod
    def full(cls) -> "ScopeFilter":
        return cls(preset="full")

    @classmethod
    def empty(cls) -> "ScopeFilter":
        """Admits nothing: every tensor passes through from the anchor."""
        return cls(include=(), preset="empty")

    @classmethod
    def embed_only(cls) -> "ScopeFilter":
        return cls(include=EMBED_PATTERNS, preset="embed_only")

    @classmethod
    def llm_only(cls) -> "ScopeFilter":
        return cls(include=LAYER_BLOCK_PATTERNS, preset="llm_only")

    @classmethod
    def lmhead_only(cls) -> "ScopeFilter":
        return cls(include=HEAD_PATTERNS, preset="lmhead_only")

    @classmethod
    def layers(cls, lo: int, hi: int) -> "ScopeFilter":
        """A contiguous block of transformer layers plus embeddings and head."""
        if lo > hi or lo < 0:
            raise ConfigError(f"invalid layer range ({lo}, {hi})")
        return cls(
            layer_range=(lo, hi),
            range_exempt=EMBED_PATTERNS + HEAD_PATTERNS,
            preset=f"layers_{lo}_{hi}",
        )

    # ---- (de)serialization --------------------------------------------

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "include": list(self.include),
            "exclude": list(self.exclude),
            "layer_range": list(self.layer_range) if self.layer_range else None,
            "layer_pattern": self.layer_pattern,
            "range_exempt": list(self.range_exempt),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScopeFilter":
        preset = data.get("preset", "custom")
        named = {
            "full": cls.full,
            "empty": cls.empty,
            "embed_only": cls.embed_only,
            "llm_only": cls.llm_only,
            "lmhead_only": cls.lmhead_only,
        }
        explicit_keys = {"include", "exclude", "layer_range", "range_exempt", "layer_pattern"}
        check_keys(data, explicit_keys | {"preset", "lo", "hi"}, "merge.scope")
        if preset in named and not (explicit_keys & data.keys()):
            return named[preset]()
        if preset == "layers":
            lo, hi = data.get("lo"), data.get("hi")
            if lo is None or hi is None:
                rng = data.get("layer_range") or (None, None)
                lo, hi = rng
            if lo is None or hi is None:
                raise ConfigError("layers preset needs lo/hi")
            return cls.layers(int(lo), int(hi))
        if preset in named:
            base = named[preset]()
            data = {**base.to_dict(), **data}
        lr = data.get("layer_range")
        return cls(
            include=tuple(data.get("include", ("*",))),
            exclude=tuple(data.get("exclude", ())),
            layer_range=(int(lr[0]), int(lr[1])) if lr else None,
            layer_pattern=data.get("layer_pattern", DEFAULT_LAYER_PATTERN),
            range_exempt=tuple(data.get("range_exempt", ())),
            preset=preset,
        )
