"""Shipped per-family presets: key remap rules and module schemas.

Key naming conventions are model-family-specific and not derivable from the
weights themselves, so these are plain data that configs may reference by
name or override entirely. The anchor rules strip the language-submodule
prefix so the anchor's backbone keys line up with the base model's.
"""

from __future__ import annotations

from .diagnostics import DEFAULT_MODULE_LABELS, ModuleKeySchema
from .errors import ConfigError

# Qwen-VL-style anchor (the qwen2 and qwen3 presets): backbone under
# "model.language_model."
_QWEN_REMAP = {
    "base": [],
    "multilingual": [],
    "anchor": [("model.language_model.", "model."), ("language_model.", "")],
}

# (match-prefix, replacement-prefix) rule lists per checkpoint role
REMAP_PRESETS: dict[str, dict[str, list[tuple[str, str]]]] = {
    # LLaVA-style anchor on a LLaMA base: backbone lives under "language_model."
    "llama": {
        "base": [],
        "multilingual": [],
        "anchor": [("language_model.", "")],
    },
    "qwen2": _QWEN_REMAP,
    "qwen3": _QWEN_REMAP,
}

_QWEN3_EXTRA_LABELS = (("q_norm", "attn.qnorm"), ("k_norm", "attn.knorm"))

MODULE_SCHEMA_PRESETS: dict[str, ModuleKeySchema] = {
    "llama": ModuleKeySchema(),
    "qwen2": ModuleKeySchema(),
    "qwen3": ModuleKeySchema(module_labels=_QWEN3_EXTRA_LABELS + DEFAULT_MODULE_LABELS),
}


def remap_rules(family: str, role: str) -> list[tuple[str, str]]:
    try:
        return list(REMAP_PRESETS[family][role])
    except KeyError:
        raise ConfigError(f"no remap preset for family {family!r}, role {role!r}") from None


def module_schema(family: str) -> ModuleKeySchema:
    try:
        return MODULE_SCHEMA_PRESETS[family]
    except KeyError:
        raise ConfigError(f"no module schema preset for family {family!r}") from None
