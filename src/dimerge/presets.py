"""Shipped per-family presets: key remap rules and module schemas.

Key naming conventions are model-family-specific and not derivable from the
weights themselves, so these are plain data: each preset is the field values
it gives its config record (:class:`RemapRules`, or
:class:`~dimerge.diagnostics.ModuleKeySchema`), and a config may name one
and replace any of its fields. ``custom`` is no preset: the record's fields
alone. The anchor rules strip the language-submodule prefix so the anchor's
backbone keys line up with the base model's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, Record

# Qwen-VL-style anchor (the qwen2 and qwen3 presets): backbone under
# "model.language_model."
_QWEN_REMAP = {"base": (), "multilingual": (), "anchor": (("model.language_model.", "model."), ("language_model.", ""))}

# preset -> (match-prefix, replacement-prefix) rules per checkpoint role
REMAP_PRESETS: dict[str, dict[str, tuple[tuple[str, str], ...]]] = {
    "custom": {"base": (), "multilingual": (), "anchor": ()},
    # LLaVA-style anchor on a LLaMA base: backbone lives under "language_model."
    "llama": {"base": (), "multilingual": (), "anchor": (("language_model.", ""),)},
    "qwen2": _QWEN_REMAP,
    "qwen3": _QWEN_REMAP,
}

# (substring, label) pairs, first match wins
DEFAULT_MODULE_LABELS = (
    ("q_proj", "attn.q"), ("k_proj", "attn.k"), ("v_proj", "attn.v"), ("o_proj", "attn.o"),
    ("gate_proj", "mlp.gate"), ("up_proj", "mlp.up"), ("down_proj", "mlp.down"),
    ("input_layernorm", "norm.in"), ("post_attention_layernorm", "norm.post"),
    ("embed_tokens", "embed"), ("lm_head", "head"),
)

_QWEN3_EXTRA_LABELS = (("q_norm", "attn.qnorm"), ("k_norm", "attn.knorm"))

# preset -> the module schema fields it sets
MODULE_SCHEMA_PRESETS: dict[str, dict] = {"custom": {}, "llama": {}, "qwen2": {},
                                           "qwen3": {"module_labels": _QWEN3_EXTRA_LABELS + DEFAULT_MODULE_LABELS}}


@dataclass(frozen=True)
class RemapRules(Record):
    """Each checkpoint role's key rules for :func:`~dimerge.store.remap_keys`.
    In a config (``remap``) a preset sets them, and each role given beside
    it replaces the preset's own."""

    section = "remap"
    presets = REMAP_PRESETS

    preset: str = field(default="custom", metadata={"choices": REMAP_PRESETS})
    base: tuple[tuple[str, str], ...] = field(default=(), metadata={"kind": "pairs"})
    multilingual: tuple[tuple[str, str], ...] = field(default=(), metadata={"kind": "pairs"})
    anchor: tuple[tuple[str, str], ...] = field(default=(), metadata={"kind": "pairs"})


def remap_rules(family: str, role: str) -> list[tuple[str, str]]:
    try:
        return list(REMAP_PRESETS[family][role])
    except KeyError:
        raise ConfigError(f"no remap preset for family {family!r}, role {role!r}") from None
