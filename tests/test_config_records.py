"""The config records' one writer and one choice check.

The echo a merge report carries is pinned byte for byte: re-running it must
rebuild the same config. And a config made in code checks every named value
when it is made, as the reader does.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from dimerge.errors import ConfigError
from dimerge.merge import BASELINE_METHODS, MergeConfig
from dimerge.salience import AggregationKind, EstimatorKind
from dimerge.scope import SCOPE_PRESETS, ScopeFilter

from conftest import make_triple, merge_and_load

README = Path(__file__).resolve().parent.parent / "README.md"

FULL_SCOPE = ('{"preset": "full", "include": ["*"], "exclude": [], "layer_range": null, '
              '"layer_pattern": "*.layers.{n}.*", "range_exempt": []}')
DEFAULT_BASELINE = ('{"lambda": 1.0, "dare_drop_p": 0.9, "ties_density": 0.2, "breadcrumbs_beta": 0.85, '
                    '"breadcrumbs_gamma": 0.01}')
# the echo of a config that sets only its method, scope and baseline (% method, scope, baseline)
ECHO = ('{"method": "%s", "estimator": "rank", "aggregation": {"kind": "average", "lambda": null}, '
        '"epsilon": 1e-08, "scope": %s, "shape_policy": "strict", "seed": 0, "baseline": %s, '
        '"output_dtype": "match_anchor", "high_rank": "reject"}')
SCOPE_ECHOES = {
    "custom": FULL_SCOPE.replace('"full"', '"custom"'),
    "full": FULL_SCOPE,
    "empty": ('{"preset": "empty", "include": [], "exclude": [], "layer_range": null, '
              '"layer_pattern": "*.layers.{n}.*", "range_exempt": []}'),
    "embed_only": ('{"preset": "embed_only", "include": ["*embed_tokens*"], "exclude": [], "layer_range": null, '
                   '"layer_pattern": "*.layers.{n}.*", "range_exempt": []}'),
    "llm_only": ('{"preset": "llm_only", "include": ["*.layers.*"], "exclude": [], "layer_range": null, '
                 '"layer_pattern": "*.layers.{n}.*", "range_exempt": []}'),
    "lmhead_only": ('{"preset": "lmhead_only", "include": ["*lm_head*"], "exclude": [], "layer_range": null, '
                    '"layer_pattern": "*.layers.{n}.*", "range_exempt": []}'),
    "layers": ('{"preset": "layers", "include": ["*"], "exclude": [], "layer_range": [1, 2], '
               '"layer_pattern": "*.layers.{n}.*", "range_exempt": ["*embed_tokens*", "*lm_head*"]}'),
}


def echo(cfg: MergeConfig) -> str:
    return json.dumps(cfg.to_dict())


def test_readme_run_json_echo():
    config = json.loads(re.search(r"`run.json`:\n\n```json\n(.*?)```", README.read_text(), re.DOTALL).group(1))
    assert echo(MergeConfig.from_dict(config["merge"])) == ECHO % ("dim3", FULL_SCOPE, "null")


@pytest.mark.parametrize("method", BASELINE_METHODS)
def test_method_echo(method):
    assert echo(MergeConfig(method=method)) == ECHO % (method, FULL_SCOPE, DEFAULT_BASELINE)


@pytest.mark.parametrize("preset", SCOPE_PRESETS)
def test_scope_preset_echo(preset):
    scope = {"preset": preset, "layer_range": [1, 2]} if preset == "layers" else preset
    assert echo(MergeConfig.from_dict({"scope": scope})) == ECHO % ("dim3", SCOPE_ECHOES[preset], "null")


def test_every_key_echoes_under_its_name():
    cfg = MergeConfig.from_dict({
        "method": "ties", "estimator": "zscore", "aggregation": {"kind": "mag_weighted", "lambda": 0.6},
        "epsilon": 1e-6, "scope": {"preset": "layers", "layer_range": [0, 1], "exclude": ["*.bias"]},
        "shape_policy": "anchor-overlap", "seed": 3, "baseline": {"lambda": 0.5, "ties_density": 0.3},
        "output_dtype": "f32", "high_rank": "pass_through",
    })
    assert echo(cfg) == (
        '{"method": "ties", "estimator": "zscore", "aggregation": {"kind": "mag_weighted", "lambda": 0.6}, '
        '"epsilon": 1e-06, "scope": {"preset": "layers", "include": ["*"], "exclude": ["*.bias"], '
        '"layer_range": [0, 1], "layer_pattern": "*.layers.{n}.*", "range_exempt": ["*embed_tokens*", "*lm_head*"]}, '
        '"shape_policy": "anchor-overlap", "seed": 3, "baseline": {"lambda": 0.5, "dare_drop_p": 0.9, '
        '"ties_density": 0.3, "breadcrumbs_beta": 0.85, "breadcrumbs_gamma": 0.01}, "output_dtype": "f32", '
        '"high_rank": "pass_through"}')


CHOICES = [(MergeConfig, {"method": "soup"}), (MergeConfig, {"shape_policy": "bogus"}),
           (MergeConfig, {"high_rank": "nope"}), (MergeConfig, {"estimator": "bogus"}),
           (MergeConfig, {"output_dtype": "f16"}), (ScopeFilter, {"preset": "bogus"}),
           (ScopeFilter, {"preset": ["full"]}), (AggregationKind, {"kind": "median"})]


@pytest.mark.parametrize("record, kwargs", CHOICES, ids=[next(iter(kwargs)) for _, kwargs in CHOICES])
def test_a_named_value_is_checked_when_made(record, kwargs):
    [key] = kwargs
    with pytest.raises(ConfigError, match=f"^config value {key} must be one of ") as info:
        record(**kwargs)
    assert info.value.error_class == "config.bad_value"


def test_a_string_estimator_becomes_its_kind_and_merges():
    cfg = MergeConfig(estimator="zscore")
    assert cfg.estimator is EstimatorKind.ZSCORE
    assert cfg == MergeConfig(estimator=EstimatorKind.ZSCORE)
    base, ml, anchor = make_triple(seed=3)
    merged, report = merge_and_load(base, ml, anchor, cfg)
    want, _ = merge_and_load(base, ml, anchor, MergeConfig(estimator=EstimatorKind.ZSCORE))
    assert report.summary.merged_count > 0
    assert all(np.array_equal(merged[name].bits(), want[name].bits()) for name in want.names())
