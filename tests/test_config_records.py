"""The config records' one writer and one choice check.

The echo a merge report carries is pinned byte for byte: re-running it must
rebuild the same config. And a config made in code checks every named value
when it is made, as the reader does, and names it by its dotted key. The
settable keys are pinned, so adding or removing one means editing
``KNOBS`` on purpose.
"""

import json
import re
from pathlib import Path

import pytest

from dimerge.baselines import BaselineParams
from dimerge.cli import RunConfig
from dimerge.errors import ConfigError
from dimerge.merge import BASELINE_METHODS, MergeConfig
from dimerge.salience import AggregationKind
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
    with pytest.raises(ConfigError, match=f"^config value {record.section}.{key} must be one of ") as info:
        record(**kwargs)
    assert info.value.error_class == "config.bad_value"


def test_a_string_estimator_merges():
    base, ml, anchor = make_triple(seed=3)
    _, report = merge_and_load(base, ml, anchor, MergeConfig(estimator="zscore"))
    assert report.summary.merged_count > 0


@pytest.mark.parametrize("kind", ["dir_weighted", "mag_weighted"])
def test_a_weighted_kind_made_in_code_gets_the_config_lambda(kind):
    assert AggregationKind(kind) == AggregationKind.from_dict(kind) == AggregationKind(kind, 0.75)


# every settable config key, the baseline's expanded
KNOBS = [
    "schema_version", "base_path", "multilingual_path", "anchor_path",
    "remap.preset", "remap.base", "remap.multilingual", "remap.anchor",
    "merge.method", "merge.estimator", "merge.aggregation.kind", "merge.aggregation.lambda", "merge.epsilon",
    "merge.scope.preset", "merge.scope.include", "merge.scope.exclude", "merge.scope.layer_range",
    "merge.scope.layer_pattern", "merge.scope.range_exempt", "merge.shape_policy", "merge.seed",
    "merge.baseline.lambda", "merge.baseline.dare_drop_p", "merge.baseline.ties_density",
    "merge.baseline.breadcrumbs_beta", "merge.baseline.breadcrumbs_gamma", "merge.output_dtype", "merge.high_rank",
    "output_path", "report_path", "threads", "shard_limit",
    "diagnose.schema.preset", "diagnose.schema.layer_pattern", "diagnose.schema.module_labels",
    "diagnose.csv_path", "diagnose.json_path",
]


def _leaves(data: dict, prefix: str = ""):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_knob_inventory():
    """The dotted leaf keys of the run config, in order, are the pinned ones."""
    config = RunConfig().to_dict()
    config["merge"]["baseline"] = BaselineParams().to_dict()
    assert list(_leaves(config)) == KNOBS
