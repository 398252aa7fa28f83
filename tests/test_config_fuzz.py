"""Property tests: the config readers on mutated configs, and the echo.

One node of a valid run config (a value, a list item or a whole section) is
replaced with any JSON value, NaN and Infinity included, either in place or
through a ``--set`` override. Whatever the replacement, each reader returns
a setting of the right types or raises ``ConfigError``; no other exception
escapes. And a merge config reads back from its own echo:
``MergeConfig.from_dict(cfg.to_dict()) == cfg`` for every scope preset,
aggregation kind, estimator and method.
"""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dimerge.cli import RunConfig, apply_overrides
from dimerge.diagnostics import DiagnoseConfig
from dimerge.errors import ConfigError
from dimerge.merge import MERGE_METHODS, MergeConfig
from dimerge.presets import RemapRules
from dimerge.salience import ESTIMATORS
from dimerge.scope import SCOPE_PRESETS

PROPERTY = settings(max_examples=400)

VALID = {
    "threads": 2,
    "shard_limit": 1000,
    "remap": {"preset": "llama", "anchor": [["language_model.", ""]]},
    "merge": {
        "method": "ties",
        "estimator": "zscore",
        "aggregation": {"kind": "mag_weighted", "lambda": 0.6},
        "epsilon": 1e-8,
        "scope": {"preset": "layers", "layer_range": [0, 1], "include": ["*"], "exclude": ["*.bias"],
                  "layer_pattern": "*.layers.{n}.*", "range_exempt": ["*embed_tokens*"]},
        "shape_policy": "anchor-overlap",
        "seed": 3,
        "baseline": {"lambda": 1.0, "dare_drop_p": 0.5, "ties_density": 0.2, "breadcrumbs_beta": 0.8,
                     "breadcrumbs_gamma": 0.01},
        "output_dtype": "f32",
        "high_rank": "pass_through",
    },
    "diagnose": {
        "schema": {"preset": "qwen3", "layer_pattern": "*.h.{n}.*", "module_labels": [["q_proj", "attn.q"]]},
        "csv_path": "d.csv",
        "json_path": "d.json",
    },
}

AGGREGATION_KINDS = ("average", "dir_weighted", "mag_weighted", "mag_only", "dir_only")
NAMES = ("llama", "qwen3", "layers", "embed_only", "custom", "average", "mag_weighted", "rank", "ties", "*")
KEYS = ("preset", "kind", "lambda", "layer_range", "include", "anchor", "module_labels", "schema", "method")

# values no config key takes, and near misses of ones it does
EDGES = (True, False, math.nan, math.inf, -math.inf, 10**400, 1.5, 0, -1, "3", "0.6", [], {})

LEAF = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.sampled_from(NAMES)
# an edge, another leaf, or a list or an object, each as often
JSON_VALUE = st.sampled_from(EDGES) | LEAF | st.recursive(
    LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                                                inner, max_size=3),
    max_leaves=6,
)


def node_paths(node, prefix=()):
    """The path to every node below ``node``: sections, values and list items."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


PATHS = list(node_paths(VALID))


def holds_non_value(value) -> bool:
    """Whether ``value`` holds a bool, a NaN or an infinity."""
    if isinstance(value, (dict, list)):
        return any(map(holds_non_value, value.values() if isinstance(value, dict) else value))
    return isinstance(value, bool) or isinstance(value, float) and not math.isfinite(value)


def is_finite_number(x) -> bool:
    return type(x) is float and math.isfinite(x)


def is_pairs(rules) -> bool:
    return all(len(rule) == 2 and all(type(s) is str for s in rule) for rule in rules)


def check_merge(config):
    cfg = MergeConfig.from_dict(config["merge"])
    assert type(cfg.seed) is int and is_finite_number(cfg.epsilon) and cfg.epsilon > 0
    assert all(type(p) is str for p in cfg.scope.include + cfg.scope.exclude + cfg.scope.range_exempt)
    assert cfg.scope.layer_range is None or all(type(n) is int for n in cfg.scope.layer_range)
    assert cfg.baseline is None or all(map(is_finite_number, cfg.baseline.to_dict().values()))
    assert MergeConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def check_remap(config):
    rules = RemapRules.from_dict(config.get("remap"))
    assert all(is_pairs(getattr(rules, role)) for role in ("base", "multilingual", "anchor"))


def check_diagnose(config):
    cfg = DiagnoseConfig.from_dict(config.get("diagnose"))
    assert type(cfg.schema.layer_pattern) is str and is_pairs(cfg.schema.module_labels)
    assert all(path is None or type(path) is str for path in (cfg.csv_path, cfg.json_path))


def check_counts(config):
    run = RunConfig.from_dict({key: config.get(key) for key in ("threads", "shard_limit")})
    assert run.threads is None or type(run.threads) is int and run.threads >= 1
    assert type(run.shard_limit) is int and run.shard_limit >= 1


# top-level key -> the check that reads it
CHECKS = {"merge": check_merge, "remap": check_remap, "diagnose": check_diagnose, "threads": check_counts,
          "shard_limit": check_counts}


@settings(PROPERTY, max_examples=1000)
@given(st.sampled_from(PATHS), JSON_VALUE, st.booleans())
def test_mutated_config_reads_or_raises_config_error(path, value, via_set):
    if via_set and all(type(key) is str for key in path):
        try:
            config = apply_overrides(VALID, [f"{'.'.join(path)}={json.dumps(value)}"])
        except ConfigError:
            return
    else:
        config = copy.deepcopy(VALID)
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    for section, check in CHECKS.items():
        try:
            check(config)
        except ConfigError:
            continue
        # no value of any kind is a bool, NaN or infinite
        assert not (path[0] == section and holds_non_value(value))


@PROPERTY
@given(
    method=st.sampled_from(MERGE_METHODS),
    estimator=st.sampled_from(ESTIMATORS),
    kind=st.sampled_from(AGGREGATION_KINDS),
    preset=st.sampled_from(sorted(SCOPE_PRESETS)),
    lam=st.none() | st.floats(0.51, 0.99),
    lo=st.integers(0, 40),
    width=st.integers(0, 40),
    seed=st.integers(-2**70, 2**70),
    epsilon=st.floats(1e-30, 1.0),
)
def test_config_reads_back_from_its_echo(method, estimator, kind, preset, lam, lo, width, seed, epsilon):
    scope = {"preset": preset, "layer_range": [lo, lo + width]} if preset == "layers" else preset
    aggregation = {"kind": kind, "lambda": lam} if kind.endswith("weighted") else kind
    cfg = MergeConfig.from_dict({"method": method, "estimator": estimator, "aggregation": aggregation,
                                 "scope": scope, "seed": seed, "epsilon": epsilon})
    assert (cfg.method, cfg.estimator, cfg.aggregation.kind, cfg.scope.preset) == (method, estimator, kind, preset)
    assert MergeConfig.from_dict(cfg.to_dict()) == cfg
    assert MergeConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
