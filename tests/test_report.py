"""The merge report's records: ``Record.to_dict`` writes the whole report,
every entry lists every field, and the summary counts its entries."""

import json

import numpy as np
import pytest

from dimerge.cli import main
from dimerge.errors import ConfigError
from dimerge.merge import MergeConfig, TensorMergeReport
from dimerge.records import TensorRecord
from dimerge.scope import ScopeFilter
from dimerge.store import Checkpoint, save_checkpoint

from conftest import make_triple, merge_and_load

TOP_LEVEL = ["summary", "config", "alignment", "tensors"]
SUMMARY = ["merged_count", "pass_through_count", "mean_omega_ml", "seconds"]
ENTRY = ["name", "action", "method", "reason", "omega_ml_mean", "omega_ml_min", "omega_ml_max", "seconds"]


def with_scalar(ckpt: Checkpoint) -> Checkpoint:
    scalar = TensorRecord.from_array("model.scale", np.float32(0.5).reshape(()))
    return Checkpoint.from_records([*ckpt.tensors.values(), scalar])


def scoped_merge(method: str):
    """A merge of a small triple whose anchor has extra tensors, a scalar and
    an excluded layer, so every kind of entry occurs; its report as JSON."""
    base, ml, anchor = (with_scalar(c) for c in make_triple(seed=5))
    cfg = MergeConfig(method=method, scope=ScopeFilter(exclude=("*.layers.1.*",)))
    _, report = merge_and_load(base, ml, anchor, cfg)
    return report, json.loads(json.dumps(report.to_dict()))


@pytest.mark.parametrize("method", ["dim3", "ties"])
def test_entries_list_every_field_with_null_where_it_does_not_apply(method):
    _, data = scoped_merge(method)
    assert list(data) == TOP_LEVEL and list(data["summary"]) == SUMMARY
    assert all(list(entry) == ENTRY for entry in data["tensors"])
    for entry in data["tensors"]:
        omega = [entry[f"omega_ml_{stat}"] for stat in ("mean", "min", "max")]
        if entry["action"] == "merged":
            assert entry["method"] == method and entry["reason"] is None
            assert (None in omega) == (method != "dim3") and len(set(map(type, omega))) == 1
        else:
            assert entry["method"] is None and entry["reason"] is not None and omega == [None] * 3
    assert {e["reason"] for e in data["tensors"]} == {None, "anchor_only", "out_of_scope", "scalar"}


def test_summary_counts_its_entries():
    report, data = scoped_merge("dim3")
    actions = [entry.action for entry in report.tensors]
    summary = report.summary
    assert (summary.merged_count, summary.pass_through_count) == (actions.count("merged"), actions.count("pass_through"))
    assert summary.pass_through_count > 0 and summary.merged_count > 0
    omega = [entry.omega_ml_mean for entry in report.tensors if entry.action == "merged"]
    assert summary.mean_omega_ml == float(np.mean(omega))
    assert data["summary"] == {"merged_count": summary.merged_count, "pass_through_count": summary.pass_through_count,
                               "mean_omega_ml": summary.mean_omega_ml, "seconds": summary.seconds}
    assert data["config"] == MergeConfig(scope=ScopeFilter(exclude=("*.layers.1.*",))).to_dict()
    assert data["alignment"] == report.alignment.to_dict()


def test_every_pass_through_entry_times_its_copy():
    report, _ = scoped_merge("dim3")
    passed = [entry for entry in report.tensors if entry.action == "pass_through"]
    assert passed and all(entry.seconds > 0 for entry in passed)


def test_an_entry_action_is_merged_or_pass_through():
    with pytest.raises(ConfigError, match="action"):
        TensorMergeReport(name="x", action="nope")


def test_cli_report_keeps_its_keys_and_echoes_the_run_config(tmp_path):
    paths = {}
    for role, ckpt in zip(("base", "multilingual", "anchor"), make_triple(seed=6)):
        save_checkpoint(ckpt, tmp_path / role)
        paths[f"{role}_path"] = str(tmp_path / role)
    config = {**paths, "output_path": str(tmp_path / "merged"), "threads": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["merge", "--config", str(tmp_path / "cfg.json")]) == 0
    report = json.loads((tmp_path / "merged.report.json").read_text())
    assert list(report) == TOP_LEVEL and list(report["summary"]) == SUMMARY
    assert all(list(entry) == ENTRY for entry in report["tensors"])
    assert {key: report["config"][key] for key in config} == config
    assert list(report["config"]) == ["schema_version", *paths, "remap", "merge", "output_path", "report_path",
                                      "threads", "shard_limit", "diagnose"]
