import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dimerge.merge as merge_module
from dimerge import cli, diagnostics
from dimerge.cli import apply_overrides, main
from dimerge.diagnostics import ModuleKeySchema
from dimerge.errors import ConfigError, FormatError
from dimerge.presets import RemapRules, remap_rules
from dimerge.records import TensorRecord
from dimerge.store import Checkpoint, load_checkpoint, save_checkpoint

from conftest import LAYERS, change_file, make_triple
from test_merge import checkpoint_digest


@pytest.fixture
def workspace(tmp_path):
    base, ml, anchor = make_triple(seed=21)
    # anchor backbone keys carry the nested prefix the remap rules strip
    prefixed = [
        rec if rec.name.startswith(("vision_tower", "multi_modal_projector"))
        else rec.renamed("language_model." + rec.name)
        for rec in anchor.tensors.values()
    ]
    anchor_prefixed = Checkpoint.from_records(prefixed)

    paths = {}
    for label, ckpt in (("base", base), ("ml", ml), ("anchor", anchor_prefixed)):
        target = tmp_path / label
        save_checkpoint(ckpt, target)
        paths[label] = str(target)

    config = {
        "schema_version": 1,
        "base_path": paths["base"],
        "multilingual_path": paths["ml"],
        "anchor_path": paths["anchor"],
        "output_path": str(tmp_path / "merged"),
        "remap": {"preset": "llama"},
        "merge": {"method": "dim3"},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config, config_path


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def refuse_rename_onto(monkeypatch, target):
    """Make a commit fail at its rename of a staged file onto ``target``."""
    replace = os.replace

    def refusing(source, dest, **kwargs):
        if Path(dest) == Path(target) and str(source).endswith(".partial"):
            raise OSError(f"cannot rename onto {dest}")
        replace(source, dest, **kwargs)

    monkeypatch.setattr(os, "replace", refusing)


def tree_bytes(root):
    files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root.parent)): p.read_bytes() for p in files}


class TestMergeCommand:
    def test_merge_exits_zero_and_reports(self, workspace, capsys):
        tmp_path, config, config_path = workspace
        assert main(["merge", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "merged" in out and "mean omega_ml" in out

        report = json.loads((tmp_path / "merged.report.json").read_text())
        backbone = len(make_triple(seed=21)[0].names())
        assert report["summary"]["merged_count"] == backbone
        assert report["config"]["merge"]["seed"] == 0

        merged = load_checkpoint(tmp_path / "merged")
        assert "model.embed_tokens.weight" in merged

    def test_dare_default_seed_recorded(self, workspace):
        tmp_path, config, _ = workspace
        config["merge"] = {"method": "dare"}
        config_path = write_config(tmp_path, config)
        assert main(["merge", "--config", config_path]) == 0
        report = json.loads((tmp_path / "merged.report.json").read_text())
        assert report["config"]["merge"]["seed"] == 0
        assert report["config"]["merge"]["method"] == "dare"

    def test_missing_anchor_path_is_config_error(self, workspace, capsys):
        tmp_path, config, _ = workspace
        del config["anchor_path"]
        config_path = write_config(tmp_path, config)
        assert main(["merge", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert "error[config.missing_path]" in err
        assert not (tmp_path / "merged").exists()

    def test_output_collision_rejected(self, workspace, capsys):
        """An output, report or table path that is the config file, or is,
        holds or lies inside an input path, is refused before anything is
        written, by ``merge`` and ``diagnose`` alike, so no input can be
        deleted or overwritten."""
        tmp_path, config, _ = workspace
        is_an_input = dict(config, output_path=config["anchor_path"])
        # single-file inputs in one directory, which is the output path
        input_inside_output = dict(config, output_path=str(tmp_path / "models"))
        for key in ("base_path", "multilingual_path", "anchor_path"):
            target = tmp_path / "models" / f"{key}.safetensors"
            save_checkpoint(load_checkpoint(config[key]), target)
            input_inside_output[key] = str(target)
        save_checkpoint(load_checkpoint(config["anchor_path"]), tmp_path / "anchor_sh", shard_limit=200)
        output_inside_input = dict(config, anchor_path=str(tmp_path / "anchor_sh"),
                                   output_path=str(tmp_path / "anchor_sh" / "merged"))
        report_is_an_input = dict(config, report_path=str(tmp_path / "models" / "base_path.safetensors"),
                                  base_path=str(tmp_path / "models" / "base_path.safetensors"))
        csv_is_an_input = dict(report_is_an_input, diagnose={"csv_path": report_is_an_input["base_path"]})
        json_holds_the_inputs = dict(config, diagnose={"json_path": str(tmp_path)})
        # the config file written below is an input too
        output_is_the_config = dict(config, output_path=str(tmp_path / "cfg.json"))
        report_is_the_config = dict(config, report_path=str(tmp_path / "cfg.json"))
        csv_is_the_config = dict(config, diagnose={"csv_path": str(tmp_path / "cfg.json")})
        for command, case in (("merge", is_an_input), ("merge", input_inside_output), ("merge", output_inside_input),
                              ("merge", report_is_an_input), ("diagnose", csv_is_an_input),
                              ("diagnose", json_holds_the_inputs), ("merge", output_is_the_config),
                              ("merge", report_is_the_config), ("diagnose", csv_is_the_config)):
            before = {key: tree_bytes(Path(case[key])) for key in ("base_path", "multilingual_path", "anchor_path")}
            config_path = write_config(tmp_path, case)
            config_bytes = Path(config_path).read_bytes()
            assert main([command, "--config", config_path]) == 2, (command, case["output_path"])
            assert "config.output_collision" in capsys.readouterr().err
            assert {key: tree_bytes(Path(case[key])) for key in before} == before
            assert Path(config_path).read_bytes() == config_bytes

    @pytest.mark.parametrize("name", ["r.safetensors", "model.safetensors.index.json"])
    def test_report_named_like_a_tensor_file_is_refused(self, workspace, capsys, name):
        """A report named like a checkpoint file would make the output
        directory unloadable; it is refused before any input is loaded."""
        tmp_path, config, _ = workspace
        config.update(report_path=str(tmp_path / "merged" / name), anchor_path=str(tmp_path / "missing"))
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith("error[config.output_collision]")
        assert not (tmp_path / "merged").exists()

    @pytest.mark.parametrize("command, key", [("merge", "report_path"), ("diagnose", "csv_path"),
                                              ("diagnose", "json_path")])
    def test_output_file_at_a_directory_is_refused(self, workspace, capsys, monkeypatch, command, key):
        """A report or table path that is an existing directory is refused
        before any input is loaded, not once the whole run is done and the
        commit cannot rename the file over the directory."""
        tmp_path, config, _ = workspace
        (tmp_path / "taken" / "kept").mkdir(parents=True)
        if command == "merge":
            config[key] = str(tmp_path / "taken")
        else:
            config["diagnose"] = {key: str(tmp_path / "taken")}
        loaded = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loaded.append(path) or load_checkpoint(path))
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith("error[config.output_collision]")
        assert not loaded
        assert [p.name for p in (tmp_path / "taken").iterdir()] == ["kept"]
        assert not (tmp_path / "merged").exists()

    def test_set_overrides_leaf_fields(self, workspace):
        tmp_path, config, config_path = workspace
        rc = main([
            "merge", "--config", str(config_path),
            "--set", "merge.method=task_arithmetic",
            "--set", 'merge.baseline={"lambda": 0.5}',
            "--output", str(tmp_path / "ta_out"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "ta_out.report.json").read_text())
        assert report["config"]["merge"]["method"] == "task_arithmetic"
        assert report["config"]["merge"]["baseline"]["lambda"] == 0.5

    def test_config_echo_reproduces_output(self, workspace):
        tmp_path, config, config_path = workspace
        assert main(["merge", "--config", str(config_path)]) == 0
        first = load_checkpoint(tmp_path / "merged")
        report = json.loads((tmp_path / "merged.report.json").read_text())

        echoed = report["config"]
        echoed["output_path"] = str(tmp_path / "again")
        rerun_path = write_config(tmp_path, echoed, "echo.json")
        assert main(["merge", "--config", rerun_path]) == 0
        second = load_checkpoint(tmp_path / "again")
        assert checkpoint_digest(first) == checkpoint_digest(second)

    def test_layer_scope_echo_names_its_preset(self, workspace):
        """A layer-scoped run echoes the layers preset with its range, and the
        echo reads back to the same merge."""
        tmp_path, config, _ = workspace
        config["merge"]["scope"] = {"preset": "layers", "layer_range": [0, 0]}
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 0
        echoed = json.loads((tmp_path / "merged.report.json").read_text())["config"]
        assert echoed["merge"]["scope"]["preset"] == "layers"
        assert echoed["merge"]["scope"]["layer_range"] == [0, 0]
        echoed["output_path"] = str(tmp_path / "again")
        assert main(["merge", "--config", write_config(tmp_path, echoed, "echo.json")]) == 0
        assert checkpoint_digest(load_checkpoint(tmp_path / "merged")) == checkpoint_digest(
            load_checkpoint(tmp_path / "again"))

    def test_string_sections_read_as_their_object_forms(self, workspace):
        tmp_path, config, _ = workspace
        written = {}
        for form, scope, remap in (("object", {"preset": "embed_only"}, {"preset": "llama"}),
                                   ("string", "embed_only", "llama")):
            config["merge"]["scope"], config["remap"] = scope, remap
            out = tmp_path / f"{form}.safetensors"
            assert main(["merge", "--config", write_config(tmp_path, config), "--output", str(out)]) == 0
            written[form] = out.read_bytes()
        assert written["object"] == written["string"]

    def test_inputs_not_mutated(self, workspace):
        tmp_path, config, config_path = workspace
        before = checkpoint_digest(load_checkpoint(config["anchor_path"]))
        assert main(["merge", "--config", str(config_path)]) == 0
        after = checkpoint_digest(load_checkpoint(config["anchor_path"]))
        assert before == after

    def test_unwritable_output_cleans_up(self, workspace, capsys):
        tmp_path, config, _ = workspace
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        config["output_path"] = str(blocker / "merged")
        config_path = write_config(tmp_path, config)
        rc = main(["merge", "--config", config_path])
        assert rc == 3
        assert blocker.is_file()

    def test_failed_report_write_keeps_previous_output(self, workspace, monkeypatch):
        tmp_path, config, config_path = workspace
        assert main(["merge", "--config", str(config_path)]) == 0
        before = tree_bytes(tmp_path / "merged")
        refuse_rename_onto(monkeypatch, tmp_path / "merged.report.json")
        config["merge"] = {"method": "task_arithmetic"}
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 3
        assert tree_bytes(tmp_path / "merged") == before
        # no staged file or kept link of the failed commit is left anywhere
        assert not list(tmp_path.rglob(".*"))

    @pytest.mark.parametrize("how", ["rewritten_in_place", "replaced_by_rename"])
    def test_input_changed_between_passes_commits_nothing(self, workspace, capsys, monkeypatch, how):
        """A multilingual file changed after pass 1 of the first merged tensor
        read it and before its pass 2 makes the run exit 3 naming the file,
        and the output and report of an earlier run stay byte for byte."""
        tmp_path, config, config_path = workspace
        assert main(["merge", "--config", str(config_path)]) == 0
        before = {**tree_bytes(tmp_path / "merged"), **tree_bytes(tmp_path / "merged.report.json")}
        ml_file = Path(config["multilingual_path"]) / "model.safetensors"
        os.utime(ml_file, ns=(0, 0))   # written long before the run, so a rewrite shows in its mtime
        changed, write_merged = [], merge_module._write_merged

        def change_before_pass_2(name, anchor, region, compose, *args):
            if compose is not None and not changed:
                change_file(ml_file, how)
                changed.append(name)
            write_merged(name, anchor, region, compose, *args)

        monkeypatch.setattr(merge_module, "_write_merged", change_before_pass_2)
        assert main(["merge", "--config", str(config_path), "--threads", "1"]) == 3
        assert changed
        assert f"error[io.format]: {ml_file}: input file changed during the run" in capsys.readouterr().err
        assert {**tree_bytes(tmp_path / "merged"), **tree_bytes(tmp_path / "merged.report.json")} == before
        assert not list(tmp_path.rglob(".*.partial"))

    def test_input_truncated_between_passes_is_a_format_error(self, workspace, capsys, monkeypatch):
        """An input truncated during a run is an I/O error (exit 3) naming
        the file, raised by the first read past its new end: pass 2 of the
        tensor after whose pass 1 it was truncated. The output and report of
        an earlier run stay byte for byte, and no staged file is left."""
        tmp_path, config, config_path = workspace
        assert main(["merge", "--config", str(config_path)]) == 0
        before = {**tree_bytes(tmp_path / "merged"), **tree_bytes(tmp_path / "merged.report.json")}
        ml_file = Path(config["multilingual_path"]) / "model.safetensors"
        write_merged, truncated, raised = merge_module._write_merged, [], []

        def truncate_before_pass_2(name, anchor, region, compose, *args):
            if compose is not None and not truncated:
                os.truncate(ml_file, 0)
                truncated.append(name)
            try:
                write_merged(name, anchor, region, compose, *args)
            except FormatError as exc:
                raised.append((name, str(exc)))
                raise

        monkeypatch.setattr(merge_module, "_write_merged", truncate_before_pass_2)
        assert main(["merge", "--config", str(config_path), "--threads", "1"]) == 3
        message = f"{ml_file}: input file changed during the run"
        assert raised == [(truncated[0], message)]
        assert f"error[io.format]: {message}" in capsys.readouterr().err
        assert {**tree_bytes(tmp_path / "merged"), **tree_bytes(tmp_path / "merged.report.json")} == before
        assert not list(tmp_path.rglob(".*"))

    def test_other_files_at_the_output_path_stay(self, workspace):
        tmp_path, config, config_path = workspace
        out = tmp_path / "merged"
        (out / "sub").mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
        (out / "sub" / "more.txt").write_text("kept too")
        assert main(["merge", "--config", str(config_path)]) == 0
        assert (out / "notes.txt").read_text() == "kept" and (out / "sub" / "more.txt").read_text() == "kept too"
        assert load_checkpoint(out).names()

    @pytest.mark.parametrize("out", ["merged", "merged.safetensors"])
    def test_output_path_of_the_other_kind_is_left_alone(self, workspace, capsys, out):
        """A file where a directory checkpoint goes, or a directory at a
        ``.safetensors`` path, is an I/O error and is not deleted."""
        tmp_path, config, config_path = workspace
        if out.endswith(".safetensors"):
            (tmp_path / out).mkdir()
            (tmp_path / out / "notes.txt").write_text("kept")
        else:
            (tmp_path / out).write_text("a file, not a checkpoint directory")
        before = tree_bytes(tmp_path / out)
        assert main(["merge", "--config", str(config_path), "--output", str(tmp_path / out)]) == 3
        assert capsys.readouterr().err.startswith("error[io.os]")
        assert tree_bytes(tmp_path / out) == before
        assert not (tmp_path / f"{out}.report.json").exists()

    def test_report_path_in_a_new_directory(self, workspace):
        tmp_path, config, _ = workspace
        config["report_path"] = str(tmp_path / "reports" / "run1" / "merged.json")
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 0
        report = json.loads((tmp_path / "reports" / "run1" / "merged.json").read_text())
        assert report["config"]["merge"]["method"] == "dim3"

    def test_set_descends_into_the_string_form_of_aggregation(self, workspace):
        tmp_path, config, _ = workspace
        config["merge"]["aggregation"] = "mag_weighted"
        assert main(["merge", "--config", write_config(tmp_path, config), "--set", "merge.aggregation.lambda=0.6"]) == 0
        report = json.loads((tmp_path / "merged.report.json").read_text())
        assert report["config"]["merge"]["aggregation"] == {"kind": "mag_weighted", "lambda": 0.6}

    def test_non_finite_input_is_numeric_error(self, workspace, capsys):
        tmp_path, config, _ = workspace
        ml = load_checkpoint(config["multilingual_path"])
        name = "model.layers.1.mlp.up_proj.weight"
        values = ml[name].to_f32()
        values[0, 0] = np.nan
        ml.tensors[name] = TensorRecord.from_array(name, values, dtype=ml[name].dtype)
        save_checkpoint(ml, tmp_path / "ml_nan")
        config["multilingual_path"] = str(tmp_path / "ml_nan")
        config["merge"] = {"method": "breadcrumbs"}
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 4
        err = capsys.readouterr().err
        assert "error[numeric.value]" in err and name in err
        assert not (tmp_path / "merged").exists()

    @pytest.mark.parametrize("key", ["base_path", "multilingual_path", "anchor_path"])
    def test_input_path_that_does_not_exist_is_config_error(self, workspace, capsys, key):
        tmp_path, config, _ = workspace
        config[key] = str(tmp_path / "missing")
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config.missing_path]: {key} does not exist")
        assert not (tmp_path / "merged").exists()

    @pytest.mark.parametrize("output", [None, ""], ids=["left_out", "empty"])
    def test_output_path_is_required(self, workspace, capsys, output):
        tmp_path, config, _ = workspace
        config.pop("output_path")
        if output is not None:
            config["output_path"] = output
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith("error[config.missing_path]: config field 'output_path' is required")

    def test_threads_flag_keeps_output_stable(self, workspace):
        tmp_path, config, config_path = workspace
        assert main(["merge", "--config", str(config_path), "--threads", "4",
                     "--output", str(tmp_path / "t4")]) == 0
        assert main(["merge", "--config", str(config_path), "--threads", "1",
                     "--output", str(tmp_path / "t1")]) == 0
        a = load_checkpoint(tmp_path / "t4")
        b = load_checkpoint(tmp_path / "t1")
        assert checkpoint_digest(a) == checkpoint_digest(b)

    @pytest.mark.parametrize("args, key", [
        (["--set", "merge.methd=ties"], "merge.methd"),
        (["--set", "merge.method=ties", "--set", "merge.baseline.ties_densty=0.5"], "merge.baseline.ties_densty"),
        (["--set", "merge.aggregation.lamda=0.5"], "merge.aggregation.lamda"),
        (["--set", 'merge.scope.inclde=["*"]'], "merge.scope.inclde"),
        (["--set", 'threads="abc"'], "threads"),
        (["--set", 'shard_limit="x"'], "shard_limit"),
        (["--set", "shard_limit=0"], "shard_limit"),
        (["--threads", "-3"], "threads"),
        (["--set", "remap.anchr=[]"], "remap.anchr"),
        (["--set", "merge.method=ties", "--set", "merge.baseline.lambda=NaN"], "lambda"),
        (["--set", "merge.method=dare", "--set", "merge.baseline.lambda=-Infinity"], "lambda"),
        (["--set", "merge.epsilon=NaN"], "epsilon"),
        (["--set", "merge.epsilon=Infinity"], "epsilon"),
        (["--set", "merge.seed=1.7"], "merge.seed"),
        (["--set", 'merge.seed="3"'], "merge.seed"),
        (["--set", "merge.seed=true"], "merge.seed"),
        (["--set", "merge.seed=NaN"], "merge.seed"),
        (["--set", "merge.epsilon=true"], "merge.epsilon"),
        (["--set", "merge.epsilon=x"], "merge.epsilon"),
        (["--set", "merge.estimator=bogus"], "merge.estimator"),
        (["--set", "merge.method=ties", "--set", "merge.baseline.lambda=abc"], "merge.baseline.lambda"),
        (["--set", "merge.aggregation.kind=mag_weighted", "--set", 'merge.aggregation.lambda="0.6"'],
         "merge.aggregation.lambda"),
        (["--set", "merge.aggregation=5"], "merge.aggregation"),
        (["--set", "merge.scope.include=lm_head.weight"], "merge.scope.include"),
        (["--set", "merge.scope.preset=lmhead_onyl"], "merge.scope.preset"),
        (["--set", "merge.scope.layer_range=[0]"], "merge.scope.layer_range"),
        (["--set", "merge.scope.layer_range=[3, 1]"], "merge.scope.layer_range"),
        (["--set", "remap.anchor=language_model."], "remap.anchor"),
        (["--set", "merge=ties"], "merge must be an object"),
        (["--set", "treads=1"], "treads"),
        (["--set", "schema_version=2"], "schema_version"),
        (["--set", "schema_version=true"], "schema_version"),
        (["--set", "schema_version=1.0"], "schema_version"),
        (["--set", 'schema_version="1"'], "schema_version"),
    ], ids=["merge_key", "baseline_key", "aggregation_key", "scope_key", "threads_string", "shard_limit_string",
            "shard_limit_zero", "threads_negative", "remap_key", "lambda_nan", "lambda_inf", "epsilon_nan",
            "epsilon_inf", "seed_fraction", "seed_string", "seed_bool", "seed_nan", "epsilon_bool", "epsilon_string",
            "estimator_unknown", "lambda_string", "aggregation_lambda_string", "aggregation_number",
            "scope_include_string", "scope_preset_unknown", "layer_range_short", "layer_range_reversed",
            "remap_rules_string", "merge_string", "top_level_key", "schema_version_override",
            "schema_version_bool", "schema_version_float", "schema_version_string"])
    def test_malformed_config_is_config_error(self, workspace, capsys, args, key):
        tmp_path, _, config_path = workspace
        assert main(["merge", "--config", str(config_path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config.") and key in err
        assert not (tmp_path / "merged").exists()

    def test_failed_run_logs_no_commit(self, workspace, caplog, monkeypatch):
        """At DEBUG, a run that fails after its writer closed says the writer
        closed and never that anything was committed."""
        tmp_path, config, _ = workspace
        refuse_rename_onto(monkeypatch, tmp_path / "merged.report.json")
        caplog.set_level(logging.DEBUG, logger="dimerge")
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 3
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if m.startswith("writer closed ")]
        assert not [m for m in messages if "committed" in m]
        assert not (tmp_path / "merged").exists()

    def test_default_threads_follow_cpu_affinity(self, workspace, monkeypatch):
        tmp_path, _, config_path = workspace
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["merge", "--config", str(config_path)]) == 0
        report = json.loads((tmp_path / "merged.report.json").read_text())
        assert report["config"]["threads"] == 1


class TestConfigChecks:
    @pytest.mark.parametrize("command", ["merge", "diagnose"])
    def test_unknown_top_level_key_is_config_error(self, workspace, capsys, command):
        """A misspelt top-level key in the file is refused, as one a level
        down is: a ``treads`` is not ignored while the run takes every CPU."""
        tmp_path, config, _ = workspace
        config.update(treads=1, diagnose={"csv_path": str(tmp_path / "d.csv")})
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config.unknown_key]") and "treads" in err
        assert not (tmp_path / "merged").exists() and not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("command", ["merge", "diagnose"])
    @pytest.mark.parametrize("text, error_class, match", [
        (None, "config.missing_path", "config file not found: "),
        ("{", "config.parse", "config is not valid JSON: "),
        ("[1, 2]", "config.parse", "config must be a JSON object"),
    ], ids=["missing", "not_json", "not_object"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, command, text, error_class, match):
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=match) as info:
            cli.load_config(str(path), [])
        assert info.value.error_class == error_class
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error[{error_class}]: {match}")

    @pytest.mark.parametrize("case", ["report_is_the_output_file", "report_is_the_output_tensor_file",
                                      "csv_is_the_json"])
    def test_a_path_written_twice_is_refused(self, workspace, capsys, case):
        """A run that would write one path twice exits 2 and leaves the
        earlier run's outputs byte for byte, with no hidden file behind."""
        tmp_path, config, _ = workspace
        command = "diagnose" if case == "csv_is_the_json" else "merge"
        output, again = {"report_is_the_output_file": ("merged.safetensors", "merged.safetensors"),
                         "report_is_the_output_tensor_file": ("merged", "merged/model.safetensors"),
                         "csv_is_the_json": ("merged", "diag.csv")}[case]
        config.update(output_path=str(tmp_path / output),
                      diagnose={"csv_path": str(tmp_path / "diag.csv"), "json_path": str(tmp_path / "diag.json")})
        assert main([command, "--config", write_config(tmp_path, config)]) == 0
        written = [p for p in tmp_path.iterdir() if p.name.startswith(("merged", "diag"))]
        before = {p.name: tree_bytes(p) for p in written}
        if command == "merge":
            config["report_path"] = str(tmp_path / again)
        else:
            config["diagnose"]["json_path"] = str(tmp_path / again)
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        assert "config.output_collision" in capsys.readouterr().err
        assert {p.name: tree_bytes(p) for p in written} == before
        assert not list(tmp_path.rglob(".*"))

    def test_set_without_an_equals_sign_is_config_error(self, workspace, capsys):
        tmp_path, _, config_path = workspace
        with pytest.raises(ConfigError, match="--set expects dotted.key=value, got 'merge.method'"):
            apply_overrides({}, ["merge.method"])
        assert main(["merge", "--config", str(config_path), "--set", "merge.method"]) == 2
        assert capsys.readouterr().err.startswith("error[config.bad_override]: --set expects dotted.key=value")
        assert not (tmp_path / "merged").exists()

    @pytest.mark.parametrize("args", [["--set", "threads=0"], ["--set", 'threads="abc"'], ["--threads", "-3"]],
                             ids=["threads_zero", "threads_string", "threads_negative"])
    @pytest.mark.parametrize("command", ["merge", "diagnose"])
    def test_bad_threads_is_config_error(self, workspace, capsys, command, args):
        tmp_path, config, _ = workspace
        config["diagnose"] = {"csv_path": str(tmp_path / "d.csv")}
        assert main([command, "--config", write_config(tmp_path, config), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config.bad_value]") and "threads" in err
        assert not (tmp_path / "merged").exists() and not (tmp_path / "d.csv").exists()

    def test_diagnose_threads_default_to_cpu_affinity(self, workspace, monkeypatch):
        """``diagnose`` takes its workers as ``merge`` does: ``--threads``,
        else the config's ``threads``, else one per CPU in the affinity mask."""
        tmp_path, config, _ = workspace
        config["diagnose"] = {"csv_path": str(tmp_path / "d.csv")}
        seen = []

        def spy(base, ml, anchor, schema, epsilon, threads):
            seen.append(threads)
            return diagnostics.diagnose(base, ml, anchor, schema, epsilon, threads)

        monkeypatch.setattr(cli, "diagnose", spy)
        for cpus, args in (({0}, []), ({0, 1, 2}, []), ({0}, ["--threads", "2"]), ({0}, ["--set", "threads=3"])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
            assert main(["diagnose", "--config", write_config(tmp_path, config), *args]) == 0
        assert seen == [1, 3, 2, 3]

    def test_one_config_serves_both_commands(self, workspace):
        """The known keys are those either command reads, so a config with
        the merge's keys and a diagnose section runs under each command, and
        so does a merge report's echo of it."""
        tmp_path, config, _ = workspace
        config.update(threads=1, shard_limit=1 << 30, report_path=str(tmp_path / "r.json"),
                      diagnose={"csv_path": str(tmp_path / "d.csv")})
        assert main(["merge", "--config", write_config(tmp_path, config)]) == 0
        assert main(["diagnose", "--config", write_config(tmp_path, config)]) == 0
        echo = json.loads((tmp_path / "r.json").read_text())["config"]
        (tmp_path / "d.csv").unlink()
        assert main(["diagnose", "--config", write_config(tmp_path, echo, "echo.json")]) == 0
        assert (tmp_path / "d.csv").is_file()

    @pytest.mark.parametrize("command, key", [("merge", "merge.scope.layer_pattern"),
                                              ("diagnose", "diagnose.schema.layer_pattern")])
    @pytest.mark.parametrize("pattern", ["model.layers.*", "*.{n}.{n}.*"])
    def test_layer_pattern_needs_one_capture_before_inputs_load(self, tmp_path, capsys, command, key, pattern):
        """A layer pattern without exactly one ``{n}`` is refused when the
        config is read: the inputs here do not exist, and the error names the
        pattern, not them. Only the command's own section holds it here."""
        config = {name: str(tmp_path / "missing" / name) for name in ("base_path", "multilingual_path", "anchor_path")}
        config.update(output_path=str(tmp_path / "merged"), merge={}, diagnose={"csv_path": str(tmp_path / "d.csv")})
        if command == "merge":
            config["merge"]["scope"] = {"layer_range": [0, 1], "layer_pattern": pattern}
        else:
            config["diagnose"]["schema"] = {"layer_pattern": pattern}
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config.bad_value]") and key in err and "exactly one {n}" in err

    @pytest.mark.parametrize("command, section, key", [
        ("merge", {"diagnose": {"bogus": 3}}, "diagnose.bogus"),
        ("merge", {"diagnose": {"schema": {"layer_pattern": "model.layers.*"}}}, "diagnose.schema.layer_pattern"),
        ("diagnose", {"merge": {"epsilon": -1}}, "merge.epsilon"),
        ("diagnose", {"merge": {"method": "nope"}}, "merge.method"),
        ("diagnose", {"merge": {"method": "dim3", "bogus": 1}}, "merge.bogus"),
        ("diagnose", {"merge": {"scope": {"layer_range": [0, 1], "layer_pattern": "*.{n}.{n}.*"}}},
         "merge.scope.layer_pattern"),
    ], ids=["diagnose_key", "diagnose_layer_pattern", "merge_epsilon", "merge_method", "merge_key",
            "merge_layer_pattern"])
    def test_each_command_refuses_the_other_commands_bad_section(self, tmp_path, capsys, command, section, key):
        """Both commands read the whole config, so a bad section of the other
        command's is refused as the command's own would be, before any input
        loads (the inputs here do not exist) and with nothing written."""
        config = {name: str(tmp_path / "missing" / name) for name in ("base_path", "multilingual_path", "anchor_path")}
        config.update(output_path=str(tmp_path / "merged"), diagnose={"csv_path": str(tmp_path / "d.csv")})
        for name, values in section.items():
            config.setdefault(name, {}).update(values)
        path = write_config(tmp_path, config)
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config.") and key in err
        assert [p.name for p in tmp_path.iterdir()] == [Path(path).name]

    def test_merge_echo_reads_back_as_the_run_config(self, workspace, monkeypatch):
        """A merge report's ``config`` is the run's :class:`RunConfig` as
        data, every section resolved and ``threads`` the number the run took,
        so it reads back as the same record."""
        tmp_path, _, config_path = workspace
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["merge", "--config", str(config_path)]) == 0
        echo = json.loads((tmp_path / "merged.report.json").read_text())["config"]
        run = cli.load_config(str(config_path), [])
        assert echo == run.to_dict() and echo["threads"] == 2
        assert cli.RunConfig.from_dict(echo) == run
        assert echo["remap"]["anchor"] == [list(rule) for rule in remap_rules("llama", "anchor")]
        assert echo["diagnose"]["schema"]["module_labels"]


class TestRemapPresets:
    def test_keys_beside_a_preset_replace_its_own(self):
        rules = RemapRules.from_dict({"preset": "qwen3", "anchor": [["vlm.", "model."]]})
        assert (rules.base, rules.multilingual, rules.anchor) == ((), (), (("vlm.", "model."),))
        assert list(RemapRules.from_dict({"preset": "qwen3"}).anchor) == remap_rules("qwen3", "anchor")
        assert RemapRules.from_dict(None) == RemapRules(base=(), multilingual=(), anchor=())

    def test_rules_per_family(self):
        qwen = [("model.language_model.", "model."), ("language_model.", "")]
        for family, anchor in (("llama", [("language_model.", "")]), ("qwen2", qwen), ("qwen3", qwen)):
            assert remap_rules(family, "base") == []
            assert remap_rules(family, "multilingual") == []
            assert remap_rules(family, "anchor") == anchor

    def test_unknown_family_is_config_error(self):
        with pytest.raises(ConfigError, match="no remap preset for family 'gpt2'"):
            remap_rules("gpt2", "anchor")
        with pytest.raises(ConfigError, match="diagnose.schema.preset must be one of .*, got 'gpt2'"):
            ModuleKeySchema.from_dict("gpt2")

    def test_returned_rules_are_copies(self):
        remap_rules("qwen2", "anchor").clear()
        assert remap_rules("qwen3", "anchor") == remap_rules("qwen2", "anchor") != []


class TestDiagnoseCommand:
    def test_row_count_matches_groups(self, workspace):
        tmp_path, config, _ = workspace
        config["diagnose"] = {
            "schema": {"preset": "llama"},
            "csv_path": str(tmp_path / "diag.csv"),
            "json_path": str(tmp_path / "diag.json"),
        }
        config_path = write_config(tmp_path, config)
        assert main(["diagnose", "--config", config_path]) == 0
        with open(tmp_path / "diag.csv") as fh:
            rows = list(csv.DictReader(fh))
        # per layer: 4 attention + 3 mlp + 2 norms; layer -1: embed, head, final norm
        assert len(rows) == LAYERS * 9 + 3
        assert json.loads((tmp_path / "diag.json").read_text())

    def test_cosine_guard_is_merge_epsilon(self, workspace):
        """``diagnose`` guards its cosines with ``merge.epsilon``, the one the
        merge weighs by: one past every column norm voids every column, so
        each row with direction columns reads a reorientation of exactly 1."""
        tmp_path, config, _ = workspace
        config["diagnose"] = {"csv_path": str(tmp_path / "d.csv")}
        assert main(["diagnose", "--config", write_config(tmp_path, config), "--set", "merge.epsilon=1e6"]) == 0
        with open(tmp_path / "d.csv") as fh:
            rows = [row for row in csv.DictReader(fh) if row["dirdev_ml"] != "nan"]
        assert rows and all(row["dirdev_ml"] == row["dirdev_mm"] == "1" for row in rows)

    def test_bad_schema_still_exports_with_layer_minus_one(self, workspace):
        tmp_path, config, _ = workspace
        config["diagnose"] = {
            "schema": {"layer_pattern": "*.blocks.{n}.*"},
            "csv_path": str(tmp_path / "d.csv"),
        }
        config_path = write_config(tmp_path, config)
        assert main(["diagnose", "--config", config_path]) == 0
        with open(tmp_path / "d.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["layer"] == "-1" for r in rows)

    @pytest.mark.parametrize("schema", ["qwen3", {"preset": "qwen3"}])
    def test_schema_keys_beside_a_preset_replace_its_own(self, schema):
        config = apply_overrides({"diagnose": {"schema": schema}}, ["diagnose.schema.layer_pattern=*.h.{n}.*"])
        resolved = ModuleKeySchema.from_dict(config["diagnose"]["schema"])
        assert resolved.layer_pattern == "*.h.{n}.*"
        qwen3_labels = ModuleKeySchema.from_dict("qwen3").module_labels
        assert resolved.module_labels == qwen3_labels != ModuleKeySchema().module_labels
        assert resolved.label_of("model.h.0.self_attn.q_norm.weight") == "attn.qnorm"

    @pytest.mark.parametrize("args, key, error_class", [
        (["--set", 'diagnose.csv_pth="d.csv"'], "diagnose.csv_pth", "config.unknown_key"),
        (["--set", 'diagnose.schema.layer_patern="*.h.{n}.*"'], "diagnose.schema.layer_patern", "config.unknown_key"),
        (["--set", "diagnose.schema=qwen3", "--set", "diagnose.schema.labels=[]"], "diagnose.schema.labels",
         "config.unknown_key"),
        (["--set", "remap.anchr=[]"], "remap.anchr", "config.unknown_key"),
        (["--set", "diagnose.epsilon=1e-8"], "diagnose.epsilon", "config.unknown_key"),
        (["--set", "merge.epsilon=NaN"], "merge.epsilon", "config.bad_value"),
        (["--set", "merge.epsilon=Infinity"], "merge.epsilon", "config.bad_value"),
        (["--set", 'diagnose.schema.module_labels=[["q_proj"]]'], "diagnose.schema.module_labels", "config.bad_value"),
        (["--set", "diagnose.schema.layer_pattern=5"], "diagnose.schema.layer_pattern", "config.bad_value"),
        (["--set", "remap.anchor=language_model."], "remap.anchor", "config.bad_value"),
        (["--set", "report_pth=r.json"], "report_pth", "config.unknown_key"),
    ], ids=["diagnose_key", "schema_key", "schema_key_beside_preset", "remap_key", "diagnose_epsilon",
            "merge_epsilon_nan", "merge_epsilon_inf", "module_labels_not_pairs", "layer_pattern_number",
            "remap_rules_string", "top_level_key"])
    def test_malformed_config_is_config_error(self, workspace, capsys, args, key, error_class):
        tmp_path, config, _ = workspace
        config["diagnose"] = {"schema": {"preset": "llama"}, "csv_path": str(tmp_path / "d.csv")}
        assert main(["diagnose", "--config", write_config(tmp_path, config), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{error_class}]") and key in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("merge, key", [
        ({"epsilon": 0}, "merge.epsilon"),
        ({"method": "dare", "baseline": {"dare_drop_p": 1.5}}, "merge.baseline.dare_drop_p"),
        ({"method": "ties", "baseline": {"ties_density": 0}}, "merge.baseline.ties_density"),
        ({"method": "breadcrumbs", "baseline": {"breadcrumbs_gamma": -0.1}}, "merge.baseline.breadcrumbs_gamma"),
        ({"method": "breadcrumbs", "baseline": {"breadcrumbs_beta": 0.9, "breadcrumbs_gamma": 0.2}},
         "merge.baseline.breadcrumbs_beta"),
        ({"baseline": {"lambda": 0.5}}, "merge.baseline"),
        ({"aggregation": {"kind": "dir_weighted", "lambda": 0.3}}, "merge.aggregation.lambda"),
        ({"aggregation": {"kind": "average", "lambda": 0.6}}, "merge.aggregation.lambda"),
    ], ids=["epsilon_zero", "dare_drop_p", "ties_density", "breadcrumbs_fraction", "breadcrumbs_sum",
            "baseline_with_dim3", "aggregation_lambda_range", "aggregation_lambda_unused"])
    def test_bad_merge_value_names_its_key(self, workspace, capsys, merge, key):
        """A ``diagnose`` run reads the whole config, so a ``merge`` value out
        of its range is refused there too, by a message naming its dotted key."""
        tmp_path, config, _ = workspace
        config["merge"] = merge
        config["diagnose"] = {"csv_path": str(tmp_path / "d.csv")}
        assert main(["diagnose", "--config", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config.invalid]: {key}")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("section", [None, {"csv_path": ""}, {"schema": "qwen3"}],
                             ids=["null", "empty_csv_path", "schema_only"])
    def test_no_table_path_is_config_error(self, workspace, capsys, section):
        """A ``diagnose`` section that names no table is refused, as the
        section's own values are, before any input loads."""
        tmp_path, config, _ = workspace
        config["diagnose"], config["anchor_path"] = section, str(tmp_path / "missing")
        assert main(["diagnose", "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err == "error[config.missing_path]: diagnose config needs csv_path and/or json_path\n"

    def test_unwritable_output_fails_nonzero(self, workspace, capsys):
        tmp_path, config, _ = workspace
        (tmp_path / "blocker").write_text("a file, not a directory")
        config["diagnose"] = {"csv_path": str(tmp_path / "blocker" / "d.csv")}
        config_path = write_config(tmp_path, config)
        assert main(["diagnose", "--config", config_path]) == 3
        assert (tmp_path / "blocker").read_text() == "a file, not a directory"

    def test_tables_in_a_new_directory(self, workspace):
        """``diagnose`` makes its tables' directories, as ``merge`` makes its
        report's."""
        tmp_path, config, _ = workspace
        config["diagnose"] = {"csv_path": str(tmp_path / "tables" / "run1" / "d.csv"),
                              "json_path": str(tmp_path / "tables" / "d.json")}
        assert main(["diagnose", "--config", write_config(tmp_path, config)]) == 0
        assert (tmp_path / "tables" / "run1" / "d.csv").is_file() and (tmp_path / "tables" / "d.json").is_file()

    def test_input_changed_during_the_run_exports_nothing(self, workspace, capsys, monkeypatch):
        """An anchor file rewritten in place while the first tensor is measured
        makes the run exit 3 naming the file, and the tables of an earlier run
        stay byte for byte."""
        tmp_path, config, _ = workspace
        config["diagnose"] = {"csv_path": str(tmp_path / "diag.csv"), "json_path": str(tmp_path / "diag.json")}
        config_path = write_config(tmp_path, config)
        assert main(["diagnose", "--config", config_path]) == 0
        before = {name: (tmp_path / name).read_bytes() for name in ("diag.csv", "diag.json")}
        anchor_file = Path(config["anchor_path"]) / "model.safetensors"
        os.utime(anchor_file, ns=(0, 0))
        changed, stream = [], diagnostics.stream_column_sums

        def change_while_measuring(triple, *args):
            if not changed:
                change_file(anchor_file, "rewritten_in_place")
                changed.append(triple.name)
            return stream(triple, *args)

        monkeypatch.setattr(diagnostics, "stream_column_sums", change_while_measuring)
        assert main(["diagnose", "--config", config_path, "--threads", "1"]) == 3
        assert changed
        assert f"error[io.format]: {anchor_file}: input file changed during the run" in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in before} == before

    def test_input_truncated_between_tensors_is_a_format_error(self, workspace, capsys, monkeypatch):
        """An anchor file truncated after the first tensor is measured makes
        the run exit 3 naming the file, raised by the next tensor's first
        read; the tables of an earlier run stay byte for byte, and no staged
        file is left."""
        tmp_path, config, _ = workspace
        config["diagnose"] = {"csv_path": str(tmp_path / "diag.csv"), "json_path": str(tmp_path / "diag.json")}
        config_path = write_config(tmp_path, config)
        assert main(["diagnose", "--config", config_path]) == 0
        before = {name: (tmp_path / name).read_bytes() for name in ("diag.csv", "diag.json")}
        anchor_file = Path(config["anchor_path"]) / "model.safetensors"
        measured, raised, stream = [], [], diagnostics.stream_column_sums

        def truncate_between_tensors(triple, *args):
            if len(measured) == 1:
                os.truncate(anchor_file, 0)
            measured.append(triple.name)
            try:
                return stream(triple, *args)
            except FormatError as exc:
                raised.append((triple.name, str(exc)))
                raise

        monkeypatch.setattr(diagnostics, "stream_column_sums", truncate_between_tensors)
        assert main(["diagnose", "--config", config_path, "--threads", "1"]) == 3
        message = f"{anchor_file}: input file changed during the run"
        assert raised == [(measured[1], message)]
        assert f"error[io.format]: {message}" in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        assert not list(tmp_path.rglob(".*"))

    @pytest.mark.parametrize("failure", ["json_rename_fails", "json_write_fails"])
    def test_failed_json_export_keeps_previous_tables(self, workspace, monkeypatch, failure):
        """A run whose JSON export fails exits 3 and leaves the CSV and JSON
        of an earlier run byte for byte, with no staged file behind."""
        tmp_path, config, _ = workspace
        config["diagnose"] = {"csv_path": str(tmp_path / "diag.csv"), "json_path": str(tmp_path / "diag.json")}
        assert main(["diagnose", "--config", write_config(tmp_path, config)]) == 0
        before = {name: (tmp_path / name).read_bytes() for name in ("diag.csv", "diag.json")}
        # other rows, so a replaced table would show
        config["diagnose"]["schema"] = {"layer_pattern": "*.blocks.{n}.*"}
        if failure == "json_rename_fails":
            refuse_rename_onto(monkeypatch, tmp_path / "diag.json")
        else:
            def dump_half(obj, fh, **kwargs):
                fh.write("[")
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(diagnostics.json, "dump", dump_half)
        assert main(["diagnose", "--config", write_config(tmp_path, config)]) == 3
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        assert not list(tmp_path.glob(".*.partial"))


class TestInspectCommand:
    def test_counts_match_fixture(self, workspace, capsys):
        tmp_path, config, _ = workspace
        assert main(["inspect", config["base_path"]]) == 0
        out = capsys.readouterr().out
        base = make_triple(seed=21)[0]
        assert f"{len(base)} tensors, {base.total_parameters} parameters" in out

    def test_empty_file_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.safetensors"
        bad.write_bytes(b"")
        assert main(["inspect", str(bad)]) == 3
        assert "error[io.format]" in capsys.readouterr().err

    def test_sharded_equals_unsharded_listing(self, tmp_path, capsys):
        base, _, _ = make_triple(seed=4)
        save_checkpoint(base, tmp_path / "plain")
        save_checkpoint(base, tmp_path / "sharded", shard_limit=200)
        assert main(["inspect", str(tmp_path / "plain")]) == 0
        plain_out = capsys.readouterr().out
        assert main(["inspect", str(tmp_path / "sharded")]) == 0
        sharded_out = capsys.readouterr().out
        assert plain_out == sharded_out

    @pytest.mark.parametrize("shard", [5, None, "../x.safetensors", "sub/x.safetensors", "..", ""],
                             ids=["number", "null", "parent_dir", "sub_dir", "dot_dot", "empty"])
    def test_index_naming_no_shard_file_is_format_error(self, tmp_path, capsys, shard):
        """A weight_map value that is not a bare file name is a format error,
        never a traceback or a file read outside the checkpoint's directory,
        even where that file exists and holds the tensor."""
        save_checkpoint(Checkpoint.from_records([TensorRecord.from_array("a", np.zeros(2, np.float32))]),
                        tmp_path / "x.safetensors")
        ckpt = tmp_path / "ckpt"
        (ckpt / "sub").mkdir(parents=True)
        (ckpt / "sub" / "x.safetensors").write_bytes((tmp_path / "x.safetensors").read_bytes())
        (ckpt / "model.safetensors.index.json").write_text(json.dumps({"weight_map": {"a": shard}}))
        assert main(["inspect", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert "error[io.format]" in err and "weight_map maps 'a'" in err


@pytest.mark.parametrize("command, values, message", [
    ("merge", (0.0, 3e38, -3e38), "merged values are not finite in F32"),
    ("diagnose", (-3e38, 3e38, 0.0), "multilingual residual contains non-finite values"),
])
def test_overflow_prints_only_the_error(tmp_path, command, values, message):
    """An overflow of finite float32 inputs exits 4 with the error line
    alone on stderr: no numpy warning ahead of it."""
    name = "model.layers.0.mlp.up_proj.weight"
    config = {"output_path": str(tmp_path / "merged"), "diagnose": {"csv_path": str(tmp_path / "diag.csv")}}
    for key, value in zip(("base_path", "multilingual_path", "anchor_path"), values):
        config[key] = str(tmp_path / key)
        save_checkpoint(Checkpoint.from_records([TensorRecord.from_array(name, np.full((2, 2), value, np.float32))]),
                        tmp_path / key)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("DIMERGE_LOG", None)
    result = subprocess.run([sys.executable, "-m", "dimerge.cli", command, "--config", write_config(tmp_path, config)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 4
    assert result.stderr == f"error[numeric.value]: {name}: {message}\n"
    assert not (tmp_path / "merged").exists() and not (tmp_path / "diag.csv").exists()
