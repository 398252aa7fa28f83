"""The one config reader, ``Record.from_dict``, over every config record.

Every record that names a config ``section`` (the top level's is ``""``)
reads null as an empty section, reads back from its own echo and names an
unknown key under its section, a top-level one bare. Every record's one
choice check, the base record's, names a bad value's dotted key, and every
record's own checks run it. A record-valued section of ``merge`` given as
null is the same as leaving it out, in the config read and in its echo. The
presets those records read are plain data: ``presets`` imports nothing of
the package but ``errors``.
"""

import ast
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from dimerge import cli
from dimerge.errors import ConfigError, Record
from dimerge.merge import MergeConfig, TensorMergeReport


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


CONFIG_RECORDS = sorted({cls for cls in _subclasses(Record) if cls.section is not None}, key=lambda cls: cls.section)
# every choice field of every record, config or report; a record with fields
# that have no default is replaced in the one given here
CHOICE_FIELDS = [(cls, f) for cls in sorted(_subclasses(Record), key=lambda cls: cls.__name__)
                 for f in fields(cls) if "choices" in f.metadata]
MADE = {TensorMergeReport: TensorMergeReport("t", "merged")}


def section_id(record):
    return record.section or "top_level"


def test_every_config_record_is_found():
    assert {cls.__name__ for cls in CONFIG_RECORDS} >= {"MergeConfig", "AggregationKind", "ScopeFilter",
                                                        "BaselineParams", "RemapRules", "ModuleKeySchema",
                                                        "DiagnoseConfig", "RunConfig"}


def test_presets_import_only_errors_from_the_package():
    tree = ast.parse((Path(cli.__file__).parent / "presets.py").read_text())
    imported = {(node.level, node.module) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    package = {(module or "").removeprefix("dimerge.") for level, module in imported
               if level or (module or "").split(".")[0] == "dimerge"}
    assert package == {"errors"}


@pytest.mark.parametrize("record", CONFIG_RECORDS, ids=section_id)
def test_null_is_an_empty_section(record):
    assert record.from_dict(None) == record.from_dict({})


@pytest.mark.parametrize("record", CONFIG_RECORDS, ids=section_id)
def test_default_record_reads_back_from_its_echo(record):
    default = record()
    assert record.from_dict(json.loads(json.dumps(default.to_dict()))) == default


@pytest.mark.parametrize("record", CONFIG_RECORDS, ids=section_id)
def test_unknown_key_is_named_under_its_section(record):
    name = f"{record.section}.no_such_key" if record.section else "no_such_key"
    with pytest.raises(ConfigError, match=rf"^unknown config key {name}$") as err:
        record.from_dict({"no_such_key": 1})
    assert err.value.error_class == "config.unknown_key"


def test_every_record_with_a_choice_is_found():
    assert {cls.__name__ for cls, _ in CHOICE_FIELDS} == {
        "AggregationKind", "MergeConfig", "ModuleKeySchema", "RemapRules", "ScopeFilter", "TensorMergeReport"}


@pytest.mark.parametrize("record, f", CHOICE_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in CHOICE_FIELDS])
def test_every_choice_error_names_its_dotted_key(record, f):
    """A record made in code with a named value outside its choices is
    refused by a message naming ``section.key`` (the bare key in a record
    with no section: a report's)."""
    key = f.metadata.get("key", f.name)
    name = f"{record.section}.{key}" if record.section else key
    with pytest.raises(ConfigError, match=f"^config value {re.escape(name)} must be one of .*, got 'bogus'$"):
        replace(MADE.get(record) or record(), **{f.name: "bogus"})


@pytest.mark.parametrize("record", [cls for cls in CONFIG_RECORDS if "__post_init__" in vars(cls)], ids=section_id)
def test_every_override_runs_the_choice_check(record, monkeypatch):
    """A record's own ``__post_init__`` calls the base record's, so a choice
    field added to it is checked."""
    checked = []
    monkeypatch.setattr(Record, "__post_init__", lambda self: checked.append(type(self)))
    record()
    assert record in checked


@pytest.mark.parametrize("method", ["dim3", "ties"])
@pytest.mark.parametrize("section", ["scope", "aggregation", "baseline"])
def test_null_record_section_is_left_out(section, method):
    given = MergeConfig.from_dict({"method": method, section: None})
    left_out = MergeConfig.from_dict({"method": method})
    assert given == left_out
    assert json.dumps(given.to_dict()) == json.dumps(left_out.to_dict())


@pytest.mark.parametrize("section", ["scope", "aggregation", "baseline"])
def test_null_record_section_override_is_left_out(tmp_path, section):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"merge": {"method": "ties"}}))
    given = cli.load_config(str(path), [f"merge.{section}=null"]).merge
    left_out = cli.load_config(str(path), []).merge
    assert given == left_out
    assert given.to_dict() == left_out.to_dict()
