"""The README's examples run against the package: its "Library surface"
import block, so a name removed from the library cannot linger in the docs,
and its `run.json`, so the documented config cannot drift from the reader."""

import json
import re
from pathlib import Path

from dimerge.diagnostics import DiagnoseConfig, ModuleKeySchema
from dimerge.merge import MergeConfig
from dimerge.presets import MODULE_SCHEMA_PRESETS, RemapRules, remap_rules

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_imports():
    section = README.read_text().split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    assert "merge_tensor" in namespace and "BaselineParams" in namespace
    # a baseline runs only through merge_tensor and merge_checkpoint
    assert not [name for name in namespace if name.endswith("_values")]


def test_run_json_reads():
    config = json.loads(re.search(r"`run.json`:\n\n```json\n(.*?)```", README.read_text(), re.DOTALL).group(1))
    cfg = MergeConfig.from_dict(config["merge"])
    assert MergeConfig.from_dict(cfg.to_dict()) == cfg
    assert list(RemapRules.from_dict(config["remap"]).anchor) == remap_rules(config["remap"]["preset"], "anchor")
    diagnose = DiagnoseConfig.from_dict(config["diagnose"])
    assert diagnose.schema == ModuleKeySchema(**MODULE_SCHEMA_PRESETS[config["diagnose"]["schema"]["preset"]])
    assert [diagnose.csv_path, diagnose.json_path] == ["diag.csv", "diag.json"]
