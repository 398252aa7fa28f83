"""Everything a run writes is one all-or-nothing commit.

Each case writes over the output of an earlier run (or into directories
that do not exist yet), once with ``os.replace`` failing at each of its
calls in turn and once with none failing. A failed run must leave every
file and directory under the case's root exactly as it was: the old output,
the old report, no hidden staged file or kept link, no new directory. The
clean run must leave exactly the output a run into an empty root writes,
and a report that describes it.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dimerge
import dimerge.merge as merge_module
from dimerge.cli import main
from dimerge.merge import MergeConfig, merge_checkpoint
from dimerge.records import TensorRecord
from dimerge.store import Checkpoint, load_checkpoint, save_checkpoint

from conftest import fail_nth_replace, make_triple


def _ckpt(sign: float) -> Checkpoint:
    return Checkpoint.from_records(
        TensorRecord.from_array(f"t{i}", np.full(700, sign * (i + 0.5), dtype=np.float32)) for i in range(6))


OLD, NEW = _ckpt(1.0), _ckpt(-1.0)
SHARDED, SINGLE = 6000, 10**6  # 2800-byte tensors: three shards, or one file
TRIPLE = make_triple(seed=5)


def snapshot(root):
    """Every file's bytes and every directory under ``root``, hidden ones included."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else "dir" for p in sorted(root.rglob("*"))}


def no_inputs(root):
    pass


def save_case(old_limit, new_limit, out="out"):
    def old(root):
        if old_limit:
            save_checkpoint(OLD, root / out, shard_limit=old_limit)

    def act(root):
        save_checkpoint(NEW, root / out, shard_limit=new_limit)

    return no_inputs, old, act, (out,), None


def merge_case():
    def old(root):
        merge_checkpoint(*TRIPLE, MergeConfig(), root / "merged", shard_limit=300)

    def act(root):
        merge_checkpoint(*TRIPLE, MergeConfig(method="ties"), root / "merged", shard_limit=300)

    return no_inputs, old, act, ("merged",), None


def cli_case(out, shard_limit=SINGLE, report="merged.report.json", merge_first=True, tables="."):
    def inputs(root):
        config = {"output_path": str(root / out), "report_path": str(root / report), "shard_limit": shard_limit,
                  "diagnose": {f"{ext}_path": str(root / tables / f"diag.{ext}") for ext in ("csv", "json")}}
        for key, ckpt in zip(("base_path", "multilingual_path", "anchor_path"), make_triple(seed=21)):
            save_checkpoint(ckpt, root / key)
            config[key] = str(root / key)
        (root / "run.json").write_text(json.dumps(config))

    def old(root):
        if merge_first:
            assert main(["merge", "--config", str(root / "run.json")]) == 0

    def act(root):
        return main(["merge", "--config", str(root / "run.json"), "--set", "merge.method=ties"])

    return inputs, old, act, (out,), report


def diagnose_case(tables=None):
    inputs = cli_case("merged", tables=tables or ".")[0]

    def old(root):
        if not tables:
            assert main(["diagnose", "--config", str(root / "run.json")]) == 0

    def act(root):
        # another schema, so that other tables replace the old ones
        return main(["diagnose", "--config", str(root / "run.json"), "--set", "diagnose.schema.layer_pattern=x.{n}"])

    return inputs, old, act, (tables.split("/")[0],) if tables else ("diag.csv", "diag.json"), None


CASES = {
    "save_sharded_to_sharded": save_case(SHARDED, SHARDED),
    "save_single_to_sharded": save_case(SINGLE, SHARDED),
    "save_sharded_to_single": save_case(SHARDED, SINGLE),
    "save_file_path": save_case(SINGLE, SINGLE, out="out.safetensors"),
    "save_into_new_directories": save_case(None, SHARDED, out="new/deeper/out"),
    "merge_checkpoint": merge_case(),
    "cli_merge_single_file": cli_case("merged.safetensors"),
    "cli_merge_sharded": cli_case("merged", shard_limit=400),
    "cli_report_in_new_directory": cli_case("merged", report="reports/new/merged.json", merge_first=False),
    "cli_diagnose": diagnose_case(),
    "cli_diagnose_into_new_directories": diagnose_case(tables="tables/new"),
}


def outputs(root, names):
    return {k: v for k, v in snapshot(root).items() if any(k == n or k.startswith(n + "/") for n in names)}


def run(act, root) -> int:
    try:
        return act(root) or 0
    except OSError:
        return 3


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_every_rename_failure_leaves_the_old_files(tmp_path, monkeypatch, case):
    inputs, old, act, written, report = case

    def fresh(name, with_old=True):
        root = tmp_path / name
        root.mkdir()
        inputs(root)
        if with_old:
            old(root)
        return root

    reference = fresh("reference", with_old=False)
    assert run(act, reference) == 0
    expected = outputs(reference, written)

    root = fresh("clean")
    with monkeypatch.context() as patch:
        calls = fail_nth_replace(patch, 0)
        assert run(act, root) == 0
    assert outputs(root, written) == expected
    assert not [p for p in root.rglob(".*")]
    if report is not None:  # its timings differ from run to run
        assert json.loads((root / report).read_text())["config"]["merge"]["method"] == "ties"
    assert calls

    for k in range(1, len(calls) + 1):
        root = fresh(f"fail{k}")
        before = snapshot(root)
        with monkeypatch.context() as patch:
            fail_nth_replace(patch, k)
            assert run(act, root) == 3, f"rename {k} of {len(calls)}"
        assert snapshot(root) == before, f"rename {k} of {len(calls)} failed"


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="the platform sizes files sparsely")
def test_full_disk_fails_before_any_compute(tmp_path, monkeypatch):
    """The output files' blocks are allocated when the writer lays them out,
    so a full disk fails there, before any tensor's pass 1: ``dimerge
    merge`` exits 3, leaves no hidden file and leaves the earlier sharded
    output as it was. ``posix_fallocate`` is patched to raise ``ENOSPC``:
    this checks the handling, as a real full disk cannot safely be made."""
    inputs, old, act, _, _ = cli_case("merged", shard_limit=400)
    inputs(tmp_path)
    old(tmp_path)
    before = snapshot(tmp_path)
    assert len([p for p in before if p.startswith("merged/model-")]) > 1
    merged, merge_one = [], merge_module._merge_one

    def no_space(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def recording(triple, *args):
        merged.append(triple.name)
        return merge_one(triple, *args)

    monkeypatch.setattr(os, "posix_fallocate", no_space)
    monkeypatch.setattr(merge_module, "_merge_one", recording)
    assert act(tmp_path) == 3
    assert merged == []
    assert snapshot(tmp_path) == before
    assert not list(tmp_path.rglob(".*"))


KILLED_MERGE = """
import os, sys
from dimerge.merge import MergeConfig, merge_checkpoint
from dimerge.store import CheckpointWriter, load_checkpoint

def killed(*args):
    os._exit(3)   # as a kill would: no exception handler, no clean-up

CheckpointWriter.write = killed
root = sys.argv[1]
triple = [load_checkpoint(f"{root}/{role}") for role in ("base", "ml", "anchor")]
merge_checkpoint(*triple, MergeConfig(), f"{root}/merged.safetensors")
"""


def test_a_commit_deletes_what_killed_runs_left_staged(tmp_path, monkeypatch):
    """Two merges killed inside the writer each leave a hidden staged file
    beside the output path. A run that fails touches neither; the next
    clean commit of that path deletes both, and no hidden file that is not
    named as the writer names a staged file of that path."""
    for role, ckpt in zip(("base", "ml", "anchor"), TRIPLE):
        save_checkpoint(ckpt, tmp_path / role)
    env = {**os.environ, "PYTHONPATH": str(Path(dimerge.__file__).parents[1])}
    for _ in range(2):
        assert subprocess.run([sys.executable, "-c", KILLED_MERGE, str(tmp_path)], env=env).returncode == 3
    out = tmp_path / "merged.safetensors"
    assert len(list(tmp_path.glob(".merged.safetensors.*.partial"))) == 2 and not out.exists()
    others = [tmp_path / name for name in (".merged.safetensors.partial", ".other.safetensors.0123456789abcdef.partial",
                                           ".merged.safetensors.0123456789abcdeg.partial")]
    for other in others:
        other.write_bytes(b"kept")

    before = snapshot(tmp_path)
    fail_nth_replace(monkeypatch, 1)
    with pytest.raises(OSError, match="injected"):
        merge_checkpoint(*TRIPLE, MergeConfig(), out)
    assert snapshot(tmp_path) == before
    monkeypatch.undo()

    merge_checkpoint(*TRIPLE, MergeConfig(), out)
    assert sorted(tmp_path.glob(".*")) == sorted(others)
    assert load_checkpoint(out).names() == TRIPLE[2].names()
