import copy
import gc
import json
import logging
import os
import pickle
import warnings

import numpy as np
import pytest

from dimerge.cli import main
from dimerge.errors import ConfigError, FormatError, RemapCollisionError, ShardError
from dimerge.merge import MergeConfig, merge_checkpoint
from dimerge.records import DType, TensorRecord
from dimerge.store import (
    INDEX_FILENAME,
    Checkpoint,
    CheckpointWriter,
    load_checkpoint,
    read_rows,
    remap_keys,
    require_unchanged,
    save_checkpoint,
    staged_files,
)

from conftest import change_file, fail_nth_replace, header_of, make_triple, set_metadata


def ckpt_of(arrays: dict, dtype=DType.F32) -> Checkpoint:
    records = [TensorRecord.from_array(n, np.asarray(a, dtype=np.float32), dtype=dtype)
               for n, a in arrays.items()]
    return Checkpoint.from_records(records)


class TestSingleFile:
    def test_one_tensor_round_trip(self, tmp_path):
        ckpt = ckpt_of({"a": [[1.0, 2.0], [3.0, 4.0]]})
        target = tmp_path / "one.safetensors"
        save_checkpoint(ckpt, target)
        loaded = load_checkpoint(target)
        assert loaded.names() == ["a"]
        assert loaded["a"].shape == (2, 2)
        assert loaded["a"].raw == ckpt["a"].raw

    def test_small_checkpoint_packs_into_one_file(self, tmp_path, triple_f32):
        base, _, _ = triple_f32
        written = save_checkpoint(base, tmp_path / "out", shard_limit=1 << 30)
        assert len(written) == 1
        assert written[0].name == "model.safetensors"

    @pytest.mark.parametrize("dtype", [DType.F32, DType.F16, DType.BF16, DType.F64])
    def test_bitwise_round_trip_each_dtype(self, tmp_path, rng, dtype):
        values = rng.normal(size=(5, 3)).astype(np.float32)
        rec = TensorRecord.from_array("w", values, dtype=dtype)
        ckpt = Checkpoint.from_records([rec])
        save_checkpoint(ckpt, tmp_path / "d")
        loaded = load_checkpoint(tmp_path / "d")
        assert loaded["w"].dtype is dtype
        assert loaded["w"].raw == rec.raw

    def test_sized_by_truncate_where_fallocate_is_missing(self, tmp_path, monkeypatch, triple_f32):
        """A platform without ``posix_fallocate`` sizes each file with
        ``ftruncate``: the same bytes, read back the same."""
        base = triple_f32[0]
        allocated = save_checkpoint(base, tmp_path / "allocated", shard_limit=400)
        monkeypatch.delattr(os, "posix_fallocate")
        truncated = save_checkpoint(base, tmp_path / "truncated", shard_limit=400)
        assert len(truncated) > 1
        assert [p.read_bytes() for p in truncated] == [p.read_bytes() for p in allocated]
        loaded = load_checkpoint(tmp_path / "truncated")
        assert all(loaded[name].raw == base[name].raw for name in base.names())

    def test_iteration_order_is_lexicographic(self, tmp_path):
        records = [TensorRecord.from_array(n, np.zeros(2, dtype=np.float32))
                   for n in ["zz", "aa", "mm"]]
        ckpt = Checkpoint.from_records(records)
        assert ckpt.names() == ["aa", "mm", "zz"]
        save_checkpoint(ckpt, tmp_path / "o")
        assert load_checkpoint(tmp_path / "o").names() == ["aa", "mm", "zz"]


class TestSharding:
    def test_three_tensors_three_shards(self, tmp_path):
        mib = 1024 * 1024
        arrays = {f"t{i}": np.zeros(mib // 4, dtype=np.float32) for i in range(3)}
        ckpt = ckpt_of(arrays)
        written = save_checkpoint(ckpt, tmp_path / "sharded", shard_limit=int(1.5 * mib))
        names = sorted(p.name for p in written)
        assert names == [
            "model-00001-of-00003.safetensors",
            "model-00002-of-00003.safetensors",
            "model-00003-of-00003.safetensors",
            "model.safetensors.index.json",
        ]
        loaded = load_checkpoint(tmp_path / "sharded")
        assert loaded.names() == ["t0", "t1", "t2"]

    def test_oversized_tensor_gets_own_shard(self, tmp_path):
        ckpt = ckpt_of({"big": np.zeros(1000, dtype=np.float32), "small": np.zeros(2, dtype=np.float32)})
        written = save_checkpoint(ckpt, tmp_path / "s", shard_limit=100)
        shard_files = [p for p in written if p.suffix == ".safetensors"]
        assert len(shard_files) == 2

    def test_sharded_round_trip_bitwise(self, tmp_path, triple_f32):
        base, _, _ = triple_f32
        save_checkpoint(base, tmp_path / "sh", shard_limit=200)
        loaded = load_checkpoint(tmp_path / "sh")
        assert loaded.names() == base.names()
        for name in base.names():
            assert loaded[name].raw == base[name].raw

    def test_index_referencing_missing_tensor(self, tmp_path):
        save_checkpoint(ckpt_of({"b": np.zeros(2, dtype=np.float32)}), tmp_path / "shard1.safetensors")
        index = {"metadata": {}, "weight_map": {"a": "shard1.safetensors"}}
        (tmp_path / "model.safetensors.index.json").write_text(json.dumps(index))
        with pytest.raises(ShardError, match="missing tensor"):
            load_checkpoint(tmp_path)

    def test_index_referencing_absent_shard(self, tmp_path):
        index = {"weight_map": {"a": "nope.safetensors"}}
        (tmp_path / "model.safetensors.index.json").write_text(json.dumps(index))
        with pytest.raises(ShardError, match="absent shard"):
            load_checkpoint(tmp_path)

    def test_duplicate_tensor_across_shards(self, tmp_path):
        ckpt = ckpt_of({"a": np.zeros(2, dtype=np.float32)})
        save_checkpoint(ckpt, tmp_path / "s1.safetensors")
        save_checkpoint(ckpt, tmp_path / "s2.safetensors")
        index = {"weight_map": {"a": "s1.safetensors", "b": "s2.safetensors"}}
        (tmp_path / "model.safetensors.index.json").write_text(json.dumps(index))
        with pytest.raises(ShardError, match="appears in both"):
            load_checkpoint(tmp_path)

    def test_shard_tensor_absent_from_index(self, tmp_path):
        ckpt = ckpt_of({n: np.zeros(256, dtype=np.float32) for n in ("x", "y", "z")})
        save_checkpoint(ckpt, tmp_path / "sh", shard_limit=2048)  # x and y share a shard
        index_path = tmp_path / "sh" / "model.safetensors.index.json"
        index = json.loads(index_path.read_text())
        shard_of_y = index["weight_map"].pop("y")
        index_path.write_text(json.dumps(index))
        with pytest.raises(ShardError, match=f"{shard_of_y!r} holds tensor 'y' absent from the index"):
            load_checkpoint(tmp_path / "sh")

    def test_unindexed_shard_file(self, tmp_path):
        ckpt = ckpt_of({n: np.zeros(256, dtype=np.float32) for n in ("x", "y", "z")})
        save_checkpoint(ckpt, tmp_path / "sh", shard_limit=1024)  # one tensor per shard
        index_path = tmp_path / "sh" / "model.safetensors.index.json"
        index = json.loads(index_path.read_text())
        shard_of_y = index["weight_map"].pop("y")
        index_path.write_text(json.dumps(index))
        with pytest.raises(ShardError, match=f"shard file {shard_of_y!r} .* is not named in the index"):
            load_checkpoint(tmp_path / "sh")


class TestReplacingADirectory:
    """Saving into a directory that already holds a checkpoint of the other
    layout: the new checkpoint's files replace the old ones, so it loads."""

    OLD = ckpt_of({f"old{i}": np.full(3000, i, dtype=np.float32) for i in range(3)})
    NEW = ckpt_of({f"new{i}": np.full(3000, -i, dtype=np.float32) for i in range(3)})

    @pytest.mark.parametrize("limits", [(20000, 10**6), (10**6, 20000)],
                             ids=["sharded_to_single", "single_to_sharded"])
    def test_only_the_new_checkpoint_is_left(self, tmp_path, limits):
        out = tmp_path / "out"
        save_checkpoint(self.OLD, out, shard_limit=limits[0])
        (out / "notes.txt").write_text("not a checkpoint file")
        written = save_checkpoint(self.NEW, out, shard_limit=limits[1])
        assert sorted(p.name for p in out.iterdir()) == sorted([p.name for p in written] + ["notes.txt"])
        loaded = load_checkpoint(out)
        assert loaded.names() == self.NEW.names()
        assert all(loaded[n].raw == self.NEW[n].raw for n in self.NEW.names())

    def test_failed_write_deletes_nothing(self, tmp_path):
        out = tmp_path / "out"
        save_checkpoint(self.OLD, out, shard_limit=20000)
        before = sorted(p.name for p in out.iterdir())
        with pytest.raises(RuntimeError):
            with CheckpointWriter([(n, r.dtype, r.shape) for n, r in self.NEW.tensors.items()], out):
                raise RuntimeError("fail before the commit")
        assert sorted(p.name for p in out.iterdir()) == before
        assert load_checkpoint(out).names() == self.OLD.names()


class TestStagedFiles:
    """A ``staged_files()`` block inside another joins it."""

    def test_inner_block_commits_with_the_outermost(self, tmp_path):
        with staged_files() as outer:
            outer(tmp_path / "a").write_text("a")
            with staged_files() as inner:
                inner(tmp_path / "b").write_text("b")
            assert not (tmp_path / "b").exists()
        assert (tmp_path / "a").read_text() == "a" and (tmp_path / "b").read_text() == "b"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_exception_out_of_an_inner_block_withdraws_only_its_files(self, tmp_path):
        with staged_files() as outer:
            outer(tmp_path / "a").write_text("a")
            with pytest.raises(RuntimeError):
                with staged_files() as inner:
                    inner(tmp_path / "made" / "b").write_text("b")
                    raise RuntimeError("inner block fails")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]

    @pytest.mark.parametrize("case", ["same_block", "nested_block", "deleted_path"])
    def test_a_path_staged_twice_is_refused(self, tmp_path, case):
        """Staging a path the commit already writes or deletes is a config
        error raised before anything is made: nothing is written, no hidden
        file is left, and the directories the block made are removed."""
        (tmp_path / "kept").write_text("old")
        target = tmp_path / "kept" if case == "deleted_path" else tmp_path / "made" / "deeper" / "t.safetensors"
        before = {p: p.read_bytes() if p.is_file() else "dir" for p in tmp_path.rglob("*")}
        with pytest.raises(ConfigError, match="written twice") as info:
            with staged_files() as stage:
                stage(tmp_path / "made" / "other").write_text("other")
                if case == "same_block":
                    stage(target).write_text("first")
                elif case == "nested_block":   # a whole checkpoint, then its file again
                    save_checkpoint(ckpt_of({"a": np.ones(4)}), target)
                else:
                    stage.delete(target)
                stage(target)
        assert info.value.error_class == "config.output_collision" and info.value.exit_code == 2
        assert {p: p.read_bytes() if p.is_file() else "dir" for p in tmp_path.rglob("*")} == before

    def test_failed_commit_puts_back_what_the_inner_block_changed(self, tmp_path, monkeypatch):
        for name in ("a", "b", "gone"):
            (tmp_path / name).write_text(f"old {name}")
        fail_nth_replace(monkeypatch, 4)
        with pytest.raises(OSError, match="injected"):
            with staged_files() as outer:
                with staged_files() as inner:
                    inner(tmp_path / "a").write_text("new a")
                    inner.delete(tmp_path / "gone")
                    inner(tmp_path / "c").write_text("new c")
                outer(tmp_path / "b").write_text("new b")
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {n: f"old {n}" for n in ("a", "b", "gone")}


def write_header(path, header: dict, body: bytes):
    raw = json.dumps(header).encode()
    path.write_bytes(len(raw).to_bytes(8, "little") + raw + body)


def write_raw(path, offsets: dict, body: bytes):
    """A tensor file with one F32 entry per name at the given offsets."""
    header = {name: {"dtype": "F32", "shape": [(end - start) // 4], "data_offsets": [start, end]}
              for name, (start, end) in offsets.items()}
    write_header(path, header, body)


class TestDataOffsets:
    def test_out_of_order_but_contiguous_loads(self, tmp_path):
        body = np.arange(4, dtype="<f4").tobytes()
        write_raw(tmp_path / "t.safetensors", {"b": (8, 16), "a": (0, 8)}, body)
        loaded = load_checkpoint(tmp_path / "t.safetensors")
        assert loaded["a"].raw == body[:8]
        assert loaded["b"].raw == body[8:]

    def test_overlap_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8), "b": (4, 12)}, bytes(12))
        with pytest.raises(FormatError, match="do not tile"):
            load_checkpoint(tmp_path / "t.safetensors")

    def test_gap_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8), "b": (12, 20)}, bytes(20))
        with pytest.raises(FormatError, match="do not tile"):
            load_checkpoint(tmp_path / "t.safetensors")

    def test_trailing_bytes_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8)}, bytes(12))
        with pytest.raises(FormatError, match="ends at byte 8, body has 12"):
            load_checkpoint(tmp_path / "t.safetensors")

    def test_offsets_past_the_body_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8)}, bytes(4))
        with pytest.raises(FormatError, match="do not tile"):
            load_checkpoint(tmp_path / "t.safetensors")


class TestHeaderTypes:
    """Every dimension and offset is a plain JSON integer (not a bool, float
    or string), and every dimension is at least 1; anything else is a
    file-format error, not a value the reader rounds or coerces."""

    @pytest.mark.parametrize("shape, offsets", [
        ([2.5], [0, 8]),
        (["2"], [0, 8]),
        ([True, 2], [0, 8]),
        ([2, 1.9], [0, 8]),
        ([2], [False, 8]),
        ([-1, -2], [0, 8]),
        ([0], [0, 0]),
    ], ids=["float", "string", "bool-dim", "float-dim", "bool-offset", "negative", "zero"])
    def test_rejected_as_format_error(self, tmp_path, shape, offsets):
        entry = {"dtype": "F32", "shape": shape, "data_offsets": offsets}
        write_header(tmp_path / "t.safetensors", {"a": entry}, bytes(offsets[1]))
        with pytest.raises(FormatError, match="'a'"):
            load_checkpoint(tmp_path / "t.safetensors")

    @pytest.mark.parametrize("header, match", [
        ({"__metadata__": [1, {"x": None}]}, "__metadata__"),
        ({"__metadata__": {"format": 1}}, "__metadata__"),
        ({"__metadata__": "pt"}, "__metadata__"),
        ({"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8], "extra": 1}}, "'extra'"),
    ], ids=["metadata-list", "metadata-int-value", "metadata-string", "unknown-entry-key"])
    def test_metadata_and_entry_keys_checked(self, tmp_path, header, match):
        header = {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}, **header}
        write_header(tmp_path / "t.safetensors", header, bytes(8))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(tmp_path / "t.safetensors")

    def test_string_metadata_loads(self, tmp_path):
        header = {"__metadata__": {"format": "pt"}, "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}
        write_header(tmp_path / "t.safetensors", header, bytes(8))
        assert load_checkpoint(tmp_path / "t.safetensors").names() == ["a"]

    def test_scalar_and_integer_shapes_load(self, tmp_path):
        header = {"s": {"dtype": "F32", "shape": [], "data_offsets": [0, 4]},
                  "m": {"dtype": "F32", "shape": [1, 2], "data_offsets": [4, 12]}}
        write_header(tmp_path / "t.safetensors", header, bytes(12))
        loaded = load_checkpoint(tmp_path / "t.safetensors")
        assert loaded["s"].shape == ()
        assert loaded["m"].shape == (1, 2)


class TestHeaderMetadata:
    """``save_checkpoint`` carries a loaded checkpoint's ``__metadata__``
    into every file it writes, where all the files it was loaded from hold
    the same one."""

    ARRAYS = {"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]}

    @pytest.mark.parametrize("shard_limit", [1000, 8], ids=["single_file", "sharded"])
    def test_save_keeps_the_loaded_files_metadata(self, tmp_path, shard_limit):
        save_checkpoint(ckpt_of(self.ARRAYS), tmp_path / "in", shard_limit=shard_limit)
        for path in (tmp_path / "in").glob("*.safetensors"):
            set_metadata(path, {"format": "pt"})
        loaded = load_checkpoint(tmp_path / "in")
        for out, limit in (("out", 1000), ("sharded", 8)):
            written = [p for p in save_checkpoint(loaded, tmp_path / out, shard_limit=limit) if p.suffix != ".json"]
            assert [header_of(p)["__metadata__"] for p in written] == [{"format": "pt"}] * len(written)
            assert load_checkpoint(tmp_path / out).names() == loaded.names()

    @pytest.mark.parametrize("second", [{"format": "np"}, None], ids=["different", "absent"])
    def test_files_that_differ_write_none_with_a_warning(self, tmp_path, caplog, second):
        save_checkpoint(ckpt_of(self.ARRAYS), tmp_path / "in", shard_limit=8)
        first, *rest = sorted((tmp_path / "in").glob("*.safetensors"))
        set_metadata(first, {"format": "pt"})
        for path in rest if second else ():
            set_metadata(path, second)
        with caplog.at_level(logging.WARNING, logger="dimerge"):
            [written] = save_checkpoint(load_checkpoint(tmp_path / "in"), tmp_path / "out.safetensors")
        assert "__metadata__" not in header_of(written)
        assert [r.getMessage() for r in caplog.records] == [
            "the checkpoint's files hold 2 different __metadata__ maps; none is written"]


needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the open descriptors there")


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestLoadedRecords:
    """Loaded records read their payloads from their files, each open once."""

    @pytest.fixture
    def loaded(self, tmp_path, rng):
        values = rng.normal(size=(3, 4)).astype(np.float32)
        ckpt = ckpt_of({"a": values, "b": values[0]}, dtype=DType.BF16)
        save_checkpoint(ckpt, tmp_path / "c")
        return load_checkpoint(tmp_path / "c")

    def test_equals_and_hashes_like_its_bytes(self, loaded):
        rec = loaded["a"]
        as_bytes = TensorRecord(name=rec.name, dtype=rec.dtype, shape=rec.shape, raw=bytes(rec.raw))
        assert rec.raw == as_bytes.raw
        assert rec == as_bytes
        assert hash(rec) == hash(as_bytes)
        assert {rec: 1}[as_bytes] == 1

    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy])
    def test_pickle_and_deepcopy(self, loaded, clone):
        for rec in loaded.tensors.values():
            copied = clone(rec)
            assert copied == rec
            assert copied.raw == rec.raw
            np.testing.assert_array_equal(copied.to_f32(), rec.to_f32())

    def test_bits_are_read_only(self, loaded):
        before = bytes(loaded["a"].raw)
        bits = loaded["a"].bits()
        assert not bits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bits[0, 0] = 1
        assert loaded["a"].raw == before

    def test_read_logs_one_info_line_per_file(self, tmp_path, caplog):
        save_checkpoint(ckpt_of({"a": [1.0, 2.0]}), tmp_path / "one.safetensors")
        with caplog.at_level(logging.WARNING, logger="dimerge"):
            load_checkpoint(tmp_path / "one.safetensors")
        assert caplog.records == []
        with caplog.at_level(logging.INFO, logger="dimerge"):
            load_checkpoint(tmp_path / "one.safetensors")
        [record] = caplog.records
        assert record.levelno == logging.INFO
        assert "one.safetensors" in record.getMessage()
        assert record.getMessage().startswith("opened ")

    @pytest.mark.parametrize("held", ["loaded", "in_memory"])
    def test_read_rows(self, loaded, held):
        """Rows of a 2D and a 1D record, read into a caller's unsigned array,
        are those of its bits, from a loaded record as from its twin."""
        for rec in loaded.tensors.values():
            if held == "in_memory":
                rec = pickle.loads(pickle.dumps(rec))
            bits = rec.bits().reshape(rec.shape[0], -1)
            out = np.full((2, bits.shape[1]), 7, np.uint16)
            assert read_rows(rec, 1, 3, out) is out
            np.testing.assert_array_equal(out, bits[1:3])

    def test_a_file_truncated_after_loading_reads_nothing(self, tmp_path, loaded):
        """Rows or a payload past a loaded file's new end are the format
        error ``require_unchanged`` gives, not stale or zero bytes."""
        path = tmp_path / "c" / "model.safetensors"
        os.truncate(path, path.stat().st_size - 10)   # b's 8 bytes and 2 of a's last row
        message = "model.safetensors: input file changed during the run"
        with pytest.raises(FormatError, match=message):
            read_rows(loaded["a"], 2, 3, np.empty((1, 4), np.uint16))
        with pytest.raises(FormatError, match=message):
            loaded["b"].raw
        read_rows(loaded["a"], 0, 2, np.empty((2, 4), np.uint16))   # rows before the new end still read

    @needs_proc_fd
    def test_a_loaded_file_holds_one_descriptor(self, tmp_path, rng):
        """A loaded sharded checkpoint holds one open descriptor per file,
        which renamed records share, until the last of its records goes."""
        files = save_checkpoint(ckpt_of({f"w{i}": rng.normal(size=(8, 8)) for i in range(5)}),
                                tmp_path / "c", shard_limit=600)
        shards = [f for f in files if f.suffix == ".safetensors"]
        assert len(shards) > 1
        gc.collect()
        before = open_descriptors()
        ckpt = load_checkpoint(tmp_path / "c")
        renamed = remap_keys(ckpt, [("w", "v")])
        assert open_descriptors() == before + len(shards)
        del ckpt
        gc.collect()
        assert open_descriptors() == before + len(shards)
        del renamed
        gc.collect()
        assert open_descriptors() == before

    @needs_proc_fd
    def test_merges_leave_no_descriptor_open(self, tmp_path):
        """Two 2-worker merges of one loaded triple leave the count of open
        descriptors where it started and warn of no unclosed resource."""
        for role, ckpt in zip(("base", "ml", "anchor"), make_triple(seed=3)):
            save_checkpoint(ckpt, tmp_path / role)
        triple = [load_checkpoint(tmp_path / role) for role in ("base", "ml", "anchor")]
        gc.collect()
        before = open_descriptors()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for run in range(2):
                merge_checkpoint(*triple, MergeConfig(), tmp_path / f"out{run}", threads=2)
            gc.collect()
        assert open_descriptors() == before
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("how", ["rewritten_in_place", "replaced_by_rename", "removed"])
    def test_a_changed_input_file_is_refused(self, tmp_path, how):
        """``require_unchanged`` passes while every loaded file holds still
        (records held in memory have no file to check), and names the file
        once it is rewritten in place, replaced by a rename or removed."""
        path = tmp_path / "c.safetensors"
        save_checkpoint(ckpt_of({"a": [1.0, 2.0]}), path)
        os.utime(path, ns=(0, 0))   # written long before the run, so a rewrite shows in its mtime
        loaded, in_memory = load_checkpoint(path), ckpt_of({"m": [3.0]})
        require_unchanged(loaded, in_memory)
        change_file(path, how)
        with pytest.raises(FormatError, match="c.safetensors: input file changed during the run"):
            require_unchanged(in_memory, loaded)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_checkpoint(tmp_path / "absent.safetensors")

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.safetensors"
        bad.write_bytes(b"\xff\xff\xff\xff\xff\xff\xff\xff{}")
        with pytest.raises(FormatError):
            load_checkpoint(bad)

    def test_empty_file(self, tmp_path):
        bad = tmp_path / "empty.safetensors"
        bad.write_bytes(b"")
        with pytest.raises(FormatError, match="too short"):
            load_checkpoint(bad)

    def test_truncated_file(self, tmp_path):
        bad = tmp_path / "tiny.safetensors"
        bad.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError, match="too short"):
            load_checkpoint(bad)

    def test_zero_shard_limit(self, tmp_path):
        ckpt = ckpt_of({"a": [1.0]})
        with pytest.raises(ConfigError, match="shard_limit"):
            save_checkpoint(ckpt, tmp_path / "x", shard_limit=0)

    def test_empty_checkpoint_rejected(self, tmp_path):
        ckpt = Checkpoint.from_records([])
        with pytest.raises(ConfigError, match="empty"):
            save_checkpoint(ckpt, tmp_path / "x")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ShardError, match="duplicate tensor name 'a'"):
            Checkpoint.from_records([TensorRecord.from_array("a", np.zeros(1, np.float32))] * 2)

    def test_one_file_path_that_needs_shards_rejected(self, tmp_path):
        ckpt = ckpt_of({"a": np.zeros(8), "b": np.zeros(8)})
        with pytest.raises(ConfigError, match="needs 2 shards at limit 40; use a directory path"):
            save_checkpoint(ckpt, tmp_path / "x.safetensors", shard_limit=40)
        assert not list(tmp_path.iterdir())


# layouts the reader rejects: (make it in a directory, the path to load there, the error, its message)
BAD_LAYOUTS = {
    "header_not_object": (lambda d: write_header(d / "t.safetensors", [], b""), "t.safetensors",
                          FormatError, "header is not a JSON object"),
    "index_not_json": (lambda d: (d / INDEX_FILENAME).write_text("{"), "", FormatError, "malformed index manifest"),
    "index_not_utf8": (lambda d: (d / INDEX_FILENAME).write_bytes(b"\xff"), "", FormatError,
                       "malformed index manifest"),
    "index_not_object": (lambda d: (d / INDEX_FILENAME).write_text("[]"), "", FormatError, "no weight_map"),
    "index_without_weight_map": (lambda d: (d / INDEX_FILENAME).write_text('{"metadata": {}}'), "", FormatError,
                                 "no weight_map"),
    "two_indexes": (lambda d: [(d / name).write_text("{}") for name in ("a.index.json", "b.index.json")], "",
                    FormatError, "multiple index manifests"),
    "no_tensor_file": (lambda d: None, "", FormatError, "expected one tensor file"),
    "two_tensor_files": (lambda d: [save_checkpoint(ckpt_of({"a": [1.0]}), d / name)
                                    for name in ("a.safetensors", "b.safetensors")], "", FormatError,
                         "expected one tensor file"),
}


@pytest.mark.parametrize("layout", BAD_LAYOUTS)
def test_rejected_layout_is_an_error_and_exits_3(tmp_path, capsys, layout):
    make, name, error, match = BAD_LAYOUTS[layout]
    make(tmp_path)
    with pytest.raises(error, match=match):
        load_checkpoint(tmp_path / name)
    assert main(["inspect", str(tmp_path / name)]) == 3
    assert capsys.readouterr().err.startswith(f"error[{error.error_class}]: ")


def test_explicit_index_path_loads(tmp_path):
    ckpt = ckpt_of({n: np.zeros(4) for n in ("x", "y")})
    save_checkpoint(ckpt, tmp_path / "sh", shard_limit=16)
    assert len(list((tmp_path / "sh").glob("*.safetensors"))) == 2
    loaded = load_checkpoint(tmp_path / "sh" / INDEX_FILENAME)
    assert loaded.names() == ["x", "y"]
    assert all(loaded[name].raw == ckpt[name].raw for name in ckpt.names())


class TestRemap:
    def test_prefix_rewrite(self):
        ckpt = ckpt_of({"language_model.model.layers.0.x": [1.0], "vision.w": [2.0]})
        out = remap_keys(ckpt, [("language_model.model.", "model.")])
        assert out.names() == ["model.layers.0.x", "vision.w"]

    def test_first_matching_rule_wins(self):
        ckpt = ckpt_of({"a.b.c": [1.0]})
        out = remap_keys(ckpt, [("a.b.", "x."), ("a.", "y.")])
        assert out.names() == ["x.c"]

    def test_empty_rules_identity(self, triple_f32):
        base, _, _ = triple_f32
        out = remap_keys(base, [])
        assert out.names() == base.names()
        for n in base.names():
            assert out[n].raw == base[n].raw

    def test_collision_detected(self):
        ckpt = ckpt_of({"a.x": [1.0], "b.x": [2.0]})
        with pytest.raises(RemapCollisionError):
            remap_keys(ckpt, [("a.", "c."), ("b.", "c.")])

    def test_adversarial_rules_injective(self, rng):
        # remap must stay injective on the concrete key set or raise
        names = [f"k{i}.w" for i in range(20)]
        ckpt = ckpt_of({n: [float(i)] for i, n in enumerate(names)})
        rules = [("k1", "k2"), ("k2", "k1")]
        try:
            out = remap_keys(ckpt, rules)
        except RemapCollisionError:
            return
        assert len(set(out.names())) == len(names)
