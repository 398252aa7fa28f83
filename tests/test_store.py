import json

import numpy as np
import pytest

from dimerge.errors import ConfigError, FormatError, RemapCollisionError, ShardError
from dimerge.records import DType, TensorRecord
from dimerge.store import (
    Checkpoint,
    Role,
    load_checkpoint,
    remap_keys,
    save_checkpoint,
    write_tensor_file,
)


def ckpt_of(arrays: dict, dtype=DType.F32, role=Role.BASE) -> Checkpoint:
    records = [TensorRecord.from_array(n, np.asarray(a, dtype=np.float32), dtype=dtype)
               for n, a in arrays.items()]
    return Checkpoint.from_records(records, role=role)


class TestSingleFile:
    def test_one_tensor_round_trip(self, tmp_path):
        ckpt = ckpt_of({"a": [[1.0, 2.0], [3.0, 4.0]]})
        target = tmp_path / "one.safetensors"
        save_checkpoint(ckpt, target)
        loaded = load_checkpoint(target, Role.BASE)
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
        ckpt = Checkpoint.from_records([rec], role=Role.BASE)
        save_checkpoint(ckpt, tmp_path / "d")
        loaded = load_checkpoint(tmp_path / "d", Role.BASE)
        assert loaded["w"].dtype is dtype
        assert loaded["w"].raw == rec.raw

    def test_iteration_order_is_lexicographic(self, tmp_path):
        records = [TensorRecord.from_array(n, np.zeros(2, dtype=np.float32))
                   for n in ["zz", "aa", "mm"]]
        ckpt = Checkpoint.from_records(records, role=Role.BASE)
        assert ckpt.names() == ["aa", "mm", "zz"]
        save_checkpoint(ckpt, tmp_path / "o")
        assert load_checkpoint(tmp_path / "o", Role.BASE).names() == ["aa", "mm", "zz"]


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
        loaded = load_checkpoint(tmp_path / "sharded", Role.BASE)
        assert loaded.names() == ["t0", "t1", "t2"]

    def test_oversized_tensor_gets_own_shard(self, tmp_path):
        ckpt = ckpt_of({"big": np.zeros(1000, dtype=np.float32), "small": np.zeros(2, dtype=np.float32)})
        written = save_checkpoint(ckpt, tmp_path / "s", shard_limit=100)
        shard_files = [p for p in written if p.suffix == ".safetensors"]
        assert len(shard_files) == 2

    def test_sharded_round_trip_bitwise(self, tmp_path, triple_f32):
        base, _, _ = triple_f32
        save_checkpoint(base, tmp_path / "sh", shard_limit=200)
        loaded = load_checkpoint(tmp_path / "sh", Role.BASE)
        assert loaded.names() == base.names()
        for name in base.names():
            assert loaded[name].raw == base[name].raw

    def test_index_referencing_missing_tensor(self, tmp_path):
        write_tensor_file(tmp_path / "shard1.safetensors",
                          [TensorRecord.from_array("b", np.zeros(2, dtype=np.float32))])
        index = {"metadata": {}, "weight_map": {"a": "shard1.safetensors"}}
        (tmp_path / "model.safetensors.index.json").write_text(json.dumps(index))
        with pytest.raises(ShardError, match="missing tensor"):
            load_checkpoint(tmp_path, Role.BASE)

    def test_index_referencing_absent_shard(self, tmp_path):
        index = {"weight_map": {"a": "nope.safetensors"}}
        (tmp_path / "model.safetensors.index.json").write_text(json.dumps(index))
        with pytest.raises(ShardError, match="absent shard"):
            load_checkpoint(tmp_path, Role.BASE)

    def test_duplicate_tensor_across_shards(self, tmp_path):
        rec = TensorRecord.from_array("a", np.zeros(2, dtype=np.float32))
        write_tensor_file(tmp_path / "s1.safetensors", [rec])
        write_tensor_file(tmp_path / "s2.safetensors", [rec])
        index = {"weight_map": {"a": "s1.safetensors", "b": "s2.safetensors"}}
        (tmp_path / "model.safetensors.index.json").write_text(json.dumps(index))
        with pytest.raises(ShardError, match="appears in both"):
            load_checkpoint(tmp_path, Role.BASE)

    def test_shard_tensor_absent_from_index(self, tmp_path):
        ckpt = ckpt_of({n: np.zeros(256, dtype=np.float32) for n in ("x", "y", "z")})
        save_checkpoint(ckpt, tmp_path / "sh", shard_limit=2048)  # x and y share a shard
        index_path = tmp_path / "sh" / "model.safetensors.index.json"
        index = json.loads(index_path.read_text())
        shard_of_y = index["weight_map"].pop("y")
        index_path.write_text(json.dumps(index))
        with pytest.raises(ShardError, match=f"{shard_of_y!r} holds tensor 'y' absent from the index"):
            load_checkpoint(tmp_path / "sh", Role.BASE)


def write_raw(path, offsets: dict, body: bytes):
    """A tensor file with one F32 entry per name at the given offsets."""
    header = {name: {"dtype": "F32", "shape": [(end - start) // 4], "data_offsets": [start, end]}
              for name, (start, end) in offsets.items()}
    raw = json.dumps(header).encode()
    path.write_bytes(len(raw).to_bytes(8, "little") + raw + body)


class TestDataOffsets:
    def test_out_of_order_but_contiguous_loads(self, tmp_path):
        body = np.arange(4, dtype="<f4").tobytes()
        write_raw(tmp_path / "t.safetensors", {"b": (8, 16), "a": (0, 8)}, body)
        loaded = load_checkpoint(tmp_path / "t.safetensors", Role.BASE)
        assert loaded["a"].raw == body[:8]
        assert loaded["b"].raw == body[8:]

    def test_overlap_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8), "b": (4, 12)}, bytes(12))
        with pytest.raises(FormatError, match="do not tile"):
            load_checkpoint(tmp_path / "t.safetensors", Role.BASE)

    def test_gap_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8), "b": (12, 20)}, bytes(20))
        with pytest.raises(FormatError, match="do not tile"):
            load_checkpoint(tmp_path / "t.safetensors", Role.BASE)

    def test_trailing_bytes_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8)}, bytes(12))
        with pytest.raises(FormatError, match="ends at byte 8, body has 12"):
            load_checkpoint(tmp_path / "t.safetensors", Role.BASE)

    def test_offsets_past_the_body_rejected(self, tmp_path):
        write_raw(tmp_path / "t.safetensors", {"a": (0, 8)}, bytes(4))
        with pytest.raises(FormatError, match="do not tile"):
            load_checkpoint(tmp_path / "t.safetensors", Role.BASE)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_checkpoint(tmp_path / "absent.safetensors", Role.BASE)

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.safetensors"
        bad.write_bytes(b"\xff\xff\xff\xff\xff\xff\xff\xff{}")
        with pytest.raises(FormatError):
            load_checkpoint(bad, Role.BASE)

    def test_truncated_file(self, tmp_path):
        bad = tmp_path / "tiny.safetensors"
        bad.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError, match="too short"):
            load_checkpoint(bad, Role.BASE)

    def test_zero_shard_limit(self, tmp_path):
        ckpt = ckpt_of({"a": [1.0]})
        with pytest.raises(ConfigError, match="shard_limit"):
            save_checkpoint(ckpt, tmp_path / "x", shard_limit=0)

    def test_empty_checkpoint_rejected(self, tmp_path):
        ckpt = Checkpoint.from_records([], role=Role.BASE)
        with pytest.raises(ConfigError, match="empty"):
            save_checkpoint(ckpt, tmp_path / "x")


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
