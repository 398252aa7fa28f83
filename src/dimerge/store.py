"""Sharded binary tensor store.

File layout is the de-facto open interchange format: an 8-byte little-endian
unsigned header length, a JSON header mapping tensor name to
``{"dtype", "shape", "data_offsets"}``, then one contiguous data region.
A sharded checkpoint is a directory of such files plus an index manifest
(``model.safetensors.index.json``) mapping tensor name to shard filename.
"""

from __future__ import annotations

import json
import logging
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, FormatError, RemapCollisionError, ShardError
from .records import DType, TensorRecord

INDEX_FILENAME = "model.safetensors.index.json"
SINGLE_FILENAME = "model.safetensors"
_HEADER_STRUCT = struct.Struct("<Q")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Checkpoint:
    """An ordered map of parameter name to tensor record.

    Iteration order is always lexicographic by name, independent of how the
    tensors were laid out on disk.
    """

    tensors: "OrderedDict[str, TensorRecord]"

    @classmethod
    def from_records(cls, records: Iterable[TensorRecord]) -> "Checkpoint":
        ordered: OrderedDict[str, TensorRecord] = OrderedDict()
        for rec in sorted(records, key=lambda r: r.name):
            if rec.name in ordered:
                raise ShardError(f"duplicate tensor name {rec.name!r}")
            ordered[rec.name] = rec
        return cls(tensors=ordered)

    def names(self) -> list[str]:
        return list(self.tensors.keys())

    def __len__(self) -> int:
        return len(self.tensors)

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __getitem__(self, name: str) -> TensorRecord:
        return self.tensors[name]

    @property
    def total_parameters(self) -> int:
        return sum(rec.num_elements for rec in self.tensors.values())

    @property
    def total_bytes(self) -> int:
        return sum(rec.nbytes for rec in self.tensors.values())


def read_tensor_file(path: Path) -> list[TensorRecord]:
    """Parse one tensor file into records, preserving payload bytes exactly.

    The file is read into memory once. Each record's ``raw`` is a zero-copy,
    read-only view into that buffer, which stays alive while any of its
    records does.
    """
    started = time.perf_counter()
    data = path.read_bytes()
    if len(data) < _HEADER_STRUCT.size:
        raise FormatError(f"{path}: file too short for a header")
    (header_len,) = _HEADER_STRUCT.unpack_from(data, 0)
    header_end = _HEADER_STRUCT.size + header_len
    if header_end > len(data):
        raise FormatError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(data[_HEADER_STRUCT.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")

    body = memoryview(data)[header_end:]
    entries = []
    for name, entry in header.items():
        if name == "__metadata__":
            continue
        try:
            dtype = DType.from_string(entry["dtype"])
            shape = tuple(entry["shape"])
            start, end = entry["data_offsets"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad header entry for {name!r}: {exc}") from exc
        # type() rather than isinstance(): JSON true/false load as bool, an int subclass
        if not all(type(d) is int and d >= 1 for d in shape):
            raise FormatError(f"{path}: shape {list(shape)} for {name!r} is not a list of positive integers")
        if not (type(start) is int and type(end) is int):
            raise FormatError(f"{path}: data offsets for {name!r} are not integers")
        entries.append((start, end, name, dtype, shape))

    # the tensors must tile the body: sorted by start, contiguous from 0,
    # the last one ending at the end of the file
    records = []
    offset = 0
    for start, end, name, dtype, shape in sorted(entries):
        if start != offset or not start <= end <= len(body):
            raise FormatError(
                f"{path}: data offsets {start}:{end} for {name!r} do not tile the {len(body)}-byte "
                f"body (expected a start at byte {offset})"
            )
        records.append(TensorRecord(name=name, dtype=dtype, shape=shape, raw=body[start:end]))
        offset = end
    if offset != len(body):
        raise FormatError(f"{path}: tensor data ends at byte {offset}, body has {len(body)}")
    seconds = time.perf_counter() - started
    megabytes = len(data) / 1e6
    logger.info("read %s: %.1f MB in %.3f s (%.0f MB/s)",
                path, megabytes, seconds, megabytes / max(seconds, 1e-9))
    return records


def write_tensor_file(path: Path, records: Sequence[TensorRecord]) -> None:
    header: OrderedDict[str, object] = OrderedDict()
    offset = 0
    for rec in records:
        header[rec.name] = {
            "dtype": rec.dtype.value,
            "shape": list(rec.shape),
            "data_offsets": [offset, offset + rec.nbytes],
        }
        offset += rec.nbytes
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER_STRUCT.pack(len(header_bytes)))
        fh.write(header_bytes)
        for rec in records:
            fh.write(rec.raw)


def _load_sharded(index_path: Path) -> Checkpoint:
    try:
        index = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{index_path}: malformed index manifest: {exc}") from exc
    weight_map = index.get("weight_map")
    if not isinstance(weight_map, dict):
        raise FormatError(f"{index_path}: index manifest has no weight_map")

    shard_dir = index_path.parent
    unindexed = sorted({p.name for p in shard_dir.glob("*.safetensors")} - set(weight_map.values()))
    if unindexed:
        raise ShardError(f"shard file {unindexed[0]!r} in {shard_dir} is not named in the index")
    shard_contents: dict[str, dict[str, TensorRecord]] = {}
    seen: dict[str, str] = {}
    for shard_name in sorted(set(weight_map.values())):
        shard_path = shard_dir / shard_name
        if not shard_path.is_file():
            raise ShardError(f"index references absent shard {shard_name!r}")
        contents = {rec.name: rec for rec in read_tensor_file(shard_path)}
        for tensor_name in contents:
            if tensor_name in seen:
                raise ShardError(
                    f"tensor {tensor_name!r} appears in both {seen[tensor_name]!r} and {shard_name!r}"
                )
            seen[tensor_name] = shard_name
        shard_contents[shard_name] = contents

    records = []
    for tensor_name, shard_name in weight_map.items():
        shard = shard_contents[shard_name]
        if tensor_name not in shard:
            raise ShardError(f"shard {shard_name!r} missing tensor {tensor_name!r}")
        records.append(shard[tensor_name])
    orphans = sorted(seen.keys() - weight_map.keys())
    if orphans:
        raise ShardError(f"shard {seen[orphans[0]]!r} holds tensor {orphans[0]!r} absent from the index")
    return Checkpoint.from_records(records)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint from a tensor file, an index manifest, or a directory.

    A directory must contain either an index manifest or exactly one tensor
    file. Payloads are kept bit-exact; no dtype conversion happens here.
    """
    path = Path(path)
    if path.is_file():
        if path.name.endswith(".index.json"):
            return _load_sharded(path)
        return Checkpoint.from_records(read_tensor_file(path))
    if path.is_dir():
        indexes = sorted(path.glob("*.index.json"))
        if len(indexes) == 1:
            return _load_sharded(indexes[0])
        if len(indexes) > 1:
            raise FormatError(f"{path}: multiple index manifests found")
        singles = sorted(path.glob("*.safetensors"))
        if len(singles) == 1:
            return Checkpoint.from_records(read_tensor_file(singles[0]))
        raise FormatError(f"{path}: expected one tensor file or an index manifest")
    raise FormatError(f"{path}: no such file or directory")


def _pack_shards(records: Sequence[TensorRecord], shard_limit: int) -> list[list[TensorRecord]]:
    """Greedy packing in name order; a single oversized tensor gets its own shard."""
    shards: list[list[TensorRecord]] = []
    current: list[TensorRecord] = []
    current_bytes = 0
    for rec in records:
        if current and current_bytes + rec.nbytes > shard_limit:
            shards.append(current)
            current, current_bytes = [], 0
        current.append(rec)
        current_bytes += rec.nbytes
    if current:
        shards.append(current)
    return shards


def save_checkpoint(ckpt: Checkpoint, path: str | Path, shard_limit: int = 4 * 1024**3) -> list[Path]:
    """Write a checkpoint; returns the list of files written.

    If ``path`` ends in ``.safetensors`` everything must fit in one file.
    Otherwise ``path`` is a directory: a single tensor file when one shard
    suffices, or numbered shards plus an index manifest.
    """
    if len(ckpt) == 0:
        raise ConfigError("refusing to save an empty checkpoint")
    if shard_limit <= 0:
        raise ConfigError("shard_limit must be positive")

    records = list(ckpt.tensors.values())
    shards = _pack_shards(records, shard_limit)
    path = Path(path)

    if path.suffix == ".safetensors":
        if len(shards) > 1:
            raise ConfigError(
                f"{path}: checkpoint needs {len(shards)} shards at limit {shard_limit}; "
                "use a directory path for sharded output"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        write_tensor_file(path, shards[0])
        return [path]

    path.mkdir(parents=True, exist_ok=True)
    if len(shards) == 1:
        target = path / SINGLE_FILENAME
        write_tensor_file(target, shards[0])
        return [target]

    written = []
    weight_map: OrderedDict[str, str] = OrderedDict()
    for i, shard in enumerate(shards, start=1):
        shard_name = f"model-{i:05d}-of-{len(shards):05d}.safetensors"
        write_tensor_file(path / shard_name, shard)
        written.append(path / shard_name)
        for rec in shard:
            weight_map[rec.name] = shard_name
    index = {"metadata": {"total_size": ckpt.total_bytes}, "weight_map": weight_map}
    index_path = path / INDEX_FILENAME
    index_path.write_text(json.dumps(index, indent=2))
    written.append(index_path)
    return written


def remap_keys(ckpt: Checkpoint, rules: Sequence[tuple[str, str]]) -> Checkpoint:
    """Rewrite key prefixes; the first matching rule applies per key.

    Keys that match no rule pass through unchanged. Raises if two keys land
    on the same name.
    """
    renamed: dict[str, TensorRecord] = {}
    for name, rec in ckpt.tensors.items():
        new_name = name
        for match_prefix, replacement in rules:
            if name.startswith(match_prefix):
                new_name = replacement + name[len(match_prefix):]
                break
        if new_name in renamed:
            raise RemapCollisionError(f"keys collide on {new_name!r} after remapping")
        renamed[new_name] = rec.renamed(new_name) if new_name != name else rec
    return Checkpoint.from_records(renamed.values())
