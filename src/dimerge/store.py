"""Sharded binary tensor store.

File layout is the de-facto open interchange format: an 8-byte little-endian
unsigned header length, a JSON header mapping tensor name to
``{"dtype", "shape", "data_offsets"}``, then one contiguous data region.
A sharded checkpoint is a directory of such files plus an index manifest
(``model.safetensors.index.json``) mapping tensor name to shard filename.

Files are read through read-only memory maps, so loading costs a header
parse and payload pages are paged in only when a computation touches them;
:func:`release_pages` hands a record's pages back, by rows. Files are written
through :class:`CheckpointWriter`, which lays out every header and offset
first, so payloads can be filled in place in any order. Everything the
package writes is one all-or-nothing :func:`staged_files` commit.
"""

from __future__ import annotations

import glob
import json
import logging
import mmap
import os
import secrets
import struct
import time
from collections import OrderedDict
from contextlib import ExitStack, contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, FormatError, RemapCollisionError, ShardError
from .records import DType, TensorRecord

INDEX_FILENAME = "model.safetensors.index.json"
SINGLE_FILENAME = "model.safetensors"
DEFAULT_SHARD_LIMIT = 4 * 1024**3
_HEADER_STRUCT = struct.Struct("<Q")
_ENTRY_KEYS = {"dtype", "shape", "data_offsets"}

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


class _FileMap(mmap.mmap):
    """A read-only map of a tensor file, knowing the file's ``path`` and its
    ``identity`` (:func:`_identity`) when it was mapped."""


def _identity(st: os.stat_result) -> tuple[int, ...]:
    """What changes when a file is rewritten in place or its path replaced."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def read_tensor_file(path: Path) -> list[TensorRecord]:
    """Parse one tensor file into records, preserving payload bytes exactly.

    The file is mapped read-only, never read whole. Each record's ``raw`` is
    a zero-copy, read-only view into that mapping, which stays alive while
    any of its records does and keeps the file's identity for
    :func:`require_unchanged`.
    """
    started = time.perf_counter()
    with open(path, "rb") as fh:
        stat = os.fstat(fh.fileno())
        size = stat.st_size
        if size < _HEADER_STRUCT.size:
            raise FormatError(f"{path}: file too short for a header")
        data = _FileMap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    data.path, data.identity = path, _identity(stat)
    (header_len,) = _HEADER_STRUCT.unpack_from(data, 0)
    header_end = _HEADER_STRUCT.size + header_len
    if header_end > size:
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
            if not (isinstance(entry, dict) and all(isinstance(v, str) for v in entry.values())):
                raise FormatError(f"{path}: __metadata__ is not a map of strings to strings")
            continue
        if isinstance(entry, dict) and not entry.keys() <= _ENTRY_KEYS:
            raise FormatError(f"{path}: unknown keys {sorted(entry.keys() - _ENTRY_KEYS)} in entry {name!r}")
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
    # mapping reads nothing: the pages fault in later, where they are used
    logger.info("mapped %s: %.1f MB, header parsed in %.3f s", path, size / 1e6, time.perf_counter() - started)
    return records


def require_unchanged(*checkpoints: Checkpoint) -> None:
    """Stat again each file that the checkpoints' records map, and raise a
    :class:`FormatError` naming the first whose identity differs from when
    it was mapped: rewritten in place, or its path replaced (a rename gives
    a new inode) or removed. A mapping shows another process's writes, so a
    run calls this after its last input read and before it commits: what it
    commits was then computed from one version of each input."""
    maps = {id(m): m for ckpt in checkpoints for rec in ckpt.tensors.values()
            if isinstance(m := getattr(rec.raw, "obj", None), _FileMap)}
    for m in maps.values():
        try:
            now = _identity(os.stat(m.path))
        except OSError:
            now = None
        if now != m.identity:
            raise FormatError(f"{m.path}: input file changed during the run")


def _address(buffer) -> int:
    return np.frombuffer(buffer, dtype=np.uint8).ctypes.data


def release_pages(rec: TensorRecord, r0: int = 0, r1: int | None = None) -> None:
    """Unmap the whole pages inside rows ``r0:r1`` of a file-backed record's
    payload (all of it by default; a 1D record's rows are its elements).

    Resident pages of a mapped file count toward the process's memory until
    they are unmapped; after this they do not. The payload stays valid: a
    later read faults its pages back in from the file. Records that hold
    their payload in memory are left alone.
    """
    raw = rec.raw
    if not isinstance(raw, memoryview) or not isinstance(raw.obj, mmap.mmap):
        return
    row_bytes = prod(rec.shape[1:]) * rec.dtype.itemsize
    offset = _address(raw) - _address(raw.obj)
    stop = len(raw) if r1 is None else min(r1 * row_bytes, len(raw))
    first = -(-(offset + r0 * row_bytes) // mmap.PAGESIZE) * mmap.PAGESIZE
    last = (offset + stop) // mmap.PAGESIZE * mmap.PAGESIZE
    if last > first:
        raw.obj.madvise(mmap.MADV_DONTNEED, first, last - first)


def _pwrite_all(fd: int, data, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


TensorSpec = tuple[str, DType, tuple[int, ...]]


def _nbytes(spec: TensorSpec) -> int:
    _, dtype, shape = spec
    return prod(shape) * dtype.itemsize


def _hidden(path: Path, kind: str) -> Path:
    """A unique name beside ``path`` that no reader globs for."""
    return path.with_name(f".{path.name}.{secrets.token_hex(8)}.{kind}")


@dataclass
class _Transaction:
    """What a :func:`staged_files` block changes, in order, and the directories it made."""

    changes: list[tuple[Path | None, Path]] = field(default_factory=list)  # (staged file or None to delete, target)
    made: list[Path] = field(default_factory=list)

    def __call__(self, path: str | Path) -> Path:
        path = Path(path)
        if any(path.resolve() == target.resolve() for _, target in self.changes):
            raise ConfigError(f"{path} is written twice in one commit", error_class="config.output_collision")
        self.made += reversed([p for p in path.parents if not p.exists()])
        path.parent.mkdir(parents=True, exist_ok=True)
        staged = _hidden(path, "partial")
        os.close(os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        self.changes.append((staged, path))
        return staged

    def delete(self, path: Path) -> None:
        self.changes.append((None, path))

    def discard(self, changes: int = 0, made: int = 0) -> None:
        """Delete the staged files and directories recorded after these counts."""
        for staged, _ in self.changes[changes:]:
            if staged:
                staged.unlink(missing_ok=True)
        for directory in reversed(self.made[made:]):
            with suppress(OSError):
                directory.rmdir()
        del self.changes[changes:], self.made[made:]

    def commit(self) -> None:
        done = []  # (target, its old file under a hidden name or None)
        try:
            for staged, target in self.changes:
                kept = _hidden(target, "old") if target.is_file() else None
                if kept and staged:
                    os.link(target, kept)
                elif kept:
                    os.replace(target, kept)
                done.append((target, kept))
                if staged:
                    os.replace(staged, target)
        except BaseException:
            for target, kept in reversed(done):
                with suppress(OSError):
                    if kept:
                        os.replace(kept, target)  # does nothing if both name one file
                    (kept or target).unlink(missing_ok=True)
            self.discard()
            raise
        for _, kept in done:
            if kept:
                kept.unlink()
        for staged, target in self.changes:
            if staged:   # what killed runs left staged for this target, named as _hidden names it
                for leftover in target.parent.glob(f".{glob.escape(target.name)}.{'[0-9a-f]' * 16}.partial"):
                    leftover.unlink(missing_ok=True)
        logger.debug("committed %d changes", len(done))


_transaction: ContextVar[_Transaction | None] = ContextVar("dimerge_transaction", default=None)


@contextmanager
def staged_files() -> Iterator[_Transaction]:
    """Make what the block writes, replaces and deletes one all-or-nothing commit.

    ``stage(path)`` returns a new, empty hidden file to write in place of
    ``path``, making the directories it lacks; ``stage.delete(path)``
    deletes a file. A path this commit already writes or deletes is a
    ``config.output_collision`` error, raised before anything is made. On a
    clean exit the changes are made in order, each old file first kept
    under a hidden name; if one fails, all are undone, the directories
    made are removed and the error is raised. A commit that succeeds also
    deletes the hidden files that runs killed before their commit left
    staged beside the paths it writes. On an exception in the block
    nothing changes. A block inside another, in the same thread, joins it:
    it commits with the outermost, and an exception out of it withdraws only
    what it staged.
    """
    tx = _transaction.get() or _Transaction()
    token = _transaction.set(tx)
    marks = len(tx.changes), len(tx.made)
    try:
        yield tx
    except BaseException:
        tx.discard(*marks)
        raise
    finally:
        _transaction.reset(token)
    if _transaction.get() is None:
        tx.commit()


def _lay_out(fd: int, specs: Sequence[TensorSpec]) -> dict[str, int]:
    """Write a tensor file's header and size it for its payloads, its
    blocks allocated where the platform can; returns each tensor's absolute
    payload offset."""
    header: OrderedDict[str, object] = OrderedDict()
    starts = {}
    offset = 0
    for spec in specs:
        name, dtype, shape = spec
        header[name] = {"dtype": dtype.value, "shape": list(shape),
                        "data_offsets": [offset, offset + _nbytes(spec)]}
        starts[name] = offset
        offset += _nbytes(spec)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = _HEADER_STRUCT.pack(len(header_bytes)) + header_bytes
    _pwrite_all(fd, prefix, 0)
    if hasattr(os, "posix_fallocate"):   # allocated, not sparse: a full disk fails here, before any compute
        os.posix_fallocate(fd, 0, len(prefix) + offset)
    else:
        os.ftruncate(fd, len(prefix) + offset)
    return {name: len(prefix) + start for name, start in starts.items()}


def _load_sharded(index_path: Path) -> Checkpoint:
    try:
        index = json.loads(index_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{index_path}: malformed index manifest: {exc}") from exc
    weight_map = index.get("weight_map") if isinstance(index, dict) else None
    if not isinstance(weight_map, dict):
        raise FormatError(f"{index_path}: index manifest has no weight_map")
    for tensor_name, shard_name in weight_map.items():
        if not (isinstance(shard_name, str) and shard_name not in ("", ".", "..")
                and Path(shard_name).name == shard_name):
            raise FormatError(f"{index_path}: weight_map maps {tensor_name!r} to {shard_name!r}, "
                              "not a file name in the index's directory")

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


def _pack_shards(specs: Sequence[TensorSpec], shard_limit: int) -> list[list[TensorSpec]]:
    """Greedy packing in the given order; a single oversized tensor gets its own shard."""
    shards: list[list[TensorSpec]] = []
    current: list[TensorSpec] = []
    current_bytes = 0
    for spec in specs:
        if current and current_bytes + _nbytes(spec) > shard_limit:
            shards.append(current)
            current, current_bytes = [], 0
        current.append(spec)
        current_bytes += _nbytes(spec)
    if current:
        shards.append(current)
    return shards


class CheckpointWriter:
    """A checkpoint on disk, laid out before any payload is written.

    Every file gets its header and its final size when the writer opens, so
    each tensor's payload has a fixed offset. Payloads are then filled in
    place, block by block, in any order and from any thread; the bytes on
    disk do not depend on that order. ``path`` is as for
    :func:`save_checkpoint`; ``paths`` lists the files written.

    The writer is a :func:`staged_files` block: its files, filled under
    hidden names (the commit makes their directories), commit (the index
    last) as it or an enclosing block exits cleanly, and so does the
    deletion of a directory's other top-level tensor files and index
    manifests, the only names :func:`load_checkpoint` reads. So a failed
    write changes nothing at ``path``, and a checkpoint still loaded from
    there keeps mapping its old files.
    """

    def __init__(self, specs: Sequence[TensorSpec], path: str | Path,
                 shard_limit: int = DEFAULT_SHARD_LIMIT):
        if not specs:
            raise ConfigError("refusing to save an empty checkpoint")
        if shard_limit <= 0:
            raise ConfigError("shard_limit must be positive")
        shards = _pack_shards(specs, shard_limit)
        path = Path(path)
        directory = path.suffix != ".safetensors"
        if not directory:
            if len(shards) > 1:
                raise ConfigError(
                    f"{path}: checkpoint needs {len(shards)} shards at limit {shard_limit}; "
                    "use a directory path for sharded output"
                )
            files = [path]
        elif len(shards) == 1:
            files = [path / SINGLE_FILENAME]
        else:
            files = [path / f"model-{i:05d}-of-{len(shards):05d}.safetensors"
                     for i in range(1, len(shards) + 1)]

        self.paths = list(files)
        self._where: dict[str, tuple[int, int, int]] = {}
        with ExitStack() as stack:
            stage = stack.enter_context(staged_files())
            for file_path, shard in zip(files, shards):
                fd = os.open(stage(file_path), os.O_WRONLY)
                stack.callback(os.close, fd)
                offsets = _lay_out(fd, shard)
                for spec in shard:
                    self._where[spec[0]] = (fd, offsets[spec[0]], _nbytes(spec))
            if len(shards) > 1:
                weight_map = OrderedDict((spec[0], f.name) for f, shard in zip(files, shards) for spec in shard)
                index = {"metadata": {"total_size": sum(map(_nbytes, specs))}, "weight_map": weight_map}
                self.paths.append(path / INDEX_FILENAME)
                stage(self.paths[-1]).write_bytes(json.dumps(index, indent=2).encode("utf-8"))
            for stale in [*path.glob("*.safetensors"), *path.glob("*.index.json")] if directory else []:
                if stale not in self.paths and stale.is_file():
                    stage.delete(stale)
            self._exit = stack.pop_all()

    def write(self, name: str, offset: int, data) -> None:
        """Write ``data`` (any contiguous buffer) at byte ``offset`` of the
        payload of tensor ``name``."""
        fd, start, nbytes = self._where[name]
        size = memoryview(data).nbytes
        if offset + size > nbytes:
            raise ValueError(f"{name}: write of {size} bytes at {offset} overruns its {nbytes}-byte payload")
        _pwrite_all(fd, data, start + offset)

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self._exit.__exit__(*exc_info)  # close every file, then commit or discard them


def save_checkpoint(ckpt: Checkpoint, path: str | Path, shard_limit: int = DEFAULT_SHARD_LIMIT) -> list[Path]:
    """Write a checkpoint; returns the list of files written.

    If ``path`` ends in ``.safetensors`` everything must fit in one file.
    Otherwise ``path`` is a directory: a single tensor file when one shard
    suffices, or numbered shards plus an index manifest. A record that maps
    a file has its pages released once its payload is written, so saving a
    loaded checkpoint holds its largest tensor mapped, not all of it.
    """
    records = list(ckpt.tensors.values())
    with CheckpointWriter([(r.name, r.dtype, r.shape) for r in records], path, shard_limit) as out:
        for rec in records:
            out.write(rec.name, 0, rec.raw)
            release_pages(rec)
    return out.paths


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
