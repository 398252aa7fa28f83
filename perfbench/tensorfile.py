"""Minimal reader and writer for the checkpoint file format, for the benchmark.

The benchmark reads and writes checkpoints with its own code so that its
inputs and its output checks do not depend on the package it measures.
Layout: an 8-byte little-endian header length, a JSON header mapping tensor
name to ``{"dtype", "shape", "data_offsets"}``, then the data region. A
sharded checkpoint is a directory of such files plus
``model.safetensors.index.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

INDEX_FILENAME = "model.safetensors.index.json"
SINGLE_FILENAME = "model.safetensors"
ITEMSIZE = {"BF16": 2, "F16": 2, "F32": 4, "F64": 8}
BITS_DTYPE = {2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<u8")}
_HEADER = struct.Struct("<Q")


# ---------------------------------------------------------------------------
# element encodings
# ---------------------------------------------------------------------------


def bf16_to_f32(bits: np.ndarray) -> np.ndarray:
    return (bits.astype(np.uint32) << np.uint32(16)).view(np.float32)


def f32_to_bf16(values: np.ndarray) -> np.ndarray:
    """float32 to bfloat16 bit patterns, round to nearest even (finite input)."""
    bits = np.ascontiguousarray(values, dtype="<f4").view(np.uint32)
    return ((bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)).astype(np.uint16)


def encode(values: np.ndarray, dtype: str) -> bytes:
    """Storage bytes of float values in BF16 or F16, the dtypes the workloads use."""
    if dtype == "BF16":
        return f32_to_bf16(values).tobytes()
    return np.ascontiguousarray(values, dtype="<f2").tobytes()


def bits_view(raw: bytes, dtype: str, shape) -> np.ndarray:
    return np.frombuffer(raw, dtype=BITS_DTYPE[ITEMSIZE[dtype]]).reshape(shape)


def to_f64(raw: bytes, dtype: str, shape) -> np.ndarray:
    if dtype == "BF16":
        flat = bf16_to_f32(np.frombuffer(raw, dtype="<u2"))
    else:
        flat = np.frombuffer(raw, dtype={"F16": "<f2", "F32": "<f4", "F64": "<f8"}[dtype])
    return flat.astype(np.float64).reshape(shape)


def nonfinite_count(raw: bytes, dtype: str) -> int:
    """BF16 or F16 elements whose exponent field is all ones (inf or NaN)."""
    mask = np.uint16({"BF16": 0x7F80, "F16": 0x7C00}[dtype])
    return int(np.count_nonzero((np.frombuffer(raw, dtype="<u2") & mask) == mask))


def ulp(values: np.ndarray, dtype: str) -> np.ndarray:
    """Spacing of BF16 or F16 at |values| (float64 in, float64 out)."""
    mant = {"BF16": 7, "F16": 10}[dtype]
    tiny = {"BF16": 2.0**-126, "F16": 2.0**-14}[dtype]
    _, exp = np.frexp(np.maximum(np.abs(values), tiny))
    return np.ldexp(1.0, exp - 1 - mant)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


class TensorFile:
    """One tensor file opened for reading tensors by name."""

    def __init__(self, path: Path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            (n,) = _HEADER.unpack(fh.read(_HEADER.size))
            header = json.loads(fh.read(n))
        header.pop("__metadata__", None)
        self.header = header
        self.body_start = _HEADER.size + n

    def read(self, name: str) -> bytes:
        start, end = self.header[name]["data_offsets"]
        with open(self.path, "rb") as fh:
            fh.seek(self.body_start + start)
            return fh.read(end - start)


class Checkpoint:
    """Tensor name to (file, header entry), over one file or a sharded directory."""

    def __init__(self, path: Path):
        path = Path(path)
        index = path / INDEX_FILENAME
        if index.is_file():
            weight_map = json.loads(index.read_text())["weight_map"]
            files = {shard: TensorFile(path / shard) for shard in sorted(set(weight_map.values()))}
            self.where = {name: files[shard] for name, shard in weight_map.items()}
        else:
            single = path / SINGLE_FILENAME if path.is_dir() else path
            tf = TensorFile(single)
            self.where = {name: tf for name in tf.header}

    def names(self) -> list[str]:
        return sorted(self.where)

    def entry(self, name: str) -> dict:
        return self.where[name].header[name]

    def read(self, name: str) -> bytes:
        return self.where[name].read(name)

    def f64(self, name: str) -> np.ndarray:
        e = self.entry(name)
        return to_f64(self.read(name), e["dtype"], e["shape"])


def _header_bytes(entries: list[tuple[str, str, tuple[int, ...]]]) -> bytes:
    header, offset = {}, 0
    for name, dtype, shape in entries:
        nbytes = int(np.prod(shape)) * ITEMSIZE[dtype]
        header[name] = {"dtype": dtype, "shape": list(shape), "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    raw = json.dumps(header, separators=(",", ":")).encode()
    return _HEADER.pack(len(raw)) + raw


class StreamWriter:
    """Writes one checkpoint tensor by tensor in a fixed, declared order.

    The full list of (name, dtype, shape) is declared up front so headers can
    be written before any payload; ``shard_bytes`` splits the checkpoint into
    numbered shards plus an index manifest. Files are flushed to disk on
    close, so their write-back cannot overlap a later timed region.
    """

    def __init__(self, directory: Path, entries, shard_bytes: int | None = None):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        shards, current, size = [], [], 0
        for entry in entries:
            nbytes = int(np.prod(entry[2])) * ITEMSIZE[entry[1]]
            if shard_bytes and current and size + nbytes > shard_bytes:
                shards.append(current)
                current, size = [], 0
            current.append(entry)
            size += nbytes
        shards.append(current)
        if len(shards) == 1:
            self.files = [SINGLE_FILENAME]
        else:
            self.files = [f"model-{i:05d}-of-{len(shards):05d}.safetensors" for i in range(1, len(shards) + 1)]
        self.expected = [(e[0], fname) for fname, shard in zip(self.files, shards) for e in shard]
        self._shards = shards
        self._i = 0
        self._fh = None
        self._file_i = -1

    def _open_next(self):
        self._close_current()
        self._file_i += 1
        fname = self.files[self._file_i]
        self._fh = open(self.dir / fname, "wb")
        self._fh.write(_header_bytes(self._shards[self._file_i]))

    def _close_current(self):
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def write(self, name: str, payload: bytes):
        expected_name, fname = self.expected[self._i]
        if name != expected_name:
            raise ValueError(f"expected tensor {expected_name!r}, got {name!r}")
        if self._file_i < 0 or self.files[self._file_i] != fname:
            self._open_next()
        self._fh.write(payload)
        self._i += 1

    def close(self) -> list[str]:
        """Finish the checkpoint; returns the names of the files written."""
        if self._i != len(self.expected):
            raise ValueError(f"{self.dir}: wrote {self._i} of {len(self.expected)} tensors")
        self._close_current()
        if len(self.files) == 1:
            return list(self.files)
        index = {"metadata": {}, "weight_map": {name: fname for name, fname in self.expected}}
        (self.dir / INDEX_FILENAME).write_text(json.dumps(index, indent=1, sort_keys=True))
        return self.files + [INDEX_FILENAME]


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def tree_sha256(path: Path) -> dict[str, str]:
    """sha256 of every regular file under ``path`` (or of ``path`` itself)."""
    path = Path(path)
    if path.is_file():
        return {path.name: file_sha256(path)}
    return {p.relative_to(path).as_posix(): file_sha256(p) for p in sorted(path.rglob("*")) if p.is_file()}
