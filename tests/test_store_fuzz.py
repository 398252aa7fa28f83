"""Property test: the tensor-file reader on mutated headers.

A valid file is written, then its JSON header (dtypes, shape elements,
offsets, entry types and keys, ``__metadata__``) and its 8-byte header
length are mutated. Whatever the mutation, loading either returns records
whose payloads tile the file body in offset order from a header that keeps
the format's rules, or raises ``FormatError``; no other exception escapes.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerge.errors import FormatError
from dimerge.records import DType, TensorRecord
from dimerge.store import load_checkpoint

PROPERTY = settings(max_examples=400)

RECORDS = [
    TensorRecord.from_array("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
    TensorRecord.from_array("b", np.arange(4, dtype=np.float32), dtype=DType.BF16),
    TensorRecord.from_array("c", np.float32(1.5), dtype=DType.F16),
    TensorRecord.from_array("d", np.ones((1, 2))),
]
BODY = b"".join(rec.raw for rec in RECORDS)
FIELDS = ("dtype", "shape", "data_offsets")

JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def near_misses(value: int):
    """The right number as a bool, float or string, or an integer a little off."""
    return st.one_of(
        st.sampled_from([value == 1, float(value), value + 0.5, value - 0.1, str(value), 0, -1, -value]),
        st.integers(value - 2, value + 2),
    )


def valid_header() -> dict:
    header, offset = {}, 0
    for rec in RECORDS:
        header[rec.name] = {"dtype": rec.dtype.value, "shape": list(rec.shape),
                            "data_offsets": [offset, offset + rec.nbytes]}
        offset += rec.nbytes
    return header


@st.composite
def mutated_files(draw) -> bytes:
    header = valid_header()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["dim", "dim", "offset", "offset", "field", "drop_field", "entry",
                                     "metadata", "drop_entry", "swap_offsets", "dtype", "extra_key"]))
        name = draw(st.sampled_from(sorted(header)))
        entry = header[name]
        if kind == "metadata":
            header["__metadata__"] = draw(JSON_VALUE | st.dictionaries(st.text(max_size=3), st.text(max_size=3)))
        elif kind == "drop_entry" and len(header) > 1:
            del header[name]
        elif not isinstance(entry, dict):
            header[name] = draw(JSON_VALUE)
        elif kind == "field":
            entry[draw(st.sampled_from(FIELDS))] = draw(JSON_VALUE)
        elif kind == "extra_key":
            entry[draw(st.sampled_from(FIELDS) | st.text(max_size=3))] = draw(JSON_VALUE)
        elif kind == "drop_field":
            entry.pop(draw(st.sampled_from(FIELDS)), None)
        elif kind == "entry":
            header[name] = draw(JSON_VALUE)
        elif kind == "dtype":
            entry["dtype"] = draw(st.sampled_from(["F32", "F16", "BF16", "F64", "I32", "f32", ""]))
        elif kind == "swap_offsets":
            other = header[draw(st.sampled_from(sorted(header)))]
            if isinstance(other, dict) and "data_offsets" in entry and "data_offsets" in other:
                entry["data_offsets"], other["data_offsets"] = other["data_offsets"], entry["data_offsets"]
        else:
            key = "shape" if kind == "dim" else "data_offsets"
            values = entry.get(key)
            if isinstance(values, list) and values:
                i = draw(st.integers(0, len(values) - 1))
                values[i] = draw(near_misses(values[i] if type(values[i]) is int else 1))
            else:
                entry[key] = [draw(near_misses(1))]
    raw = json.dumps(header).encode()
    length = draw(st.one_of(
        st.just(len(raw)), st.just(len(raw)), st.integers(0, len(raw) + 12), st.just(2**64 - 1),
    ))
    return struct.pack("<Q", length) + raw + BODY


@PROPERTY
@given(mutated_files())
def test_loads_tiling_records_or_raises_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.safetensors"
        path.write_bytes(data)
        try:
            ckpt = load_checkpoint(path)
        except FormatError:
            return
    (length,) = struct.unpack_from("<Q", data)
    header = json.loads(data[8:8 + length])
    body = data[8 + length:]
    # __metadata__, when present, maps strings to strings; entries hold the three fields only
    metadata = header.get("__metadata__", {})
    assert isinstance(metadata, dict) and all(type(v) is str for v in metadata.values())
    entries = {name: entry for name, entry in header.items() if name != "__metadata__"}
    assert all(set(entry) == set(FIELDS) for entry in entries.values())
    assert ckpt.names() == sorted(entries)
    by_offset = sorted(entries, key=lambda name: entries[name]["data_offsets"])
    assert b"".join(bytes(ckpt[name].raw) for name in by_offset) == body
    for name in by_offset:
        entry = entries[name]
        # accepted numbers are plain integers, taken as they are
        assert all(type(n) is int for n in entry["shape"] + entry["data_offsets"])
        assert list(ckpt[name].shape) == entry["shape"]
        assert ckpt[name].dtype.value == entry["dtype"]
