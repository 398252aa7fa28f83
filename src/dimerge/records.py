"""Typed weight-tensor records independent of any ML runtime.

A :class:`TensorRecord` keeps the raw little-endian payload exactly as stored
on disk, so half-precision and bfloat16 tensors survive load/save cycles
bit-for-bit. Conversion to a numpy working array happens only when a
computation asks for it.

Every merge pass reads its inputs through :func:`decode_f32`, which decodes
F16 by rebiasing its exponent in float32, exactly, rather than by numpy's
float16 cast: a scalar loop at two to three times the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import prod

import numpy as np

from .errors import FormatError, NumericError, ShapeError


class DType(str, Enum):
    """Storage element types. Values match the on-disk dtype strings."""

    F32 = "F32"
    F16 = "F16"
    BF16 = "BF16"
    F64 = "F64"

    @property
    def itemsize(self) -> int:
        return _ITEMSIZE[self]

    @classmethod
    def from_string(cls, s: str) -> "DType":
        try:
            return cls(s)
        except ValueError:
            raise FormatError(f"unsupported dtype {s!r}") from None

    @classmethod
    def from_numpy(cls, dt: np.dtype) -> "DType":
        dt = np.dtype(dt)
        if dt == np.float32:
            return cls.F32
        if dt == np.float16:
            return cls.F16
        if dt == np.float64:
            return cls.F64
        raise NumericError(f"no storage dtype for numpy dtype {dt}")


_ITEMSIZE = {DType.F32: 4, DType.F16: 2, DType.BF16: 2, DType.F64: 8}

# numpy view dtypes for the native storage types (bf16 has none)
_NUMPY_VIEW = {
    DType.F32: np.dtype("<f4"),
    DType.F16: np.dtype("<f2"),
    DType.F64: np.dtype("<f8"),
}
# unsigned views of each storage width, for bit-exact copies
_BITS = {2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<u8")}


def bf16_bits_to_f32(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Expand bfloat16 bit patterns (uint16) to float32, losslessly, by a
    widening copy and a shift, into ``out`` (float32, of the bits' shape) if given."""
    wide = (np.empty(bits.shape, np.float32) if out is None else out).view(np.uint32)
    np.copyto(wide, bits)
    wide <<= np.uint32(16)
    return wide.view(np.float32)


def f32_to_bf16_bits(values: np.ndarray, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Round float32 down to bfloat16 bit patterns, round-to-nearest-even,
    into ``out`` (uint16, of the values' shape, any strides) or a fresh
    array. The rounding sums go into ``scratch`` (uint32, of the values'
    shape) if given, else into a temporary."""
    values = np.ascontiguousarray(values, dtype="<f4")
    bits = values.view(np.uint32)
    # the uint32 sum can wrap only for NaN bit patterns, which the fix-up
    # below overwrites
    rounded = np.right_shift(bits, np.uint32(16), out=scratch)
    rounded &= np.uint32(1)
    rounded += bits
    rounded += np.uint32(0x7FFF)
    rounded >>= np.uint32(16)
    # a NaN propagates through max, so one reduction finds any
    if values.size and np.isnan(values.max()):
        # quiet-NaN: keep sign/exponent, force a mantissa bit
        nan = np.isnan(values)
        rounded[nan] = (bits[nan] >> np.uint32(16)) | np.uint32(0x0040)
    if out is None:
        return rounded.astype(np.uint16)
    np.copyto(out, rounded, casting="unsafe")
    return out


def decode_f32(bits: np.ndarray, dtype: DType, out: np.ndarray | None = None) -> np.ndarray:
    """Float32 values of storage bit patterns of any shape or strides, into
    ``out`` (float32, of the bits' shape) or a fresh writable array. BF16
    expands losslessly; F64 narrows, an overflow to infinity left for the
    caller's finiteness check.

    F16 expands losslessly by rebiasing its exponent in four passes over
    ``out``, bit for bit what numpy's slower float16 cast gives. The
    sign-extending copy and shift put the sign at bit 31 and the exponent
    and mantissa in their float32 places; the mask clears the sign's extra
    copies; multiplying by 2**112 moves the exponent bias from 15 to 127,
    exactly, and makes an F16 subnormal (here a float32 subnormal) the
    normal float32 it stands for. Exponent 31 has become a finite magnitude
    of at least 65536; only when min or max shows one are those elements
    given exponent 255, an infinity or a NaN with its payload, so no float
    operation ever sees a NaN."""
    if dtype is DType.BF16:
        return bf16_bits_to_f32(bits, out)
    if out is None:
        out = np.empty(bits.shape, np.float32)
    if dtype is DType.F16:
        wide = out.view("<u4")
        np.copyto(out.view("<i4"), bits.view("<i2"))
        wide <<= np.uint32(13)
        wide &= np.uint32(0x8FFFE000)
        out *= np.float32(2.0 ** 112)
        if not (-65536 < out.min(initial=0.0) and out.max(initial=0.0) < 65536):
            wide[np.abs(out) >= 65536] |= np.uint32(0x7F800000)
        return out
    with np.errstate(over="ignore"):
        np.copyto(out, bits.view(_NUMPY_VIEW[dtype]))
    return out


def encode_bits(values: np.ndarray, dtype: DType, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Storage bit patterns of ``values`` in ``dtype``: round-to-nearest-even
    for BF16, numpy's native rounding for F16/F32/F64. ``out`` (unsigned, of
    the storage width and the values' shape, any strides) receives them if
    given; BF16 rounds in ``scratch`` as :func:`f32_to_bf16_bits` does."""
    if dtype is DType.BF16:
        return f32_to_bf16_bits(values.astype(np.float32, copy=False), out, scratch)
    if out is None:
        return np.ascontiguousarray(values, dtype=_NUMPY_VIEW[dtype]).view(_BITS[dtype.itemsize])
    np.copyto(out.view(_NUMPY_VIEW[dtype]), values)
    return out


# the largest float32 that encode_bits keeps finite in each dtype; encoding is
# monotone, so the float32 values it keeps finite are exactly [-limit, limit]
ENCODE_LIMIT = {
    DType.F32: np.finfo(np.float32).max,
    DType.F64: np.finfo(np.float32).max,
    DType.F16: np.nextafter(np.float32(65520), np.float32(0)),  # 65520 rounds to inf
    DType.BF16: np.uint32(0x7F7F7FFF).view(np.float32),  # 0x7F7F8000 rounds to inf
}


def all_finite(values: np.ndarray, limit: float | None = None) -> bool:
    """Whether every one of ``values`` lies in [-limit, limit], by default
    the largest finite value of their dtype: a NaN propagates through min
    and max; an infinity is one of them."""
    limit = np.finfo(values.dtype).max if limit is None else limit
    return bool(-limit <= values.min(initial=0.0) and values.max(initial=0.0) <= limit)


def require_finite(values: np.ndarray, message: str, limit: float | None = None) -> None:
    """:class:`NumericError` with ``message`` unless :func:`all_finite`."""
    if not all_finite(values, limit):
        raise NumericError(message)


def recode_bits(bits: np.ndarray, source: DType, target: DType, out: np.ndarray | None = None) -> np.ndarray:
    """Bit patterns stored as ``source`` re-encoded as ``target`` (lossy where
    narrower), into ``out`` or a fresh writable array. A copy and a decode
    to F32 write nothing but the result."""
    if out is None:
        out = np.empty(bits.shape, _BITS[target.itemsize])
    if source is target:
        np.copyto(out, bits)
    elif target is DType.F32:
        decode_f32(bits, source, out.view(np.float32))
    else:
        values = bits.view(_NUMPY_VIEW[DType.F64]) if source is DType.F64 else decode_f32(bits, source)
        encode_bits(values, target, out)
    return out


@dataclass(frozen=True)
class TensorRecord:
    """One named weight tensor: name, element type, shape, raw payload.

    ``raw`` is the little-endian row-major payload exactly as stored on
    disk; it is the source of truth for round-trip fidelity. Records built
    in memory hold it as ``bytes``. A record loaded from a file
    (:func:`~dimerge.store.read_tensor_file`) keeps it there and reads it
    whole each time ``raw`` is asked for; it compares and hashes like its
    twin in memory.
    """

    name: str
    dtype: DType
    shape: tuple[int, ...]
    raw: bytes = field(repr=False)

    def __post_init__(self):
        if any((not isinstance(d, int)) or d <= 0 for d in self.shape):
            raise ShapeError(f"{self.name}: shape {self.shape} must be positive integers")
        expected = prod(self.shape) * self.dtype.itemsize
        if expected != len(self.raw):
            raise FormatError(
                f"{self.name}: payload is {len(self.raw)} bytes, "
                f"shape {self.shape} with dtype {self.dtype.value} needs {expected}"
            )

    @property
    def num_elements(self) -> int:
        return prod(self.shape)

    @property
    def nbytes(self) -> int:
        return prod(self.shape) * self.dtype.itemsize

    @property
    def rank(self) -> int:
        return len(self.shape)

    @classmethod
    def from_array(cls, name: str, array: np.ndarray, dtype: DType | None = None) -> "TensorRecord":
        """Build a record from a numpy array, casting to ``dtype`` if given.

        Casting to BF16 uses round-to-nearest-even; F16/F32/F64 use numpy's
        native rounding. ``array`` must be 1-D or 2-D or any rank with
        positive dimensions.
        """
        array = np.asarray(array)
        if dtype is None:
            dtype = DType.from_numpy(array.dtype)
        return cls(name=name, dtype=dtype, shape=tuple(int(d) for d in array.shape),
                   raw=encode_bits(array, dtype).tobytes())

    def bits(self) -> np.ndarray:
        """The payload viewed as unsigned integers of the storage width."""
        return np.frombuffer(self.raw, dtype=_BITS[self.dtype.itemsize]).reshape(self.shape)

    def to_f32(self) -> np.ndarray:
        """Working-precision copy, fresh and writable. BF16 expands
        losslessly; F64 narrows."""
        return decode_f32(self.bits(), self.dtype)

    def to_f64(self) -> np.ndarray:
        values = self.to_f32() if self.dtype is DType.BF16 else self.bits().view(_NUMPY_VIEW[self.dtype])
        return values.astype(np.float64)

    def renamed(self, name: str) -> "TensorRecord":
        return TensorRecord(name=name, dtype=self.dtype, shape=self.shape, raw=self.raw)
