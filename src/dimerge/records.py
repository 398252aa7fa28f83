"""Typed weight-tensor records independent of any ML runtime.

A :class:`TensorRecord` keeps the raw little-endian payload exactly as stored
on disk, so half-precision and bfloat16 tensors survive load/save cycles
bit-for-bit. Conversion to a numpy working array happens only when a
computation asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def bf16_bits_to_f32(bits: np.ndarray) -> np.ndarray:
    """Expand bfloat16 bit patterns (uint16) to float32, losslessly."""
    return (bits.astype(np.uint32) << np.uint32(16)).view(np.float32)


def f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    """Round float32 down to bfloat16 bit patterns, round-to-nearest-even."""
    values = np.ascontiguousarray(values, dtype="<f4")
    bits = values.view(np.uint32)
    nan = np.isnan(values)
    with np.errstate(over="ignore"):
        rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    # quiet-NaN: keep sign/exponent, force a mantissa bit
    quiet = (bits >> np.uint32(16)) | np.uint32(0x0040)
    return np.where(nan, quiet, rounded).astype(np.uint16)


@dataclass(frozen=True)
class TensorRecord:
    """One named weight tensor: name, element type, shape, raw payload.

    ``raw`` is the little-endian row-major byte string exactly as stored on
    disk; it is the source of truth for round-trip fidelity.
    """

    name: str
    dtype: DType
    shape: tuple[int, ...]
    raw: bytes

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
        return len(self.raw)

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
        if dtype is DType.BF16:
            payload = f32_to_bf16_bits(array.astype(np.float32, copy=False)).tobytes()
        else:
            payload = np.ascontiguousarray(array, dtype=_NUMPY_VIEW[dtype]).tobytes()
        return cls(name=name, dtype=dtype, shape=tuple(int(d) for d in array.shape), raw=payload)

    def bits(self) -> np.ndarray:
        """The payload viewed as unsigned integers of the storage width."""
        width = {2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<u8")}[self.dtype.itemsize]
        return np.frombuffer(self.raw, dtype=width).reshape(self.shape)

    def to_f32(self) -> np.ndarray:
        """Working-precision copy, fresh and writable. BF16 expands
        losslessly; F64 narrows."""
        if self.dtype is DType.BF16:
            flat = bf16_bits_to_f32(np.frombuffer(self.raw, dtype="<u2"))
        else:
            flat = np.frombuffer(self.raw, dtype=_NUMPY_VIEW[self.dtype]).astype(np.float32)
        return flat.reshape(self.shape)

    def to_f64(self) -> np.ndarray:
        if self.dtype is DType.BF16:
            flat = bf16_bits_to_f32(np.frombuffer(self.raw, dtype="<u2")).astype(np.float64)
        else:
            flat = np.frombuffer(self.raw, dtype=_NUMPY_VIEW[self.dtype]).astype(np.float64)
        return flat.reshape(self.shape)

    def astype(self, dtype: DType) -> "TensorRecord":
        """Re-encode the payload in another storage dtype (lossy where narrower)."""
        if dtype is self.dtype:
            return self
        if self.dtype is DType.F64 and dtype is not DType.F64:
            source = np.frombuffer(self.raw, dtype="<f8").reshape(self.shape)
        else:
            source = self.to_f32()
        return TensorRecord.from_array(self.name, source, dtype=dtype)

    def renamed(self, name: str) -> "TensorRecord":
        return TensorRecord(name=name, dtype=self.dtype, shape=self.shape, raw=self.raw)
