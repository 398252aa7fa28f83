import warnings

import numpy as np
import pytest

from dimerge.errors import FormatError, NumericError, ShapeError
from dimerge.records import (ENCODE_LIMIT, DType, TensorRecord, bf16_bits_to_f32, decode_f32, encode_bits,
                             f32_to_bf16_bits, recode_bits)

import reference


def bf16_edge_values() -> np.ndarray:
    """Float32 values, shape (-1, 2), that exercise every bf16 rounding path."""
    rng = np.random.default_rng(16)
    patterns = [
        rng.integers(0, 2**32, size=4000, dtype=np.uint64),
        # rounding ties, and one either side, around every upper half
        (rng.integers(0, 2**16, size=2000, dtype=np.uint64) << np.uint64(16))
        | rng.choice(np.array([0x0000, 0x7FFF, 0x8000, 0x8001, 0xFFFF], dtype=np.uint64), size=2000),
        # NaN payloads of either sign, including ones whose low bits would round up
        (rng.integers(0, 2, size=2000, dtype=np.uint64) << np.uint64(31))
        | np.uint64(0x7F800000) | rng.integers(1, 2**23, size=2000, dtype=np.uint64),
        # inf, the largest finite values (which round to inf), zeros, subnormals
        np.array([0x7F800000, 0xFF800000, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F7F7FFF, 0x7F7F8000,
                  0x00000000, 0x80000000, 0x00000001, 0x00008000, 0x00018000, 0x807FFFFF], dtype=np.uint64),
    ]
    return np.concatenate(patterns).astype(np.uint32).view(np.float32).reshape(-1, 2)


class TestBf16Codec:
    def test_expand_is_exact(self):
        # every bf16 value is representable in f32: expand then re-truncate
        bits = np.arange(0, 2**16, dtype=np.uint16)
        finite = bits[np.isfinite(bf16_bits_to_f32(bits))]
        round_trip = f32_to_bf16_bits(bf16_bits_to_f32(finite))
        np.testing.assert_array_equal(round_trip, finite)

    def test_round_to_nearest_even(self):
        # bf16 spacing in [1, 2) is 2^-7; 1 + 2^-8 sits exactly between
        # neighbors 1.0 (even mantissa) and 1.0078125 (odd): even wins
        x = np.array([1.0 + 2.0**-8], dtype=np.float32)
        assert bf16_bits_to_f32(f32_to_bf16_bits(x))[0] == 1.0
        # 1 + 3*2^-8 is midway between 1.0078125 (odd) and 1.015625 (even)
        y = np.array([1.0 + 3 * 2.0**-8], dtype=np.float32)
        assert bf16_bits_to_f32(f32_to_bf16_bits(y))[0] == np.float32(1.015625)

    def test_overflow_saturates_to_inf(self):
        x = np.array([np.finfo(np.float32).max], dtype=np.float32)
        assert np.isinf(bf16_bits_to_f32(f32_to_bf16_bits(x))[0])

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan], dtype=np.float32)
        assert np.all(np.isnan(bf16_bits_to_f32(f32_to_bf16_bits(x))))

    def test_matches_reference_bitwise(self):
        values = bf16_edge_values()
        got = f32_to_bf16_bits(values)
        assert got.dtype == np.uint16
        assert got.shape == values.shape
        assert got.ravel().tolist() == reference.f32_to_bf16_bits(values)

    def test_into_out_and_scratch_matches_reference(self):
        """Rounding in a caller's scratch into a caller's (strided) output
        overwrites whatever they held and gives the same bits."""
        values = bf16_edge_values()
        scratch = np.full(values.shape, 0xDEADBEEF, dtype=np.uint32)
        wide = np.full((values.shape[0], 5), 0xBEEF, dtype=np.uint16)
        out = wide[:, 1:4:2]
        assert f32_to_bf16_bits(values, out, scratch) is out
        assert out.ravel().tolist() == reference.f32_to_bf16_bits(values)
        assert (wide[:, [0, 2, 4]] == 0xBEEF).all()


# every F16 bit pattern, and numpy's float16 cast of each as float32 bits
F16_PATTERNS = np.arange(2**16, dtype=np.uint16)
F16_AS_F32 = F16_PATTERNS.view(np.float16).astype(np.float32).view(np.uint32)


class TestF16Decode:
    """The F16 decode rebiases the exponent rather than calling numpy's cast,
    and gives the same bits for every pattern: zeros, subnormals, infinities
    and NaNs with their payloads, from any layout, with no warning."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_every_pattern(self):
        np.testing.assert_array_equal(decode_f32(F16_PATTERNS, DType.F16).view(np.uint32), F16_AS_F32)

    def test_column_cropped_bits_into_a_strided_out(self):
        wide_bits = np.full((256, 300), 0x7C01, dtype=np.uint16)
        wide_bits[:, 20:276] = F16_PATTERNS.reshape(256, 256)
        wide_out = np.full((256, 512), 0xDEADBEEF, dtype=np.uint32)
        out = wide_out.view(np.float32)[:, ::2]
        assert decode_f32(wide_bits[:, 20:276], DType.F16, out) is out
        np.testing.assert_array_equal(out.view(np.uint32).ravel(), F16_AS_F32)
        assert (wide_out[:, 1::2] == 0xDEADBEEF).all()

    def test_read_only_bits(self):
        bits = np.frombuffer(F16_PATTERNS.tobytes(), dtype=np.uint16)
        assert not bits.flags.writeable
        np.testing.assert_array_equal(decode_f32(bits, DType.F16).view(np.uint32), F16_AS_F32)

    def test_empty(self):
        assert decode_f32(np.empty((0, 3), np.uint16), DType.F16).shape == (0, 3)

    def test_infinities_without_a_nan(self):
        """Exponent 31 rebiases to a magnitude of exactly 65536 for an
        infinity; with no NaN in the block to show one, the fix-up must still
        make it infinite, never the finite 65536 a non-finite check passes."""
        bits = np.array([0x7C00, 0xFC00, 0x3C00], np.uint16)
        assert decode_f32(bits, DType.F16).tolist() == [np.inf, -np.inf, 1.0]

    def test_record_to_f32(self):
        rec = TensorRecord("w", DType.F16, (256, 256), F16_PATTERNS.tobytes())
        np.testing.assert_array_equal(rec.to_f32().view(np.uint32).ravel(), F16_AS_F32)

    def test_recode_to_f32(self):
        np.testing.assert_array_equal(recode_bits(F16_PATTERNS, DType.F16, DType.F32), F16_AS_F32)

    def test_recode_to_bf16(self):
        got = recode_bits(F16_PATTERNS, DType.F16, DType.BF16)
        assert got.tolist() == reference.f32_to_bf16_bits(F16_AS_F32.view(np.float32))


class TestCodecsInto:
    """``decode_f32``, ``encode_bits`` and ``recode_bits`` write into a given
    array exactly what they return without one."""

    @pytest.fixture
    def values(self, rng):
        values = rng.normal(scale=3.0, size=(6, 4)).astype(np.float32)
        values[0, :2] = [np.inf, -np.inf]
        return values

    @pytest.mark.parametrize("dtype", list(DType))
    def test_decode_into(self, values, dtype):
        bits = TensorRecord.from_array("w", values, dtype=dtype).bits()[:, 1:]
        out = np.full(bits.shape, np.nan, dtype=np.float32)
        got = decode_f32(bits, dtype, out)
        assert np.shares_memory(got, out)
        np.testing.assert_array_equal(out.view(np.uint32), decode_f32(bits, dtype).view(np.uint32))

    @pytest.mark.parametrize("dtype", list(DType))
    def test_encode_into_a_strided_region(self, values, dtype):
        wide = np.full((6, 7), 0x55, dtype=f"<u{dtype.itemsize}")
        out = wide[:, :4]
        scratch = np.full(values.shape, 0xFFFFFFFF, dtype=np.uint32)
        assert encode_bits(values, dtype, out, scratch) is out
        np.testing.assert_array_equal(out, encode_bits(values, dtype))
        assert (wide[:, 4:] == 0x55).all()

    @pytest.mark.parametrize("source", list(DType))
    @pytest.mark.parametrize("target", list(DType))
    def test_recode_into(self, values, source, target):
        bits = TensorRecord.from_array("w", values, dtype=source).bits()
        out = np.full(bits.shape, 0x77, dtype=f"<u{target.itemsize}")
        recode_bits(bits, source, target, out)
        np.testing.assert_array_equal(out, recode_bits(bits, source, target))


class TestTensorRecord:
    def test_from_array_round_trip_f32(self, rng):
        values = rng.normal(size=(3, 5)).astype(np.float32)
        rec = TensorRecord.from_array("w", values)
        assert rec.dtype is DType.F32
        assert rec.shape == (3, 5)
        np.testing.assert_array_equal(rec.to_f32(), values)

    def test_f16_round_trip(self, rng):
        values = rng.normal(size=(8,)).astype(np.float16)
        rec = TensorRecord.from_array("w", values)
        assert rec.dtype is DType.F16
        np.testing.assert_array_equal(rec.to_f32(), values.astype(np.float32))

    def test_payload_length_checked(self):
        with pytest.raises(FormatError):
            TensorRecord(name="w", dtype=DType.F32, shape=(2, 2), raw=b"\x00" * 15)

    def test_integer_array_has_no_storage_dtype(self):
        with pytest.raises(NumericError, match="no storage dtype for numpy dtype int32"):
            TensorRecord.from_array("w", np.arange(4, dtype=np.int32))

    def test_shape_must_be_positive(self):
        with pytest.raises(ShapeError):
            TensorRecord(name="w", dtype=DType.F32, shape=(0, 2), raw=b"")

    def test_bf16_cast_uses_rne(self):
        values = np.array([[1.0, 2.5, -3.75]], dtype=np.float32)
        rec = TensorRecord.from_array("w", values, dtype=DType.BF16)
        np.testing.assert_array_equal(rec.to_f32(), values)  # all exactly representable

    def test_astype_changes_payload(self, rng):
        values = rng.normal(size=(4, 4)).astype(np.float32)
        rec = TensorRecord.from_array("w", values)
        half = rec.astype(DType.F16)
        assert half.dtype is DType.F16
        np.testing.assert_allclose(half.to_f32(), values, atol=2e-3)

    @pytest.mark.parametrize("dtype", [DType.F32, DType.F16, DType.BF16, DType.F64])
    @pytest.mark.parametrize("decode", ["to_f32", "to_f64"])
    def test_decode_is_a_fresh_writable_array(self, rng, dtype, decode):
        rec = TensorRecord.from_array("w", rng.normal(size=(3, 5)).astype(np.float32), dtype=dtype)
        raw, bits = rec.raw, rec.bits().copy()
        values = getattr(rec, decode)()
        assert values.flags.writeable
        values -= 1.0
        values[0, 0] = 7.0
        assert rec.raw == raw
        np.testing.assert_array_equal(rec.bits(), bits)


@pytest.mark.parametrize("dtype", list(DType))
def test_encode_limit_is_the_largest_float32_kept_finite(dtype):
    """Each dtype's limit encodes as a finite value, either sign, and the
    next float32 up encodes as infinity."""
    limit = ENCODE_LIMIT[dtype]
    with np.errstate(over="ignore"):
        past = np.nextafter(limit, np.float32(np.inf))
        values = np.array([limit, -limit, past, -past], np.float32)
        decoded = TensorRecord.from_array("t", values, dtype).to_f64()
    assert np.isfinite(decoded[:2]).all()
    assert np.isinf(decoded[2:]).all()
