import numpy as np
import pytest

from dimerge.errors import FormatError, ShapeError
from dimerge.records import DType, TensorRecord, bf16_bits_to_f32, f32_to_bf16_bits


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
