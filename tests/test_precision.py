"""Precision modes and the m/z cast, checked against an independent
IEEE 754 rounding oracle."""

import math
import struct

import numpy as np
import pytest

from ieee754_oracle import round_to_binary16, round_to_binary32
from mzembed.embed import BINARY16, BINARY32, BINARY64, PrecisionMode, cast_mz
from mzembed.errors import ConfigError, NumericsError


class TestOracleSelfChecks:
    """The oracle must agree with the hardware conversions before it is
    allowed to judge anything else."""

    def test_all_binary16_values_are_fixed_points(self):
        for bit_pattern in range(0x10000):
            value = struct.unpack("<e", struct.pack("<H", bit_pattern))[0]
            if math.isnan(value):
                continue
            assert round_to_binary16(value) == value, hex(bit_pattern)

    def test_random_doubles_match_hardware_binary16(self):
        rng = np.random.default_rng(0)
        exponents = rng.uniform(-30, 18, 20000)
        values = np.sign(rng.normal(size=20000)) * 2.0 ** exponents
        with np.errstate(over="ignore"):
            hardware = values.astype(np.float16).astype(np.float64)
        for v, h in zip(values, hardware):
            assert round_to_binary16(float(v)) == h or (
                math.isinf(round_to_binary16(float(v))) and math.isinf(h)
            )

    def test_random_doubles_match_hardware_binary32(self):
        rng = np.random.default_rng(1)
        exponents = rng.uniform(-140, 130, 20000)
        values = np.sign(rng.normal(size=20000)) * 2.0 ** exponents
        with np.errstate(over="ignore"):
            hardware = values.astype(np.float32).astype(np.float64)
        for v, h in zip(values, hardware):
            assert round_to_binary32(float(v)) == h

    def test_ties_round_to_even(self):
        # 2049 is exactly between binary16 neighbors 2048 and 2050.
        assert round_to_binary16(2049.0) == 2048.0
        assert round_to_binary16(2051.0) == 2052.0

    def test_overflow_to_inf(self):
        assert round_to_binary16(65504.0) == 65504.0
        assert round_to_binary16(65519.9) == 65504.0
        assert math.isinf(round_to_binary16(65520.0))

    def test_subnormals(self):
        tiny = 2.0 ** -24
        assert round_to_binary16(tiny) == tiny
        assert round_to_binary16(tiny / 2) == 0.0  # tie to even zero
        assert round_to_binary16(tiny * 0.75) == tiny


class TestPrecisionMode:
    def test_defaults(self):
        assert PrecisionMode() == BINARY64
        assert BINARY64.bits == 64 and BINARY16.bits == 16 and BINARY32.bits == 32

    @pytest.mark.parametrize("bits", [0, 8, 63, 128])
    def test_rejects_other_widths(self, bits):
        with pytest.raises(ConfigError, match=f"got {bits}$"):
            PrecisionMode(bits)

    def test_str_names_the_format(self):
        assert [str(m) for m in (BINARY16, BINARY32, BINARY64)] == [
            "binary16", "binary32", "binary64"
        ]

    def test_dtype_property(self):
        assert PrecisionMode(16).dtype == np.float16
        assert PrecisionMode(32).dtype == np.float32
        assert PrecisionMode(64).dtype == np.float64


class TestCastMz:
    def test_binary64_is_identity(self):
        mz = np.array([100.123456789, 1999.99999])
        assert np.array_equal(cast_mz(mz, BINARY64), mz)

    def test_binary16_matches_oracle(self):
        rng = np.random.default_rng(2)
        mz = rng.uniform(10, 2000, 5000)
        cast = cast_mz(mz, BINARY16)
        for original, quantized in zip(mz, cast):
            assert quantized == round_to_binary16(float(original))

    def test_binary32_matches_oracle(self):
        rng = np.random.default_rng(3)
        mz = rng.uniform(10, 2000, 5000)
        cast = cast_mz(mz, BINARY32)
        for original, quantized in zip(mz, cast):
            assert quantized == round_to_binary32(float(original))

    def test_result_is_float64(self):
        out = cast_mz(np.array([100.0]), BINARY16)
        assert out.dtype == np.float64

    def test_scalar_stays_scalar(self):
        out = cast_mz(500.0005, BINARY16)
        assert np.ndim(out) == 0
        assert float(out) == 500.0  # binary16 spacing at 500 is 0.25

    def test_overflow_raises(self):
        with pytest.raises(NumericsError):
            cast_mz(np.array([70000.0]), BINARY16)

    def test_nonfinite_input_raises(self):
        with pytest.raises(NumericsError):
            cast_mz(np.array([np.nan]), BINARY32)
