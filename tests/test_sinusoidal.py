"""Multi-scale sinusoidal m/z embedding: wavelength grid, identities,
and behavior under reduced input precision."""

import math

import numpy as np
import pytest

from ieee754_oracle import round_to_binary16, round_to_binary32
from mzembed.embed import (
    BINARY16,
    BINARY32,
    BINARY64,
    LAMBDA_MAX_DEFAULT,
    LAMBDA_MIN_DEFAULT,
    SinusoidalConfig,
    sinusoidal_embed,
    wavelengths,
)
from mzembed.errors import ConfigError, DataError


class TestWavelengths:
    def test_endpoints_exact(self):
        lam = wavelengths(SinusoidalConfig(d=512))
        assert lam.shape == (256,)
        assert abs(lam[0] - 10.0 ** -2.5) <= math.ulp(10.0 ** -2.5)
        assert abs(lam[-1] - 10.0 ** 3.3) <= math.ulp(10.0 ** 3.3)

    def test_geometric_progression(self):
        lam = wavelengths(SinusoidalConfig(d=64))
        ratios = lam[1:] / lam[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert np.all(np.diff(lam) > 0)

    def test_formula_matches_closed_form(self):
        cfg = SinusoidalConfig(d=32)
        lam = wavelengths(cfg)
        lo, hi = cfg.lambda_min, cfg.lambda_max
        for i in range(16):
            expected = lo * (hi / lo) ** (2 * i / (cfg.d - 2))
            assert lam[i] == pytest.approx(expected, rel=1e-13)

    def test_odd_d_rejected(self):
        with pytest.raises(ConfigError):
            wavelengths(SinusoidalConfig(d=33))
        with pytest.raises(ConfigError):
            SinusoidalConfig(d=0).validate() if hasattr(SinusoidalConfig(d=0), "validate") else wavelengths(SinusoidalConfig(d=0))


class TestEmbedding:
    def test_shape_and_interleaving(self):
        cfg = SinusoidalConfig(d=16)
        out = sinusoidal_embed(np.array([150.0]), cfg)
        assert out.shape == (1, 16)
        lam = wavelengths(cfg)
        angles = 2.0 * np.pi * 150.0 / lam
        assert np.allclose(out[0, 0::2], np.sin(angles))
        assert np.allclose(out[0, 1::2], np.cos(angles))

    def test_zero_mz_gives_alternating_pattern(self):
        out = sinusoidal_embed(np.array([0.0]), SinusoidalConfig(d=12))
        assert np.array_equal(out[0], np.tile([0.0, 1.0], 6))

    def test_pythagorean_identity(self, rng):
        cfg = SinusoidalConfig(d=64)
        mz = rng.uniform(0.0, 2000.0, 500)
        out = sinusoidal_embed(mz, cfg)
        ss = out[:, 0::2] ** 2 + out[:, 1::2] ** 2
        assert np.max(np.abs(ss - 1.0)) < 1e-12

    def test_scalar_matches_array(self):
        cfg = SinusoidalConfig(d=8)
        single = sinusoidal_embed(123.456, cfg)
        batch = sinusoidal_embed(np.array([123.456]), cfg)
        assert single.shape == (8,)
        assert np.array_equal(single, batch[0])

    def test_negative_mz_rejected(self):
        with pytest.raises(DataError):
            sinusoidal_embed(np.array([-1.0]), SinusoidalConfig(d=8))

    def test_output_is_float64(self):
        out = sinusoidal_embed(np.array([100.0]), SinusoidalConfig(d=8), BINARY16)
        assert out.dtype == np.float64


class TestInputPrecision:
    """The cast: quantize m/z, then binary64 arithmetic."""

    def test_binary16_equals_embedding_of_rounded_mz(self, rng):
        cfg = SinusoidalConfig(d=32)
        mz = rng.uniform(50.0, 1500.0, 200)
        quantized = np.array([round_to_binary16(float(v)) for v in mz])
        assert np.array_equal(
            sinusoidal_embed(mz, cfg, BINARY16),
            sinusoidal_embed(quantized, cfg, BINARY64),
        )

    def test_binary32_equals_embedding_of_rounded_mz(self, rng):
        cfg = SinusoidalConfig(d=32)
        mz = rng.uniform(50.0, 1500.0, 200)
        quantized = np.array([round_to_binary32(float(v)) for v in mz])
        assert np.array_equal(
            sinusoidal_embed(mz, cfg, BINARY32),
            sinusoidal_embed(quantized, cfg, BINARY64),
        )

    def test_binary64_mode_is_default(self, rng):
        cfg = SinusoidalConfig(d=16)
        mz = rng.uniform(0.0, 2000.0, 50)
        assert np.array_equal(
            sinusoidal_embed(mz, cfg), sinusoidal_embed(mz, cfg, BINARY64)
        )

    def test_quantization_moves_fine_channels(self):
        # binary16 spacing at 500 Da is 0.25 Da, far larger than the
        # finest wavelength (about 0.0032 Da): fine-channel phases are
        # essentially randomized while coarse channels barely move.
        cfg = SinusoidalConfig(d=512)
        mz = np.array([500.0005])
        full = sinusoidal_embed(mz, cfg, BINARY64)
        half = sinusoidal_embed(mz, cfg, BINARY16)
        assert np.max(np.abs(full[:, :2] - half[:, :2])) > 0.1
        assert np.max(np.abs(full[:, -2:] - half[:, -2:])) < 1e-5

    @pytest.mark.parametrize("mode", [BINARY16, BINARY32, BINARY64], ids=str)
    def test_finite_over_the_mass_range(self, mode):
        # The README wavelengths at d=256 over m/z 0-2000: the cast is the
        # only reduced-precision step, so no channel overflows or goes NaN.
        cfg = SinusoidalConfig(d=256)
        out = sinusoidal_embed(np.linspace(0.0, 2000.0, 8001), cfg, mode)
        assert out.shape == (8001, 256)
        assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.0)
