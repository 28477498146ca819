"""Multi-scale sinusoidal m/z embedding.

A scalar m/z maps to d/2 sin/cos pairs over log-spaced wavelengths:

    out[2i]   = sin(2*pi * mz / lambda_i)
    out[2i+1] = cos(2*pi * mz / lambda_i)
    lambda_i  = lambda_min * (lambda_max/lambda_min)^(2i/(d-2))

for i = 0 .. d/2-1, so lambda_0 = lambda_min exactly and the last
wavelength is lambda_max exactly. The default span runs from 10^-2.5 Da
(resolving sub-millidalton structure) to 10^3.3 Da (covering the whole
small-molecule mass range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError, NumericsError
from .precision import BINARY64, PrecisionMode, cast_mz

LAMBDA_MIN_DEFAULT = 10.0 ** -2.5
LAMBDA_MAX_DEFAULT = 10.0 ** 3.3


@dataclass(frozen=True)
class SinusoidalConfig:
    lambda_min: float = LAMBDA_MIN_DEFAULT
    lambda_max: float = LAMBDA_MAX_DEFAULT
    d: int = 512

    def __post_init__(self):
        if not (0 < self.lambda_min < self.lambda_max < np.inf):
            raise ConfigError(
                f"need 0 < lambda_min < lambda_max < inf, got {self.lambda_min}, {self.lambda_max}"
            )
        if self.d % 2 != 0 or self.d < 4:
            raise ConfigError(f"embedding dimension must be even and >= 4, got {self.d}")


def wavelengths(cfg: SinusoidalConfig) -> np.ndarray:
    """The d/2 log-spaced wavelengths, endpoints exact."""
    grid = np.geomspace(cfg.lambda_min, cfg.lambda_max, cfg.d // 2)
    # geomspace pins both endpoints already; keep that explicit since the
    # endpoint contract is load-bearing for the precision ablation.
    grid[0] = cfg.lambda_min
    grid[-1] = cfg.lambda_max
    return grid


def sinusoidal_embed(mz, cfg: SinusoidalConfig, mode: PrecisionMode = BINARY64):
    """Embed m/z values as interleaved sin/cos over the wavelength grid.

    Accepts a scalar (returns shape (d,)) or a 1-D array (returns
    (n, d)). The m/z values are cast through ``mode`` (``cast_mz``);
    the arithmetic after the cast and the output are binary64. An m/z
    whose largest angle, 2*pi*mz / lambda_min, overflows binary64 (above
    about 9.0e304 Da at the default lambda_min) raises NumericsError: its
    sin and cos would be nan.
    """
    arr = np.asarray(mz, dtype=np.float64)
    scalar = arr.shape == ()
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise ConfigError(f"m/z input must be scalar or 1-D, got shape {arr.shape}")
    if np.any(arr < 0):
        raise DataError(f"m/z must be non-negative, got min {arr.min()}")

    cast = cast_mz(arr, mode)
    top = float(cast.max(initial=0.0))
    # The angle's own arithmetic on Python floats, which overflow to inf
    # without a warning; the largest m/z over lambda_min is the largest angle.
    if not math.isfinite(2.0 * np.pi * top / float(cfg.lambda_min)):
        raise NumericsError(
            f"m/z {top!r} is too large to embed: 2*pi*mz / lambda_min overflows binary64"
        )
    angle = (2.0 * np.pi * cast[:, None]) / wavelengths(cfg)[None, :]
    out = np.empty((arr.shape[0], cfg.d), dtype=np.float64)
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out[0] if scalar else out
