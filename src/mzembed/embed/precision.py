"""Floating-point precision of the m/z inputs.

A precision is one IEEE 754 format, binary16, binary32 or binary64. The
m/z value is quantized through it (round-to-nearest-even, which is what
numpy's astype does), and all arithmetic after the cast runs at
binary64: the input quantization is the lever the precision ablation
varies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NumericsError

_DTYPES = {16: np.float16, 32: np.float32, 64: np.float64}


@dataclass(frozen=True)
class PrecisionMode:
    """The target format of the m/z cast: 16, 32 or 64 bits."""

    bits: int = 64

    def __post_init__(self):
        if self.bits not in _DTYPES:
            raise ConfigError(f"precision bits must be one of 16/32/64, got {self.bits}")

    @property
    def dtype(self):
        return _DTYPES[self.bits]

    def __str__(self):
        return f"binary{self.bits}"


BINARY16 = PrecisionMode(16)
BINARY32 = PrecisionMode(32)
BINARY64 = PrecisionMode(64)


def cast_mz(mz, mode: PrecisionMode):
    """Quantize m/z through the target format, returning binary64 values.

    Accepts a scalar or an array; the shape is preserved. Values finite
    in binary64 but overflowing the target format raise NumericsError
    (unreachable for valid m/z below 2000 Da).
    """
    arr = np.asarray(mz, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericsError("m/z values must be finite")
    with np.errstate(over="ignore"):
        cast = arr.astype(mode.dtype).astype(np.float64)
    if not np.all(np.isfinite(cast)):
        raise NumericsError(
            f"m/z overflows {mode}: max |value| {np.max(np.abs(arr))}"
        )
    return cast if arr.shape else float(cast)
