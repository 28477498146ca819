"""m/z embeddings, precision casting and peak featurization."""

from .features import (
    PRECURSOR_INTENSITY,
    bin_spectra,
    fractional_mz,
    is_normalized,
    mz_embedding,
    normalize_intensities,
    peak_embed,
)
from .precision import BINARY16, BINARY32, BINARY64, PrecisionMode, cast_mz
from .sinusoidal import (
    LAMBDA_MAX_DEFAULT,
    LAMBDA_MIN_DEFAULT,
    SinusoidalConfig,
    sinusoidal_embed,
    wavelengths,
)
from .tokens import TokenVocab, tokenize_mz

__all__ = [
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "LAMBDA_MAX_DEFAULT",
    "LAMBDA_MIN_DEFAULT",
    "PRECURSOR_INTENSITY",
    "PrecisionMode",
    "SinusoidalConfig",
    "TokenVocab",
    "bin_spectra",
    "cast_mz",
    "fractional_mz",
    "is_normalized",
    "mz_embedding",
    "normalize_intensities",
    "peak_embed",
    "sinusoidal_embed",
    "tokenize_mz",
    "wavelengths",
]
