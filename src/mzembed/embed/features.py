"""Peak featurization: intensity normalization, peak embeddings, binning."""

from __future__ import annotations

import numpy as np

from ..data.types import Peak, Spectrum
from ..errors import ConfigError, DataError
from ..tensor import FeedForwardParams, Tensor, concat, feed_forward, gather_rows
from .precision import BINARY64, PrecisionMode
from .sinusoidal import SinusoidalConfig, sinusoidal_embed
from .tokens import TokenVocab, tokenize_mz

PRECURSOR_INTENSITY = 2.0


def normalize_intensities(spectrum: Spectrum) -> Spectrum:
    """Scale fragment intensities to a maximum of 1; precursor gets exactly 2.

    The precursor's raw intensity never enters the scaling, so the
    operation is idempotent. All-zero fragment intensities leave nothing
    to scale by and raise DataError.
    """
    peak_max = max(p.intensity for p in spectrum.fragments)
    if peak_max <= 0:
        raise DataError(
            f"spectrum {spectrum.id!r}: all fragment intensities are zero"
        )
    fragments = tuple(
        Peak(mz=p.mz, intensity=p.intensity / peak_max) for p in spectrum.fragments
    )
    precursor = Peak(mz=spectrum.precursor.mz, intensity=PRECURSOR_INTENSITY)
    return Spectrum(
        id=spectrum.id,
        precursor=precursor,
        fragments=fragments,
        structure_id=spectrum.structure_id,
        metadata=spectrum.metadata,
        mz_decimals=spectrum.mz_decimals,
    )


def is_normalized(spectrum: Spectrum) -> bool:
    if spectrum.precursor.intensity != PRECURSOR_INTENSITY:
        return False
    peak_max = max(p.intensity for p in spectrum.fragments)
    return 0 < peak_max <= 1.0


def peak_embed_sin(
    mz: np.ndarray,
    intensity: Tensor | np.ndarray,
    cfg: SinusoidalConfig,
    inner: FeedForwardParams,
    outer: FeedForwardParams,
    mode: PrecisionMode = BINARY64,
) -> Tensor:
    """FF(FF(SE(mz)) || I) over a batch of peaks.

    mz has any leading shape (...,); the result is (..., d). The
    sinusoidal features are constants of the graph; gradients flow into
    both feed-forward blocks.
    """
    mz = np.asarray(mz, dtype=np.float64)
    flat = mz.reshape(-1)
    se = sinusoidal_embed(flat, cfg, mode).reshape(mz.shape + (cfg.d,))
    if not isinstance(intensity, Tensor):
        intensity = Tensor(np.asarray(intensity, dtype=np.float64))
    hidden = feed_forward(Tensor(se), inner)
    joined = concat([hidden, intensity.reshape(mz.shape + (1,))], axis=-1)
    return feed_forward(joined, outer)


def peak_embed_token(
    mz: np.ndarray,
    intensity: Tensor | np.ndarray,
    vocab: TokenVocab,
    table: Tensor,
    outer: FeedForwardParams,
) -> Tensor:
    """FF(TE(mz) || I): embedding-table lookup joined with intensity."""
    mz = np.asarray(mz, dtype=np.float64)
    ids = np.atleast_1d(tokenize_mz(mz.reshape(-1), vocab))
    if table.data.shape[0] != vocab.size:
        raise ConfigError(
            f"embedding table has {table.data.shape[0]} rows, vocabulary needs {vocab.size}"
        )
    looked_up = gather_rows(table, ids).reshape(mz.shape + (table.data.shape[1],))
    if not isinstance(intensity, Tensor):
        intensity = Tensor(np.asarray(intensity, dtype=np.float64))
    joined = concat([looked_up, intensity.reshape(mz.shape + (1,))], axis=-1)
    return feed_forward(joined, outer)


def bin_count(bin_width: float, max_mz: float) -> int:
    """The length of ``bin_spectrum``'s vector."""
    if bin_width <= 0:
        raise ConfigError(f"bin width must be positive, got {bin_width}")
    if max_mz <= bin_width:
        raise ConfigError(f"bin max m/z must exceed the bin width, got {max_mz}")
    return int(round(max_mz / bin_width))


def bin_spectrum(
    spectrum: Spectrum, bin_width: float = 0.1, max_mz: float = 2000.0
) -> np.ndarray:
    """Fixed-length binned view of the fragments, values capped at 1.

    Each fragment adds its (normalized) intensity to bin
    floor(mz / bin_width); fragments at or beyond max_mz are out of
    range and contribute nothing. The precursor is not binned.
    """
    n_bins = bin_count(bin_width, max_mz)
    out = np.zeros(n_bins, dtype=np.float64)
    for peak in spectrum.fragments:
        idx = int(np.floor(peak.mz / bin_width))
        if idx < n_bins:
            out[idx] += peak.intensity
    np.minimum(out, 1.0, out=out)
    return out


def fractional_mz(mz):
    """The fractional part of m/z, in [0, 1)."""
    arr = np.asarray(mz, dtype=np.float64)
    frac = arr - np.floor(arr)
    return float(frac) if arr.shape == () else frac
