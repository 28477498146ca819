"""Peak featurization: intensity normalization, peak embeddings, binning."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..data.types import Fragments, Peak, Spectrum
from ..errors import ConfigError, DataError
from ..tensor import FeedForwardParams, Tensor, concat, feed_forward, gather_rows
from .sinusoidal import sinusoidal_embed
from .tokens import tokenize_mz

if TYPE_CHECKING:
    from ..encoder import EncoderConfig

PRECURSOR_INTENSITY = 2.0


def normalize_intensities(spectrum: Spectrum) -> Spectrum:
    """Scale fragment intensities to a maximum of 1; precursor gets exactly 2.

    The precursor's raw intensity never enters the scaling, so the
    operation is idempotent. All-zero fragment intensities leave nothing
    to scale by and raise DataError.
    """
    mz, intensity = spectrum.fragments.mz, spectrum.fragments.intensity
    peak_max = intensity.max()
    if peak_max <= 0:
        raise DataError(
            f"spectrum {spectrum.id!r}: all fragment intensities are zero"
        )
    scaled = intensity / peak_max
    scaled.flags.writeable = False  # Fragments shares it, and mz
    precursor = Peak(mz=spectrum.precursor.mz, intensity=PRECURSOR_INTENSITY)
    return Spectrum(
        id=spectrum.id,
        precursor=precursor,
        fragments=Fragments(mz, scaled),
        structure_id=spectrum.structure_id,
        metadata=spectrum.metadata,
        mz_decimals=spectrum.mz_decimals,
    )


def is_normalized(spectrum: Spectrum) -> bool:
    if spectrum.precursor.intensity != PRECURSOR_INTENSITY:
        return False
    peak_max = spectrum.fragments.intensity.max()
    return 0 < peak_max <= 1.0


def mz_embedding(mz, cfg: EncoderConfig, table: dict[str, Tensor]) -> Tensor:
    """The m/z half of a peak embedding: FF(SE(mz)) through ``peak.inner``
    for the sin kind, the ``peak.table`` rows of TE(mz) for the token kind.

    mz has any leading shape (...,); the result is (..., d). ``table`` is
    the model's name -> Tensor table (``ModelWeights.named``). The
    sinusoidal features are constants of the graph.
    """
    mz = np.asarray(mz, dtype=np.float64)
    flat = mz.reshape(-1)
    if cfg.kind == "sin":
        se = sinusoidal_embed(flat, cfg.sinusoidal, cfg.precision).reshape(mz.shape + (cfg.d,))
        return feed_forward(Tensor(se), FeedForwardParams.of(table, "peak.inner"))
    ids = np.atleast_1d(tokenize_mz(flat, cfg.vocab))
    rows = table["peak.table"]
    if rows.data.shape[0] != cfg.vocab.size:
        raise ConfigError(
            f"embedding table has {rows.data.shape[0]} rows, vocabulary needs {cfg.vocab.size}"
        )
    return gather_rows(rows, ids).reshape(mz.shape + (rows.data.shape[1],))


def peak_embed(mz, intensity, cfg: EncoderConfig, table: dict[str, Tensor]) -> Tensor:
    """FF(``mz_embedding`` || I) through ``peak.outer``, over a batch of
    peaks of any leading shape; gradients flow into every block."""
    mz = np.asarray(mz, dtype=np.float64)
    hidden = mz_embedding(mz, cfg, table)
    intensity = Tensor(np.asarray(intensity, dtype=np.float64))
    joined = concat([hidden, intensity.reshape(mz.shape + (1,))], axis=-1)
    return feed_forward(joined, FeedForwardParams.of(table, "peak.outer"))


def bin_count(bin_width: float, max_mz: float) -> int:
    """The length of ``bin_spectrum``'s vector: max_mz / bin_width bins
    covering [0, max_mz), so a width must divide max_mz (to 1e-9)."""
    if bin_width <= 0:
        raise ConfigError(f"bin width must be positive, got {bin_width}")
    if max_mz <= bin_width:
        raise ConfigError(f"bin max m/z must exceed the bin width, got {max_mz}")
    ratio = max_mz / bin_width
    n_bins = round(ratio)
    if abs(ratio - n_bins) > 1e-9 * ratio:
        raise ConfigError(f"bin width {bin_width} does not divide bin max m/z {max_mz}")
    return n_bins


def bin_spectrum(
    spectrum: Spectrum, bin_width: float = 0.1, max_mz: float = 2000.0
) -> np.ndarray:
    """Fixed-length binned view of the fragments, values capped at 1.

    Each fragment adds its (normalized) intensity to bin
    floor(mz / bin_width), in ``fragment_arrays`` order, so the sums do
    not depend on the stored order. The bins cover [0, max_mz)
    (``bin_count``); fragments at or beyond max_mz contribute nothing.
    The precursor is not binned.
    """
    n_bins = bin_count(bin_width, max_mz)
    mz, intensity = spectrum.fragment_arrays()
    idx = np.floor(mz / bin_width)
    inside = idx < n_bins
    out = np.zeros(n_bins, dtype=np.float64)
    np.add.at(out, idx[inside].astype(np.intp), intensity[inside])
    np.minimum(out, 1.0, out=out)
    return out


def fractional_mz(mz):
    """The fractional part of m/z, in [0, 1)."""
    arr = np.asarray(mz, dtype=np.float64)
    frac = arr - np.floor(arr)
    return float(frac) if arr.shape == () else frac
