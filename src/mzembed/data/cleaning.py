"""Spectrum quality filtering.

Three rules, applied to every spectrum:

* at least 5 peaks in total, precursor included,
* every m/z value recorded with at least 3 decimal places in the source, and
* at least one fragment with a positive intensity (an all-zero spectrum
  has nothing to normalize by and cannot be encoded).

Spectra without decimal-place records (synthetic constructions) fail the
second rule; the filter judges recorded source precision, not float
values. Cleaning is idempotent: running it on its own output keeps
everything and rejects nothing.
"""

from __future__ import annotations

from .types import Spectrum

MIN_PEAKS = 5
MIN_MZ_DECIMALS = 3


def clean_spectra(
    spectra: list[Spectrum],
) -> tuple[list[Spectrum], list[tuple[str, str]]]:
    """Split spectra into (kept, rejected) where rejected is (id, reason).

    A spectrum failing several rules is reported once, with the reason
    of the first broken rule in the order above.
    """
    kept: list[Spectrum] = []
    rejected: list[tuple[str, str]] = []
    for spectrum in spectra:
        reason = rejection_reason(spectrum)
        if reason is None:
            kept.append(spectrum)
        else:
            rejected.append((spectrum.id, reason))
    return kept, rejected


def rejection_reason(spectrum: Spectrum) -> str | None:
    """The reason this spectrum fails cleaning, or None if it passes."""
    if spectrum.n_peaks < MIN_PEAKS:
        return f"only {spectrum.n_peaks} peaks, need at least {MIN_PEAKS}"
    if spectrum.mz_decimals is None:
        return "no decimal-place records for m/z values"
    worst = min(spectrum.mz_decimals)
    if worst < MIN_MZ_DECIMALS:
        return (
            f"m/z recorded with {worst} decimal places, "
            f"need at least {MIN_MZ_DECIMALS}"
        )
    if spectrum.fragments.intensity.max() <= 0:
        return "all fragment intensities are zero"
    return None


def write_rejection_log(path, rejected: list[tuple[str, str]]) -> None:
    """Write the rejection report as a two-column TSV with a header row."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("spectrum_id\treason\n")
        for spectrum_id, reason in rejected:
            handle.write(f"{spectrum_id}\t{reason}\n")
