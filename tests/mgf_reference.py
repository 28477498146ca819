"""Reference MGF reader and writer: a line-by-line parser that builds one
Peak per fragment, and a writer that formats each intensity with numpy.

``mzembed.data.mgf`` reads a block's peak lines in one go into arrays and
formats intensities with ``repr`` where that is positional. These are the
straightforward versions the tests hold it to: the same spectra, bit for
bit, or the same ParseError with the same line number; the same bytes
out.
"""

from __future__ import annotations

import math
import re

import numpy as np

from mzembed.data import Peak, Spectrum
from mzembed.errors import ParseError

# Plain positional decimals only. Exponent notation would make the
# decimal-place count of a peak ambiguous, so it is rejected outright.
_NUMBER = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)$")


def _parse_number(token: str, line_no: int, what: str) -> tuple[float, int]:
    """Parse a finite positional decimal token: (value, decimal places)."""
    if not _NUMBER.match(token):
        raise ParseError(f"{what} {token!r} is not a plain decimal number", line_no)
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"{what} {token!r} does not fit in binary64", line_no)
    if "." in token:
        decimals = len(token.split(".", 1)[1])
    else:
        decimals = 0
    return value, decimals


def parse_mgf(text: str) -> list[Spectrum]:
    """Parse MGF text into spectra.

    Every block must carry a unique TITLE (used as the spectrum id) and a
    PEPMASS header. STRUCTUREID, when present, becomes the structure id.
    Neither id may hold a tab or a line break. All other headers are preserved verbatim in metadata
    with uppercased keys. Each spectrum records how many decimal places every m/z value
    carried in the source, precursor first.
    """
    spectra: list[Spectrum] = []
    seen_ids: dict[str, int] = {}

    in_block = False
    block_line = 0
    pepmass_line = 0
    headers: dict[str, str] = {}
    peaks: list[Peak] = []
    peak_decimals: list[int] = []
    saw_peak = False

    lines = text.split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not in_block:
            if not line or line.startswith("#"):
                continue
            if line == "BEGIN IONS":
                in_block = True
                block_line = line_no
                pepmass_line = line_no
                headers = {}
                peaks = []
                peak_decimals = []
                saw_peak = False
                continue
            raise ParseError(f"unexpected content outside BEGIN IONS block: {line!r}", line_no)

        if line == "BEGIN IONS":
            raise ParseError("nested BEGIN IONS", line_no)
        if line == "END IONS":
            spectra.append(
                _finish_block(headers, peaks, peak_decimals, block_line, pepmass_line, seen_ids)
            )
            in_block = False
            continue
        if not line:
            raise ParseError("blank line inside a spectrum block", line_no)

        if "=" in line:
            if saw_peak:
                raise ParseError("header line after peak data", line_no)
            key, value = line.split("=", 1)
            key = key.strip().upper()
            if not key:
                raise ParseError("header with empty key", line_no)
            if key in headers:
                raise ParseError(f"duplicate header {key}", line_no)
            headers[key] = value.strip()
            if key == "PEPMASS":
                pepmass_line = line_no
            continue

        fields = line.split()
        if len(fields) != 2:
            raise ParseError(
                f"peak line must be 'mz intensity', got {len(fields)} fields", line_no
            )
        mz, decimals = _parse_number(fields[0], line_no, "peak m/z")
        intensity, _ = _parse_number(fields[1], line_no, "peak intensity")
        if mz <= 0:
            raise ParseError(f"peak m/z must be positive, got {fields[0]}", line_no)
        if intensity < 0:
            raise ParseError(f"peak intensity must be non-negative, got {fields[1]}", line_no)
        peaks.append(Peak(mz=mz, intensity=intensity))
        peak_decimals.append(decimals)
        saw_peak = True

    if in_block:
        raise ParseError("BEGIN IONS without matching END IONS", block_line)
    return spectra


def _refuse_separators(key: str, value: str, block_line: int) -> None:
    if "\t" in value:
        raise ParseError(f"{key} {value!r} holds a tab", block_line)
    for ch in value:
        if ch in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            raise ParseError(f"{key} {value!r} holds a line break", block_line)


def _finish_block(
    headers: dict[str, str],
    peaks: list[Peak],
    peak_decimals: list[int],
    block_line: int,
    pepmass_line: int,
    seen_ids: dict[str, int],
) -> Spectrum:
    headers = dict(headers)
    title = headers.pop("TITLE", None)
    if title is None or not title:
        raise ParseError("spectrum block is missing a TITLE header", block_line)
    _refuse_separators("TITLE", title, block_line)
    if title in seen_ids:
        raise ParseError(
            f"duplicate TITLE {title!r} (first seen at line {seen_ids[title]})",
            block_line,
        )
    seen_ids[title] = block_line

    pepmass = headers.pop("PEPMASS", None)
    if pepmass is None:
        raise ParseError(f"spectrum {title!r} is missing a PEPMASS header", block_line)
    fields = pepmass.split()
    if len(fields) not in (1, 2):
        raise ParseError(
            f"PEPMASS must be 'mz' or 'mz intensity', got {pepmass!r}", pepmass_line
        )
    prec_mz, prec_decimals = _parse_number(fields[0], pepmass_line, "precursor m/z")
    if prec_mz <= 0:
        raise ParseError(f"precursor m/z must be positive, got {fields[0]}", pepmass_line)
    if len(fields) == 2:
        prec_intensity, _ = _parse_number(fields[1], pepmass_line, "precursor intensity")
        if prec_intensity < 0:
            raise ParseError("precursor intensity must be non-negative", pepmass_line)
    else:
        prec_intensity = 0.0

    structure_id = headers.pop("STRUCTUREID", None)
    if structure_id == "":
        structure_id = None
    elif structure_id is not None:
        _refuse_separators("STRUCTUREID", structure_id, block_line)

    if not peaks:
        raise ParseError(f"spectrum {title!r} has no fragment peaks", block_line)

    return Spectrum(
        id=title,
        precursor=Peak(mz=prec_mz, intensity=prec_intensity),
        fragments=tuple(peaks),
        structure_id=structure_id,
        metadata=headers,
        mz_decimals=tuple([prec_decimals] + peak_decimals),
    )


def _format_intensity(value: float) -> str:
    """Shortest positional decimal that round-trips through float64."""
    return np.format_float_positional(value, unique=True, trim="0")


def serialize_mgf(spectra: list[Spectrum]) -> str:
    """Write spectra in canonical MGF form.

    m/z values are written with five decimal places, fragments sorted by
    m/z then intensity (a lexsort of the Peaks), extra headers sorted by
    key.
    """
    blocks = []
    for spectrum in spectra:
        lines = ["BEGIN IONS", f"TITLE={spectrum.id}"]
        prec = spectrum.precursor
        lines.append(f"PEPMASS={prec.mz:.5f} {_format_intensity(prec.intensity)}")
        if spectrum.structure_id is not None:
            lines.append(f"STRUCTUREID={spectrum.structure_id}")
        for key in sorted(spectrum.metadata):
            lines.append(f"{key}={spectrum.metadata[key]}")
        mz = np.array([p.mz for p in spectrum.fragments], dtype=np.float64)
        intensity = np.array([p.intensity for p in spectrum.fragments], dtype=np.float64)
        order = np.lexsort((intensity, mz))
        for m, v in zip(mz[order].tolist(), intensity[order].tolist()):
            lines.append(f"{m:.5f} {_format_intensity(v)}")
        lines.append("END IONS")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
