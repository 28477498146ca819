"""Strict MGF reading and canonical writing.

The parser is deliberately unforgiving: malformed input raises ParseError
with the offending line number instead of being silently skipped. The
serializer emits one canonical form (fragments in the order of
``Spectrum.fragment_arrays``, fixed m/z format) so that
serialize(parse(serialize(parse(text)))) is byte-identical to
serialize(parse(text)).
"""

from __future__ import annotations

import math
import re

import numpy as np

from ..errors import ParseError
from .types import Fragments, Peak, Spectrum

# Plain positional decimals only. Exponent notation would make the
# decimal-place count of a peak ambiguous, so it is rejected outright.
# Written so that one string matches one way: refusing a long token then
# backtracks in linear, not quadratic, time.
_TOKEN = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)"
_NUMBER = re.compile(rf"^{_TOKEN}$")

# A run of peak lines: two number tokens per line between any whitespace
# but the line break (what str.split and str.strip see as whitespace), the
# last line of the text needing no line break. A line this refuses is one
# a peak line may not be. Backtracking cannot shorten a token to a
# different match: a shorter token is followed by a digit or a dot, never
# by whitespace, a line break or the end of the text.
_PEAK_LINES = re.compile(rf"(?:[^\S\n]*{_TOKEN}[^\S\n]+{_TOKEN}[^\S\n]*(?:\n|\Z))*")


def _parse_number(token: str, line_no: int, what: str) -> tuple[float, int]:
    """Parse a finite positional decimal token: (value, decimal places)."""
    if not _NUMBER.match(token):
        raise ParseError(f"{what} {token!r} is not a plain decimal number", line_no)
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"{what} {token!r} does not fit in binary64", line_no)
    return value, len(token.partition(".")[2])


def _refuse_peak_lines(lines: list[str], first_line_no: int) -> None:
    """Raise the ParseError of the first of these peak lines that does not
    parse, checking each line's fields, numbers and signs in that order."""
    for line_no, line in enumerate(lines, start=first_line_no):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(
                f"peak line must be 'mz intensity', got {len(fields)} fields", line_no
            )
        mz, _ = _parse_number(fields[0], line_no, "peak m/z")
        intensity, _ = _parse_number(fields[1], line_no, "peak intensity")
        if mz <= 0:
            raise ParseError(f"peak m/z must be positive, got {fields[0]}", line_no)
        if intensity < 0:
            raise ParseError(f"peak intensity must be non-negative, got {fields[1]}", line_no)
    raise AssertionError("every peak line parses, yet the block check refused them")


def _read_peaks(lines: str, line_no: int):
    """(m/z, intensity, m/z decimal places) of a run of peak lines that
    ``_PEAK_LINES`` accepted, the first at ``line_no``. The values come
    from ``float`` on the tokens and are checked as arrays; only a bad
    value walks the lines, to raise the error of the first bad line."""
    tokens = lines.split()
    mz_tokens = tokens[0::2]
    mz = np.fromiter(map(float, mz_tokens), np.float64, len(mz_tokens))
    intensity = np.fromiter(map(float, tokens[1::2]), np.float64, len(mz_tokens))
    mz.flags.writeable = intensity.flags.writeable = False  # Fragments shares them
    if not (np.isfinite(mz) & np.isfinite(intensity) & (mz > 0) & (intensity >= 0)).all():
        _refuse_peak_lines(lines.split("\n"), line_no)
    return mz, intensity, [len(token.partition(".")[2]) for token in mz_tokens]


def parse_mgf(text: str) -> list[Spectrum]:
    """Parse MGF text into spectra.

    Every block must carry a unique TITLE (used as the spectrum id, so
    it may hold no tab) and a PEPMASS header. STRUCTUREID, when present,
    becomes the structure id. All other headers are preserved verbatim
    in metadata with uppercased keys. Each spectrum records how many
    decimal places every m/z value carried in the source, precursor
    first.

    Lines are the text split at "\n", each stripped of whitespace. A
    block's peak lines are read in one go into two arrays; no Peak is
    built per fragment.
    """
    spectra: list[Spectrum] = []
    seen_ids: dict[str, int] = {}

    block_line = 0  # the open block's BEGIN IONS line; 0 outside a block
    pepmass_line = 0
    headers: dict[str, str] = {}
    peaks = None  # the block's (mz, intensity, decimals) once read

    pos, line_no = 0, 0
    while pos <= len(text):
        line_start = pos
        line_end = text.find("\n", pos)
        if line_end < 0:
            line_end = len(text)
        line = text[pos:line_end].strip()
        pos, line_no = line_end + 1, line_no + 1
        if not block_line:
            if not line or line.startswith("#"):
                continue
            if line == "BEGIN IONS":
                block_line = pepmass_line = line_no
                headers, peaks = {}, None
                continue
            raise ParseError(f"unexpected content outside BEGIN IONS block: {line!r}", line_no)

        if line == "BEGIN IONS":
            raise ParseError("nested BEGIN IONS", line_no)
        if line == "END IONS":
            spectra.append(_finish_block(headers, peaks, block_line, pepmass_line, seen_ids))
            block_line = 0
            continue
        if not line:
            raise ParseError("blank line inside a spectrum block", line_no)

        if "=" in line:
            if peaks is not None:
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

        # A block's peak lines, checked by one match and read in one go.
        # The line after them is END IONS or an error.
        end = _PEAK_LINES.match(text, line_start).end()
        if end == line_start:
            _refuse_peak_lines([line], line_no)
        peaks = _read_peaks(text[line_start:end], line_no)
        # Past the last peak line: its line break, or the end of the text.
        pos = end if text[end - 1] == "\n" else len(text) + 1
        line_no += len(peaks[2]) - 1

    if block_line:
        raise ParseError("BEGIN IONS without matching END IONS", block_line)
    return spectra


def _finish_block(
    headers: dict[str, str],
    peaks: tuple | None,
    block_line: int,
    pepmass_line: int,
    seen_ids: dict[str, int],
) -> Spectrum:
    headers = dict(headers)
    title = headers.pop("TITLE", None)
    if title is None or not title:
        raise ParseError("spectrum block is missing a TITLE header", block_line)
    if "\t" in title:
        # The id is a column of every TSV output; a tab would split it.
        raise ParseError(f"TITLE {title!r} holds a tab", block_line)
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

    if peaks is None:
        raise ParseError(f"spectrum {title!r} has no fragment peaks", block_line)
    mz, intensity, decimals = peaks

    return Spectrum(
        id=title,
        precursor=Peak(mz=prec_mz, intensity=prec_intensity),
        fragments=Fragments(mz, intensity),
        structure_id=structure_id,
        metadata=headers,
        mz_decimals=(prec_decimals, *decimals),
    )


def _format_intensity(value: float) -> str:
    """Shortest positional decimal that round-trips through float64: the
    ``repr``, except where that turns to exponent form (below 1e-4 and
    from 1e16 on)."""
    if value == 0 or 1e-4 <= value < 1e16:
        return repr(value)
    return np.format_float_positional(value, unique=True, trim="0")


def serialize_mgf(spectra: list[Spectrum]) -> str:
    """Write spectra in canonical MGF form.

    m/z values are written with five decimal places, fragments in
    ``Spectrum.fragment_arrays`` order, extra headers sorted by key.
    Parsing the output and serializing again reproduces it byte for byte.
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
        mz, intensity = spectrum.fragment_arrays()
        lines.extend(
            f"{m:.5f} {_format_intensity(v)}" for m, v in zip(mz.tolist(), intensity.tolist())
        )
        lines.append("END IONS")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def load_mgf(path) -> list[Spectrum]:
    """``parse_mgf`` of the file's text, line ends untranslated: a lone
    "\r" stays inside its line, as it does in text."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_mgf(handle.read())


def save_mgf(path, spectra: list[Spectrum]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_mgf(spectra))
