"""Structure labels: fingerprint bits and molecular property tables."""

from __future__ import annotations

import numpy as np

from ..errors import DataError, ParseError
from .types import MoleculeRecord, Spectrum

# Canonical property columns, in file order. Ten real-valued molecular
# descriptors predicted by the regression head.
PROPERTY_NAMES = (
    "atomic_logp",
    "num_h_acceptors",
    "num_h_donors",
    "polar_surface_area",
    "num_rotatable_bonds",
    "num_aromatic_rings",
    "num_aliphatic_rings",
    "num_heteroatoms",
    "fraction_csp3",
    "qed",
)

_HEX_DIGITS = frozenset("0123456789abcdef")


def _hex_to_bits(token: str, line_no: int) -> np.ndarray:
    """Four bits per hex digit, most significant first. The digits are
    checked first: ``bytes.fromhex`` would skip inner whitespace."""
    token = token.lower()
    if not _HEX_DIGITS.issuperset(token):
        bad = next(ch for ch in token if ch not in _HEX_DIGITS)
        raise ParseError(f"invalid hex digit {bad!r} in fingerprint", line_no)
    pad = len(token) % 2
    packed = np.frombuffer(bytes.fromhex("0" * pad + token), dtype=np.uint8)
    return np.unpackbits(packed)[4 * pad:]


def parse_fingerprints(text: str) -> dict[str, np.ndarray]:
    """Parse 'structure_id<TAB>hex' lines into uint8 bit arrays.

    Each hex digit contributes four bits, most significant first, so a
    row of H digits yields a fingerprint of width 4*H. All rows must
    share one width.
    """
    fingerprints: dict[str, np.ndarray] = {}
    width: int | None = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(
                f"fingerprint line must be 'structure_id<TAB>hex', got {len(fields)} fields",
                line_no,
            )
        structure_id, hex_token = fields[0].strip(), fields[1].strip()
        if not structure_id:
            raise ParseError("empty structure id", line_no)
        if structure_id in fingerprints:
            raise ParseError(f"duplicate fingerprint for {structure_id!r}", line_no)
        if not hex_token:
            raise ParseError(f"empty fingerprint for {structure_id!r}", line_no)
        bits = _hex_to_bits(hex_token, line_no)
        if width is None:
            width = bits.size
        elif bits.size != width:
            raise ParseError(
                f"fingerprint width {bits.size} for {structure_id!r} "
                f"differs from earlier width {width}",
                line_no,
            )
        fingerprints[structure_id] = bits
    if not fingerprints:
        raise DataError("fingerprint file contains no records")
    return fingerprints


def parse_properties(text: str) -> dict[str, np.ndarray]:
    """Parse the property TSV into per-structure float64 vectors.

    The header row must be 'structure_id' followed by the ten canonical
    property names in canonical order.
    """
    lines = text.split("\n")
    header_no = None
    for line_no, raw in enumerate(lines, start=1):
        if raw.strip() and not raw.strip().startswith("#"):
            header_no = line_no
            break
    if header_no is None:
        raise DataError("property file contains no records")

    expected = ("structure_id",) + PROPERTY_NAMES
    header = tuple(field.strip() for field in lines[header_no - 1].split("\t"))
    if header != expected:
        raise ParseError(
            f"property header must be {list(expected)}, got {list(header)}", header_no
        )

    properties: dict[str, np.ndarray] = {}
    for line_no in range(header_no + 1, len(lines) + 1):
        line = lines[line_no - 1].strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != len(expected):
            raise ParseError(
                f"expected {len(expected)} columns, got {len(fields)}", line_no
            )
        structure_id = fields[0].strip()
        if not structure_id:
            raise ParseError("empty structure id", line_no)
        if structure_id in properties:
            raise ParseError(f"duplicate properties for {structure_id!r}", line_no)
        try:
            values = np.array([float(f) for f in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"non-numeric property value: {exc}", line_no) from None
        if not np.all(np.isfinite(values)):
            raise ParseError(f"non-finite property value for {structure_id!r}", line_no)
        properties[structure_id] = values
    if not properties:
        raise DataError("property file contains no records")
    return properties


def load_molecules(fingerprint_path, property_path) -> dict[str, MoleculeRecord]:
    """Load both label files and join them by structure id.

    The two files must cover exactly the same structures.
    """
    with open(fingerprint_path, "r", encoding="utf-8", newline="") as handle:
        fingerprints = parse_fingerprints(handle.read())
    with open(property_path, "r", encoding="utf-8", newline="") as handle:
        properties = parse_properties(handle.read())

    only_fp = sorted(set(fingerprints) - set(properties))
    only_prop = sorted(set(properties) - set(fingerprints))
    if only_fp or only_prop:
        parts = []
        if only_fp:
            parts.append(f"missing properties for {only_fp}")
        if only_prop:
            parts.append(f"missing fingerprints for {only_prop}")
        raise DataError("label files disagree: " + "; ".join(parts))

    return {
        sid: MoleculeRecord(
            structure_id=sid, fingerprint=fingerprints[sid], properties=properties[sid]
        )
        for sid in fingerprints
    }


def labeled_structures(spectra: list[Spectrum]) -> list[str]:
    """The sorted distinct structure ids of library spectra. Every library
    spectrum is labeled: DataError names the first one without an id."""
    for s in spectra:
        if s.structure_id is None:
            raise DataError(f"spectrum {s.id!r} has no structure id")
    return sorted({s.structure_id for s in spectra})


def validate_coverage(
    spectra: list[Spectrum], molecules: dict[str, MoleculeRecord]
) -> None:
    """Require a structure id on every spectrum and a molecule record for
    every structure they reference."""
    missing = [sid for sid in labeled_structures(spectra) if sid not in molecules]
    if missing:
        raise DataError(f"no molecule records for structures: {missing}")
