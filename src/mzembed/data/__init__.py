"""Spectrum records, MGF IO, cleaning, labels and splits."""

from .cleaning import MIN_MZ_DECIMALS, MIN_PEAKS, clean_spectra, rejection_reason, write_rejection_log
from .labels import PROPERTY_NAMES, load_molecules, parse_fingerprints, parse_properties, validate_coverage
from .mgf import load_mgf, parse_mgf, save_mgf, serialize_mgf
from .splits import make_split, read_manifest, write_manifest
from .types import Fragments, MoleculeRecord, Peak, SplitAssignment, Spectrum

__all__ = [
    "Fragments",
    "MIN_MZ_DECIMALS",
    "MIN_PEAKS",
    "MoleculeRecord",
    "PROPERTY_NAMES",
    "Peak",
    "SplitAssignment",
    "Spectrum",
    "clean_spectra",
    "load_mgf",
    "load_molecules",
    "make_split",
    "parse_fingerprints",
    "parse_mgf",
    "parse_properties",
    "read_manifest",
    "rejection_reason",
    "save_mgf",
    "serialize_mgf",
    "validate_coverage",
    "write_manifest",
    "write_rejection_log",
]
