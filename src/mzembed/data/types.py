"""Core spectrum and label records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class Peak:
    """One (m/z, intensity) pair. m/z in Daltons, intensity in raw units."""

    mz: float
    intensity: float

    def __post_init__(self):
        if not (self.mz > 0 and math.isfinite(self.mz)):
            raise DataError(f"peak m/z must be positive and finite, got {self.mz}")
        if not (self.intensity >= 0 and math.isfinite(self.intensity)):
            raise DataError(
                f"peak intensity must be non-negative and finite, got {self.intensity}"
            )


@dataclass(frozen=True)
class Spectrum:
    """A precursor peak plus an unordered collection of fragment peaks.

    ``fragments`` is stored as a tuple for hashability but is a multiset
    in spirit. Every peak consumer (the encoder, the MGF writer, the
    modified cosine, the binned baseline and the index key) reads the
    fragments through ``fragment_arrays``, so nothing downstream depends
    on their stored order. ``mz_decimals`` records, per peak in
    (precursor, *fragments) stored order, how many decimal places the
    m/z carried in the source text; parsers fill it in, synthetic
    constructors may leave it None.
    """

    id: str
    precursor: Peak
    fragments: tuple[Peak, ...]
    structure_id: str | None = None
    metadata: dict = field(default_factory=dict, compare=False)
    mz_decimals: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.fragments) < 1:
            raise DataError(f"spectrum {self.id!r} has no fragment peaks")

    @property
    def n_peaks(self) -> int:
        """Total peak count, precursor included."""
        return 1 + len(self.fragments)

    def fragment_arrays(self):
        """Fragment (mz, intensity) as float64 arrays in the canonical
        order, by m/z then intensity: the one place peaks are ordered."""
        mz = np.array([p.mz for p in self.fragments], dtype=np.float64)
        intensity = np.array([p.intensity for p in self.fragments], dtype=np.float64)
        order = np.lexsort((intensity, mz))
        return mz[order], intensity[order]


@dataclass(frozen=True)
class MoleculeRecord:
    """Label side of a spectrum: fingerprint bits and 10 property values."""

    structure_id: str
    fingerprint: np.ndarray  # uint8 0/1 bits, fixed width per dataset
    properties: np.ndarray  # float64, exactly 10 values

    def __post_init__(self):
        fp = np.asarray(self.fingerprint, dtype=np.uint8)
        props = np.asarray(self.properties, dtype=np.float64)
        if props.shape != (10,):
            raise DataError(
                f"{self.structure_id}: expected 10 property values, got {props.shape}"
            )
        if not np.all(np.isfinite(props)):
            raise DataError(f"{self.structure_id}: non-finite property value")
        object.__setattr__(self, "fingerprint", fp)
        object.__setattr__(self, "properties", props)


@dataclass
class SplitAssignment:
    """Structure-disjoint train/known/novel spectrum assignment."""

    train_ids: set[str]
    known_ids: set[str]
    novel_ids: set[str]
    train_structures: set[str]
    known_structures: set[str]
    novel_structures: set[str]

    def split_of(self, spectrum_id: str) -> str:
        if spectrum_id in self.train_ids:
            return "train"
        if spectrum_id in self.known_ids:
            return "known"
        if spectrum_id in self.novel_ids:
            return "novel"
        raise DataError(f"spectrum {spectrum_id!r} is not in any split")

    def validate(self) -> None:
        """Check the disjointness contract; raises on violation."""
        if self.train_ids & self.known_ids or self.train_ids & self.novel_ids or (
            self.known_ids & self.novel_ids
        ):
            raise DataError("spectrum id sets overlap across splits")
        if self.novel_structures & self.train_structures:
            raise DataError("novel structures leak into the training structures")
        if not self.known_structures <= self.train_structures:
            raise DataError("known spectra reference structures absent from train")
