"""Core spectrum and label records."""

from __future__ import annotations

import math
from collections.abc import Sequence
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


def _frozen(values) -> np.ndarray:
    """values as a read-only float64 array: itself if it already is one
    that owns its data, else a read-only copy."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


class Fragments(Sequence):
    """A spectrum's fragment peaks as two read-only float64 arrays.

    ``mz`` and ``intensity`` hold the peaks in stored order: a read-only
    float64 array that owns its data is shared (the parser and
    ``normalize_intensities`` hand over such arrays), anything else is
    copied. It is an immutable sequence of ``Peak`` that builds a Peak
    only when one is read (indexing, slicing to a tuple, iteration), and
    it equals and hashes like the tuple of Peaks it stands for.
    ``canonical`` holds the same arrays ordered by m/z, then intensity:
    the one place peaks are ordered. It is computed once, here, and
    shares the stored arrays when they are already in that order.
    Nothing can write the arrays, so worker threads share them.
    """

    __slots__ = ("mz", "intensity", "canonical")

    def __init__(self, mz, intensity):
        mz, intensity = _frozen(mz), _frozen(intensity)
        if mz.ndim != 1 or mz.shape != intensity.shape:
            raise DataError(
                f"fragment m/z and intensity must be two arrays of one length, "
                f"got shapes {mz.shape} and {intensity.shape}"
            )
        good_mz = (mz > 0) & np.isfinite(mz)
        good = good_mz & (intensity >= 0) & np.isfinite(intensity)
        if not good.all():
            i = int(np.argmin(good))
            if not good_mz[i]:
                raise DataError(f"peak m/z must be positive and finite, got {mz[i].item()}")
            raise DataError(
                f"peak intensity must be non-negative and finite, got {intensity[i].item()}"
            )
        order = np.lexsort((intensity, mz))
        if (np.diff(order) == 1).all():
            canonical = (mz, intensity)
        else:
            canonical = (mz[order], intensity[order])
            for array in canonical:
                array.flags.writeable = False
        self.mz, self.intensity, self.canonical = mz, intensity, canonical

    @classmethod
    def of(cls, peaks) -> Fragments:
        peaks = tuple(peaks)
        return cls([p.mz for p in peaks], [p.intensity for p in peaks])

    def __len__(self) -> int:
        return self.mz.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(Peak, self.mz[index].tolist(), self.intensity[index].tolist()))
        return Peak(self.mz[index].item(), self.intensity[index].item())

    def __iter__(self):
        return map(Peak, self.mz.tolist(), self.intensity.tolist())

    def __eq__(self, other):
        if isinstance(other, Fragments):
            return np.array_equal(self.mz, other.mz) and np.array_equal(
                self.intensity, other.intensity
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self):
        # A Peak hashes as its (mz, intensity) tuple.
        return hash(tuple(zip(self.mz.tolist(), self.intensity.tolist())))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class Spectrum:
    """A precursor peak plus an unordered collection of fragment peaks.

    ``fragments`` is a ``Fragments`` sequence; a spectrum built from a
    tuple of Peaks (or ``dataclasses.replace`` with one) converts it.
    It is a multiset in spirit. Every peak consumer (the encoder, the
    MGF writer, the modified cosine, the binned baseline and the index
    key) reads the fragments through ``fragment_arrays``, so nothing
    downstream depends on their stored order. ``mz_decimals`` records,
    per peak in (precursor, *fragments) stored order, how many decimal
    places the m/z carried in the source text; parsers fill it in,
    synthetic constructors may leave it None.
    """

    id: str
    precursor: Peak
    fragments: Fragments
    structure_id: str | None = None
    metadata: dict = field(default_factory=dict, compare=False)
    mz_decimals: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.fragments, Fragments):
            object.__setattr__(self, "fragments", Fragments.of(self.fragments))
        if len(self.fragments) < 1:
            raise DataError(f"spectrum {self.id!r} has no fragment peaks")

    @property
    def n_peaks(self) -> int:
        """Total peak count, precursor included."""
        return 1 + len(self.fragments)

    def fragment_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Fragment (mz, intensity) as read-only float64 arrays in the
        canonical order, by m/z then intensity."""
        return self.fragments.canonical


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
    """The train/known/novel spectrum ids of a split. ``splits.make_split``
    and ``splits.read_manifest`` check that it is structure-disjoint."""

    train_ids: set[str]
    known_ids: set[str]
    novel_ids: set[str]

    def split_of(self, spectrum_id: str) -> str:
        if spectrum_id in self.train_ids:
            return "train"
        if spectrum_id in self.known_ids:
            return "known"
        if spectrum_id in self.novel_ids:
            return "novel"
        raise DataError(f"spectrum {spectrum_id!r} is not in any split")
