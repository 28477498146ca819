"""Structure-disjoint train/known/novel splitting.

The novel set holds entire structures: a structure is drawn and all of
its spectra leave the training data, so novel evaluation sees molecules
the model never trained on. The known set holds individual spectra whose
structure keeps at least one other spectrum in train, so known
evaluation sees familiar molecules through unfamiliar measurements.
Spectra without a structure label always stay in train.
"""

from __future__ import annotations

from collections import Counter

from ..errors import ConfigError, DataError
from ..rng import stream_rng
from .types import SplitAssignment, Spectrum


def make_split(
    spectra: list[Spectrum], n_novel: int, n_known: int, seed: int
) -> SplitAssignment:
    """Assign spectra to train/known/novel, deterministically under seed.

    n_novel counts structures (all their spectra become novel); n_known
    counts spectra. Raises DataError when the dataset cannot honor the
    request.
    """
    if n_novel < 0 or n_known < 0:
        raise ConfigError("split sizes must be non-negative")
    ids = [s.id for s in spectra]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate spectrum ids in split input")

    structures = sorted({s.structure_id for s in spectra if s.structure_id is not None})
    if n_novel > len(structures):
        raise DataError(
            f"cannot pick {n_novel} novel structures from {len(structures)} available"
        )

    rng = stream_rng(seed, "split")
    order = rng.permutation(len(structures))
    novel_structures = {structures[i] for i in order[:n_novel]}
    novel_ids = {s.id for s in spectra if s.structure_id in novel_structures}

    pool = [s for s in spectra if s.id not in novel_ids]
    pool_counts = Counter(s.structure_id for s in pool if s.structure_id is not None)

    # Greedy pass over a shuffled pool: a spectrum may become known only
    # while its structure still has a second spectrum to leave in train.
    pool_sorted = sorted(pool, key=lambda s: s.id)
    known_ids: set[str] = set()
    for i in rng.permutation(len(pool_sorted)):
        if len(known_ids) == n_known:
            break
        candidate = pool_sorted[i]
        sid = candidate.structure_id
        if sid is None or pool_counts[sid] < 2:
            continue
        known_ids.add(candidate.id)
        pool_counts[sid] -= 1
    if len(known_ids) < n_known:
        raise DataError(
            f"only {len(known_ids)} known spectra available, requested {n_known}"
        )

    train_ids = {s.id for s in pool} - known_ids
    if not train_ids:
        raise DataError("split leaves no training spectra")
    return _checked_split(spectra, train_ids, known_ids, novel_ids)


def _checked_split(
    spectra: list[Spectrum], train_ids: set[str], known_ids: set[str], novel_ids: set[str]
) -> SplitAssignment:
    """The split of these id sets, once it is checked to be disjoint: no
    spectrum in two sets, no novel structure with a spectrum in train,
    and every known structure with one. Raises DataError otherwise."""
    if train_ids & known_ids or train_ids & novel_ids or known_ids & novel_ids:
        raise DataError("spectrum id sets overlap across splits")
    structure_of = {s.id: s.structure_id for s in spectra}

    def structures(ids: set[str]) -> set[str]:
        return {structure_of[i] for i in ids} - {None}

    train_structures = structures(train_ids)
    if structures(novel_ids) & train_structures:
        raise DataError("novel structures leak into the training structures")
    if not structures(known_ids) <= train_structures:
        raise DataError("known spectra reference structures absent from train")
    return SplitAssignment(train_ids, known_ids, novel_ids)


def write_manifest(path, spectra: list[Spectrum], assignment: SplitAssignment) -> None:
    """Write the split as a TSV sorted by spectrum id.

    Columns: spectrum_id, structure_id (empty when unlabeled), split.
    The output is a pure function of the assignment, so identical splits
    produce identical bytes.
    """
    rows = []
    for spectrum in sorted(spectra, key=lambda s: s.id):
        rows.append(
            (
                spectrum.id,
                spectrum.structure_id or "",
                assignment.split_of(spectrum.id),
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("spectrum_id\tstructure_id\tsplit\n")
        for row in rows:
            handle.write("\t".join(row) + "\n")


def read_manifest(path, spectra: list[Spectrum]) -> SplitAssignment:
    """Rebuild a SplitAssignment from a manifest, checking it matches spectra."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if not lines or lines[0] != "spectrum_id\tstructure_id\tsplit":
        raise DataError(f"{path}: not a split manifest (bad header)")

    by_id = {s.id: s for s in spectra}
    if len(by_id) != len(spectra):
        raise DataError("duplicate spectrum ids in manifest input")
    sets: dict[str, set[str]] = {"train": set(), "known": set(), "novel": set()}
    seen: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{line_no}: expected 3 columns, got {len(fields)}")
        spectrum_id, structure_id, split = fields
        if split not in sets:
            raise DataError(f"{path}:{line_no}: unknown split {split!r}")
        if spectrum_id not in by_id:
            raise DataError(f"{path}:{line_no}: unknown spectrum {spectrum_id!r}")
        if spectrum_id in seen:
            raise DataError(f"{path}:{line_no}: duplicate spectrum {spectrum_id!r}")
        recorded = by_id[spectrum_id].structure_id or ""
        if structure_id != recorded:
            raise DataError(
                f"{path}:{line_no}: structure mismatch for {spectrum_id!r}: "
                f"manifest says {structure_id!r}, data says {recorded!r}"
            )
        seen.add(spectrum_id)
        sets[split].add(spectrum_id)
    missing = set(by_id) - seen
    if missing:
        raise DataError(f"manifest does not cover spectra: {sorted(missing)}")

    return _checked_split(spectra, sets["train"], sets["known"], sets["novel"])
