"""Seeded synthetic inputs for the benchmark, written as the files the CLI reads.

The distribution follows the test suite's toy dataset: 64-bit fingerprints
with bit density 0.3, ten normal(0, 2) properties per structure, spectra with
20-79 fragment peaks at m/z 80-900 with intensities 0.05-1, precursor m/z
900-1100, four decimals.
This module does not import the tests, so editing a test cannot change what
the benchmark measures.

Peak counts are stratified: every spectrum file holds the same multiset of
peak counts, spread evenly over 20-79, in a seeded order. The m/z values,
intensities and labels still vary with the seed, but the amount of encoder
work per file does not, which keeps timings comparable across seeds.
"""

from __future__ import annotations

import os

import numpy as np

PEAKS = (20, 80)  # half-open, as in the toy dataset
MZ_RANGE = (80.0, 900.0)
PRECURSOR_RANGE = (900.0, 1100.0)
MZ_DECIMALS = 4
FINGERPRINT_BITS = 64
FINGERPRINT_DENSITY = 0.3
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

# The README model, with the training knobs sized so one invocation fits
# the benchmark's time and memory budget (see README.md in this directory).
CONFIG = {
    "d": 256,
    "layers": 4,
    "heads": 8,
    "inner-dim": 256,
    "dropout": 0.1,
    "max-fragments": 256,
    "lr": 0.00005,
    "epochs": 1,
    "batch-size": 8,
    "pairs-per-epoch": 16,
    "eval-pairs": 16,
}


def stratified_peak_counts(n: int, rng) -> np.ndarray:
    """n counts spread evenly over PEAKS, in seeded order."""
    lo, hi = PEAKS
    counts = lo + (np.arange(n) * (hi - lo)) // n
    return rng.permutation(counts)


def _spectrum_block(title, structure_id, n_peaks, rng) -> str:
    mz = np.round(np.sort(rng.uniform(*MZ_RANGE, n_peaks)), MZ_DECIMALS)
    intensity = rng.uniform(0.05, 1.0, n_peaks)
    precursor = np.round(rng.uniform(*PRECURSOR_RANGE), MZ_DECIMALS)
    lines = [
        "BEGIN IONS",
        f"TITLE={title}",
        f"PEPMASS={precursor:.{MZ_DECIMALS}f} 1.0",
        f"STRUCTUREID={structure_id}",
    ]
    for m, v in zip(mz, intensity):
        lines.append(f"{m:.{MZ_DECIMALS}f} {np.format_float_positional(v, unique=True)}")
    lines.append("END IONS")
    return "\n".join(lines)


def write_dataset(
    root: str, seed: int, n_structures: int, spectra_per: int, n_queries: int = 0
) -> dict[str, str]:
    """Write library.mgf, fingerprints.tsv, properties.tsv (and queries.mgf).

    Returns the paths by name. The same arguments always write the same
    bytes.
    """
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng([seed, 0x6D7A])
    structures = [f"m{i}" for i in range(n_structures)]
    fingerprints = {
        sid: (rng.random(FINGERPRINT_BITS) < FINGERPRINT_DENSITY).astype(np.uint8)
        for sid in structures
    }
    properties = {sid: rng.normal(0.0, 2.0, len(PROPERTY_NAMES)) for sid in structures}

    counts = stratified_peak_counts(n_structures * spectra_per, rng)
    blocks = []
    for i, sid in enumerate(structures):
        for j in range(spectra_per):
            blocks.append(_spectrum_block(f"s{i}_{j}", sid, counts[i * spectra_per + j], rng))

    paths = {
        "spectra": os.path.join(root, "library.mgf"),
        "fingerprints": os.path.join(root, "fingerprints.tsv"),
        "properties": os.path.join(root, "properties.tsv"),
    }
    _write(paths["spectra"], "\n\n".join(blocks) + "\n")
    _write(
        paths["fingerprints"],
        "".join(f"{sid}\t{np.packbits(fingerprints[sid]).tobytes().hex()}\n" for sid in structures),
    )
    rows = [
        sid + "\t" + "\t".join(f"{v:.6f}" for v in properties[sid]) for sid in structures
    ]
    _write(
        paths["properties"],
        "structure_id\t" + "\t".join(PROPERTY_NAMES) + "\n" + "\n".join(rows) + "\n",
    )

    if n_queries:
        counts = stratified_peak_counts(n_queries, rng)
        owners = rng.integers(n_structures, size=n_queries)
        queries = [
            _spectrum_block(f"q{k:04d}", structures[owners[k]], counts[k], rng)
            for k in range(n_queries)
        ]
        paths["queries"] = os.path.join(root, "queries.mgf")
        _write(paths["queries"], "\n\n".join(queries) + "\n")
    return paths


def write_config(path: str, settings: dict) -> None:
    """A schema_version=1 key=value config file."""
    lines = ["schema_version=1"] + [f"{k}={v}" for k, v in settings.items()]
    _write(path, "\n".join(lines) + "\n")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
