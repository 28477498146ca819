"""Spectral library search: embedding index, retrieval and evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data.types import MoleculeRecord, Spectrum
from .encoder import EncoderConfig, ModelWeights, encode_many, encode_spectrum
from .errors import DataError, NumericsError
from .kernels import score_modified_cosine
from .siamese import tanimoto
from .tensor import no_grad

DEFAULT_TOLERANCE = 0.1
DEFAULT_TANIMOTO_THRESHOLD = 0.6


def modified_cosine(a: Spectrum, b: Spectrum, tol: float = DEFAULT_TOLERANCE) -> float:
    """Modified cosine similarity over fragment peaks.

    Fragments pair up when their m/z difference, directly or shifted by
    the precursor mass difference, lies within tol. The precursor peaks
    define the shift but are not matched themselves.
    """
    if tol <= 0:
        raise NumericsError(f"tolerance must be positive, got {tol}")
    mz_a, int_a = a.fragment_arrays()
    mz_b, int_b = b.fragment_arrays()
    prec_diff = a.precursor.mz - b.precursor.mz
    return float(score_modified_cosine(mz_a, int_a, mz_b, int_b, prec_diff, tol))


@dataclass
class EmbeddingIndex:
    """L2-normalized reference embeddings with aligned id arrays."""

    matrix: np.ndarray  # (n, d), rows unit norm
    spectrum_ids: list[str]
    structure_ids: list[str | None]

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise DataError(f"index matrix must be 2-D, got shape {self.matrix.shape}")
        if not (len(self.spectrum_ids) == len(self.structure_ids) == self.matrix.shape[0]):
            raise DataError("index id arrays do not align with the matrix rows")

    def __len__(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SearchResult:
    query_id: str
    hits: list[tuple[str, str | None, float]]  # (spectrum_id, structure_id, score)
    k: int


def _normalize_rows(matrix: np.ndarray, ids: list[str]) -> np.ndarray:
    norms = np.sqrt(np.sum(matrix * matrix, axis=1))
    bad = np.nonzero(norms < 1e-30)[0]
    if bad.size:
        raise NumericsError(f"zero-norm embedding for spectrum {ids[int(bad[0])]!r}")
    return matrix / norms[:, None]


def build_index(
    spectra: list[Spectrum],
    cfg: EncoderConfig,
    weights: ModelWeights,
) -> EmbeddingIndex:
    """Encode reference spectra and assemble the search index.

    Rows are ordered by spectrum id, so the same data and weights always
    produce the same index bytes.
    """
    ordered = sorted(spectra, key=lambda s: s.id)
    matrix = encode_many(ordered, cfg, weights)
    ids = [s.id for s in ordered]
    return EmbeddingIndex(
        matrix=_normalize_rows(matrix, ids),
        spectrum_ids=ids,
        structure_ids=[s.structure_id for s in ordered],
    )


def top_k(scores, ids: list[str], k: int) -> list[int]:
    """Positions of the k highest scores, best first; equal scores go to
    the smaller id."""
    return sorted(range(len(ids)), key=lambda r: (-scores[r], ids[r]))[:k]


def search_embedding(query: np.ndarray, index: EmbeddingIndex, k: int, query_id: str = "") -> SearchResult:
    """Rank index rows by cosine against one query embedding."""
    if len(index) == 0:
        raise DataError("cannot search an empty index")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    norm = float(np.sqrt(np.sum(q * q)))
    if norm < 1e-30:
        raise NumericsError(f"zero-norm query embedding for {query_id!r}")
    scores = index.matrix @ (q / norm)
    order = top_k(scores, index.spectrum_ids, k)
    hits = [
        (index.spectrum_ids[r], index.structure_ids[r], float(scores[r])) for r in order
    ]
    return SearchResult(query_id=query_id, hits=hits, k=k)


def search(
    query: Spectrum,
    index: EmbeddingIndex,
    k: int,
    cfg: EncoderConfig,
    weights: ModelWeights,
) -> SearchResult:
    """Encode a query spectrum and rank the index against it."""
    with no_grad():
        emb = encode_spectrum(query, cfg, weights, mode="infer")
    return search_embedding(emb.data, index, k, query_id=query.id)


@dataclass
class AccuracyReport:
    query_set: str
    exact: float | None  # macro-averaged; None when omitted (novel queries)
    approximate: float
    n_structures: int
    audit: list[tuple[str, str, float, bool, float]]
    # audit rows: (query id, hit id, score, exact match?, tanimoto)


def evaluate_search(
    queries: list[Spectrum],
    index: EmbeddingIndex,
    molecules: dict[str, MoleculeRecord],
    cfg: EncoderConfig,
    weights: ModelWeights,
    threshold: float = DEFAULT_TANIMOTO_THRESHOLD,
    query_set: str = "",
    include_exact: bool = True,
) -> AccuracyReport:
    """Top-1 embedding retrieval accuracy, scored by summarize_hits.

    Exact accuracy is omitted (None) for query sets whose structures are
    absent from the index by construction.
    """
    if not queries:
        raise DataError("no query spectra to evaluate")
    embeddings = encode_many(queries, cfg, weights)
    hits = []
    for query, emb in zip(queries, embeddings):
        hit_id, hit_structure, score = search_embedding(
            emb, index, 1, query_id=query.id
        ).hits[0]
        hits.append((query, hit_id, hit_structure, score))
    return summarize_hits(hits, molecules, threshold, query_set, include_exact)


def summarize_hits(
    hits: list[tuple[Spectrum, str, str | None, float]],
    molecules: dict[str, MoleculeRecord],
    threshold: float = DEFAULT_TANIMOTO_THRESHOLD,
    query_set: str = "",
    include_exact: bool = True,
) -> AccuracyReport:
    """Accuracy of top-1 hits, given as (query, hit id, hit structure,
    score) rows, whichever method ranked them.

    Exact: the hit shares the query's structure. Approximate: the hit
    structure's Tanimoto to the query structure is at least threshold.
    Per-query outcomes are averaged within each query structure first,
    then across structures.
    """
    exact_hits: dict[str, list[float]] = {}
    approx_hits: dict[str, list[float]] = {}
    audit = []
    for query, hit_id, hit_structure, score in hits:
        if query.structure_id is None or query.structure_id not in molecules:
            raise DataError(f"query {query.id!r} has no resolvable structure")
        if hit_structure is None or hit_structure not in molecules:
            raise DataError(f"hit {hit_id!r} has no resolvable structure")
        is_exact = hit_structure == query.structure_id
        sim = tanimoto(
            molecules[query.structure_id].fingerprint,
            molecules[hit_structure].fingerprint,
        )
        approx = sim >= threshold
        exact_hits.setdefault(query.structure_id, []).append(float(is_exact))
        approx_hits.setdefault(query.structure_id, []).append(float(approx))
        audit.append((query.id, hit_id, score, is_exact, sim))

    def macro(per_structure: dict[str, list[float]]) -> float:
        return float(
            np.mean([np.mean(v) for _, v in sorted(per_structure.items())])
        )

    return AccuracyReport(
        query_set=query_set,
        exact=macro(exact_hits) if include_exact else None,
        approximate=macro(approx_hits),
        n_structures=len(exact_hits),
        audit=audit,
    )


def write_accuracy_report(path, reports: list[AccuracyReport]) -> None:
    """Accuracy rows as TSV: query set, match kind, accuracy, structure count."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("query_set\tmatch\taccuracy\tn_structures\n")
        for report in reports:
            if report.exact is not None:
                handle.write(
                    f"{report.query_set}\texact\t{report.exact:.6f}\t{report.n_structures}\n"
                )
            handle.write(
                f"{report.query_set}\tapproximate\t{report.approximate:.6f}\t{report.n_structures}\n"
            )


def write_search_audit(path, reports: list[AccuracyReport]) -> None:
    """Per-query audit as TSV: query, hit, score, exact flag, tanimoto."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("query_set\tquery_id\thit_id\tscore\texact\ttanimoto\n")
        for report in reports:
            for query_id, hit_id, score, is_exact, sim in report.audit:
                handle.write(
                    f"{report.query_set}\t{query_id}\t{hit_id}\t{score:.6f}"
                    f"\t{int(is_exact)}\t{sim:.6f}\n"
                )
