"""Spectral library search: embedding index, retrieval and evaluation.

``build_index`` encodes a reference library into an ``EmbeddingIndex``.
``cached_index`` keeps that index on disk, so repeated searches against an
unchanged library and model skip the library encodes. The file holds

    magic "MZEMBED-INDEX/2\n" | 32-byte key | n x d little-endian binary64

where the key is a sha256 over the magic, the package and numpy
versions, the model config text, the model weights as inference reads
them and, per library spectrum in id order, its id and the precursor and
fragment values the encoder reads. The matrix holds the raw
``encode_many`` rows in id order; reading normalizes them into the same
bits ``build_index`` returns, and keeps the raw rows for callers that
need the encoder output itself (the pair MSE of ``eval``). Ids and
structure ids always come from the library passed in. A file that is
missing, truncated, foreign, of the older normalized ``/1`` layout,
written under another key or holding a non-finite value is rebuilt and
replaced, never read as an index. So is one whose first row differs from
a fresh encode of the first library spectrum: the key names the inputs,
not the code that encoded them, and that one encode catches an index
written by an encoder that computes differently.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import __version__
from .data.labels import labeled_structures
from .data.types import MoleculeRecord, Spectrum
from .encoder import (
    EncoderConfig,
    ModelWeights,
    describe_config,
    encode_many,
    encode_spectrum,
)
from .errors import ConfigError, DataError, DimensionError, NumericsError
from .kernels import score_modified_cosine
from .outputs import publish, tsv
from .siamese import fingerprint_block, tanimoto_many

DEFAULT_TOLERANCE = 0.1
DEFAULT_TANIMOTO_THRESHOLD = 0.6


def _check_tolerance(tol: float) -> None:
    if tol <= 0:
        raise NumericsError(f"tolerance must be positive, got {tol}")


def modified_cosine(a: Spectrum, b: Spectrum, tol: float = DEFAULT_TOLERANCE) -> float:
    """Modified cosine similarity over fragment peaks.

    Fragments pair up when their m/z difference, directly or shifted by
    the precursor mass difference, lies within tol. The precursor peaks
    define the shift but are not matched themselves.
    """
    _check_tolerance(tol)
    mz_a, int_a = a.fragment_arrays()
    mz_b, int_b = b.fragment_arrays()
    prec_diff = a.precursor.mz - b.precursor.mz
    return float(score_modified_cosine(mz_a, int_a, mz_b, int_b, prec_diff, tol))


def cosine_hits(
    queries: list[Spectrum], library: list[Spectrum], tol: float = DEFAULT_TOLERANCE
) -> list[tuple[Spectrum, str, str, float]]:
    """Each query's best ``modified_cosine`` match in library, as the
    (query, hit id, hit structure, score) rows ``summarize_hits`` reads.

    Equal scores go to the smaller id (``top_k``).
    """
    _check_tolerance(tol)
    if not library:
        raise DataError("cannot search an empty library")
    scores = [[modified_cosine(q, r, tol) for r in library] for q in queries]
    best = top_k(np.reshape(scores, (len(queries), len(library))), [r.id for r in library], 1)
    return [
        (query, library[b].id, library[b].structure_id, row[b])
        for query, row, (b,) in zip(queries, scores, best)
    ]


@dataclass
class EmbeddingIndex:
    """L2-normalized reference embeddings, the encoder rows they were
    normalized from, and aligned id arrays."""

    matrix: np.ndarray  # (n, d), rows unit norm
    spectrum_ids: list[str]
    structure_ids: list[str]
    raw: np.ndarray  # (n, d), the encode_many rows

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise DataError(f"index matrix must be 2-D, got shape {self.matrix.shape}")
        if self.raw.shape != self.matrix.shape:
            raise DataError(
                f"index raw rows {self.raw.shape} do not match the matrix {self.matrix.shape}"
            )
        if not (len(self.spectrum_ids) == len(self.structure_ids) == self.matrix.shape[0]):
            raise DataError("index id arrays do not align with the matrix rows")

    def __len__(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SearchResult:
    query_id: str
    hits: list[tuple[str, str, float]]  # (spectrum_id, structure_id, score)


def _normalize_rows(matrix: np.ndarray, ids: list[str], what: str = "spectrum") -> np.ndarray:
    """Rows scaled to unit norm. A row whose norm is not finite or is
    below 1e-30 has no direction to rank by: NumericsError names its
    ``what`` ("spectrum" or "query") and id."""
    norms = np.sqrt(np.sum(matrix * matrix, axis=1))
    bad = np.nonzero(~(np.isfinite(norms) & (norms >= 1e-30)))[0]
    if bad.size:
        row = int(bad[0])
        raise NumericsError(
            f"embedding of {what} {ids[row]!r} has norm {norms[row]}; it cannot be ranked"
        )
    return matrix / norms[:, None]


def build_index(
    spectra: list[Spectrum],
    cfg: EncoderConfig,
    weights: ModelWeights,
) -> EmbeddingIndex:
    """Encode reference spectra and assemble the search index.

    Rows are ordered by spectrum id, so the same data and weights always
    produce the same index bytes. A spectrum without a structure id is
    refused.
    """
    ordered = sorted(spectra, key=lambda s: s.id)
    return _assemble_index(encode_many(ordered, cfg, weights), ordered)


def _assemble_index(raw: np.ndarray, ordered: list[Spectrum]) -> EmbeddingIndex:
    labeled_structures(ordered)  # refuses a spectrum without a structure id
    ids = [s.id for s in ordered]
    return EmbeddingIndex(
        matrix=_normalize_rows(raw, ids),
        spectrum_ids=ids,
        structure_ids=[s.structure_id for s in ordered],
        raw=raw,
    )


INDEX_MAGIC = b"MZEMBED-INDEX/2\n"


def index_key(spectra: list[Spectrum], cfg: EncoderConfig, weights: ModelWeights) -> bytes:
    """sha256 over everything the index matrix depends on.

    Weights enter in their inference layout (``for_inference``), each
    array with its name, dtype, shape and memory order, so binary32
    weights and their converted copy share a key. Spectra enter in id
    order (the order ``build_index`` encodes them), each as its id,
    precursor (m/z, intensity) and fragment m/z and intensity arrays,
    with lengths so no two libraries share a byte stream.
    """
    digest = hashlib.sha256(
        INDEX_MAGIC + f"{__version__}\nnumpy {np.__version__}\n".encode()
    )
    digest.update(describe_config(cfg).encode())
    for name, tensor in weights.for_inference().named().items():
        data = tensor.data
        if data.flags.f_contiguous and not data.flags.c_contiguous:
            data, order = data.T, "F"
        else:
            data, order = np.ascontiguousarray(data), "C"
        digest.update(f"{name} {data.dtype.str} {tensor.data.shape} {order}\n".encode())
        digest.update(data)
    for s in sorted(spectra, key=lambda s: s.id):
        name = s.id.encode()
        mz, intensity = s.fragment_arrays()
        digest.update(struct.pack("<Q", len(name)) + name)
        digest.update(
            struct.pack("<ddQ", s.precursor.mz, s.precursor.intensity, mz.shape[0])
        )
        digest.update(mz.astype("<f8").tobytes())
        digest.update(intensity.astype("<f8").tobytes())
    return digest.digest()


def _read_index_matrix(path, key: bytes, n: int, d: int) -> np.ndarray | None:
    """The stored matrix when the file at path is exactly an (n, d) index
    under key of finite values; None for anything else."""
    header = INDEX_MAGIC + key
    matrix = np.empty((n, d), dtype="<f8")
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size != len(header) + matrix.nbytes:
                return None
            if fh.read(len(header)) != header:
                return None
            if fh.readinto(matrix) != matrix.nbytes:
                return None
    except FileNotFoundError:
        return None
    return matrix if np.isfinite(matrix).all() else None


def _first_row_matches(
    raw: np.ndarray, ordered: list[Spectrum], cfg: EncoderConfig, weights: ModelWeights
) -> bool:
    """Whether the stored row of the first spectrum equals, bit for bit,
    the row the current code encodes for it (``encode_many`` rows do not
    depend on the rest of the batch)."""
    if not ordered:
        return True
    row = encode_many(ordered[:1], cfg, weights)
    return row.astype("<f8").tobytes() == raw[:1].tobytes()


def cached_index(
    path,
    spectra: list[Spectrum],
    cfg: EncoderConfig,
    weights: ModelWeights,
) -> EmbeddingIndex:
    """The index ``build_index`` would return, read from path when the
    file there was written under the same key and its first row checks
    out, else built and written to path. The file holds the raw rows;
    the matrix is normalized from them on every read.
    """
    key = index_key(spectra, cfg, weights)
    ordered = sorted(spectra, key=lambda s: s.id)
    raw = _read_index_matrix(path, key, len(ordered), cfg.d)
    if raw is not None and _first_row_matches(raw, ordered, cfg, weights):
        return _assemble_index(raw, ordered)
    index = build_index(spectra, cfg, weights)

    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write(INDEX_MAGIC + key)
            fh.write(np.ascontiguousarray(index.raw, dtype="<f8").data)

    publish(path, write)
    return index


def top_k(scores, ids: list[str], k: int) -> np.ndarray:
    """Per row of an (m, n) score block, the positions of its k highest
    scores, best first, as an (m, min(k, n)) array; equal scores go to
    the smaller id. ``k`` must be at least 1."""
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    scores = np.asarray(scores)
    # Each id's place in a stable sort, so equal ids keep their row order.
    id_rank = np.argsort(np.argsort(np.array(ids, dtype=object), kind="stable"))
    return np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores))[:, :k]


def search_embedding(
    queries: np.ndarray, index: EmbeddingIndex, k: int, query_ids: list[str]
) -> list[SearchResult]:
    """Rank index rows by cosine against each row of an (m, d) block of
    query embeddings: one ``SearchResult`` per row, in block order. Each
    row is scored by a matrix-vector product of its own, so its scores
    and hits do not depend on the rest of the block."""
    if len(index) == 0:
        raise DataError("cannot search an empty index")
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if len(query_ids) != q.shape[0]:
        raise DataError(f"{q.shape[0]} query embeddings given for {len(query_ids)} queries")
    d = index.matrix.shape[1]
    if q.shape[1] != d:
        raise DimensionError(f"query embedding {query_ids[0]!r} has width {q.shape[1]}, the index {d}")
    q = _normalize_rows(q, query_ids, "query")
    scores = (index.matrix @ q[:, :, None])[:, :, 0]
    ids, structures = index.spectrum_ids, index.structure_ids
    return [
        SearchResult(query_id, [(ids[r], structures[r], float(row[r])) for r in order])
        for query_id, row, order in zip(query_ids, scores, top_k(scores, ids, k))
    ]


def search(
    query: Spectrum,
    index: EmbeddingIndex,
    k: int,
    cfg: EncoderConfig,
    weights: ModelWeights,
) -> SearchResult:
    """Encode a query spectrum and rank the index against it."""
    emb = encode_spectrum(query, cfg, weights).data
    return search_embedding(emb[None, :], index, k, [query.id])[0]


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
    *,
    embeddings: np.ndarray | None = None,
) -> AccuracyReport:
    """Top-1 embedding retrieval accuracy, scored by summarize_hits.

    Exact accuracy is omitted (None) for query sets whose structures are
    absent from the index by construction. ``embeddings`` are the
    ``encode_many`` rows of ``queries``, for a caller that already has
    them; by default the queries are encoded here.
    """
    if not queries:
        raise DataError("no query spectra to evaluate")
    if embeddings is None:
        embeddings = encode_many(queries, cfg, weights)
    results = search_embedding(embeddings, index, 1, [q.id for q in queries])
    hits = [(query, *result.hits[0]) for query, result in zip(queries, results)]
    return summarize_hits(hits, molecules, threshold, query_set, include_exact)


def summarize_hits(
    hits: list[tuple[Spectrum, str, str, float]],
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
    then across structures. Every query's and hit's structure must have
    a molecule record, and no hits at all raise DataError.
    """
    if not hits:
        raise DataError("no query hits to summarize")
    for query, hit_id, hit_structure, _ in hits:
        if query.structure_id not in molecules:
            raise DataError(f"query {query.id!r} has no resolvable structure")
        if hit_structure not in molecules:
            raise DataError(f"hit {hit_id!r} has no resolvable structure")
    bits = fingerprint_block(molecules, [q.structure_id for q, *_ in hits] + [h[2] for h in hits])
    sims = tanimoto_many(bits[: len(hits)], bits[len(hits) :]).tolist()
    exact_hits: dict[str, list[float]] = {}
    approx_hits: dict[str, list[float]] = {}
    audit = []
    for (query, hit_id, hit_structure, score), sim in zip(hits, sims):
        is_exact = hit_structure == query.structure_id
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
    """Publish accuracy rows as TSV: query set, match kind, accuracy,
    structure count."""
    rows = [
        (report.query_set, match, f"{accuracy:.6f}", report.n_structures)
        for report in reports
        for match, accuracy in (("exact", report.exact), ("approximate", report.approximate))
        if accuracy is not None
    ]
    publish(path, tsv(("query_set", "match", "accuracy", "n_structures"), rows))


def write_search_audit(path, reports: list[AccuracyReport]) -> None:
    """Publish the per-query audit as TSV: query, hit, score, exact flag,
    tanimoto."""
    rows = [
        (report.query_set, query_id, hit_id, f"{score:.6f}", int(is_exact), f"{sim:.6f}")
        for report in reports
        for query_id, hit_id, score, is_exact, sim in report.audit
    ]
    publish(path, tsv(("query_set", "query_id", "hit_id", "score", "exact", "tanimoto"), rows))
