"""Siamese similarity training: Tanimoto labels, uniform pair sampling,
cosine-vs-label loss, and the training loop."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data.types import MoleculeRecord, Spectrum
from .encoder import EncoderConfig, ModelWeights, encode_batch, encode_many, init_weights
from .errors import ConfigError, DataError, DimensionError
from .rng import stream_rng
from .tensor import Tensor, cosine_similarity
from .training import TrainConfig, TrainLog, apply_step, fit, make_optimizer

BIN_COUNT = 10
EXACT_ENUMERATION_LIMIT = 2000
REJECTION_TARGET = 1000
REJECTION_MAX_DRAWS = 500_000
# Drawn pairs scored per gathered block: bounds the fingerprint copies.
SCORE_BLOCK = 1024


def tanimoto_many(a, b) -> np.ndarray:
    """|a AND b| / |a OR b| along the last axis of broadcasting uint8
    fingerprints; two empty sets give 0. Counts divide as ``int / int``."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape[-1:] != b.shape[-1:]:
        raise DimensionError(f"fingerprint widths differ: {a.shape[-1:]} vs {b.shape[-1:]}")
    inter = np.sum(a & b, axis=-1)
    union = np.sum(a | b, axis=-1)
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| of one fingerprint pair, by ``tanimoto_many``."""
    return float(tanimoto_many(a, b))


def fingerprint_block(molecules: dict[str, MoleculeRecord], names: list[str]) -> np.ndarray:
    """The (len(names), width) uint8 fingerprints of ``names``: DataError
    for a name without a record, DimensionError for mixed widths."""
    missing = [s for s in names if s not in molecules]
    if missing:
        raise DataError(f"no molecule records for structures: {missing}")
    rows = [np.asarray(molecules[s].fingerprint, dtype=np.uint8) for s in names]
    widths = sorted({r.shape for r in rows})
    if len(widths) > 1:
        raise DimensionError(f"fingerprint widths differ: {widths}")
    return np.array(rows, dtype=np.uint8)


@dataclass(frozen=True)
class PairSample:
    """A labeled spectrum pair; the label is symmetric in (a, b)."""

    a: str
    b: str
    label: float

    def __post_init__(self):
        if not 0.0 <= self.label <= 1.0:
            raise DataError(f"pair label must be in [0, 1], got {self.label}")


@dataclass
class SimilarityBins:
    """Equal-width Tanimoto bins over structure pairs.

    Bin k covers [k/B, (k+1)/B), except the last bin which also owns
    the boundary value 1.0. Bin k holds its pairs, in candidate order,
    as indices ``a[k] <= b[k]`` into the sorted structure ``names`` and
    their Tanimoto values ``t[k]``. Self-pairs (s, s) are included so the
    top bin is always reachable for structures with at least one spectrum.
    """

    names: list[str]
    a: list[np.ndarray]
    b: list[np.ndarray]
    t: list[np.ndarray]

    @property
    def bin_count(self) -> int:
        return len(self.t)

    @property
    def unreachable(self) -> list[int]:
        return [k for k, t in enumerate(self.t) if not len(t)]


def bin_of(label, bin_count: int):
    """The bin of a Tanimoto label, or the bins of an array of labels."""
    return np.minimum((np.asarray(label) * bin_count).astype(np.int64), bin_count - 1)


def build_similarity_bins(
    molecules: dict[str, MoleculeRecord],
    structures: list[str],
    seed: int = 0,
) -> SimilarityBins:
    """Bin structure pairs by Tanimoto into ``BIN_COUNT`` bins.

    Up to ``EXACT_ENUMERATION_LIMIT`` structures every pair i <= j is a
    candidate, in row-major order, and each bin keeps all of its own.
    Beyond that, the candidates are ``REJECTION_MAX_DRAWS`` seeded draws
    (i, j), ordered so i <= j, and each bin keeps the first
    ``REJECTION_TARGET`` of its own. Bins left empty are unreachable.
    """
    names = sorted(set(structures))
    bits = fingerprint_block(molecules, names)
    n = len(names)
    if n <= EXACT_ENUMERATION_LIMIT:
        a, b = np.triu_indices(n)
        cap = None
        blocks = ((bits[i], bits[i:]) for i in range(n))
    else:
        draws = stream_rng(seed, "pairs", 0xB1).integers(n, size=(REJECTION_MAX_DRAWS, 2))
        draws.sort(axis=-1)
        a, b = draws.T
        cap = REJECTION_TARGET
        spans = (slice(i, i + SCORE_BLOCK) for i in range(0, len(a), SCORE_BLOCK))
        blocks = ((bits[a[s]], bits[b[s]]) for s in spans)
    t = np.concatenate([np.empty(0), *(tanimoto_many(x, y) for x, y in blocks)])
    k = bin_of(t, BIN_COUNT)
    kept = [np.flatnonzero(k == bin_)[:cap] for bin_ in range(BIN_COUNT)]
    return SimilarityBins(names, [a[p] for p in kept], [b[p] for p in kept], [t[p] for p in kept])


def sample_uniform_pairs(
    molecules: dict[str, MoleculeRecord],
    spectra: list[Spectrum],
    bins: SimilarityBins,
    count: int,
    seed,
) -> list[PairSample]:
    """Sample spectrum pairs whose labels are uniform over reachable bins.

    Each draw picks a reachable bin uniformly, then one of its pairs
    whose structures both have spectra, then one spectrum per structure,
    each uniformly. ``seed`` may be an integer or a prepared Generator.
    """
    if count < 0:
        raise ConfigError(f"pair count must be non-negative, got {count}")
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(seed, "pairs")

    spectra_of: dict[str, list[str]] = {}
    for s in sorted(spectra, key=lambda x: x.id):
        if s.structure_id is not None:
            spectra_of.setdefault(s.structure_id, []).append(s.id)

    has_spectra = np.array([s in spectra_of for s in bins.names], dtype=bool)
    usable = [np.flatnonzero(has_spectra[a] & has_spectra[b]) for a, b in zip(bins.a, bins.b)]
    reachable = [k for k, u in enumerate(usable) if len(u)]
    if count > 0 and not reachable:
        raise DataError(
            "no similarity bin is reachable with the given spectra "
            f"(unreachable bins: {list(range(bins.bin_count))})"
        )

    out: list[PairSample] = []
    for _ in range(count):
        k = reachable[int(rng.integers(len(reachable)))]
        r = usable[k][int(rng.integers(len(usable[k])))]
        ids_a = spectra_of[bins.names[bins.a[k][r]]]
        ids_b = spectra_of[bins.names[bins.b[k][r]]]
        a = ids_a[int(rng.integers(len(ids_a)))]
        b = ids_b[int(rng.integers(len(ids_b)))]
        out.append(PairSample(a=a, b=b, label=float(bins.t[k][r])))
    return out


def siamese_loss(emb_a: Tensor, emb_b: Tensor, labels) -> Tensor:
    """Mean squared error between pairwise cosine and the Tanimoto label.

    Accepts (d,) vectors or (B, d) batches; labels broadcast to match.
    """
    diff = cosine_similarity(emb_a, emb_b) - Tensor(np.asarray(labels, dtype=np.float64))
    return (diff * diff).mean()


def _pair_mse(pairs: list[PairSample], rows: Mapping[str, np.ndarray]) -> float:
    """Inference-mode pair MSE over all pairs, from each spectrum's
    ``encode_many`` row keyed by spectrum id. The caller encodes each
    spectrum once, or reads its row from the library index."""
    if not pairs:
        return float("nan")
    labels = np.array([p.label for p in pairs], dtype=np.float64)
    loss = siamese_loss(
        Tensor(np.stack([rows[p.a] for p in pairs])),
        Tensor(np.stack([rows[p.b] for p in pairs])),
        labels,
    )
    return float(loss.data)


def eval_pair_sample(
    name: str, spectra: list[Spectrum], molecules: dict[str, MoleculeRecord], trn_cfg: TrainConfig
) -> list[PairSample]:
    """The fixed pair sample whose MSE is reported for split ``name``:
    ``eval_pairs`` pairs over the split's own similarity bins, drawn from
    the split's evaluation stream, so training logs and ``eval`` agree."""
    structures = sorted({s.structure_id for s in spectra if s.structure_id is not None})
    if not structures:
        raise DataError(f"evaluation set {name!r} has no labeled structures")
    bins = build_similarity_bins(molecules, structures, seed=trn_cfg.seed)
    return sample_uniform_pairs(
        molecules, spectra, bins, trn_cfg.eval_pairs, stream_rng(trn_cfg.seed, "eval", name)
    )


def train_siamese(
    train_spectra: list[Spectrum],
    molecules: dict[str, MoleculeRecord],
    trn_cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    eval_sets: dict[str, list[Spectrum]] | None = None,
) -> tuple[ModelWeights, TrainLog]:
    """Train twin encoders with shared weights on uniform-similarity pairs.

    ``eval_sets`` maps split names ("known", "novel") to normalized
    held-out spectra; their pair MSE is logged every epoch from a fixed
    pair sample. Returns the trained weights and the epoch log.
    """
    eval_sets = eval_sets or {}
    by_id = {s.id: s for s in train_spectra}
    if len(by_id) != len(train_spectra):
        raise DataError("duplicate spectrum ids in training data")

    train_structures = sorted(
        {s.structure_id for s in train_spectra if s.structure_id is not None}
    )
    if not train_structures:
        raise DataError("no labeled structures in the training spectra")
    bins = build_similarity_bins(molecules, train_structures, seed=trn_cfg.seed)

    weights = init_weights(enc_cfg, seed=trn_cfg.seed)
    params = weights.named()
    adam = make_optimizer(params, trn_cfg)

    eval_pairs = {
        name: eval_pair_sample(name, eval_sets[name], molecules, trn_cfg)
        for name in sorted(eval_sets)
    }
    # The distinct spectra of the logged held-out pairs, encoded together
    # once per epoch.
    logged = [eval_pairs.get(name, []) for name in ("known", "novel")]
    held_by_id = {s.id: s for name in ("known", "novel") for s in eval_sets.get(name, [])}
    held_ids = list(dict.fromkeys(sid for pairs in logged for p in pairs for sid in (p.a, p.b)))
    held_spectra = [held_by_id[sid] for sid in held_ids]

    log = TrainLog(
        columns=("epoch", "train_mse", "known_mse", "novel_mse", "wall_time_s"),
        meta={
            "mode": "siamese",
            "n_eval_pairs": str(trn_cfg.eval_pairs),
            "pairs_per_epoch": str(trn_cfg.pairs_per_epoch),
            "seed": str(trn_cfg.seed),
        },
    )

    def epoch_pairs(epoch):
        return sample_uniform_pairs(
            molecules, train_spectra, bins, trn_cfg.pairs_per_epoch,
            stream_rng(trn_cfg.seed, "pairs", epoch),
        )

    def step(chunk, rng, where):
        spectra = [by_id[p.a] for p in chunk] + [by_id[p.b] for p in chunk]
        embs = encode_batch(spectra, enc_cfg, weights, mode="train", rng=rng)
        labels = np.array([p.label for p in chunk], dtype=np.float64)
        loss = siamese_loss(embs[: len(chunk)], embs[len(chunk) :], labels)
        apply_step(loss, params, adam, trn_cfg.clip, where=where)
        return float(loss.data)

    def held_out_mse():
        rows = dict(zip(held_ids, encode_many(held_spectra, enc_cfg, weights)))
        return tuple(_pair_mse(pairs, rows) for pairs in logged)

    return weights, fit(trn_cfg, log, epoch_pairs, step, held_out_mse)
