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

DEFAULT_BIN_COUNT = 10
EXACT_ENUMERATION_LIMIT = 2000


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| over bit arrays; two empty sets give 0."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise DimensionError(
            f"fingerprint widths differ: {a.shape} vs {b.shape}"
        )
    union = int(np.sum(a | b))
    if union == 0:
        return 0.0
    return int(np.sum(a & b)) / union


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
    the boundary value 1.0. Reservoirs hold (structure_a, structure_b,
    tanimoto) triples; self-pairs (s, s) are included so the top bin is
    always reachable for structures with at least one spectrum.
    """

    bin_count: int
    reservoirs: list[list[tuple[str, str, float]]]

    @property
    def unreachable(self) -> list[int]:
        return [k for k, r in enumerate(self.reservoirs) if not r]


def bin_of(label: float, bin_count: int) -> int:
    return min(int(label * bin_count), bin_count - 1)


def build_similarity_bins(
    molecules: dict[str, MoleculeRecord],
    structures: list[str],
    bin_count: int = DEFAULT_BIN_COUNT,
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
    seed: int = 0,
    rejection_target: int = 1000,
    rejection_max_draws: int = 500_000,
) -> SimilarityBins:
    """Precompute per-bin reservoirs of structure pairs.

    Up to ``exact_limit`` structures all unordered pairs (self-pairs
    included) are enumerated; beyond that, pairs are rejection-sampled
    until every bin reaches ``rejection_target`` entries or the draw
    budget runs out. Bins still empty afterwards are unreachable and
    reported by the sampler.
    """
    if bin_count < 1:
        raise ConfigError(f"bin count must be positive, got {bin_count}")
    names = sorted(set(structures))
    missing = [s for s in names if s not in molecules]
    if missing:
        raise DataError(f"no molecule records for structures: {missing}")
    reservoirs: list[list[tuple[str, str, float]]] = [[] for _ in range(bin_count)]

    if len(names) <= exact_limit:
        for i, sa in enumerate(names):
            fa = molecules[sa].fingerprint
            for sb in names[i:]:
                t = tanimoto(fa, molecules[sb].fingerprint)
                reservoirs[bin_of(t, bin_count)].append((sa, sb, t))
        return SimilarityBins(bin_count=bin_count, reservoirs=reservoirs)

    rng = stream_rng(seed, "pairs", 0xB1)
    draws = 0
    while draws < rejection_max_draws and any(
        len(r) < rejection_target for r in reservoirs
    ):
        i = int(rng.integers(len(names)))
        j = int(rng.integers(len(names)))
        if j < i:
            i, j = j, i
        sa, sb = names[i], names[j]
        t = tanimoto(molecules[sa].fingerprint, molecules[sb].fingerprint)
        k = bin_of(t, bin_count)
        if len(reservoirs[k]) < rejection_target:
            reservoirs[k].append((sa, sb, t))
        draws += 1
    return SimilarityBins(bin_count=bin_count, reservoirs=reservoirs)


def sample_uniform_pairs(
    molecules: dict[str, MoleculeRecord],
    spectra: list[Spectrum],
    bins: SimilarityBins,
    count: int,
    seed,
) -> list[PairSample]:
    """Sample spectrum pairs whose labels are uniform over reachable bins.

    Each draw picks a reachable bin uniformly, a structure pair from
    that bin's reservoir uniformly, then one spectrum per structure
    uniformly. ``seed`` may be an integer or a prepared Generator.
    """
    if count < 0:
        raise ConfigError(f"pair count must be non-negative, got {count}")
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(seed, "pairs")

    spectra_of: dict[str, list[str]] = {}
    for s in sorted(spectra, key=lambda x: x.id):
        if s.structure_id is not None:
            spectra_of.setdefault(s.structure_id, []).append(s.id)

    usable: list[list[tuple[str, str, float]]] = []
    for reservoir in bins.reservoirs:
        usable.append(
            [e for e in reservoir if e[0] in spectra_of and e[1] in spectra_of]
        )
    reachable = [k for k, r in enumerate(usable) if r]
    if count > 0 and not reachable:
        raise DataError(
            "no similarity bin is reachable with the given spectra "
            f"(unreachable bins: {list(range(bins.bin_count))})"
        )

    out: list[PairSample] = []
    for _ in range(count):
        k = reachable[int(rng.integers(len(reachable)))]
        sa, sb, label = usable[k][int(rng.integers(len(usable[k])))]
        ids_a = spectra_of[sa]
        ids_b = spectra_of[sb]
        a = ids_a[int(rng.integers(len(ids_a)))]
        b = ids_b[int(rng.integers(len(ids_b)))]
        out.append(PairSample(a=a, b=b, label=label))
    return out


def siamese_loss(emb_a: Tensor, emb_b: Tensor, labels) -> Tensor:
    """Mean squared error between pairwise cosine and the Tanimoto label.

    Accepts (d,) vectors or (B, d) batches; labels broadcast to match.
    """
    cos = cosine_similarity(emb_a, emb_b)
    if isinstance(labels, Tensor):
        labels = labels.data
    target = Tensor(np.asarray(labels, dtype=np.float64))
    diff = cos - target
    return (diff * diff).mean() if diff.ndim else diff * diff


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
    weights: ModelWeights | None = None,
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

    if weights is None:
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
