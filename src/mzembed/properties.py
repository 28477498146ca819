"""Property regression from spectrum embeddings, plus the binned baseline.

The head is one feed-forward block (hidden width d, output 10) on top of
the encoder. Labels are standardized to zero mean and unit variance on
the training split; predictions pass through the inverse scaler before
any reporting, so R-squared is always computed in natural units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .data.labels import PROPERTY_NAMES
from .data.types import MoleculeRecord, Spectrum
from .embed.features import bin_spectrum
from .embed.precision import BINARY64, PrecisionMode
from .encoder import EncoderConfig, ModelWeights, encode_batch, encode_many, init_weights
from .errors import ConfigError, DataError, NumericsError
from .rng import stream_rng
from .tensor import (
    FeedForwardParams,
    Tensor,
    feed_forward,
    linear,
    no_grad,
    relu,
    uniform_fan_in,
    zeros,
)
from .training import TrainConfig, TrainLog, apply_step, make_optimizer

N_PROPERTIES = len(PROPERTY_NAMES)


@dataclass(frozen=True)
class LabelScaler:
    """Per-property standardization fitted on training labels only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, labels: np.ndarray) -> "LabelScaler":
        labels = np.asarray(labels, dtype=np.float64)
        if labels.ndim != 2 or labels.shape[1] != N_PROPERTIES:
            raise ConfigError(
                f"labels must be (n, {N_PROPERTIES}), got {labels.shape}"
            )
        if labels.shape[0] < 2:
            raise DataError("scaler needs at least 2 label rows")
        mean = labels.mean(axis=0)
        std = labels.std(axis=0)
        flat = np.nonzero(std < 1e-12)[0]
        if flat.size:
            names = [PROPERTY_NAMES[i] for i in flat]
            raise NumericsError(
                f"constant training labels for properties {names}; cannot standardize"
            )
        return cls(mean=mean, std=std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std + self.mean


def r2_score(predicted, actual) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    if predicted.shape != actual.shape:
        raise ConfigError(
            f"length mismatch: {predicted.shape[0]} predictions, {actual.shape[0]} actuals"
        )
    if actual.shape[0] < 2:
        raise DataError("R-squared needs at least 2 points")
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        raise NumericsError("R-squared undefined: actual values are constant")
    ss_res = float(np.sum((actual - predicted) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass
class BaselineParams:
    """Feed-forward baseline over binned spectra: two hidden layers of 2d."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    def named(self, prefix: str = "baseline") -> dict[str, Tensor]:
        return {
            f"{prefix}.{n}": getattr(self, n)
            for n in ("w1", "b1", "w2", "b2", "w3", "b3")
        }


def init_baseline(n_bins: int, d: int, seed: int, dtype=np.float32) -> BaselineParams:
    rng = stream_rng(seed, "init")
    width = 2 * d
    return BaselineParams(
        w1=uniform_fan_in((width, n_bins), n_bins, rng, dtype=dtype),
        b1=zeros((width,), dtype=dtype),
        w2=uniform_fan_in((width, width), width, rng, dtype=dtype),
        b2=zeros((width,), dtype=dtype),
        w3=uniform_fan_in((N_PROPERTIES, width), width, rng, dtype=dtype),
        b3=zeros((N_PROPERTIES,), dtype=dtype),
    )


def baseline_forward(x: Tensor, params: BaselineParams) -> Tensor:
    h = relu(linear(x, params.w1, params.b1))
    h = relu(linear(h, params.w2, params.b2))
    return linear(h, params.w3, params.b3)


def spectrum_labels(
    spectra: list[Spectrum], molecules: dict[str, MoleculeRecord]
) -> np.ndarray:
    """Per-spectrum label rows; every spectrum must resolve to a molecule."""
    rows = []
    for s in spectra:
        if s.structure_id is None or s.structure_id not in molecules:
            raise DataError(f"spectrum {s.id!r} has no resolvable structure")
        rows.append(molecules[s.structure_id].properties)
    return np.stack(rows, axis=0)


def predict_properties_batch(
    spectra: list[Spectrum],
    cfg: EncoderConfig,
    weights: ModelWeights,
    scaler: LabelScaler,
    sin_cfg=None,
    vocab=None,
    precision: PrecisionMode = BINARY64,
) -> np.ndarray:
    """Predicted property values in natural units, one row per spectrum,
    columns ordered as PROPERTY_NAMES. A row does not depend on the
    other spectra in the list."""
    if weights.head is None:
        raise ConfigError("weights carry no property head; train with mode=properties")
    embs = encode_many(
        spectra, cfg, weights, sin_cfg=sin_cfg, vocab=vocab, precision=precision
    )
    # Each row passes through the head as a (1, d) matrix, as a lone
    # spectrum would; an (n, d) matmul may round differently.
    with no_grad():
        scaled = feed_forward(Tensor(embs[:, None, :]), weights.head)
    return scaler.invert(scaled.data[:, 0, :])


def predict_baseline(
    spectra: list[Spectrum],
    params: BaselineParams,
    scaler: LabelScaler,
    bin_width: float = 0.1,
    bin_max_mz: float = 2000.0,
) -> np.ndarray:
    """Baseline property predictions in natural units from binned spectra."""
    x = np.stack([bin_spectrum(s, bin_width, bin_max_mz) for s in spectra], axis=0)
    with no_grad():
        scaled = baseline_forward(Tensor(x), params)
    return scaler.invert(scaled.data)


@dataclass
class PropertyReport:
    """Per-property R-squared on known/novel splits plus the averaged row."""

    rows: list[tuple[str, float, float]]  # (property, known R2, novel R2); nan = split absent
    evaluation_unit: str = "per-spectrum"

    @property
    def average(self) -> tuple[float, float]:
        known = [r[1] for r in self.rows]
        novel = [r[2] for r in self.rows]
        return float(np.mean(known)), float(np.mean(novel))

    def serialize(self) -> str:
        lines = [
            f"# evaluation_unit={self.evaluation_unit}",
            "property\tknown_r2\tnovel_r2",
        ]
        avg_known, avg_novel = self.average
        lines.append(f"all\t{avg_known:.6f}\t{avg_novel:.6f}")
        for name, known, novel in self.rows:
            lines.append(f"{name}\t{known:.6f}\t{novel:.6f}")
        return "\n".join(lines) + "\n"


def _split_r2(
    predictions: np.ndarray | None, labels: np.ndarray | None
) -> list[float]:
    if predictions is None:
        return [float("nan")] * N_PROPERTIES
    return [
        r2_score(predictions[:, j], labels[:, j]) for j in range(N_PROPERTIES)
    ]


def evaluate_properties(
    eval_sets: dict[str, list[Spectrum]],
    molecules: dict[str, MoleculeRecord],
    predict_fn,
) -> PropertyReport:
    """Build the known/novel R-squared table from a prediction callable."""
    per_split: dict[str, list[float]] = {}
    for name in ("known", "novel"):
        spectra = eval_sets.get(name)
        if spectra:
            labels = spectrum_labels(spectra, molecules)
            preds = predict_fn(spectra)
            per_split[name] = _split_r2(preds, labels)
        else:
            per_split[name] = _split_r2(None, None)
    rows = [
        (PROPERTY_NAMES[j], per_split["known"][j], per_split["novel"][j])
        for j in range(N_PROPERTIES)
    ]
    return PropertyReport(rows=rows)


def train_properties(
    train_spectra: list[Spectrum],
    molecules: dict[str, MoleculeRecord],
    trn_cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    sin_cfg=None,
    vocab=None,
    precision: PrecisionMode = BINARY64,
    eval_sets: dict[str, list[Spectrum]] | None = None,
    baseline: bool = False,
    bin_width: float = 0.1,
    bin_max_mz: float = 2000.0,
):
    """Train the property model (or the binned baseline) and evaluate.

    Returns (weights_or_params, scaler, report, log). The loss is the
    joint MSE over all 10 standardized outputs; R-squared is reported
    per property on each evaluation split, per spectrum.
    """
    eval_sets = eval_sets or {}
    if not train_spectra:
        raise DataError("no training spectra")
    labels_raw = spectrum_labels(train_spectra, molecules)
    scaler = LabelScaler.fit(labels_raw)
    labels_scaled = scaler.apply(labels_raw)

    enc_cfg = dc_replace(enc_cfg, dropout=trn_cfg.dropout)

    if baseline:
        binned = np.stack(
            [bin_spectrum(s, bin_width, bin_max_mz) for s in train_spectra], axis=0
        )
        model = init_baseline(binned.shape[1], enc_cfg.d, trn_cfg.seed)
        params = model.named()

        def forward(indices, training, rng):
            return baseline_forward(Tensor(binned[indices]), model)

        def predict_fn(spectra):
            return predict_baseline(spectra, model, scaler, bin_width, bin_max_mz)

    else:
        model = init_weights(
            enc_cfg, seed=trn_cfg.seed, vocab=vocab, head_out=N_PROPERTIES
        )
        params = model.trainable()

        def forward(indices, training, rng):
            chunk = [train_spectra[i] for i in indices]
            embs = encode_batch(
                chunk, enc_cfg, model, sin_cfg=sin_cfg, vocab=vocab,
                mode="train" if training else "infer", precision=precision, rng=rng,
            )
            return feed_forward(embs, model.head)

        def predict_fn(spectra):
            return predict_properties_batch(
                spectra, enc_cfg, model, scaler, sin_cfg=sin_cfg, vocab=vocab,
                precision=precision,
            )

    adam = make_optimizer(params, trn_cfg)
    log = TrainLog(
        columns=("epoch", "train_mse", "wall_time_s"),
        meta={
            "mode": "properties-baseline" if baseline else "properties",
            "seed": str(trn_cfg.seed),
        },
    )

    n = len(train_spectra)
    for epoch in range(trn_cfg.epochs):
        started = time.perf_counter()
        order = stream_rng(trn_cfg.seed, "data", epoch).permutation(n)
        dropout_rng = stream_rng(trn_cfg.seed, "dropout", epoch)
        epoch_loss = 0.0
        for start in range(0, n, trn_cfg.batch_size):
            indices = order[start : start + trn_cfg.batch_size]
            pred = forward(indices, True, dropout_rng)
            target = Tensor(labels_scaled[indices])
            diff = pred - target
            loss = (diff * diff).mean(axis=-1).mean()
            apply_step(
                loss, params, adam, trn_cfg.clip,
                where=f"epoch {epoch}, step {start // trn_cfg.batch_size}",
            )
            epoch_loss += float(loss.data) * len(indices)
        log.append(epoch, epoch_loss / n, round(time.perf_counter() - started, 3))

    report = evaluate_properties(eval_sets, molecules, predict_fn)
    return model, scaler, report, log
