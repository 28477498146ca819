"""Property regression from spectrum embeddings, plus the binned baseline.

The head is one feed-forward block (hidden width d, output 10) on top of
the encoder: the last entries of the encoder's parameter table, read
through a ``FeedForwardParams`` view. The baseline is a feed-forward
network over binned spectra with a table of its own
(``baseline_shapes``); the encoder module's one init, load and inference
copy serve it too. Labels are standardized to zero mean and unit
variance on the training split; predictions pass through the inverse
scaler before any reporting, so R-squared is always computed in natural
units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data.labels import PROPERTY_NAMES
from .data.types import MoleculeRecord, Spectrum
from .embed.features import bin_spectrum
from .encoder import (
    EncoderConfig,
    ModelWeights,
    encode_batch,
    encode_many,
    init_table,
    init_weights,
)
from .errors import ConfigError, DataError, NumericsError
from .rng import stream_rng
from .tensor import (
    FeedForwardParams,
    Tensor,
    feed_forward,
    linear,
    no_grad,
    relu,
)
from .training import TrainConfig, TrainLog, apply_step, fit, make_optimizer

N_PROPERTIES = len(PROPERTY_NAMES)
DEFAULT_BIN_WIDTH = 0.1  # m/z bin width of the baseline's binned spectra


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


def baseline_shapes(n_bins: int, d: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every baseline parameter, in table order: a
    feed-forward network over ``n_bins`` bins with two hidden layers of
    width 2d."""
    width = 2 * d
    return {
        "baseline.w1": (width, n_bins),
        "baseline.b1": (width,),
        "baseline.w2": (width, width),
        "baseline.b2": (width,),
        "baseline.w3": (N_PROPERTIES, width),
        "baseline.b3": (N_PROPERTIES,),
    }


def init_baseline(n_bins: int, d: int, seed: int) -> ModelWeights:
    """Fresh baseline weights (see ``encoder.init_table``)."""
    return init_table(baseline_shapes(n_bins, d), seed)


def baseline_forward(x: Tensor, params: ModelWeights) -> Tensor:
    t = params.named()
    h = relu(linear(x, t["baseline.w1"], t["baseline.b1"]))
    h = relu(linear(h, t["baseline.w2"], t["baseline.b2"]))
    return linear(h, t["baseline.w3"], t["baseline.b3"])


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
) -> np.ndarray:
    """Predicted property values in natural units, one row per spectrum,
    columns ordered as PROPERTY_NAMES. A row does not depend on the
    other spectra in the list."""
    if "head.w1" not in weights.named():
        raise ConfigError("weights carry no property head; train with mode=properties")
    embs = encode_many(spectra, cfg, weights)
    # Each row passes through the head as a (1, d) matrix, as a lone
    # spectrum would; an (n, d) matmul may round differently.
    head = FeedForwardParams.of(weights.named(), "head")
    with no_grad():
        scaled = feed_forward(Tensor(embs[:, None, :]), head)
    return scaler.invert(scaled.data[:, 0, :])


def predict_baseline(
    spectra: list[Spectrum],
    params: ModelWeights,
    scaler: LabelScaler,
    bin_width: float = DEFAULT_BIN_WIDTH,
    bin_max_mz: float = 2000.0,
) -> np.ndarray:
    """Baseline property predictions in natural units from binned spectra."""
    x = np.stack([bin_spectrum(s, bin_width, bin_max_mz) for s in spectra], axis=0)
    with no_grad():
        scaled = baseline_forward(Tensor(x), params)
    return scaler.invert(scaled.data)


def property_predictor(model, scaler: LabelScaler, cfg: EncoderConfig, bin_width: float, bin_max_mz: float):
    """The natural-unit prediction callable of a trained or loaded model:
    the binned baseline's forward pass if its table is the baseline's,
    else the encoder and its head."""
    if "baseline.w1" in model.named():
        return lambda spectra: predict_baseline(spectra, model, scaler, bin_width, bin_max_mz)
    return lambda spectra: predict_properties_batch(spectra, cfg, model, scaler)


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
    eval_sets: dict[str, list[Spectrum]] | None = None,
    baseline: bool = False,
    bin_width: float = DEFAULT_BIN_WIDTH,
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

    if baseline:
        binned = np.stack(
            [bin_spectrum(s, bin_width, bin_max_mz) for s in train_spectra], axis=0
        )
        model = init_baseline(binned.shape[1], enc_cfg.d, trn_cfg.seed)

        def forward(indices, rng):
            return baseline_forward(Tensor(binned[indices]), model)

    else:
        model = init_weights(enc_cfg, seed=trn_cfg.seed, head_out=N_PROPERTIES)
        head = FeedForwardParams.of(model.named(), "head")

        def forward(indices, rng):
            chunk = [train_spectra[i] for i in indices]
            embs = encode_batch(chunk, enc_cfg, model, mode="train", rng=rng)
            return feed_forward(embs, head)

    params = model.named()
    adam = make_optimizer(params, trn_cfg)
    log = TrainLog(
        columns=("epoch", "train_mse", "wall_time_s"),
        meta={
            "mode": "properties-baseline" if baseline else "properties",
            "seed": str(trn_cfg.seed),
        },
    )

    def epoch_order(epoch):
        return stream_rng(trn_cfg.seed, "data", epoch).permutation(len(train_spectra))

    def step(indices, rng, where):
        diff = forward(indices, rng) - Tensor(labels_scaled[indices])
        loss = (diff * diff).mean(axis=-1).mean()
        apply_step(loss, params, adam, trn_cfg.clip, where=where)
        return float(loss.data)

    fit(trn_cfg, log, epoch_order, step)
    predict_fn = property_predictor(model, scaler, enc_cfg, bin_width, bin_max_mz)
    report = evaluate_properties(eval_sets, molecules, predict_fn)
    return model, scaler, report, log
