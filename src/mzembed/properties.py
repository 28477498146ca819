"""Property regression from spectrum embeddings, plus the binned baseline.

The head is one feed-forward block (hidden width d, output 10) on top of
the encoder: the last entries of the encoder's parameter table, read
through a ``FeedForwardParams`` view. The baseline is a feed-forward
network over binned spectra with a table of its own
(``baseline_shapes``); the encoder module's one init, load and inference
copy serve it too. Labels are standardized to zero mean and unit
variance on the training split; predictions pass through the inverse
scaler before any reporting, so R-squared is always computed in natural
units. A property checkpoint stores the scaler as the last two records
of its layout (``SCALER_SHAPES``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data.labels import PROPERTY_NAMES
from .data.types import MoleculeRecord, Spectrum
from .embed.features import bin_count, bin_spectra
from .encoder import (
    EncoderConfig,
    ModelWeights,
    encode_batch,
    encode_many,
    init_table,
    init_weights,
)
from .errors import ConfigError, DataError, NumericsError
from .outputs import tsv
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
# The label scaler's checkpoint records, which end a property model's layout.
SCALER_SHAPES = {"scaler.mean": (N_PROPERTIES,), "scaler.std": (N_PROPERTIES,)}


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

    def records(self) -> dict[str, np.ndarray]:
        """This scaler's checkpoint records, binary32."""
        return {n: v.astype(np.float32) for n, v in zip(SCALER_SHAPES, (self.mean, self.std))}

    @classmethod
    def split(cls, weights: ModelWeights) -> tuple[ModelWeights, LabelScaler]:
        """A loaded property model's table without its scaler records, and
        the scaler they hold, in binary64."""
        table = dict(weights.named())
        mean, std = (table.pop(name).data.astype(np.float64) for name in SCALER_SHAPES)
        return ModelWeights(table), cls(mean=mean, std=std)


def r2_score(predicted, actual) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot. Undefined, and
    refused, for fewer than 2 points or equal actual values."""
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    if predicted.shape != actual.shape:
        raise ConfigError(
            f"length mismatch: {predicted.shape[0]} predictions, {actual.shape[0]} actuals"
        )
    if actual.shape[0] < 2:
        raise DataError("R-squared needs at least 2 points")
    # Equal values can leave a rounding residue in SS_tot, so compare them.
    if np.ptp(actual) == 0.0:
        raise NumericsError("R-squared undefined: actual values are constant")
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
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


def baseline_forward(x: Tensor, params: ModelWeights) -> Tensor:
    t = params.named()
    h = relu(feed_forward(x, FeedForwardParams.of(t, "baseline")))
    return linear(h, t["baseline.w3"], t["baseline.b3"])


def spectrum_labels(
    spectra: list[Spectrum], molecules: dict[str, MoleculeRecord]
) -> np.ndarray:
    """Per-spectrum label rows; every spectrum must resolve to a molecule."""
    rows = []
    for s in spectra:
        if s.structure_id not in molecules:
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
    """Baseline property predictions in natural units from binned spectra.

    The call's spectra pass through the network as one matrix, and a
    matmul's rounding depends on its row count, so a row can change in
    the last bits with the other spectra in the list.
    """
    with no_grad():
        scaled = baseline_forward(Tensor(bin_spectra(spectra, bin_width, bin_max_mz)), params)
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

    rows: list[tuple[str, float, float]]  # (property, known R2, novel R2); nan = undefined

    @property
    def average(self) -> tuple[float, float]:
        known = [r[1] for r in self.rows]
        novel = [r[2] for r in self.rows]
        return float(np.mean(known)), float(np.mean(novel))

    def serialize(self) -> str:
        rows = [("all", *self.average), *self.rows]
        return tsv(
            ("property", "known_r2", "novel_r2"),
            [(name, f"{known:.6f}", f"{novel:.6f}") for name, known, novel in rows],
            ["evaluation_unit=per-spectrum"],
        )


def evaluate_properties(
    eval_sets: dict[str, list[Spectrum]],
    molecules: dict[str, MoleculeRecord],
    predict_fn,
) -> PropertyReport:
    """Build the known/novel R-squared table from a prediction callable.
    A cell is nan where R-squared is undefined: the split is absent or
    has fewer than 2 spectra, or the property's values in it are equal."""
    nan = float("nan")
    per_split = dict.fromkeys(("known", "novel"), [nan] * N_PROPERTIES)
    for name in per_split:
        if len(eval_sets.get(name, ())) >= 2:
            labels = spectrum_labels(eval_sets[name], molecules)
            preds = predict_fn(eval_sets[name])
            per_split[name] = [
                r2_score(preds[:, j], labels[:, j]) if np.ptp(labels[:, j]) else nan
                for j in range(N_PROPERTIES)
            ]
    return PropertyReport(rows=list(zip(PROPERTY_NAMES, per_split["known"], per_split["novel"])))


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
        # Each step bins its own spectra: no binned row is kept per
        # training spectrum.
        shapes = baseline_shapes(bin_count(bin_width, bin_max_mz), enc_cfg.d)
        model = init_table(shapes, trn_cfg.seed)

        def forward(chunk, rng):
            return baseline_forward(Tensor(bin_spectra(chunk, bin_width, bin_max_mz)), model)

    else:
        model = init_weights(enc_cfg, seed=trn_cfg.seed, head_out=N_PROPERTIES)
        head = FeedForwardParams.of(model.named(), "head")

        def forward(chunk, rng):
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
        chunk = [train_spectra[i] for i in indices]
        diff = forward(chunk, rng) - Tensor(labels_scaled[indices])
        loss = (diff * diff).mean(axis=-1).mean()
        apply_step(loss, params, adam, trn_cfg.clip, where=where)
        return float(loss.data)

    fit(trn_cfg, log, epoch_order, step)
    predict_fn = property_predictor(model, scaler, enc_cfg, bin_width, bin_max_mz)
    report = evaluate_properties(eval_sets, molecules, predict_fn)
    return model, scaler, report, log
