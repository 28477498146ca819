"""Shared training plumbing: config, step rule, epoch loop and the epoch log."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError
from .outputs import tsv
from .rng import stream_rng
from .tensor import Adam, Tensor, clip_gradients


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    Defaults follow the reference training recipe: Adam at 5e-5 with
    decoupled weight decay 0.1, global-norm gradient clipping at 0.5
    (dropout, 0.1, is a model setting on EncoderConfig). The recommended epoch range at full scale is 25 to 50;
    toy overfit runs legitimately exceed it, so only positivity is
    enforced here.
    """

    epochs: int = 50
    batch_size: int = 64
    lr: float = 5.0e-5
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.1
    clip: float = 0.5
    seed: int = 0
    pairs_per_epoch: int = 1024
    eval_pairs: int = 10_000

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        for name in ("batch_size", "pairs_per_epoch", "eval_pairs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        # Written so that nan fails every comparison and is refused.
        for name, ok, requirement in (
            ("lr", 0 < self.lr < np.inf, "positive and finite"),
            ("clip", 0 < self.clip < np.inf, "positive and finite"),
            ("beta1", 0 < self.beta1 < 1, "in (0, 1)"),
            ("beta2", 0 < self.beta2 < 1, "in (0, 1)"),
            ("weight_decay", 0 <= self.weight_decay < np.inf, "non-negative and finite"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {requirement}, got {getattr(self, name)}")


def make_optimizer(params: dict[str, Tensor], cfg: TrainConfig) -> Adam:
    return Adam(
        params,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        weight_decay=cfg.weight_decay,
    )


def apply_step(loss: Tensor, params: dict[str, Tensor], adam: Adam, clip: float, where: str) -> float:
    """Backward + clip + Adam update. Returns the pre-clip gradient norm.

    ``where`` names the training position (epoch/step) for the
    divergence diagnostic.
    """
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericsError(f"training diverged at {where}: loss is {value}")
    adam.zero_grad()
    loss.backward()
    names = list(params)
    grads = [
        params[n].grad if params[n].grad is not None else np.zeros_like(params[n].data)
        for n in names
    ]
    clipped, norm = clip_gradients(grads, clip)
    adam.step(dict(zip(names, clipped)))
    adam.zero_grad()
    return norm


def fit(cfg: TrainConfig, log: TrainLog, epoch_items, step, held_out=tuple) -> TrainLog:
    """Train for ``cfg.epochs`` epochs, appending one ``log`` row each.

    ``step(chunk, rng, where)`` trains on one ``batch_size`` chunk of
    ``epoch_items(epoch)`` and returns its mean loss; ``rng`` is the
    epoch's dropout stream and ``where`` names the step in a divergence
    error. A row holds the epoch, the item-weighted mean loss (nan for no
    items), the ``held_out()`` values and the epoch's wall time.
    """
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        items = epoch_items(epoch)
        rng = stream_rng(cfg.seed, "dropout", epoch)
        total = 0.0
        for index, start in enumerate(range(0, len(items), cfg.batch_size)):
            chunk = items[start : start + cfg.batch_size]
            total += step(chunk, rng, f"epoch {epoch}, step {index}") * len(chunk)
        mean = total / len(items) if len(items) else float("nan")
        log.append(epoch, mean, *held_out(), round(time.perf_counter() - started, 3))
    return log


@dataclass
class TrainLog:
    """Per-epoch metrics plus free-form header metadata.

    Serialized as '# key=value' comment lines, a TSV header, then one
    row per epoch. The wall-time column is honest clock time and is the
    one column exempt from byte-identical rerun comparisons.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ConfigError(
                f"log row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def serialize(self) -> str:
        return tsv(
            self.columns,
            [[_format_cell(v) for v in row] for row in self.rows],
            [f"{k}={v}" for k, v in sorted(self.meta.items())],
        )


def _format_cell(value) -> str:
    if isinstance(value, float):
        return np.format_float_positional(value, unique=True, trim="0")
    return str(value)
