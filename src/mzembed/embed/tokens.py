"""Tokenized m/z: round to a fixed resolution and index an embedding table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError, NumericsError


@dataclass(frozen=True)
class TokenVocab:
    """Vocabulary over 0..max_mz at fixed resolution plus one unknown slot.

    Token k stands for m/z rounding to k * resolution; values rounding
    above max_mz map to the unknown slot. The embedding table itself
    lives with the model weights (it must be trained and checkpointed);
    this type only fixes the indexing contract.
    """

    resolution: float = 0.1
    max_mz: float = 2000.0

    def __post_init__(self):
        # Written so that nan fails each comparison and is refused.
        if not 0 < self.resolution < np.inf:
            raise ConfigError(f"resolution must be positive and finite, got {self.resolution}")
        if not self.resolution < self.max_mz < np.inf:
            raise ConfigError(
                f"max_mz must be finite and exceed the resolution, got {self.max_mz}"
            )

    @property
    def n_mz_tokens(self) -> int:
        return int(round(self.max_mz / self.resolution)) + 1

    @property
    def unknown_id(self) -> int:
        return self.n_mz_tokens

    @property
    def size(self) -> int:
        return self.n_mz_tokens + 1


def tokenize_mz(mz, vocab: TokenVocab):
    """Round m/z half-even to the vocabulary resolution and return token ids.

    Accepts a scalar (returns int) or array (returns int64 array).
    Finite values rounding above max_mz give the unknown token: they are
    clipped to its m/z before the integer cast, so no id wraps around.
    """
    arr = np.asarray(mz, dtype=np.float64)
    scalar = arr.shape == ()
    if np.any(arr < 0):
        raise DataError(f"m/z must be non-negative, got min {np.atleast_1d(arr).min()}")
    if not np.all(np.isfinite(arr)):
        raise NumericsError("m/z values must be finite")
    top = vocab.unknown_id * vocab.resolution
    ids = np.round(np.minimum(arr, top) / vocab.resolution).astype(np.int64)
    return int(ids) if scalar else np.atleast_1d(ids)
