"""Neural-network operations built on the autodiff core.

Composite operations (softmax, layer_norm, attention) are assembled
from primitives, so their gradients come out of the graph rather than
hand-derived formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DimensionError
from .core import Tensor, concat

LAYER_NORM_EPS = 1e-5


def relu(x: Tensor) -> Tensor:
    a = x
    mask = (a.data > 0).astype(a.data.dtype)

    def bwd(out):
        def run():
            a._accumulate(out.grad * mask)
        return run

    return Tensor._make(a.data * mask, (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``W x + b`` applied to the last axis of ``x``.

    ``w`` has shape (out, in); ``x`` may carry any leading batch axes.
    With batch axes this is one graph node whose backward flattens them,
    so the weight gradient is a single GEMM.
    """
    if x.shape[-1] != w.shape[-1]:
        raise DimensionError(
            f"linear: input shape {x.shape} does not match weight shape {w.shape}"
        )
    if x.ndim == 1:
        return w @ x + b

    def bwd(out):
        def run():
            g = out.grad
            g2 = g.reshape(-1, g.shape[-1])
            if x.requires_grad:
                x._accumulate(g @ w.data)
            if w.requires_grad:
                w._accumulate(g2.T @ x.data.reshape(-1, x.shape[-1]))
            if b.requires_grad:
                b._accumulate(g2.sum(0))
        return run

    return Tensor._make(x.data @ w.data.swapaxes(-1, -2) + b.data, (x, w, b), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``.

    The subtracted maximum is treated as a constant: softmax is shift
    invariant, so this leaves the gradient untouched.

    Rows must keep at least one finite entry along ``axis``: masking is
    done with -inf logits, and a fully masked row would divide zero by
    zero. Attention always leaves the precursor slot unmasked, so that
    case never arises there.
    """
    shift = np.max(x.data, axis=axis, keepdims=True)
    # -inf shifts only occur for fully masked rows; pin them so the
    # subtraction below stays defined.
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = (x - Tensor(shift)).exp()
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale."""
    if gain.shape[-1] != x.shape[-1] or bias.shape[-1] != x.shape[-1]:
        raise DimensionError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match {x.shape}"
        )
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Zero elements with probability ``p`` and rescale survivors.

    Identity when not training or p == 0.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("training-mode dropout requires an rng")
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype)
    return x * Tensor(keep * (1.0 / (1.0 - p)))


@dataclass
class FeedForwardParams:
    """Two-layer MLP: W2 relu(W1 x + b1) + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str):
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }


def feed_forward(x: Tensor, p: FeedForwardParams) -> Tensor:
    return linear(relu(linear(x, p.w1, p.b1)), p.w2, p.b2)


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    def named(self, prefix: str):
        return {
            f"{prefix}.{name}": getattr(self, name)
            for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        }


def _split_heads(x: Tensor, heads: int) -> Tensor:
    # (..., n, d) -> (..., heads, n, d/heads)
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(x: Tensor) -> Tensor:
    # (..., heads, n, dh) -> (..., n, heads*dh)
    *lead, h, n, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, n, h * dh)


def multi_head_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    params: AttentionParams,
    heads: int,
    key_mask: np.ndarray | None = None,
    attn_dropout: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Scaled dot-product attention over sets: no positional encoding.

    ``key_mask`` is a boolean array over key slots (True = attend);
    masked slots are excluded from the softmax normalization entirely.
    Inputs are (..., n, d); query may have a different slot count than
    key/value.
    """
    d = query.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model dimension {d} not divisible by {heads} heads")
    dh = d // heads

    q = _split_heads(linear(query, params.wq, params.bq), heads)
    k = _split_heads(linear(key, params.wk, params.bk), heads)
    v = _split_heads(linear(value, params.wv, params.bv), heads)

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
    if key_mask is not None:
        bias = np.where(key_mask, 0.0, -np.inf).astype(scores.data.dtype)
        # Broadcast over head and query axes: (..., 1, 1, n_k).
        scores = scores + Tensor(bias[..., None, None, :])
    probs = softmax(scores, axis=-1)
    if training and attn_dropout > 0.0:
        probs = dropout(probs, attn_dropout, training, rng)
    return linear(_merge_heads(probs @ v), params.wo, params.bo)


def cosine_similarity(a: Tensor, b: Tensor, min_norm: float = 1e-30):
    """Row-wise cosine similarity of (..., d) tensors, in-graph.

    Raises on (numerically) zero-norm inputs rather than dividing by 0.
    """
    from ..errors import NumericsError

    na = (a * a).sum(axis=-1)
    nb = (b * b).sum(axis=-1)
    if np.any(na.data < min_norm) or np.any(nb.data < min_norm):
        raise NumericsError("cosine similarity of a zero-norm embedding")
    return (a * b).sum(axis=-1) / (na.sqrt() * nb.sqrt())
