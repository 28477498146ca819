"""Neural-network operations built on the autodiff core.

Every node follows the core's protocol: it hands ``Tensor._make`` one
backward function of its output node, which holds the parents and the
arrays the gradient needs but never the node itself. The memory-heavy
composites are single graph nodes with hand-derived backwards, each
keeping only what its gradient needs: ``softmax`` and
the attention probabilities (``attention_probs``: scores, scale, key
mask and softmax in one node) keep their output, ``layer_norm`` keeps
the normalized input and the standard deviation, ``dropout`` keeps a
boolean mask, and ``linear`` keeps its operands. Their forwards are the
same numpy expressions as the primitive-by-primitive composites they
replace, so inference outputs are unchanged. The feed-forward block,
the head split and merge and cosine similarity are still assembled
from primitives. Acceptance criterion 1 checks every one of these
gradients against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError, DimensionError
from .core import Tensor, _unbroadcast, concat

LAYER_NORM_EPS = 1e-5


def relu(x: Tensor) -> Tensor:
    a = x
    mask = (a.data > 0).astype(a.data.dtype)

    def bwd(out):
        a._accumulate(out.grad * mask)

    return Tensor._make(a.data * mask, (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``W x + b`` applied to the last axis of ``x``.

    ``w`` has shape (out, in) and ``b`` shape (out,). ``x`` has shape
    (..., in) of any rank from 1 up: a single vector, a (rows, in)
    matrix, or a matrix under more leading batch axes. The result has
    shape (..., out). This is one graph node whose backward flattens the
    leading axes, so the weight gradient is a single GEMM.
    """
    if x.shape[-1] != w.shape[-1]:
        raise DimensionError(
            f"linear: input shape {x.shape} does not match weight shape {w.shape}"
        )

    def bwd(out):
        g = out.grad
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(g2.T @ x.data.reshape(-1, x.shape[-1]))
        if b.requires_grad:
            b._accumulate(g2.sum(0))

    return Tensor._make(x.data @ w.data.swapaxes(-1, -2) + b.data, (x, w, b), bwd)


def _softmax(s: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(s - shift) / sum`` along ``axis``; ``out=s`` works in place."""
    shift = np.max(s, axis=axis, keepdims=True)
    # -inf shifts only occur for fully masked rows; pin them so the
    # subtraction below stays defined.
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = np.subtract(s, shift, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Softmax backward from the output ``y`` alone: ``y * (g - sum(g * y))``."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``.

    One graph node that keeps only its output: the backward is
    ``y * (g - sum(g * y))``. Subtracting the row maximum leaves the
    value and the gradient untouched, since softmax is shift invariant.

    Rows must keep at least one finite entry along ``axis``: masking is
    done with -inf logits, and a fully masked row would divide zero by
    zero. Attention always leaves the precursor slot unmasked, so that
    case never arises there.
    """
    def bwd(out):
        x._accumulate(_softmax_grad(out.data, out.grad, axis))

    return Tensor._make(_softmax(x.data, axis), (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale.

    One graph node with parents ``(x, gain, bias)`` that keeps the
    normalized input and the standard deviation.
    """
    if gain.shape[-1] != x.shape[-1] or bias.shape[-1] != x.shape[-1]:
        raise DimensionError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match {x.shape}"
        )
    xd = x.data
    inv_n = np.asarray(1.0 / xd.shape[-1], dtype=xd.dtype)
    centered = xd - xd.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    sigma = np.sqrt(var + np.asarray(eps, dtype=var.dtype))
    xhat = centered / sigma

    def bwd(out):
        g = out.grad
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            gx /= sigma
            x._accumulate(gx)

    return Tensor._make(xhat * gain.data + bias.data, (x, gain, bias), bwd)


def dropout(x: Tensor, p: float, training: bool, rng=None, keep=None) -> Tensor:
    """Zero elements with probability ``p`` and rescale survivors.

    Identity when not training or p == 0. Otherwise one graph node that
    keeps a boolean mask: ``keep`` if given (True = keep, the shape of
    ``x``), else ``rng.random(x.shape) >= p`` from the numpy Generator.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if keep is None:
        if rng is None:
            raise ConfigError("training-mode dropout requires an rng or a keep mask")
        keep = rng.random(x.shape) >= p
    elif keep.shape != x.shape:
        raise DimensionError(f"dropout: keep mask {keep.shape} does not match {x.shape}")
    scale = 1.0 / (1.0 - p)
    dtype = x.data.dtype

    def bwd(out):
        x._accumulate(out.grad * (keep.astype(dtype) * scale))

    return Tensor._make(x.data * (keep.astype(dtype) * scale), (x,), bwd)


class _TableView:
    @classmethod
    def of(cls, table: dict[str, Tensor], prefix: str):
        """A view of a model's name -> Tensor table: each field is the
        table's ``<prefix>.<field>`` tensor itself."""
        return cls(*(table[f"{prefix}.{f.name}"] for f in fields(cls)))


@dataclass
class FeedForwardParams(_TableView):
    """Two-layer MLP: W2 relu(W1 x + b1) + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def feed_forward(x: Tensor, p: FeedForwardParams) -> Tensor:
    return linear(relu(linear(x, p.w1, p.b1)), p.w2, p.b2)


@dataclass
class AttentionParams(_TableView):
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def _split_heads(x: Tensor, heads: int) -> Tensor:
    # (..., n, d) -> (..., heads, n, d/heads)
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(x: Tensor) -> Tensor:
    # (..., heads, n, dh) -> (..., n, heads*dh)
    *lead, h, n, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, n, h * dh)


def attention_probs(q: Tensor, k: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q kᵀ / sqrt(dh) + mask bias)`` over the key axis, one node.

    ``q`` and ``k`` are (..., n, dh); ``key_mask`` is a boolean array
    over key slots (True = attend) that broadcasts over the head and
    query axes. The node keeps only its output ``y``; its backward is
    ``gs = y * (g - sum(g * y)) * scale``, ``dq = gs @ k`` and
    ``dk = gsᵀ @ q``.
    """
    s = q.data @ np.swapaxes(k.data, -1, -2)
    # Cast the scale, so float32 scores stay float32.
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=s.dtype)
    s *= scale
    if key_mask is not None:
        s += np.where(key_mask, 0.0, -np.inf).astype(s.dtype)[..., None, None, :]

    def bwd(out):
        gs = _softmax_grad(out.data, out.grad, -1)
        gs *= scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(gs @ k.data, q.data.shape))
        if k.requires_grad:
            k._accumulate(_unbroadcast(np.swapaxes(gs, -1, -2) @ q.data, k.data.shape))

    return Tensor._make(_softmax(s, -1, out=s), (q, k), bwd)


def multi_head_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    params: AttentionParams,
    heads: int,
    key_mask: np.ndarray | None = None,
    attn_dropout: float = 0.0,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Scaled dot-product attention over sets: no positional encoding.

    ``key_mask`` is a boolean array over key slots (True = attend);
    masked slots are excluded from the softmax normalization entirely.
    Inputs are (..., n, d); query may have a different slot count than
    key/value. With ``keep``, a boolean (..., heads, n_query, n_key) mask,
    the probabilities go through dropout at rate ``attn_dropout``.
    """
    d = query.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model dimension {d} not divisible by {heads} heads")

    q = _split_heads(linear(query, params.wq, params.bq), heads)
    k = _split_heads(linear(key, params.wk, params.bk), heads)
    v = _split_heads(linear(value, params.wv, params.bv), heads)

    probs = attention_probs(q, k, key_mask)
    if keep is not None:
        probs = dropout(probs, attn_dropout, True, keep=keep)
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
