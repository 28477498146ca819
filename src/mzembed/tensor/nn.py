"""Neural-network operations built on the autodiff core.

Every operation follows the core's protocol: each backward keeps
exactly what it reads; nodes hold no values. It hands ``Tensor._make``
one backward function of its output's gradient, which holds parent
nodes and the arrays its formula reads, never a tensor. The
memory-heavy composites are single graph nodes with hand-derived
backwards:

- ``attention``, ``dropout(softmax(q kᵀ · scale + mask bias)) @ v`` in
  one node, keeps ``q``, ``k``, ``v``, the key mask and the boolean
  dropout mask, and no probabilities: its backward recomputes them;
- ``softmax`` and the attention probabilities (``attention_probs``:
  scores, scale, key mask and softmax in one node) keep their output,
  and ``q`` and ``k`` each only if the other needs a gradient;
- ``layer_norm`` keeps the normalized input and the standard deviation,
  not its input;
- ``dropout`` keeps a boolean mask;
- ``relu`` keeps its output, which the ``linear`` after it keeps anyway,
  and no mask of its own;
- ``linear`` keeps ``x`` only if ``w`` needs a gradient, and ``w`` only
  if ``x`` does.

Their forwards are the same numpy expressions as the
primitive-by-primitive composites they replace, so inference outputs are
unchanged. The feed-forward block, the head split and merge and cosine
similarity are still assembled from primitives. Acceptance criterion 1
checks every one of these gradients against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError, DimensionError
from .core import Tensor, _nodes, _unbroadcast

LAYER_NORM_EPS = 1e-5
# cosine_similarity refuses an input whose squared norm is below this.
MIN_SQUARED_NORM = 1e-30


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)``; its backward reads only the output: ``y > 0``
    exactly where ``x > 0``, and a boolean factor multiplies as the
    0.0/1.0 mask it stands for."""
    (nx,) = _nodes(x)
    y = x.data * (x.data > 0)

    def bwd(g):
        nx.accumulate(g * (y > 0))

    return Tensor._make(y, (nx,), bwd)


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

    nx, nw, nb = _nodes(x, w, b)
    n_in = x.shape[-1]
    xd = x.data if nw else None
    wd = w.data if nx else None

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if nx:
            nx.accumulate(g @ wd)
        if nw:
            nw.accumulate(g2.T @ xd.reshape(-1, n_in))
        if nb:
            nb.accumulate(g2.sum(0))

    return Tensor._make(x.data @ w.data.swapaxes(-1, -2) + b.data, (nx, nw, nb), bwd)


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
    """Softmax backward from the output ``y`` alone: ``y * (g - sum(g * y))``.
    It overwrites ``g``: a backward owns the gradient it is handed."""
    g -= (g * y).sum(axis=axis, keepdims=True)
    g *= y
    return g


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
    (nx,) = _nodes(x)
    y = _softmax(x.data, axis)

    def bwd(g):
        nx.accumulate(_softmax_grad(y, g, axis))

    return Tensor._make(y, (nx,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (``LAYER_NORM_EPS``
    added to the variance), then scale.

    One graph node with parents ``(x, gain, bias)`` that keeps the
    normalized input and the standard deviation, and the gain if ``x``
    needs a gradient.
    """
    if gain.shape[-1] != x.shape[-1] or bias.shape[-1] != x.shape[-1]:
        raise DimensionError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match {x.shape}"
        )
    xd = x.data
    inv_n = np.asarray(1.0 / xd.shape[-1], dtype=xd.dtype)
    centered = xd - xd.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    sigma = np.sqrt(var + np.asarray(LAYER_NORM_EPS, dtype=var.dtype))
    xhat = centered / sigma
    nx, ng, nb = _nodes(x, gain, bias)
    sg, sb = gain.data.shape, bias.data.shape
    gd = gain.data if nx else None

    def bwd(g):
        if ng:
            ng.accumulate(_unbroadcast(g * xhat, sg))
        if nb:
            nb.accumulate(_unbroadcast(g, sb))
        if nx:
            gx = g * gd
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            gx /= sigma
            nx.accumulate(gx)

    return Tensor._make(xhat * gain.data + bias.data, (nx, ng, nb), bwd)


def _keep_factor(keep: np.ndarray, p: float, dtype) -> np.ndarray:
    """Dropout's multiplier: ``1 / (1 - p)`` where ``keep``, else 0."""
    factor = keep.astype(dtype)
    factor *= 1.0 / (1.0 - p)
    return factor


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
    dtype = x.data.dtype
    (nx,) = _nodes(x)

    def bwd(g):
        nx.accumulate(g * _keep_factor(keep, p, dtype))

    return Tensor._make(x.data * _keep_factor(keep, p, dtype), (nx,), bwd)


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


def _attention_weights(qd: np.ndarray, kd: np.ndarray, key_mask=None):
    """``softmax(q kᵀ / sqrt(dh) + mask bias)`` over the key axis, and the
    scale, as arrays: the one computation of attention probabilities, for
    both attention nodes' forwards and ``attention``'s recompute."""
    s = qd @ np.swapaxes(kd, -1, -2)
    # Cast the scale, so float32 scores stay float32.
    scale = np.asarray(1.0 / np.sqrt(qd.shape[-1]), dtype=s.dtype)
    s *= scale
    if key_mask is not None:
        s += np.where(key_mask, 0.0, -np.inf).astype(s.dtype)[..., None, None, :]
    return _softmax(s, -1, out=s), scale


def _attention_probs_grad(y, g, scale, qd, kd, nq, nk, sq, sk):
    """Add the gradients of ``q`` and ``k`` from ``g``, the gradient of
    the probabilities ``y``: ``gs = y * (g - sum(g * y)) * scale``,
    ``dq = gs @ k`` and ``dk = gsᵀ @ q``."""
    gs = _softmax_grad(y, g, -1)
    gs *= scale
    if nq:
        nq.accumulate(_unbroadcast(gs @ kd, sq))
    if nk:
        nk.accumulate(_unbroadcast(np.swapaxes(gs, -1, -2) @ qd, sk))


def attention_probs(q: Tensor, k: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q kᵀ / sqrt(dh) + mask bias)`` over the key axis, one node.

    ``q`` and ``k`` are (..., n, dh); ``key_mask`` is a boolean array
    over key slots (True = attend) that broadcasts over the head and
    query axes. The node keeps its output ``y``, ``k`` if ``q`` needs a
    gradient and ``q`` if ``k`` does. Attention itself is the one node
    ``attention``; this node is its reference composite's first step.
    """
    nq, nk = _nodes(q, k)
    sq, sk = q.data.shape, k.data.shape
    qd = q.data if nk else None
    kd = k.data if nq else None
    y, scale = _attention_weights(q.data, k.data, key_mask)

    def bwd(g):
        _attention_probs_grad(y, g, scale, qd, kd, nq, nk, sq, sk)

    return Tensor._make(y, (nq, nk), bwd)


def attention(
    q: Tensor, k: Tensor, v: Tensor, p: float = 0.0, keep=None, key_mask=None
) -> Tensor:
    """``dropout(softmax(q kᵀ / sqrt(dh) + mask bias)) @ v`` as one graph
    node that keeps no probabilities.

    ``q`` is (..., n_query, dh), ``k`` and ``v`` (..., n, dh); ``key_mask``
    is as in ``attention_probs``. With ``keep``, a boolean mask of the
    probabilities' shape (True = keep), they go through dropout at rate
    ``p``, as in ``dropout``.

    The node keeps ``q``, ``k``, ``key_mask``, ``keep`` and, if ``q`` or
    ``k`` needs a gradient, ``v``; not the n_query × n probabilities. Its
    backward recomputes the probabilities with the forward's own
    expressions, which give the forward's bits, then applies the
    backwards of ``probs @ v``, dropout and ``attention_probs`` in that
    order. This is FlashAttention's recompute (Dao et al. 2022,
    arXiv:2205.14135) without its tiling.
    """
    if keep is not None:
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
        if p == 0.0:
            keep = None
    nq, nk, nv = _nodes(q, k, v)
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    qd, kd = q.data, k.data
    vd = v.data if nq or nk else None
    y, _ = _attention_weights(qd, kd, key_mask)
    if keep is not None:
        if keep.shape != y.shape:
            raise DimensionError(f"dropout: keep mask {keep.shape} does not match {y.shape}")
        y *= _keep_factor(keep, p, y.dtype)

    def bwd(g):
        y, scale = _attention_weights(qd, kd, key_mask)
        factor = None if keep is None else _keep_factor(keep, p, y.dtype)
        if nv:
            dropped = y if factor is None else y * factor
            nv.accumulate(_unbroadcast(np.swapaxes(dropped, -1, -2) @ g, sv))
            del dropped
        if nq or nk:
            gp = g @ np.swapaxes(vd, -1, -2)
            if factor is not None:
                gp *= factor
            # Freed before the softmax backward's temporaries are made.
            del factor
            _attention_probs_grad(y, gp, scale, qd, kd, nq, nk, sq, sk)

    return Tensor._make(y @ v.data, (nq, nk, nv), bwd)


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
    The attention is one ``attention`` node.
    """
    d = query.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model dimension {d} not divisible by {heads} heads")

    q = _split_heads(linear(query, params.wq, params.bq), heads)
    k = _split_heads(linear(key, params.wk, params.bk), heads)
    v = _split_heads(linear(value, params.wv, params.bv), heads)

    out = attention(q, k, v, attn_dropout, keep, key_mask)
    return linear(_merge_heads(out), params.wo, params.bo)


def cosine_similarity(a: Tensor, b: Tensor):
    """Row-wise cosine similarity of (..., d) tensors, in-graph.

    Raises on (numerically) zero-norm inputs, a squared norm below
    ``MIN_SQUARED_NORM``, rather than dividing by 0.
    """
    from ..errors import NumericsError

    na = (a * a).sum(axis=-1)
    nb = (b * b).sum(axis=-1)
    if np.any(na.data < MIN_SQUARED_NORM) or np.any(nb.data < MIN_SQUARED_NORM):
        raise NumericsError("cosine similarity of a zero-norm embedding")
    return (a * b).sum(axis=-1) / (na.sqrt() * nb.sqrt())
