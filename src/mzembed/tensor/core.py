"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays in binary32 or binary64. Each operation records
its parents and one backward function of its output node,
``backward(node)``, which reads ``node.grad`` and adds to the parents'
gradients. The function holds the parents and whatever arrays the
gradient needs, never the node itself, so graphs are acyclic: reference
counting frees a graph that is dropped without a walk.
``Tensor.backward`` calls the functions in reverse topological order and
consumes the graph as it goes: each node drops its function, its parents
and its own gradient once the function has run, so activations are
freed while the walk continues. Only leaf tensors keep a ``.grad``, and
a graph can be walked once; a second ``backward`` through it raises.
Tensors created with ``requires_grad=False`` never receive a gradient.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError, MzembedError

_ALLOWED_DTYPES = (np.float32, np.float64)

# Toggled by no_grad(); when False, no graph is recorded.
_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording for inference."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _consumed():
    """Marks a graph node whose backward ``Tensor.backward`` has run."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # -- autodiff ------------------------------------------------------

    def _accumulate(self, grad):
        if not self.requires_grad:
            return
        if self.grad is None:
            # A copy, because one array may be handed to several parents
            # (``__add__`` and ``__sub__`` pass ``out.grad`` on as is).
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Add the gradient of this scalar to the ``.grad`` of every
        requires_grad leaf it depends on, and consume the graph.

        Each interior node's ``_backward(node)`` runs once, after every
        node that uses it. Leaf gradients add up over calls until
        cleared. Interior nodes give up their backward functions, parents
        and gradients as the walk passes them, so the graph cannot be
        walked again: a second call through a consumed node raises
        ``MzembedError``.
        """
        if self.data.ndim != 0:
            raise MzembedError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                raise MzembedError(
                    "backward through a graph that an earlier backward() "
                    "already consumed; rebuild the graph to differentiate again"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            node._backward(node)
            node._backward = _consumed
            node._parents = ()
            node.grad = None

    # -- graph construction helper ------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        """A node holding ``data``; records ``parents`` and ``backward``
        when a parent requires a gradient and recording is on.

        ``backward(node)`` is called once by ``Tensor.backward`` with
        ``node.grad`` set. It must reach the node through its argument
        only, so that the node is not referenced from its own function.
        """
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- elementwise arithmetic ---------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        a, b = self, self._coerce(other)

        def bwd(out):
            a._accumulate(_unbroadcast(out.grad, a.data.shape))
            b._accumulate(_unbroadcast(out.grad, b.data.shape))

        return Tensor._make(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, self._coerce(other)

        def bwd(out):
            a._accumulate(_unbroadcast(out.grad, a.data.shape))
            b._accumulate(_unbroadcast(-out.grad, b.data.shape))

        return Tensor._make(a.data - b.data, (a, b), bwd)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        a = self

        def bwd(out):
            a._accumulate(-out.grad)

        return Tensor._make(-a.data, (a,), bwd)

    def __mul__(self, other):
        a, b = self, self._coerce(other)

        def bwd(out):
            a._accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
            b._accumulate(_unbroadcast(out.grad * a.data, b.data.shape))

        return Tensor._make(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, self._coerce(other)

        def bwd(out):
            a._accumulate(_unbroadcast(out.grad / b.data, a.data.shape))
            b._accumulate(
                _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape)
            )

        return Tensor._make(a.data / b.data, (a, b), bwd)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self

        def bwd(out):
            a._accumulate(out.grad * exponent * a.data ** (exponent - 1))

        return Tensor._make(a.data ** exponent, (a,), bwd)

    def sqrt(self):
        a = self

        def bwd(out):
            a._accumulate(out.grad * 0.5 / out.data)

        return Tensor._make(np.sqrt(a.data), (a,), bwd)

    def exp(self):
        a = self

        def bwd(out):
            a._accumulate(out.grad * out.data)

        return Tensor._make(np.exp(a.data), (a,), bwd)

    def log(self):
        a = self

        def bwd(out):
            a._accumulate(out.grad / a.data)

        return Tensor._make(np.log(a.data), (a,), bwd)

    # -- matrix product ------------------------------------------------

    def __matmul__(self, other):
        a, b = self, self._coerce(other)
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise DimensionError(
                f"matmul requires 2-d or batched operands: {a.data.shape} vs {b.data.shape}"
            )
        if a.data.shape[-1] != b.data.shape[-2]:
            raise DimensionError(
                f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}"
            )

        def bwd(out):
            g = out.grad
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

        return Tensor._make(a.data @ b.data, (a, b), bwd)

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def bwd(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation --------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self

        def bwd(out):
            a._accumulate(out.grad.reshape(a.data.shape))

        return Tensor._make(a.data.reshape(shape), (a,), bwd)

    def swapaxes(self, ax1, ax2):
        a = self

        def bwd(out):
            a._accumulate(np.swapaxes(out.grad, ax1, ax2))

        return Tensor._make(np.swapaxes(a.data, ax1, ax2), (a,), bwd)

    def __getitem__(self, key):
        a = self

        def bwd(out):
            g = np.zeros_like(a.data)
            np.add.at(g, key, out.grad)  # an index array may repeat an element
            a._accumulate(g)

        return Tensor._make(a.data[key], (a,), bwd)

    def astype(self, dtype):
        a = self

        def bwd(out):
            a._accumulate(out.grad.astype(a.data.dtype))

        return Tensor._make(a.data.astype(dtype), (a,), bwd)


def concat(tensors, axis=-1):
    """Concatenate tensors along an axis, splitting gradients back."""
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * out.grad.ndim
            index[axis if axis >= 0 else out.grad.ndim + axis] = slice(lo, hi)
            t._accumulate(out.grad[tuple(index)])

    return Tensor._make(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd
    )


def gather_rows(table, indices):
    """Row lookup ``table[indices]``; repeated indices accumulate their
    gradients, as in any ``Tensor`` indexing."""
    return table[np.asarray(indices)]
