"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` is a value, ``data``, a numpy array in binary32 or binary64,
and an optional graph ``Node``, the gradient side: parent nodes, one
backward function and ``grad``. A tensor created with
``requires_grad=True`` is a leaf and owns a parentless node. An
operation on tensors that have nodes, with recording on, gives its
output a node whose parents are theirs; constants, and everything
computed from constants alone or under ``no_grad``, have none.

Each backward keeps exactly what it reads; nodes hold no values. An
operation's backward function, ``backward(g)``, takes the gradient of
its output and adds to its parents' nodes. It holds parent nodes,
shapes, dtypes and the arrays its formula reads, taken at forward time,
and never a ``Tensor``: ``x * y`` keeps ``y`` only if ``x`` needs a
gradient, ``x + y`` keeps no array at all. So an intermediate whose
value no backward reads is freed as soon as the forward drops it, while
its node stays in the graph. Graphs are acyclic: reference counting
frees a graph that is dropped without a walk.

``backward_walk`` calls the functions in reverse topological order and
consumes the graph as it goes: each node drops its function, its parents
and its own gradient once the function has run, so the arrays the
function held are freed while the walk continues. A graph is therefore
largest when its forward ends, unless a backward function builds part of
it anew: the encoder's recording forward keeps one slot-count group's
graph and recomputes the others' one at a time in the backward (see
``encoder.encode_batch``). Only leaves keep a ``.grad``, and a graph can
be walked once; a second ``backward`` through it raises.

Recording is a per-thread mode: ``no_grad`` and ``set_grad_enabled``
change it for the calling thread only.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import DimensionError, MzembedError

_ALLOWED_DTYPES = (np.float32, np.float64)


class _GradMode(threading.local):
    # Each thread starts out recording; set_grad_enabled changes its own copy.
    enabled = True


_mode = _GradMode()


def grad_enabled() -> bool:
    """Whether operations on the calling thread record a graph."""
    return _mode.enabled


class set_grad_enabled:
    """Context manager that turns graph recording on the calling thread
    on or off, and restores the previous mode on exit."""

    def __init__(self, enabled: bool):
        self._enabled = enabled

    def __enter__(self):
        self._prev, _mode.enabled = _mode.enabled, self._enabled
        return self

    def __exit__(self, *exc):
        _mode.enabled = self._prev
        return False


class no_grad(set_grad_enabled):
    """Context manager that disables graph recording on the calling
    thread, for inference."""

    def __init__(self):
        super().__init__(False)


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


def _consumed(g):
    """Marks a graph node whose backward ``backward_walk`` has run."""


class Node:
    """The gradient side of a tensor: its parents' nodes, the backward
    function of its gradient (None for a leaf) and ``grad``, the gradient
    added so far, in ``dtype``."""

    __slots__ = ("parents", "backward", "grad", "dtype")

    def __init__(self, dtype, parents=(), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None
        self.dtype = dtype

    def accumulate(self, grad):
        if self.grad is None:
            # A copy, because one array may be handed to several parents
            # (``__add__`` and ``__sub__`` pass the gradient on as is).
            self.grad = np.array(grad, dtype=self.dtype)
        else:
            self.grad += grad


def _nodes(*tensors):
    """The tensors' nodes, one per tensor (None for a constant); all None
    while recording is off on the calling thread."""
    if not _mode.enabled:
        return (None,) * len(tensors)
    return tuple(t._node for t in tensors)


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self._node = Node(arr.dtype) if requires_grad else None

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

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise MzembedError("cannot set the gradient of a tensor that requires none")

    def item(self):
        return self.data.item()

    def __repr__(self):
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # -- autodiff ------------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Add the gradient of this scalar to the ``.grad`` of every
        requires_grad leaf it depends on, and consume the graph (see
        ``backward_walk``).

        Raises ``MzembedError`` for a loss that recorded no graph.
        """
        if self.data.ndim != 0:
            raise MzembedError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if self._node is None:
            raise MzembedError(
                "backward on a loss that recorded no graph: it was computed under "
                "no_grad() or from tensors that require no gradient, so no "
                "parameter would receive one"
            )
        backward_walk(self._node, np.ones_like(self.data))

    # -- graph construction helper ------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        """A tensor holding ``data``, with a node recording ``backward``
        if any of ``parents`` (the inputs' ``_nodes``) is a node.

        ``backward(g)`` is called once by ``backward_walk`` with the
        output's gradient ``g``. It must hold nodes and arrays, never a
        tensor, so that no value outlives the forward unless the
        gradient reads it.
        """
        out = Tensor(data)
        recorded = tuple(p for p in parents if p is not None)
        if recorded:
            out._node = Node(out.data.dtype, recorded, backward)
        return out

    # -- elementwise arithmetic ---------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        a, b = self, self._coerce(other)
        na, nb = _nodes(a, b)
        sa, sb = a.data.shape, b.data.shape

        def bwd(g):
            if na:
                na.accumulate(_unbroadcast(g, sa))
            if nb:
                nb.accumulate(_unbroadcast(g, sb))

        return Tensor._make(a.data + b.data, (na, nb), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, self._coerce(other)
        na, nb = _nodes(a, b)
        sa, sb = a.data.shape, b.data.shape

        def bwd(g):
            if na:
                na.accumulate(_unbroadcast(g, sa))
            if nb:
                nb.accumulate(_unbroadcast(-g, sb))

        return Tensor._make(a.data - b.data, (na, nb), bwd)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        (na,) = _nodes(self)

        def bwd(g):
            na.accumulate(-g)

        return Tensor._make(-self.data, (na,), bwd)

    def __mul__(self, other):
        a, b = self, self._coerce(other)
        na, nb = _nodes(a, b)
        sa, sb = a.data.shape, b.data.shape
        ad = a.data if nb else None
        bd = b.data if na else None

        def bwd(g):
            if na:
                na.accumulate(_unbroadcast(g * bd, sa))
            if nb:
                nb.accumulate(_unbroadcast(g * ad, sb))

        return Tensor._make(a.data * b.data, (na, nb), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, self._coerce(other)
        na, nb = _nodes(a, b)
        sa, sb = a.data.shape, b.data.shape
        ad = a.data if nb else None
        bd = b.data

        def bwd(g):
            if na:
                na.accumulate(_unbroadcast(g / bd, sa))
            if nb:
                nb.accumulate(_unbroadcast(-g * ad / (bd * bd), sb))

        return Tensor._make(a.data / b.data, (na, nb), bwd)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        (na,) = _nodes(self)
        ad = self.data

        def bwd(g):
            na.accumulate(g * exponent * ad ** (exponent - 1))

        return Tensor._make(ad ** exponent, (na,), bwd)

    def sqrt(self):
        (na,) = _nodes(self)
        y = np.sqrt(self.data)

        def bwd(g):
            na.accumulate(g * 0.5 / y)

        return Tensor._make(y, (na,), bwd)

    def exp(self):
        (na,) = _nodes(self)
        y = np.exp(self.data)

        def bwd(g):
            na.accumulate(g * y)

        return Tensor._make(y, (na,), bwd)

    def log(self):
        (na,) = _nodes(self)
        ad = self.data

        def bwd(g):
            na.accumulate(g / ad)

        return Tensor._make(np.log(ad), (na,), bwd)

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
        na, nb = _nodes(a, b)
        sa, sb = a.data.shape, b.data.shape
        ad = a.data if nb else None
        bd = b.data if na else None

        def bwd(g):
            if na:
                na.accumulate(_unbroadcast(g @ np.swapaxes(bd, -1, -2), sa))
            if nb:
                nb.accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb))

        return Tensor._make(a.data @ b.data, (na, nb), bwd)

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        (na,) = _nodes(self)
        sa = self.data.shape

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            na.accumulate(np.broadcast_to(g, sa))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (na,), bwd)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation --------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        (na,) = _nodes(self)
        sa = self.data.shape

        def bwd(g):
            na.accumulate(g.reshape(sa))

        return Tensor._make(self.data.reshape(shape), (na,), bwd)

    def swapaxes(self, ax1, ax2):
        (na,) = _nodes(self)

        def bwd(g):
            na.accumulate(np.swapaxes(g, ax1, ax2))

        return Tensor._make(np.swapaxes(self.data, ax1, ax2), (na,), bwd)

    def __getitem__(self, key):
        (na,) = _nodes(self)
        sa, dtype = self.data.shape, self.data.dtype

        def bwd(g):
            whole = np.zeros(sa, dtype)
            np.add.at(whole, key, g)  # an index array may repeat an element
            na.accumulate(whole)

        return Tensor._make(self.data[key], (na,), bwd)

    def astype(self, dtype):
        (na,) = _nodes(self)
        source = self.data.dtype

        def bwd(g):
            na.accumulate(g.astype(source))

        return Tensor._make(self.data.astype(dtype), (na,), bwd)


def backward_walk(root: Node, grad) -> None:
    """Add ``grad`` to ``root``'s gradient and carry it back through the
    graph under ``root``.

    Each interior node's ``backward(node.grad)`` runs once, after every
    node that uses it. Leaf gradients add up over calls until cleared.
    Interior nodes give up their backward functions, parents and
    gradients as the walk passes them, so the graph cannot be walked
    again: a second walk through a consumed node raises ``MzembedError``.
    """
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.backward is _consumed:
            raise MzembedError(
                "backward through a graph that an earlier backward() "
                "already consumed; rebuild the graph to differentiate again"
            )
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    root.accumulate(grad)
    while topo:
        node = topo.pop()
        if node.backward is None:
            continue
        node.backward(node.grad)
        node.backward = _consumed
        node.parents = ()
        node.grad = None


def concat(tensors, axis=-1):
    """Concatenate tensors along an axis, splitting gradients back."""
    tensors = list(tensors)
    nodes = _nodes(*tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    axis %= data.ndim

    def bwd(g):
        index = [slice(None)] * g.ndim
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node:
                index[axis] = slice(lo, hi)
                node.accumulate(g[tuple(index)])

    return Tensor._make(data, nodes, bwd)


def gather_rows(table, indices):
    """Row lookup ``table[indices]``; repeated indices accumulate their
    gradients, as in any ``Tensor`` indexing."""
    return table[np.asarray(indices)]
