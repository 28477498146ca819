"""Training-step numerics: global-norm clipping and Adam.

Weight decay is decoupled: the shrinkage term is applied directly to
the parameter, separately from the Adam delta.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .core import Tensor

ADAM_EPS = 1e-8


def global_grad_norm(grads) -> float:
    total = 0.0
    for g in grads:
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def clip_gradients(grads, threshold: float):
    """Scale the whole gradient set so its global L2 norm is <= threshold.

    Returns (clipped_grads, norm_before). Gradients below the threshold
    pass through untouched, which also makes the operation idempotent.
    """
    if threshold <= 0:
        raise ConfigError(f"clip threshold must be positive, got {threshold}")
    grads = list(grads)
    norm = global_grad_norm(grads)
    if norm <= threshold:
        return grads, norm
    scale = threshold / norm
    return [np.asarray(g) * np.asarray(g).dtype.type(scale) for g in grads], norm


class Adam:
    """Bias-corrected Adam over a named parameter set.

    ``step`` applies the gradients it is given, one per parameter name
    (``apply_step`` passes them clipped, via ``clip_gradients``). The
    step counter increases by exactly 1 per call. The update allocates
    nothing: it writes its intermediates into two scratch buffers per
    parameter dtype, each the size of the largest such parameter.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 5.0e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        largest: dict[np.dtype, int] = {}
        for p in params.values():
            largest[p.data.dtype] = max(largest.get(p.data.dtype, 0), p.data.size)
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in largest.items()}

    def step(self, grads: dict[str, np.ndarray]):
        """Apply one update with ``grads[name]`` for every parameter.

        Per parameter, in this order and rounding at each operation:
        ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g²``,
        ``p -= lr (m / bc1) / (sqrt(v / bc2) + ADAM_EPS)``, then, with weight
        decay, ``p -= (lr wd) p``.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            dt = p.data.dtype.type
            g = np.asarray(grads[name], dtype=p.data.dtype)
            m = self.m[name]
            v = self.v[name]
            a, b = (s[: p.data.size].reshape(p.data.shape) for s in self._scratch[p.data.dtype])
            m *= dt(b1)
            m += np.multiply(dt(1.0 - b1), g, out=a)
            v *= dt(b2)
            v += np.multiply(dt(1.0 - b2), np.multiply(g, g, out=a), out=a)
            step = np.multiply(dt(self.lr), np.divide(m, dt(bc1), out=a), out=a)
            denom = np.add(np.sqrt(np.divide(v, dt(bc2), out=b), out=b), dt(ADAM_EPS), out=b)
            p.data -= np.divide(step, denom, out=a)
            if self.weight_decay:
                p.data -= np.multiply(dt(self.lr * self.weight_decay), p.data, out=a)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def uniform_fan_in(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """Weight init: binary32 U(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases use zeros()."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32), requires_grad=True)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)
