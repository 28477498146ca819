"""Training-step numerics: global-norm clipping and Adam.

Weight decay is decoupled: the shrinkage term is applied directly to
the parameter, separately from the Adam delta.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .core import Tensor


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
    step counter increases by exactly 1 per call.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 5.0e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        """Apply one update with ``grads[name]`` for every parameter."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            dt = p.data.dtype.type
            g = np.asarray(grads[name], dtype=p.data.dtype)
            m = self.m[name]
            v = self.v[name]
            m *= dt(b1)
            m += dt(1.0 - b1) * g
            v *= dt(b2)
            v += dt(1.0 - b2) * (g * g)
            m_hat = m / dt(bc1)
            v_hat = v / dt(bc2)
            p.data -= dt(self.lr) * m_hat / (np.sqrt(v_hat) + dt(self.eps))
            if self.weight_decay:
                p.data -= dt(self.lr * self.weight_decay) * p.data

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
