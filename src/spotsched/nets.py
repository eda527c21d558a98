"""Small feed-forward networks with explicit reverse-mode gradients.

Float64 numpy throughout. Policy heads produce masked softmax
distributions; value heads are linear scalars. Gradients are computed by
hand so they can be cross-checked against finite differences.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NoFeasibleActionError

_HIDDEN_GAIN = math.sqrt(2.0)
_POLICY_HEAD_GAIN = 0.01


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((rows, cols))
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    q = u if u.shape == (rows, cols) else vt
    return gain * q


class Mlp:
    """Dense tanh network; weights W[i] map layer i to i+1 as x @ W + b.

    All parameters live in one float64 `vector`; `weights`, `biases` and
    `params` ([W0, b0, W1, b1, ...]) are views into it, so write through
    them (`p[...] = x`) and never rebind them.
    """

    def __init__(self, sizes, rng: np.random.Generator, *, policy_head: bool = False):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need >= 2 positive layer sizes, got {sizes}")
        self.sizes = sizes
        self.policy_head = policy_head
        self.vector = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:])))
        self.params = []
        last, at = len(sizes) - 2, 0
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            w = self.vector[at:at + n_in * n_out].reshape(n_in, n_out)
            b = self.vector[at + n_in * n_out:at + (n_in + 1) * n_out]
            at += (n_in + 1) * n_out
            gain = (_POLICY_HEAD_GAIN if policy_head else 1.0) if i == last else _HIDDEN_GAIN
            w[...] = _orthogonal(rng, n_in, n_out, gain)
            self.params += [w, b]
        self.weights, self.biases = self.params[0::2], self.params[1::2]

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping post-activation values for backward()."""
        a = np.atleast_2d(np.asarray(x, dtype=float))
        acts = [a]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if i < len(self.weights) - 1:
                a = np.tanh(a)
            acts.append(a)
        return acts[-1], acts

    def backward(self, acts, dout: np.ndarray) -> list[np.ndarray]:
        """Gradients of a scalar loss wrt params, given dloss/dlogits.

        Returns arrays aligned with .params.
        """
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.weights)
        delta = np.asarray(dout, dtype=float)
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        out = []
        for gw, gb in zip(grads_w, grads_b):
            out.append(gw)
            out.append(gb)
        return out


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Log-probabilities with -inf on masked-out entries.

    Takes a row of logits (n,) or a batch (batch, n), and a mask of that
    shape. Masked entries enter each row's sum as exact zeros (exp(-inf)),
    so a batch gives exactly the row-by-row results.
    """
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite policy logits")
    if mask is None:
        mask = np.ones(z.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != z.shape:
            raise ValueError(f"mask shape {mask.shape} != logits shape {z.shape}")
    if not mask.any(axis=-1).all():
        raise NoFeasibleActionError("all actions masked out")
    z = np.where(mask, z, -np.inf)
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def masked_softmax(logits: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Probabilities, exactly zero on masked-out entries; a batch per row."""
    logp = masked_log_softmax(logits, mask)
    p = np.exp(logp)
    return p / p.sum(axis=-1, keepdims=True)


def forward(net: Mlp, x: np.ndarray, mask: np.ndarray | None = None):
    """Single-row inference on a feature row (in,): masked probabilities or a float value."""
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        x = np.tanh(x @ w + b)
    out = x @ net.weights[-1] + net.biases[-1]
    if net.policy_head:
        return masked_softmax(out, mask)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite value output")
    return float(out[0]) if out.size == 1 else out


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale grads in place to a global L2 norm cap; returns the raw norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adaptive-moment optimizer over one parameter vector, element-wise."""

    def __init__(self, params: np.ndarray, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update `params` in place from `grad`, a vector of the same shape."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        params -= self.lr * (self.m / b1t) / (np.sqrt(self.v / b2t) + self.eps)
