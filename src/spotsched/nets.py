"""Small feed-forward networks with explicit reverse-mode gradients.

Float64 numpy, but one row's policy logits are a list of floats. A policy
head's logits become a masked softmax distribution only where an action is
sampled; a greedy pick is their masked argmax. Value heads are linear
scalars. Gradients are computed by hand to be checked by finite differences.
"""
from __future__ import annotations

import math
from itertools import compress

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

    All parameters live in one float64 `vector`; `weights`, `biases`,
    `params` ([W0, b0, W1, b1, ...]) and `hidden` (the (W, b) pairs before
    the head) are views into it, so write through them (`p[...] = x`) and
    never rebind them.
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
        self.hidden = tuple(zip(self.weights[:-1], self.biases[:-1]))

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
        return [g for pair in zip(grads_w, grads_b) for g in pair]


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log-probabilities along the last axis, with -inf on masked-out entries.

    The update's path, over a batch of rows (batch, n) and a mask of that
    shape. Masked entries enter each row's sum as exact zeros (exp(-inf)),
    so a batch gives exactly the row-by-row results.
    """
    z = np.asarray(logits, dtype=float)
    if not np.isfinite(z).all():
        raise FloatingPointError("non-finite policy logits")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != z.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {z.shape}")
    if not mask.any(axis=-1).all():
        raise NoFeasibleActionError("all actions masked out")
    z = np.where(mask, z, -np.inf)
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    return z - (m + np.log(np.add.reduce(np.exp(z - m), axis=-1, keepdims=True)))


def _live_max(logits: list[float], mask: list[bool]) -> float:
    """The largest live logit, after the checks both row functions make."""
    if len(mask) != len(logits):
        raise ValueError(f"mask length {len(mask)} != logits length {len(logits)}")
    if not all(map(math.isfinite, logits)):
        raise FloatingPointError("non-finite policy logits")
    top = max(compress(logits, mask), default=None)
    if top is None:
        raise NoFeasibleActionError("all actions masked out")
    return top


def masked_softmax_row(logits: list[float], mask: list[bool]) -> list[float]:
    """One row's probabilities as Python floats, exactly 0.0 where masked out.

    The acting path, where numpy's per-call cost outweighs a short row's arithmetic;
    within a few ulps of the batch path. fsum, not sum(), whose rounding changed in 3.12.
    """
    top = _live_max(logits, mask)
    e = [math.exp(z - top) if m else 0.0 for z, m in zip(logits, mask)]
    total = math.fsum(e)
    return [v / total for v in e]


def masked_argmax_row(logits: list[float], mask: list[bool]) -> int:
    """The first live index of the largest logit: the greedy pick, with no distribution.

    The softmax is monotone, so this is `p.index(max(p))` of masked_softmax_row's `p`,
    exact ties included, but for live logits so close that their probabilities round to
    one float: that argmax takes the earlier index, this one the larger logit. It raises
    what masked_softmax_row raises, on the same inputs.
    """
    top = _live_max(logits, mask)
    i = logits.index(top)
    while not mask[i]:  # a masked entry with the same logit comes first
        i = logits.index(top, i + 1)
    return i


def forward(net: Mlp, x: np.ndarray):
    """Inference on one feature row (in,): a policy head's logits as a list, or a float value.

    A value head also takes rows (n, in): values (n,), each bit for bit its row's, as
    stacked (n, 1, in) gemvs like one row's, never the 2-D gemm that sums in another order."""
    # one row: np.dot, @'s gemv at less per-call cost; on a 3-D stack np.dot contracts otherwise
    mm = np.dot if x.ndim == 1 else np.matmul
    x = x[:, None, :] if x.ndim == 2 else x
    for w, b in net.hidden:
        x = mm(x, w)  # a new array, so the in-place steps never touch the caller's row
        x += b
        np.tanh(x, out=x)
    out = mm(x, net.weights[-1]) + net.biases[-1]
    if net.policy_head:
        return out.tolist()
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise FloatingPointError("non-finite value output")
    return float(out[0]) if out.ndim == 1 else out[:, 0, 0]


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale grads in place to a global L2 norm cap; returns the raw norm."""
    squares = 0  # left to right on every Python: builtin sum() compensates from 3.12 on
    for g in grads:
        squares += float(np.add.reduce(g * g, axis=None))
    total = math.sqrt(squares)
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adaptive-moment optimizer over one parameter vector, element-wise."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
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
