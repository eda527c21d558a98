"""Clipped-surrogate policy optimization primitives.

Returns are plain Monte-Carlo discounted sums; advantages are return minus
value baseline, normalized over the buffer. Actor and critic losses come
with hand-derived gradients that tests cross-check against central finite
differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Adam, Mlp, clip_grad_norm, masked_log_softmax

_NORM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    # Rewards here are immediate per-placement costs, so a short discount
    # horizon keeps the per-action signal out of the trajectory noise.
    discount: float = 0.9
    clip_epsilon: float = 0.2
    group_lr: float = 3e-4
    node_lr: float = 3e-4
    critic_lr: float = 3e-4
    epochs: int = 4
    minibatch_size: int = 64
    episodes: int = 300
    entropy_weight: float = 0.01
    grad_clip_norm: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.discount < 1:
            raise ValueError(f"discount must be in (0, 1), got {self.discount}")
        if self.clip_epsilon <= 0:
            raise ValueError(f"clip_epsilon must be > 0, got {self.clip_epsilon}")
        if self.epochs < 1 or self.minibatch_size < 1 or self.episodes < 1:
            raise ValueError("epochs, minibatch_size and episodes must be >= 1")
        for name in ("group_lr", "node_lr", "critic_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.entropy_weight < 0 or self.grad_clip_norm < 0:
            raise ValueError("entropy_weight and grad_clip_norm must be >= 0")


class RolloutBuffer:
    """One row per decision of an episode, plus derived returns and advantages.

    A row holds the encoded features, the observation's `fit` row, the
    chosen group and node with their log-probabilities, the reward and the
    critic's value. `compute` stacks the rows into column arrays once; the
    update derives its masks from the `fits` column by the rule acting used.
    """

    def __init__(self):
        self.rows: list[tuple] = []
        self.clear()

    def add(self, features: np.ndarray, fit: np.ndarray, group: int, node: int,
            logp_group: float, logp_node: float, reward: float, value: float) -> None:
        self.rows.append((features, fit, group, node, logp_group, logp_node, reward, value))

    def __len__(self) -> int:
        return len(self.rows)

    def compute(self, discount: float) -> None:
        (self.features, self.fits, self.groups, self.nodes, self.logp_groups,
         self.logp_nodes, rewards, values) = map(np.array, zip(*self.rows))
        self.returns = discounted_returns(rewards, discount)
        self.advantages = advantages(self.returns, values)

    def clear(self) -> None:
        self.rows.clear()
        self.features = self.fits = self.groups = self.nodes = None
        self.logp_groups = self.logp_nodes = self.returns = self.advantages = None


def discounted_returns(rewards, discount: float) -> np.ndarray:
    """G_t = r_t + discount * G_{t+1}, with G after the last reward = 0."""
    if not 0 < discount < 1:
        raise ValueError(f"discount must be in (0, 1), got {discount}")
    out = np.zeros(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + discount * acc
        out[i] = acc
    return out


def advantages(returns, values) -> np.ndarray:
    """Return-minus-baseline advantages, normalized over the batch.

    Normalization is skipped for a single sample or a (near-)zero spread,
    so degenerate buffers pass through unscaled.
    """
    g = np.asarray(returns, dtype=float)
    v = np.asarray(values, dtype=float)
    if g.shape != v.shape:
        raise ValueError(f"length mismatch: {g.shape} returns vs {v.shape} values")
    adv = g - v
    if adv.size < 2:
        return adv
    std = adv.std()
    if std < _NORM_EPS:
        return adv
    return (adv - adv.mean()) / std


# --- batched losses with gradients ---------------------------------------


def actor_loss_and_grads(net: Mlp, states, actions, old_logps, advs, masks,
                         epsilon: float, entropy_weight: float):
    """Negated mean clipped surrogate minus entropy bonus (to minimize),
    its parameter gradients, and the fraction of clipped ratios."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    x = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=int)
    old_logps = np.asarray(old_logps, dtype=float)
    advs = np.asarray(advs, dtype=float)
    masks = np.asarray(masks, dtype=bool)
    n = x.shape[0]
    rows = np.arange(n)
    out, acts = net.forward_cache(x)
    logp = masked_log_softmax(out, masks)
    p = np.exp(logp)
    ratio = np.exp(logp[rows, actions] - old_logps)
    unclipped = ratio * advs
    clip_lo, clip_hi = 1.0 - epsilon, 1.0 + epsilon
    clipped = np.clip(ratio, clip_lo, clip_hi) * advs
    inside = (clip_lo <= ratio) & (ratio <= clip_hi)
    # Masked entries have p == 0 and logp == -inf, and 0 * -inf is NaN.
    logp_live = np.where(masks, logp, 0.0)
    ent = -(p * logp_live).sum(axis=1)
    loss = float(np.mean(-np.minimum(unclipped, clipped) - entropy_weight * ent))
    clip_fraction = np.count_nonzero(~inside) / n
    # d(surr)/dlogp[a] is ratio*adv on the active unclipped branch,
    # zero when the clamp saturates and wins the min.
    coeff = np.where(inside | (unclipped <= clipped), unclipped, 0.0)
    onehot = np.zeros_like(p)
    onehot[rows, actions] = 1.0
    dsurr = coeff[:, None] * (onehot - p)
    dent = np.where(masks, -p * (logp_live + ent[:, None]), 0.0)
    dlogits = np.where(masks, -dsurr - entropy_weight * dent, 0.0)
    grads = net.backward(acts, dlogits / n)
    return loss, grads, clip_fraction


def critic_loss_and_grads(net: Mlp, states, returns):
    """Mean squared error of the value head against the returns, and its gradients."""
    x = np.asarray(states, dtype=float)
    g = np.asarray(returns, dtype=float)
    out, acts = net.forward_cache(x)
    v = out[:, 0]
    err = v - g
    loss = float(np.mean(err ** 2))
    dout = np.zeros_like(out)
    dout[:, 0] = 2.0 * err / err.size
    return loss, net.backward(acts, dout)


def actor_step(net: Mlp, opt: Adam, states, actions, old_logps, advs, masks,
               config: TrainConfig) -> dict:
    """One clipped-surrogate ascent step; returns loss and clip fraction."""
    loss, grads, clip_frac = actor_loss_and_grads(
        net, states, actions, old_logps, advs, masks,
        config.clip_epsilon, config.entropy_weight,
    )
    clip_grad_norm(grads, config.grad_clip_norm)
    opt.step(net.vector, np.concatenate([g.ravel() for g in grads]))
    return {"loss": loss, "clip_fraction": clip_frac}


def critic_step(net: Mlp, opt: Adam, states, returns, config: TrainConfig) -> dict:
    loss, grads = critic_loss_and_grads(net, states, returns)
    clip_grad_norm(grads, config.grad_clip_norm)
    opt.step(net.vector, np.concatenate([g.ravel() for g in grads]))
    return {"loss": loss}
