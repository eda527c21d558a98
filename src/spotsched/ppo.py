"""Clipped-surrogate policy optimization primitives.

Returns are plain Monte-Carlo discounted sums; advantages are return minus
value baseline, normalized over the rollout. Actor and critic losses come
with hand-derived gradients that tests cross-check against central finite
differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .nets import Adam, Mlp, clip_grad_norm, masked_log_softmax
from .errors import ConfigError
from .workflow import is_int, seed_list

_NORM_EPS = 1e-8

# Rewards here are immediate per-placement costs, so a short discount
# horizon keeps the per-action signal out of the trajectory noise.
DISCOUNT = 0.9
CLIP_EPSILON = 0.2
ENTROPY_WEIGHT = 0.01
LEARNING_RATE = 3e-4  # every network's Adam
EPOCHS = 4
MINIBATCH_SIZE = 64
GRAD_CLIP_NORM = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """What a training run chooses; the PPO hyperparameters are the constants above."""

    episodes: int = 300
    seed: int = 0

    def __post_init__(self):
        if not is_int(self.episodes) or self.episodes < 1:
            raise ConfigError(f"episodes must be an integer >= 1, got {self.episodes!r}")
        if not is_int(self.seed):  # one integer; a run keys its streams on [seed, ...]
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        seed_list(self.seed)


class Rollout(NamedTuple):
    """One episode's decisions as column arrays, one row per decision.

    The update derives its masks from the `fits` column by the rule acting used.
    """

    features: np.ndarray
    fits: np.ndarray
    groups: np.ndarray
    nodes: np.ndarray
    logp_groups: np.ndarray
    logp_nodes: np.ndarray
    returns: np.ndarray
    advantages: np.ndarray


def rollout(rows, value: Callable[[np.ndarray], np.ndarray]) -> Rollout:
    """Stack an episode's decision rows into a Rollout, with returns and advantages.

    A row is (features, fit row, group, node, logp_group, logp_node, reward).
    `value` maps the stacked features (n, in) to the critic's values (n,).
    """
    if not rows:
        raise ValueError("a rollout needs at least one decision")
    *columns, rewards = map(np.array, zip(*rows))
    returns = discounted_returns(rewards, DISCOUNT)
    return Rollout(*columns, returns, advantages(returns, value(columns[0])))


def discounted_returns(rewards, discount: float) -> np.ndarray:
    """G_t = r_t + discount * G_{t+1}, with G after the last reward = 0."""
    out = np.zeros(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + discount * acc
        out[i] = acc
    return out


def advantages(returns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Return-minus-baseline advantages, normalized over the batch.

    Normalization is skipped for a single sample or a (near-)zero spread,
    so degenerate rollouts pass through unscaled.
    """
    adv = returns - values
    if adv.size < 2:
        return adv
    std = adv.std()
    if std < _NORM_EPS:
        return adv
    return (adv - adv.mean()) / std


# --- batched losses with gradients ---------------------------------------


def actor_loss_and_grads(net: Mlp, states, actions, old_logps, advs, masks,
                         epsilon: float, entropy_weight: float):
    """Negated mean clipped surrogate minus entropy bonus (to minimize), its
    parameter gradients, and a function giving the minibatch's diagnostics: the
    fraction of clipped ratios, the mean entropy and the approx-KL mean(old_logp - logp).

    Takes the numpy arrays of one minibatch of a Rollout, and neither
    converts nor re-checks them. The update passes CLIP_EPSILON and
    ENTROPY_WEIGHT; tests vary both.
    """
    n = states.shape[0]
    rows = np.arange(n)
    out, acts = net.forward_cache(states)
    logp = masked_log_softmax(out, masks)
    p = np.exp(logp)
    log_ratio = logp[rows, actions] - old_logps
    ratio = np.exp(log_ratio)
    unclipped = ratio * advs
    clip_lo, clip_hi = 1.0 - epsilon, 1.0 + epsilon
    clipped = np.clip(ratio, clip_lo, clip_hi) * advs
    inside = (clip_lo <= ratio) & (ratio <= clip_hi)
    # Masked entries have p == 0 and logp == -inf, and 0 * -inf is NaN.
    logp_live = np.where(masks, logp, 0.0)
    ent = -(p * logp_live).sum(axis=1)
    loss = float(np.mean(-np.minimum(unclipped, clipped) - entropy_weight * ent))
    # d(surr)/dlogp[a] is ratio*adv on the active unclipped branch,
    # zero when the clamp saturates and wins the min.
    coeff = np.where(inside | (unclipped <= clipped), unclipped, 0.0)
    onehot = np.zeros_like(p)
    onehot[rows, actions] = 1.0
    dsurr = coeff[:, None] * (onehot - p)
    dent = np.where(masks, -p * (logp_live + ent[:, None]), 0.0)
    dlogits = np.where(masks, -dsurr - entropy_weight * dent, 0.0)
    grads = net.backward(acts, dlogits / n)

    def diagnostics() -> dict:  # reduced on call: the update reads the group actor's alone
        # ufunc sums, not .mean(): its Python wrapper costs more than the sum
        return {"clip_fraction": np.count_nonzero(~inside) / n, "entropy": np.add.reduce(ent) / n,
                "approx_kl": -np.add.reduce(log_ratio) / n}
    return loss, grads, diagnostics


def critic_loss_and_grads(net: Mlp, states, returns):
    """Mean squared error of the value head against the returns, and its gradients."""
    out, acts = net.forward_cache(states)
    err = out[:, 0] - returns
    loss = float(np.mean(err ** 2))
    dout = np.zeros_like(out)
    dout[:, 0] = 2.0 * err / err.size
    return loss, net.backward(acts, dout)


def actor_step(net: Mlp, opt: Adam, states, actions, old_logps, advs, masks):
    """One clipped-surrogate ascent step; returns the loss and the diagnostics' function."""
    loss, grads, diagnostics = actor_loss_and_grads(
        net, states, actions, old_logps, advs, masks, CLIP_EPSILON, ENTROPY_WEIGHT)
    clip_grad_norm(grads, GRAD_CLIP_NORM)
    opt.step(net.vector, np.concatenate([g.ravel() for g in grads]))
    return loss, diagnostics


def critic_step(net: Mlp, opt: Adam, states, returns) -> float:
    loss, grads = critic_loss_and_grads(net, states, returns)
    clip_grad_norm(grads, GRAD_CLIP_NORM)
    opt.step(net.vector, np.concatenate([g.ravel() for g in grads]))
    return loss
