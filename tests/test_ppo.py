"""Returns, advantages, and the clipped-surrogate update."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spotsched.errors import ConfigError
from spotsched.nets import Adam, Mlp, forward, masked_log_softmax, masked_softmax_row
from spotsched.ppo import (
    CLIP_EPSILON,
    DISCOUNT,
    ENTROPY_WEIGHT,
    EPOCHS,
    GRAD_CLIP_NORM,
    LEARNING_RATE,
    MINIBATCH_SIZE,
    TrainConfig,
    actor_loss_and_grads,
    actor_step,
    advantages,
    critic_loss_and_grads,
    critic_step,
    discounted_returns,
)


def test_train_config_defaults():
    assert [f.name for f in fields(TrainConfig)] == ["episodes", "seed"]
    cfg = TrainConfig()
    assert (cfg.episodes, cfg.seed) == (300, 0)
    assert DISCOUNT == 0.9 and CLIP_EPSILON == 0.2 and ENTROPY_WEIGHT == 0.01
    assert LEARNING_RATE == 3e-4
    assert EPOCHS == 4 and MINIBATCH_SIZE == 64 and GRAD_CLIP_NORM == 0.5


def test_train_config_validation():
    # each bad value fails at construction, naming its field, not deep in training
    for field, value in [("episodes", 0), ("episodes", 2.5), ("episodes", True), ("episodes", "3"),
                         ("seed", 1.0), ("seed", True), ("seed", -1),
                         ("seed", "1"), ("seed", (1, 2))]:
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})


def test_train_config_accepts_numpy_integers():
    cfg = TrainConfig(episodes=np.int64(2), seed=np.int32(7))
    assert (cfg.episodes, cfg.seed) == (2, 7)


def test_discounted_returns_hand_case():
    out = discounted_returns([1.0, 1.0, 1.0], 0.5)
    assert out.tolist() == [1.75, 1.5, 1.0]


@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=30),
    st.floats(0.05, 0.99),
)
def test_discounted_returns_recursion(rewards, discount):
    out = discounted_returns(rewards, discount)
    assert out[-1] == rewards[-1]
    for t in range(len(rewards) - 1):
        assert out[t] == pytest.approx(rewards[t] + discount * out[t + 1], rel=1e-12, abs=1e-12)


def test_advantages_normalized():
    adv = advantages(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
    assert adv.mean() == pytest.approx(0.0, abs=1e-12)
    assert adv.std() == pytest.approx(1.0, rel=1e-12)


def test_advantages_degenerate_passthrough():
    assert advantages(np.array([5.0]), np.array([2.0])).tolist() == [3.0]
    assert advantages(np.array([2.0, 2.0]), np.array([1.0, 1.0])).tolist() == [1.0, 1.0]


def clipped_surrogate(ratios, advs, eps):
    """Mean clipped surrogate of a batch with the given probability ratios,
    as the update's actor loss computes it (negated, with no entropy term).

    Each sample has one live action of two, so its log-probability is
    exactly 0 and the old log-probability -log(ratio) sets the ratio.
    """
    n = len(ratios)
    net = Mlp([1, 2], np.random.default_rng(0), policy_head=True)
    masks = np.tile([True, False], (n, 1))
    old = -np.log(np.asarray(ratios, dtype=float))
    loss, _, _ = actor_loss_and_grads(net, np.zeros((n, 1)), np.zeros(n, dtype=int), old,
                                      np.asarray(advs, dtype=float), masks, eps,
                                      entropy_weight=0.0)
    return -loss


def test_actor_loss_clip_cases():
    assert clipped_surrogate([1.5], [1.0], 0.2) == pytest.approx(1.2, abs=1e-12)
    assert clipped_surrogate([0.5], [-1.0], 0.2) == pytest.approx(-0.8, abs=1e-12)
    for adv in (-2.0, 0.0, 0.7):
        assert clipped_surrogate([1.0], [adv], 0.2) == adv
        assert clipped_surrogate([1.0], [adv], 0.05) == adv


@given(st.lists(st.tuples(st.floats(0.01, 5), st.floats(-3, 3)), min_size=1, max_size=8),
       st.floats(0.01, 0.5))
def test_clipped_surrogate_is_a_lower_bound(samples, eps):
    ratios, advs = np.array(samples).T
    val = clipped_surrogate(ratios, advs, eps)
    assert val <= np.mean(ratios * advs) + 1e-12
    assert val <= np.mean(np.clip(ratios, 1 - eps, 1 + eps) * advs) + 1e-12


def _toy_batch(seed=0, n=6, dim=5, actions=4):
    rng = np.random.default_rng(seed)
    net = Mlp([dim, 8, actions], rng, policy_head=True)
    states = rng.normal(size=(n, dim))
    acted = rng.integers(actions, size=n)
    masks = np.ones((n, actions), dtype=bool)
    masks[0, 1] = False  # keep one masked entry in play
    if acted[0] == 1:
        acted[0] = 0
    advs = rng.normal(size=n)
    return net, states, acted, masks, advs


def _live_logps(net, states, actions, masks):
    out = net.forward_cache(states)[0]
    return np.array([
        masked_log_softmax(out[b], masks[b])[actions[b]] for b in range(len(actions))
    ])


def test_unit_ratio_reduces_to_vanilla_policy_gradient():
    net, states, actions, masks, advs = _toy_batch()
    old = _live_logps(net, states, actions, masks)
    loss, grads, diagnostics = actor_loss_and_grads(
        net, states, actions, old, advs, masks, epsilon=0.2, entropy_weight=0.0
    )
    stats = diagnostics()
    assert stats["clip_fraction"] == 0.0 and stats["approx_kl"] == 0.0
    assert loss == pytest.approx(-advs.mean())
    # by hand: gradient of -mean(adv * logp[action]) wrt the logits
    out, acts = net.forward_cache(states)
    dlog = np.zeros_like(out)
    for b in range(len(actions)):
        p = np.exp(masked_log_softmax(out[b], masks[b]))
        onehot = np.zeros_like(p)
        onehot[actions[b]] = 1.0
        dlog[b] = np.where(masks[b], -advs[b] * (onehot - p), 0.0)
    expected = net.backward(acts, dlog / len(actions))
    for g, e in zip(grads, expected):
        assert np.allclose(g, e, atol=1e-12)


def _per_sample_actor_terms(net, states, actions, old_logps, advs, masks, eps, weight):
    """The per-sample loop that the batched actor loss replaced, as its reference."""
    out, acts = net.forward_cache(states)
    dlogits = np.zeros_like(out)
    total = clipped_count = ent_total = kl_total = 0
    for b, (a, mask) in enumerate(zip(actions, masks)):
        logp = masked_log_softmax(out[b], mask)
        p = np.exp(logp)
        ratio = float(np.exp(logp[a] - old_logps[b]))
        unclipped = ratio * advs[b]
        clipped = min(max(ratio, 1.0 - eps), 1.0 + eps) * advs[b]
        inside = 1.0 - eps <= ratio <= 1.0 + eps
        clipped_count += not inside
        ent = float(-(p[mask] * logp[mask]).sum())
        ent_total += ent
        kl_total += old_logps[b] - logp[a]
        total += -min(unclipped, clipped) - weight * ent
        onehot = np.zeros_like(p)
        onehot[a] = 1.0
        dsurr = (unclipped if inside or unclipped <= clipped else 0.0) * (onehot - p)
        dent = np.where(mask, -p * (np.where(mask, logp, 0.0) + ent), 0.0)
        dlogits[b] = np.where(mask, -dsurr - weight * dent, 0.0)
    n = len(actions)
    stats = {"clip_fraction": clipped_count / n, "entropy": ent_total / n,
             "approx_kl": kl_total / n}
    return total / n, net.backward(acts, dlogits / n), stats


def test_batched_actor_terms_match_per_sample_loop():
    rng = np.random.default_rng(5)
    net = Mlp([5, 8, 6], rng, policy_head=True)
    states = rng.normal(size=(16, 5))
    actions = rng.integers(6, size=16)
    masks = rng.random((16, 6)) < 0.6
    masks[np.arange(16), actions] = True
    old = _live_logps(net, states, actions, masks) + rng.normal(scale=0.4, size=16)
    advs = rng.normal(size=16)
    loss, grads, diagnostics = actor_loss_and_grads(net, states, actions, old, advs, masks,
                                                    epsilon=0.2, entropy_weight=0.05)
    stats = diagnostics()
    ref_loss, ref_grads, ref_stats = _per_sample_actor_terms(
        net, states, actions, old, advs, masks, 0.2, 0.05)
    assert 0 < stats["clip_fraction"] < 1 and stats["clip_fraction"] == ref_stats["clip_fraction"]
    for k in ("entropy", "approx_kl"):  # summed in another order
        assert stats[k] == pytest.approx(ref_stats[k], rel=1e-12)
    assert loss == pytest.approx(ref_loss, rel=1e-12)  # summed in another order
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


def test_clip_fraction_counts_out_of_range_ratios():
    net, states, actions, masks, advs = _toy_batch(seed=1)
    old = _live_logps(net, states, actions, masks)
    old[0] -= 1.0  # ratio e^-1, below the clip window
    old[1] += 1.0  # ratio e^1, above it
    _, _, diagnostics = actor_loss_and_grads(
        net, states, actions, old, advs, masks, epsilon=0.2, entropy_weight=0.0
    )
    assert diagnostics()["clip_fraction"] == pytest.approx(2 / len(actions))


def test_zero_advantages_zero_entropy_gives_zero_grads():
    net, states, actions, masks, _ = _toy_batch(seed=2)
    old = _live_logps(net, states, actions, masks)
    _, grads, _ = actor_loss_and_grads(
        net, states, actions, old, np.zeros(len(actions)), masks,
        epsilon=0.2, entropy_weight=0.0,
    )
    assert all((g == 0.0).all() for g in grads)


def test_actor_loss_matches_grad_variant():
    # the loss actor_loss_and_grads reports is the clipped surrogate's definition
    net, states, actions, masks, advs = _toy_batch(seed=3)
    old = _live_logps(net, states, actions, masks) - 0.1
    loss = actor_loss_and_grads(net, states, actions, old, advs, masks, 0.2, 0.01)[0]
    ratio = np.exp(_live_logps(net, states, actions, masks) - old)
    surrogate = np.minimum(ratio * advs, np.clip(ratio, 0.8, 1.2) * advs)
    logp = masked_log_softmax(net.forward_cache(states)[0], masks)
    entropy = np.array([-(np.exp(row[m]) * row[m]).sum() for row, m in zip(logp, masks)])
    assert loss == pytest.approx(np.mean(-surrogate - 0.01 * entropy), rel=1e-12)


def test_critic_loss_is_mse():
    rng = np.random.default_rng(5)
    net = Mlp([4, 6, 1], rng)
    states = rng.normal(size=(7, 4))
    returns = rng.normal(size=7)
    v = net.forward_cache(states)[0][:, 0]
    loss, grads = critic_loss_and_grads(net, states, returns)
    assert loss == pytest.approx(float(np.mean((v - returns) ** 2)))
    assert len(grads) == len(net.params)


def test_critic_step_reduces_loss():
    rng = np.random.default_rng(6)
    net = Mlp([4, 8, 1], rng)
    opt = Adam(net.vector, lr=1e-2)
    states = rng.normal(size=(16, 4))
    returns = rng.normal(size=16)
    start = critic_loss_and_grads(net, states, returns)[0]
    for _ in range(60):
        want = critic_loss_and_grads(net, states, returns)[0]  # the loss before the step
        assert critic_step(net, opt, states, returns) == want
    assert critic_loss_and_grads(net, states, returns)[0] < start
    assert opt.t == 60


def test_actor_step_raises_probability_of_good_action():
    rng = np.random.default_rng(7)
    net = Mlp([3, 8, 3], rng, policy_head=True)
    opt = Adam(net.vector, lr=1e-2)
    state = np.zeros((1, 3))
    mask = np.ones((1, 3), dtype=bool)
    action = np.array([2])
    before = masked_softmax_row(forward(net, state[0]), mask[0])[2]
    for _ in range(40):
        old = _live_logps(net, state, action, mask)
        loss, diagnostics = actor_step(net, opt, state, action, old, np.array([1.0]), mask)
    after = masked_softmax_row(forward(net, state[0]), mask[0])[2]
    assert after > before
    assert isinstance(loss, float)
    assert set(diagnostics()) == {"clip_fraction", "entropy", "approx_kl"}
