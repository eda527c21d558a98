"""Returns, advantages, and the clipped-surrogate update."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from spotsched.nets import Adam, Mlp, forward, masked_log_softmax
from spotsched.ppo import (
    TrainConfig,
    actor_loss_and_grads,
    actor_step,
    advantages,
    critic_loss_and_grads,
    critic_step,
    discounted_returns,
)


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.episodes == 300
    assert cfg.epochs == 4 and cfg.minibatch_size == 64
    assert cfg.clip_epsilon == 0.2
    assert 0 < cfg.discount < 1


def test_train_config_validation():
    for bad in (
        dict(discount=0),
        dict(discount=1),
        dict(clip_epsilon=0),
        dict(epochs=0),
        dict(minibatch_size=0),
        dict(episodes=0),
        dict(group_lr=0),
        dict(entropy_weight=-1),
        dict(grad_clip_norm=-1),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_discounted_returns_hand_case():
    out = discounted_returns([1.0, 1.0, 1.0], 0.5)
    assert out.tolist() == [1.75, 1.5, 1.0]
    with pytest.raises(ValueError):
        discounted_returns([1.0], 0.0)
    with pytest.raises(ValueError):
        discounted_returns([1.0], 1.0)


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
    adv = advantages([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    assert adv.mean() == pytest.approx(0.0, abs=1e-12)
    assert adv.std() == pytest.approx(1.0, rel=1e-12)


def test_advantages_degenerate_passthrough():
    assert advantages([5.0], [2.0]).tolist() == [3.0]
    assert advantages([2.0, 2.0], [1.0, 1.0]).tolist() == [1.0, 1.0]
    with pytest.raises(ValueError):
        advantages([1.0], [1.0, 2.0])


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
                                      advs, masks, eps, entropy_weight=0.0)
    return -loss


def test_actor_loss_clip_cases():
    assert clipped_surrogate([1.5], [1.0], 0.2) == pytest.approx(1.2, abs=1e-12)
    assert clipped_surrogate([0.5], [-1.0], 0.2) == pytest.approx(-0.8, abs=1e-12)
    for adv in (-2.0, 0.0, 0.7):
        assert clipped_surrogate([1.0], [adv], 0.2) == adv
        assert clipped_surrogate([1.0], [adv], 0.05) == adv
    for eps in (0.0, -0.2):
        with pytest.raises(ValueError):
            clipped_surrogate([1.0], [1.0], eps)


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
    loss, grads, clip_frac = actor_loss_and_grads(
        net, states, actions, old, advs, masks, epsilon=0.2, entropy_weight=0.0
    )
    assert clip_frac == 0.0
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
    total = clipped_count = 0
    for b, (a, mask) in enumerate(zip(actions, masks)):
        logp = masked_log_softmax(out[b], mask)
        p = np.exp(logp)
        ratio = float(np.exp(logp[a] - old_logps[b]))
        unclipped = ratio * advs[b]
        clipped = min(max(ratio, 1.0 - eps), 1.0 + eps) * advs[b]
        inside = 1.0 - eps <= ratio <= 1.0 + eps
        clipped_count += not inside
        ent = float(-(p[mask] * logp[mask]).sum())
        total += -min(unclipped, clipped) - weight * ent
        onehot = np.zeros_like(p)
        onehot[a] = 1.0
        dsurr = (unclipped if inside or unclipped <= clipped else 0.0) * (onehot - p)
        dent = np.where(mask, -p * (np.where(mask, logp, 0.0) + ent), 0.0)
        dlogits[b] = np.where(mask, -dsurr - weight * dent, 0.0)
    n = len(actions)
    return total / n, net.backward(acts, dlogits / n), clipped_count / n


def test_batched_actor_terms_match_per_sample_loop():
    rng = np.random.default_rng(5)
    net = Mlp([5, 8, 6], rng, policy_head=True)
    states = rng.normal(size=(16, 5))
    actions = rng.integers(6, size=16)
    masks = rng.random((16, 6)) < 0.6
    masks[np.arange(16), actions] = True
    old = _live_logps(net, states, actions, masks) + rng.normal(scale=0.4, size=16)
    advs = rng.normal(size=16)
    loss, grads, clip_frac = actor_loss_and_grads(net, states, actions, old, advs, masks,
                                                  epsilon=0.2, entropy_weight=0.05)
    ref_loss, ref_grads, ref_clip = _per_sample_actor_terms(
        net, states, actions, old, advs, masks, 0.2, 0.05)
    assert 0 < clip_frac < 1 and clip_frac == ref_clip
    assert loss == pytest.approx(ref_loss, rel=1e-12)  # summed in another order
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


def test_clip_fraction_counts_out_of_range_ratios():
    net, states, actions, masks, advs = _toy_batch(seed=1)
    old = _live_logps(net, states, actions, masks)
    old[0] -= 1.0  # ratio e^-1, below the clip window
    old[1] += 1.0  # ratio e^1, above it
    _, _, clip_frac = actor_loss_and_grads(
        net, states, actions, old, advs, masks, epsilon=0.2, entropy_weight=0.0
    )
    assert clip_frac == pytest.approx(2 / len(actions))


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
    cfg = TrainConfig()
    start = critic_loss_and_grads(net, states, returns)[0]
    for _ in range(60):
        report = critic_step(net, opt, states, returns, cfg)
    assert critic_loss_and_grads(net, states, returns)[0] < start
    assert set(report) == {"loss"}
    assert opt.t == 60


def test_actor_step_raises_probability_of_good_action():
    rng = np.random.default_rng(7)
    net = Mlp([3, 8, 3], rng, policy_head=True)
    opt = Adam(net.vector, lr=1e-2)
    state = np.zeros((1, 3))
    mask = np.ones((1, 3), dtype=bool)
    cfg = TrainConfig()
    before = forward(net, state[0], mask[0])[2]
    for _ in range(40):
        old = _live_logps(net, state, [2], mask)
        report = actor_step(net, opt, state, [2], old, np.array([1.0]), mask, cfg)
    after = forward(net, state[0], mask[0])[2]
    assert after > before
    assert set(report) == {"loss", "clip_fraction"}
