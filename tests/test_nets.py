"""Numerics for the tiny policy/value networks."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spotsched.errors import NoFeasibleActionError
from spotsched.nets import (
    Adam,
    Mlp,
    clip_grad_norm,
    forward,
    masked_log_softmax,
    masked_softmax,
)


@st.composite
def logits_and_mask(draw):
    n = draw(st.integers(1, 8))
    logits = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if not any(mask):
        mask[draw(st.integers(0, n - 1))] = True
    return np.array(logits), np.array(mask)


@given(logits_and_mask())
def test_masked_softmax_is_a_distribution(case):
    logits, mask = case
    p = masked_softmax(logits, mask)
    assert abs(float(p.sum()) - 1.0) <= 1e-9
    assert (p[~mask] == 0.0).all()
    assert (p[mask] >= 0.0).all()


def test_masked_softmax_extreme_logits():
    p = masked_softmax(np.array([1000.0, -1000.0, 0.0]))
    assert p.sum() == pytest.approx(1.0)
    assert p[0] == pytest.approx(1.0)


def test_masked_softmax_errors():
    with pytest.raises(NoFeasibleActionError):
        masked_softmax(np.zeros(3), np.zeros(3, dtype=bool))
    with pytest.raises(FloatingPointError):
        masked_softmax(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        masked_softmax(np.zeros(3), np.ones(2, dtype=bool))


def test_masked_log_softmax_masked_entries():
    lp = masked_log_softmax(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]))
    assert lp[1] == -np.inf
    assert np.exp(lp[[0, 2]]).sum() == pytest.approx(1.0)


def test_masked_log_softmax_batch_equals_rows():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(40, 11)) * 5.0
    mask = rng.random((40, 11)) < 0.5
    mask[np.arange(40), rng.integers(11, size=40)] = True
    batch = masked_log_softmax(logits, mask)
    rows = np.array([masked_log_softmax(z, m) for z, m in zip(logits, mask)])
    assert np.array_equal(batch, rows)
    assert (~mask).any() and np.isneginf(batch[~mask]).all()
    assert np.isfinite(batch[mask]).all()
    mask[7] = False
    with pytest.raises(NoFeasibleActionError):
        masked_log_softmax(logits, mask)
    with pytest.raises(ValueError):
        masked_log_softmax(logits, mask[:, :5])


def test_masked_softmax_batch_equals_rows():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(40, 11)) * 5.0
    mask = rng.random((40, 11)) < 0.5
    mask[np.arange(40), rng.integers(11, size=40)] = True
    batch = masked_softmax(logits, mask)
    rows = np.array([masked_softmax(z, m) for z, m in zip(logits, mask)])
    assert np.array_equal(batch, rows)
    assert np.array_equal(masked_softmax(np.zeros((2, 3))), np.full((2, 3), 1 / 3))


def test_mlp_orthogonal_init():
    net = Mlp([6, 8, 3], np.random.default_rng(0), policy_head=True)
    assert [w.shape for w in net.weights] == [(6, 8), (8, 3)]
    assert all((b == 0).all() for b in net.biases)
    hidden = net.weights[0]
    # rows orthonormal, scaled by sqrt(2)
    assert np.allclose(hidden @ hidden.T, 2.0 * np.eye(6), atol=1e-12)
    head = net.weights[-1]
    # small policy head keeps the initial distribution near uniform
    assert np.allclose(head.T @ head, 1e-4 * np.eye(3), atol=1e-12)


def test_value_head_is_unscaled():
    net = Mlp([6, 8, 1], np.random.default_rng(0))
    head = net.weights[-1]
    assert np.allclose(head.T @ head, np.eye(1), atol=1e-12)


def test_mlp_rejects_bad_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Mlp([4], rng)
    with pytest.raises(ValueError):
        Mlp([4, 0], rng)


def test_logits_batching():
    net = Mlp([3, 4, 2], np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(5, 3))
    batched = net.logits(x)
    assert batched.shape == (5, 2)
    single = net.logits(x[0])
    assert np.allclose(single[0], batched[0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = Mlp([4, 5, 2], rng)
    x = rng.normal(size=(3, 4))

    def loss():
        out = net.logits(x)
        return 0.5 * float((out ** 2).sum())

    out, acts = net.forward_cache(x)
    grads = net.backward(acts, out.copy())
    h = 1e-6
    for p, g in zip(net.params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + h
            up = loss()
            p[idx] = keep - h
            down = loss()
            p[idx] = keep
            fd = (up - down) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_forward_policy_and_value():
    rng = np.random.default_rng(4)
    policy = Mlp([3, 4], rng, policy_head=True)
    p = forward(policy, np.zeros(3), np.array([True, False, True, True]))
    assert p.shape == (4,)
    assert p[1] == 0.0
    assert p.sum() == pytest.approx(1.0)
    value = Mlp([3, 1], rng)
    v = forward(value, np.zeros(3))
    assert isinstance(v, float)


def test_forward_rejects_poisoned_value():
    net = Mlp([2, 1], np.random.default_rng(0))
    net.weights[0][0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        forward(net, np.ones(2))


def test_clip_grad_norm_scales_in_place():
    grads = [np.array([3.0]), np.array([4.0])]
    raw = clip_grad_norm(grads, 1.0)
    assert raw == 5.0
    total = math.sqrt(sum(float((g ** 2).sum()) for g in grads))
    assert total == pytest.approx(1.0)


def test_clip_grad_norm_leaves_small_gradients_alone():
    grads = [np.array([3.0]), np.array([4.0])]
    assert clip_grad_norm(grads, 10.0) == 5.0
    assert grads[0][0] == 3.0 and grads[1][0] == 4.0


def test_clip_grad_norm_zero_disables():
    grads = [np.array([3.0, 4.0])]
    assert clip_grad_norm(grads, 0.0) == 5.0
    assert grads[0].tolist() == [3.0, 4.0]


def test_adam_first_step():
    params = [np.array([1.0, -2.0])]
    opt = Adam(params, lr=0.1)
    opt.step(params, [np.array([0.5, -0.25])])
    # bias correction makes the first update lr * sign(g) (up to eps)
    assert params[0] == pytest.approx([0.9, -1.9], abs=1e-6)
    assert opt.t == 1


def test_adam_moment_shapes():
    params = [np.zeros(2), np.zeros((3, 4))]
    opt = Adam(params, lr=0.01)
    assert [m.shape for m in opt.m] == [(2,), (3, 4)]
    assert [v.shape for v in opt.v] == [(2,), (3, 4)]
