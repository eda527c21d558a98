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
    batched = net.forward_cache(x)[0]
    assert batched.shape == (5, 2)
    single = net.forward_cache(x[0])[0]
    assert np.allclose(single[0], batched[0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = Mlp([4, 5, 2], rng)
    x = rng.normal(size=(3, 4))

    def loss():
        out = net.forward_cache(x)[0]
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


def test_params_are_views_of_one_vector():
    net = Mlp([4, 5, 3], np.random.default_rng(0), policy_head=True)
    assert all(p is w for p, w in zip(net.params[0::2], net.weights))
    assert all(p is b for p, b in zip(net.params[1::2], net.biases))
    assert all(np.shares_memory(p, net.vector) for p in net.params)
    assert sum(p.size for p in net.params) == net.vector.size
    net.vector[:] = np.arange(net.vector.size)
    assert net.params[0][0, 1] == 1.0 and net.params[1][0] == 20.0


@pytest.mark.parametrize("policy_head,sizes", [(True, [58, 64, 64, 6]), (False, [58, 64, 64, 1]),
                                                (True, [3, 4])])
def test_single_row_forward_equals_forward_cache_row(policy_head, sizes):
    rng = np.random.default_rng(5)
    net = Mlp(sizes, rng, policy_head=policy_head)
    net.vector[:] = rng.normal(scale=0.3, size=net.vector.size)  # nonzero biases too
    for x in rng.random((200, sizes[0])):
        out = net.forward_cache(x)[0][0]
        mask = rng.random(sizes[-1]) < 0.7
        mask[rng.integers(sizes[-1])] = True
        if policy_head:
            assert np.array_equal(forward(net, x, mask), masked_softmax(out, mask))
        else:
            assert forward(net, x) == float(out[0])


def test_single_row_forward_errors():
    net = Mlp([3, 4, 2], np.random.default_rng(0), policy_head=True)
    with pytest.raises(NoFeasibleActionError):
        forward(net, np.ones(3), np.zeros(2, dtype=bool))
    net.weights[1][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        forward(net, np.ones(3), np.ones(2, dtype=bool))


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
    params = np.array([1.0, -2.0])
    opt = Adam(params, lr=0.1)
    opt.step(params, np.array([0.5, -0.25]))
    # bias correction makes the first update lr * sign(g) (up to eps)
    assert params == pytest.approx([0.9, -1.9], abs=1e-6)
    assert opt.t == 1


def test_adam_moment_shapes():
    net = Mlp([3, 4, 2], np.random.default_rng(0))
    opt = Adam(net.vector, lr=0.01)
    assert opt.m.shape == opt.v.shape == net.vector.shape == (sum(p.size for p in net.params),)


def test_flat_adam_step_equals_per_array_steps():
    # Adam's moments are per element, so one step over the whole vector is
    # the per-array step bit for bit
    rng = np.random.default_rng(11)
    net = Mlp([5, 7, 3], rng)
    opt = Adam(net.vector, lr=3e-3)
    ref = [p.copy() for p in net.params]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    b1, b2 = opt.beta1, opt.beta2
    for t in range(1, 6):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) for p in ref]
        opt.step(net.vector, np.concatenate([g.ravel() for g in grads]))
        for p, g, mt, vt in zip(ref, grads, m, v):
            mt *= b1
            mt += (1.0 - b1) * g
            vt *= b2
            vt += (1.0 - b2) * g * g
            p -= opt.lr * (mt / (1.0 - b1 ** t)) / (np.sqrt(vt / (1.0 - b2 ** t)) + opt.eps)
        assert all(np.array_equal(a, b) for a, b in zip(net.params, ref))
