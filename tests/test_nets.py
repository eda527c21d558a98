"""Numerics for the tiny policy/value networks."""
import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spotsched.errors import NoFeasibleActionError
from spotsched.nets import (
    Adam,
    Mlp,
    clip_grad_norm,
    forward,
    masked_argmax_row,
    masked_log_softmax,
    masked_softmax_row,
)

EPS = np.finfo(float).eps


def batch_probs(logits, mask):
    """The batch path's probabilities: exp of the log-softmax, renormalized per row.

    exp(log-softmax) alone carries the rounding of max + log(sum) in every
    entry, up to about 100 ulps at logits of 40; renormalizing cancels it.
    """
    p = np.exp(masked_log_softmax(logits, mask))
    return p / p.sum(axis=-1, keepdims=True)


@st.composite
def logits_and_mask(draw):
    n = draw(st.integers(1, 8))
    logits = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if not any(mask):
        mask[draw(st.integers(0, n - 1))] = True
    return logits, mask


@given(logits_and_mask())
def test_masked_softmax_is_a_distribution(case):
    logits, mask = case
    p = masked_softmax_row(logits, mask)
    assert abs(math.fsum(p) - 1.0) <= 1e-9
    assert all(v == 0.0 for v, m in zip(p, mask) if not m)
    assert all(v >= 0.0 for v in p)


def test_masked_softmax_extreme_logits():
    p = masked_softmax_row([1000.0, -1000.0, 0.0], [True] * 3)
    assert math.fsum(p) == pytest.approx(1.0)
    assert p[0] == pytest.approx(1.0)


# (logits, mask, error): a masked NaN still means a broken network
BAD_ROWS = [
    ([0.0] * 3, [False] * 3, NoFeasibleActionError),
    ([math.nan, 1.0], [True, True], FloatingPointError),
    ([math.nan, 1.0], [False, True], FloatingPointError),
    ([0.0] * 3, [True] * 2, ValueError),
]


def test_masked_softmax_errors():
    for logits, mask, error in BAD_ROWS:
        with pytest.raises(error):
            masked_softmax_row(logits, mask)


def test_masked_argmax_raises_what_masked_softmax_raises():
    for logits, mask, error in BAD_ROWS + [([1.0, math.inf], [True, False], FloatingPointError)]:
        with pytest.raises(error):
            masked_argmax_row(logits, mask)
        with pytest.raises(error):
            masked_softmax_row(logits, mask)


@st.composite
def tied_logits_and_mask(draw):
    # logits on a grid of step >= 0.25: equal ones tie exactly, and unequal ones
    # never round to one probability, the one case where the two argmaxes differ
    n = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([0.25, 1.0, 6.0]))
    logits = [k * scale for k in draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))]
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if not any(mask):
        mask[draw(st.integers(0, n - 1))] = True
    return logits, mask


@given(tied_logits_and_mask())
@example(([1.0, 1.0, 0.0], [True, True, True]))
@example(([3.0, 3.0, 3.0], [False, False, True]))
@example(([0.0, -0.0], [True, True]))
def test_masked_argmax_is_the_softmax_argmax(case):
    logits, mask = case
    p = masked_softmax_row(logits, mask)
    assert masked_argmax_row(logits, mask) == p.index(max(p))


def test_masked_argmax_never_picks_a_masked_entry():
    # masked entries hold the row's largest logits, or equal the live maximum
    # ahead of it; the pick is always the first live entry of the live maximum
    rng = np.random.default_rng(11)
    for trial in range(2000):
        n = int(rng.integers(1, 12))
        logits = rng.normal(size=n) * 40.0
        if trial % 2:
            logits = np.round(logits / 40.0)  # a few values: ties everywhere
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
        logits[~mask] += 100.0 * (trial % 3 == 0)
        i = masked_argmax_row(logits.tolist(), mask.tolist())
        live = np.flatnonzero(mask)
        assert mask[i] and i == live[np.argmax(logits[live])]
    assert masked_argmax_row([5.0, 2.0, 5.0, 5.0], [False, True, False, True]) == 3


def test_masked_log_softmax_masked_entries():
    lp = masked_log_softmax(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]))
    assert lp[1] == -np.inf
    assert np.exp(lp[[0, 2]]).sum() == pytest.approx(1.0)


def test_masked_log_softmax_batch_equals_rows():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(40, 11)) * 5.0
    mask = rng.random((40, 11)) < 0.5
    mask[np.arange(40), rng.integers(11, size=40)] = True
    mask[0] = np.arange(11) == 4  # a single live entry
    logits[1] = np.where(np.arange(11) % 2, 1000.0, -1000.0)  # extreme logits
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
    # the update's probabilities, exp of the batch log-softmax, row by row;
    # the acting row path agrees with them to a few ulps
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(40, 11)) * 5.0
    mask = rng.random((40, 11)) < 0.5
    mask[np.arange(40), rng.integers(11, size=40)] = True
    mask[0] = np.arange(11) == 4  # a single live entry
    logits[1] = np.where(np.arange(11) % 2, 1000.0, -1000.0)  # extreme logits
    batch = np.exp(masked_log_softmax(logits, mask))
    rows = np.array([np.exp(masked_log_softmax(z, m)) for z, m in zip(logits, mask)])
    assert np.array_equal(batch, rows)
    acting = np.array([masked_softmax_row(z.tolist(), m.tolist()) for z, m in zip(logits, mask)])
    assert np.abs(acting - batch_probs(logits, mask)).max() <= 4 * EPS
    assert np.array_equal(acting == 0.0, ~mask | (batch == 0.0))
    uniform = np.exp(masked_log_softmax(np.zeros((2, 3)), np.ones((2, 3), dtype=bool)))
    assert np.array_equal(uniform, np.full((2, 3), 1 / 3))
    assert masked_softmax_row([0.0] * 3, [True] * 3) == [1 / 3] * 3


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
    logits = forward(policy, np.zeros(3))
    assert isinstance(logits, list) and len(logits) == 4
    p = masked_softmax_row(logits, [True, False, True, True])
    assert isinstance(p, list) and len(p) == 4
    assert p[1] == 0.0
    assert math.fsum(p) == pytest.approx(1.0)
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
    # the acting row path against the update's batch path: probabilities
    # within 4 ulps of 1, log-probabilities within 1024 ulps of their size.
    # The worst seen over 100,000 random rows of 1-39 logits, up to +-1000:
    # 1.5 and 248 ulps.
    rng = np.random.default_rng(5)
    net = Mlp(sizes, rng, policy_head=policy_head)
    net.vector[:] = rng.normal(scale=0.3, size=net.vector.size)  # nonzero biases too
    for x in rng.random((200, sizes[0])):
        out = net.forward_cache(x)[0][0]
        mask = rng.random(sizes[-1]) < 0.7
        mask[rng.integers(sizes[-1])] = True
        if policy_head:
            p = masked_softmax_row(forward(net, x), mask.tolist())
            logp = masked_log_softmax(out, mask)
            assert np.abs(np.array(p) - batch_probs(out, mask)).max() <= 4 * EPS
            for i in np.flatnonzero(mask):
                assert abs(math.log(p[i]) - logp[i]) <= 1024 * EPS * max(1.0, abs(logp[i]))
        else:
            assert forward(net, x) == float(out[0])


@pytest.mark.parametrize("n", [1, 2, 7, 64, 333])
def test_value_rows_equal_each_rows_forward(n):
    # the episode's value pass: stacked rows give exactly the per-row values,
    # where a 2-D gemm (forward_cache) sums in another order
    rng = np.random.default_rng(n)
    critic = Mlp([43, 64, 64, 1], rng)
    opt = Adam(critic.vector, lr=0.01)
    rows = rng.random((n, 43))
    for _ in range(4):
        values = forward(critic, rows)
        assert values.shape == (n,)
        assert np.array_equal(values, [forward(critic, x) for x in rows])
        opt.step(critic.vector, rng.normal(size=critic.vector.size))


@pytest.mark.parametrize("k", [2, 5, 6, None])
def test_policy_row_forward_equals_a_matmul_reference(k):
    # the acting row path multiplies with np.dot: the same gemv as @, bit for
    # bit, on fresh networks and after Adam steps; k=None draws small sizes
    rng = np.random.default_rng(k or 0)
    shapes = ([[58, 64, 64, k]] if k else
              [rng.integers(1, 20, size=rng.integers(2, 5)).tolist() for _ in range(12)])
    for shape in shapes:
        net = Mlp(shape, rng, policy_head=True)
        opt = Adam(net.vector, lr=0.01)

        def reference(x, mask):
            for w, b in net.hidden:
                x = np.tanh(x @ w + b)
            return masked_softmax_row((x @ net.weights[-1] + net.biases[-1]).tolist(), mask)

        for _ in range(4):
            for x in rng.normal(size=(25, shape[0])):
                mask = (rng.random(shape[-1]) < 0.7).tolist()
                mask[rng.integers(shape[-1])] = True
                assert np.array_equal(masked_softmax_row(forward(net, x), mask),
                                      reference(x, mask))
            opt.step(net.vector, rng.normal(size=net.vector.size))


def test_single_row_forward_errors():
    # a policy head's logits raise at either row function, sampled or greedy
    net = Mlp([3, 4, 2], np.random.default_rng(0), policy_head=True)
    for row in (masked_softmax_row, masked_argmax_row):
        with pytest.raises(NoFeasibleActionError):
            row(forward(net, np.ones(3)), [False, False])
        with pytest.raises(ValueError):
            row(forward(net, np.ones(3)), [True])
    net.weights[1][0, 0] = np.nan
    for row in (masked_softmax_row, masked_argmax_row):
        with pytest.raises(FloatingPointError):
            row(forward(net, np.ones(3)), [True, True])


def test_forward_rejects_poisoned_value():
    net = Mlp([2, 1], np.random.default_rng(0))
    net.weights[0][0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        forward(net, np.ones(2))
    with pytest.raises(FloatingPointError):
        forward(net, np.ones((3, 2)))


def test_clip_grad_norm_scales_in_place():
    grads = [np.array([3.0]), np.array([4.0])]
    raw = clip_grad_norm(grads, 1.0)
    assert raw == 5.0
    total = math.sqrt(sum(float((g ** 2).sum()) for g in grads))
    assert total == pytest.approx(1.0)


def test_clip_grad_norm_sums_as_np_sum():
    # the ufunc reduction is np.sum's, bit for bit, on arrays of every rank used
    rng = np.random.default_rng(3)
    for shape in [(7,), (58, 64), (64, 64), (64, 6), (1,)]:
        grads = [rng.normal(scale=10.0 ** rng.uniform(-6, 3), size=shape) for _ in range(3)]
        want = math.sqrt(reduce(operator.add, (float(np.sum(g * g)) for g in grads), 0))
        assert clip_grad_norm(grads, 0.0) == want


def test_clip_grad_norm_adds_squared_norms_left_to_right():
    # ten squares below half an ulp of 1.0: each vanishes added in order, while
    # compensated summation (builtin sum() from Python 3.12 on) keeps them
    grads = [np.array([1.0])] + [np.array([1e-8]) for _ in range(10)]
    squares = [float(g[0] * g[0]) for g in grads]
    in_order = reduce(operator.add, squares, 0)
    assert in_order == 1.0 and math.fsum(squares) != in_order
    assert clip_grad_norm(grads, 0.0) == math.sqrt(in_order)


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
