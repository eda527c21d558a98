"""End-to-end checks over the whole stack, one per numbered criterion.

Each test prints a single `criterion N: PASS|FAIL` line (visible under
`pytest -s`, or in the captured output of a failing test).

Criteria 5-7 check the paper's claim that the trained agent schedules more
cheaply than the benchmark schedulers by mixing spot and on-demand nodes,
"without compromising the underlying business requirements". The paper's
abstract (PAPER.md) gives no numbers for its testbed, so each ordering
asserts what the method or the simulator's cost model promises, and each
link that rests on a premise asserts that premise too:

- criterion 5, `random < on-demand`: the abstract does not say how the
  paper billed interrupted work, so the cost model of the README applies.
  A task bills compute time x unit cost once, at placement, and an
  interrupted workflow fails without retries. When every spot node is
  cheaper per unit of work (price / rate) than every on-demand node, and
  the on-demand-only baseline completes every workflow, no schedule costs
  more than on-demand-only, and any schedule that puts work on spot costs
  less. Both premises are asserted.
- criterion 6, spot exposure: at the default hazard each scheduler loses
  one or two workflows over five seeds, too few to put in order, so the
  realized interruption counts are decided by where the seeded
  interruptions fall. The abstract promises no such count. The test
  compares instead how long each scheduler holds tasks on spot nodes
  (placement to recorded finish), which follows from the schedule, and
  asserts that its reruns are the very episodes of the comparison.
- criterion 7, execution time: the abstract does not rank the agent's
  execution time against the benchmarks. The fastest node on the stock
  cluster is also a spot node that is cheaper per unit of work than every
  on-demand node, so a cost-seeking agent is not forced to be slower than
  the filter-and-score baseline. The test keeps the upper bound against
  random placement and checks the business requirement in simulator
  terms: no agent workflow times out.
"""
import itertools
import time

import numpy as np
from click.testing import CliRunner

from spotsched.agent import MultiActorAgent, state_dim
from spotsched.baselines import RandomPolicy, baseline_cluster, make_baseline
from spotsched.cli import main
from spotsched.cluster import ON_DEMAND, SPOT, ClusterSpec, NodeSpec
from spotsched.engine import SimEnv, run_episode
from spotsched.harness import workload_for_seed
from spotsched.nets import Mlp, forward, masked_log_softmax, masked_softmax
from spotsched.ppo import RolloutBuffer, TrainConfig, actor_loss_and_grads, critic_loss_and_grads
from spotsched.workflow import EdgeSpec, TaskSpec, WorkflowSpec, computation_time, task_cost
from spotsched.workload import WorkloadConfig


def _report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_accounting_identities(builtin_cluster):
    start = time.perf_counter()
    for seed in range(100):
        workload = workload_for_seed(WorkloadConfig(), seed)
        env = SimEnv(builtin_cluster, workload, seed=[seed, 2])

        def conservation_check(record, env=env):
            for state in env.nodes.values():
                used_cpu = sum(t.cpu_req for t in state.running.values())
                used_mem = sum(t.mem_req for t in state.running.values())
                assert abs((state.spec.cpu - state.cpu_free) - used_cpu) <= 1e-9
                assert abs((state.spec.mem_gb - state.mem_free) - used_mem) <= 1e-9
                assert -1e-9 <= state.cpu_free <= state.spec.cpu + 1e-9
                assert -1e-9 <= state.mem_free <= state.spec.mem_gb + 1e-9
                if not state.alive:
                    assert not state.running

        env.on_event = conservation_check
        policy = RandomPolicy(builtin_cluster, seed=[seed, 3])
        obs = env.reset()
        while obs is not None:
            obs, _, _ = env.step(policy(obs))

        stats = env.episode_stats()
        total = 0.0
        for wf_id, run in env.runs.items():
            wf_stats = stats.workflows[wf_id]
            cost = 0.0
            makespan = 0.0
            for task_id, t in run.timings.items():
                cost += t.cost
                makespan = max(makespan, t.finish)
                if task_id in run.completed:
                    lhs = t.finish
                    rhs = t.start + t.compute + t.wait + t.max_transfer
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
            assert abs(wf_stats.makespan - makespan) <= 1e-9 * max(1.0, makespan)
            assert abs(wf_stats.cost - cost) <= 1e-9 * max(1.0, cost)
            total += cost
        assert abs(stats.total_cost - total) <= 1e-9 * max(1.0, total)

    elapsed = time.perf_counter() - start
    ok = elapsed <= 30.0
    msg = _report(1, ok, f"100 random-policy episodes, identities hold, {elapsed:.1f}s")
    assert ok, msg


def test_criterion_2_brute_force_minimum():
    start = time.perf_counter()
    nodes = (
        NodeSpec(id="a", flavor="fa", cpu=4.0, mem_gb=8.0, rate=2.0,
                 pricing_class=SPOT, price_per_hour=0.036),
        NodeSpec(id="b", flavor="fb", cpu=4.0, mem_gb=8.0, rate=5.0,
                 pricing_class=ON_DEMAND, price_per_hour=0.27),
    )
    cluster = ClusterSpec(nodes=nodes, interruption_rate_per_hour=0.0)
    works = (120.0, 45.0, 200.0)
    tasks = tuple(
        TaskSpec(id=f"t{i}", cpu_req=1.0, mem_req=2.0, work=w) for i, w in enumerate(works)
    )
    wf = WorkflowSpec(
        id="chain", tasks=tasks,
        edges=(EdgeSpec("t0", "t1", 30.0), EdgeSpec("t1", "t2", 30.0)),
    )

    oracle = min(
        sum(task_cost(computation_time(w, n.rate), n.unit_cost)
            for w, n in zip(works, assignment))
        for assignment in itertools.product(nodes, repeat=len(works))
    )

    def greedy(obs):
        best, best_cost = None, float("inf")
        for i in np.flatnonzero(obs.fit):
            c = task_cost(computation_time(obs.task.work, nodes[i].rate), obs.unit_cost[i])
            if c < best_cost:
                best, best_cost = obs.node_ids[i], c
        return best

    stats = run_episode(greedy, cluster, [wf], seed=0)
    elapsed = time.perf_counter() - start
    ok = stats.total_cost == oracle and elapsed <= 1.0
    msg = _report(
        2, ok,
        f"enumerated 8 assignments, greedy cost {stats.total_cost!r} == oracle {oracle!r}, "
        f"{elapsed * 1000:.0f}ms",
    )
    assert ok, msg


def _max_rel_grad_error(net, loss_fn, grads):
    h = 1e-6
    worst = 0.0
    for p, g in zip(net.params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + h
            up = loss_fn()
            p[idx] = keep - h
            down = loss_fn()
            p[idx] = keep
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    return worst


def test_criterion_3_policy_numerics(builtin_cluster):
    # (a) masked softmax normalizes within 1e-9
    rng = np.random.default_rng(42)
    for _ in range(100):
        logits = rng.normal(size=6) * 5.0
        mask = rng.random(6) < 0.5
        if not mask.any():
            mask[int(rng.integers(6))] = True
        p = masked_softmax(logits, mask)
        assert abs(float(p.sum()) - 1.0) <= 1e-9
        assert (p[~mask] == 0.0).all()

    # (b) analytic gradients vs central differences, fixed tiny setup
    actor = Mlp([5, 6, 3], np.random.default_rng(7), policy_head=True)
    states = np.random.default_rng(8).normal(size=(4, 5))
    actions = np.array([0, 2, 1, 0])
    masks = np.ones((4, 3), dtype=bool)
    masks[1, 0] = False
    masks[3, 2] = False
    out = actor.forward_cache(states)[0]
    live = np.array([
        masked_log_softmax(out[b], masks[b])[actions[b]] for b in range(4)
    ])
    # probability ratios 1.0, 1.6, 0.45, 0.9: clipped and unclipped branches
    old = live - np.array([0.0, np.log(1.6), np.log(0.45), np.log(0.9)])
    advs = np.array([0.8, -1.1, 0.5, 1.4])
    _, grads, _ = actor_loss_and_grads(actor, states, actions, old, advs, masks, 0.2, 0.01)
    actor_err = _max_rel_grad_error(
        actor,
        lambda: actor_loss_and_grads(actor, states, actions, old, advs, masks, 0.2, 0.01)[0],
        grads,
    )
    assert actor_err <= 1e-4

    critic = Mlp([5, 6, 1], np.random.default_rng(9))
    returns = np.random.default_rng(10).normal(size=4)
    _, cgrads = critic_loss_and_grads(critic, states, returns)
    critic_err = _max_rel_grad_error(
        critic, lambda: critic_loss_and_grads(critic, states, returns)[0], cgrads
    )
    assert critic_err <= 1e-4

    # (c) the update's actor loss clips the three hand cases: a one-sample
    # batch whose one live action has log-probability 0, so the old
    # log-probability -log(ratio) sets the ratio
    one_live = Mlp([1, 2], np.random.default_rng(0), policy_head=True)
    for ratio, adv, want in ((1.5, 1.0, 1.2), (0.5, -1.0, -0.8), (1.0, 0.7, 0.7)):
        loss, _, _ = actor_loss_and_grads(one_live, np.zeros((1, 1)), [0], [-np.log(ratio)],
                                          [adv], [[True, False]], 0.2, 0.0)
        assert abs(-loss - want) <= 1e-12

    # (d) zero advantages + zero entropy weight leave the actors untouched
    agent = MultiActorAgent(builtin_cluster, seed=0)
    buffer = RolloutBuffer()
    dim = state_dim(len(builtin_cluster.nodes))
    group_mask = np.ones(2, dtype=bool)
    fit = np.ones(len(builtin_cluster.nodes), dtype=bool)
    for i in range(6):
        g = i % 2
        node_mask = np.ones(agent.layout.group_sizes[g], dtype=bool)
        state = np.zeros(dim)
        state[0] = 0.1 * i
        p_group = forward(agent.policies.group_actor, state, group_mask)
        p_node = forward(agent.policies.node_actors[g], state, node_mask)
        buffer.add(state, fit, g, 0, float(np.log(p_group[g])), float(np.log(p_node[0])),
                   0.0, 0.0)
    config = TrainConfig(entropy_weight=0.0)
    buffer.compute(config.discount)
    assert np.all(buffer.advantages == 0.0)
    actors = [agent.policies.group_actor, *agent.policies.node_actors]
    before = [p.copy() for net in actors for p in net.params]
    agent.update(buffer, config, np.random.default_rng(0))
    after = [p for net in actors for p in net.params]
    unchanged = all(np.array_equal(b, a) for b, a in zip(before, after))
    assert unchanged

    msg = _report(
        3, True,
        f"softmax within 1e-9; grad err actor {actor_err:.2e}, critic {critic_err:.2e}; "
        "clip cases within 1e-12; zero-advantage update is a no-op",
    )
    assert msg


def test_criterion_4_learning_progress(trained):
    _, curve, elapsed = trained
    costs = [r.total_cost for r in curve]
    first = float(np.mean(costs[:50]))
    last = float(np.mean(costs[-50:]))
    ok = len(curve) == 300 and last < first and last <= 0.9 * first and elapsed <= 900.0
    msg = _report(
        4, ok,
        f"300 episodes in {elapsed:.0f}s, first-50 mean {first:.6f}, "
        f"last-50 mean {last:.6f}, ratio {last / first:.3f}",
    )
    assert ok, msg


def test_criterion_5_cost_ordering(builtin_cluster, comparison):
    rows, summaries = comparison
    cost = {s.scheduler: s.mean_cost for s in summaries}
    per_work = {
        cls: [n.price_per_hour / n.rate for n in nodes]
        for cls, nodes in builtin_cluster.pricing_groups().items()
    }
    on_demand_rows = [r for r in rows if r.scheduler == "on-demand"]
    links = {
        "spot cheaper per unit of work": max(per_work[SPOT]) < min(per_work[ON_DEMAND]),
        "on-demand completes every workflow": bool(on_demand_rows) and all(
            r.completed == len(workload_for_seed(WorkloadConfig(), r.seed))
            for r in on_demand_rows
        ),
        "agent < k8-default": cost["agent"] < cost["k8-default"],
        "agent >= 5% cheaper": cost["agent"] <= 0.95 * cost["k8-default"],
        "k8-default < on-demand": cost["k8-default"] < cost["on-demand"],
        "random < on-demand": cost["random"] < cost["on-demand"],
    }
    ok = all(links.values())
    detail = "; ".join(f"{name}: {'yes' if held else 'NO'}" for name, held in links.items())
    means = ", ".join(f"{k}={v:.6f}" for k, v in sorted(cost.items()))
    msg = _report(5, ok, f"{detail} | {means}")
    assert ok, msg


def _spot_exposure(cluster, agent, name, seed):
    """Rerun one evaluation episode of the comparison; returns the task-seconds
    held on spot nodes (placement to recorded finish) and the episode stats."""
    if name == "agent":
        policy = agent.scheduler()
    else:
        policy = make_baseline(name, cluster, seed=[seed, 3])
    env = SimEnv(baseline_cluster(cluster, name), workload_for_seed(WorkloadConfig(), seed),
                 seed=[seed, 2])
    obs = env.reset()
    while obs is not None:
        obs, _, _ = env.step(policy(obs))
    spot = {n.id for n in cluster.pricing_groups()[SPOT]}
    held = sum(
        t.finish - (t.start + t.wait)
        for run in env.runs.values()
        for task_id, t in run.timings.items()
        if run.node_of[task_id] in spot
    )
    return held, env.episode_stats()


def test_criterion_6_interruption_ordering(builtin_cluster, trained, comparison):
    agent, _, _ = trained
    rows, summaries = comparison
    interrupted = {s.scheduler: s.mean_interrupted for s in summaries}
    exposure = {}
    reruns_match = True
    for name in ("agent", "k8-default"):
        exposure[name] = 0.0
        name_rows = [r for r in rows if r.scheduler == name]
        reruns_match &= bool(name_rows)
        for row in name_rows:
            held, stats = _spot_exposure(builtin_cluster, agent, name, row.seed)
            exposure[name] += held
            reruns_match &= (stats.total_cost, stats.interrupted) == (
                row.total_cost, row.interrupted
            )
    links = {
        "reruns match comparison": reruns_match,
        "agent spot exposure >= k8-default": exposure["agent"] >= exposure["k8-default"],
        "k8-default >= on-demand": interrupted["k8-default"] >= interrupted["on-demand"],
        "on-demand == 0": interrupted["on-demand"] == 0.0,
    }
    ok = all(links.values())
    detail = "; ".join(f"{name}: {'yes' if held else 'NO'}" for name, held in links.items())
    held_s = ", ".join(f"{k}={v:.0f}" for k, v in sorted(exposure.items()))
    means = ", ".join(f"{k}={v:.2f}" for k, v in sorted(interrupted.items()))
    msg = _report(6, ok, f"{detail} | spot task-seconds {held_s} | interrupted {means}")
    assert ok, msg


def test_criterion_7_execution_time_ordering(comparison):
    rows, summaries = comparison
    times = {s.scheduler: s.mean_execution_time for s in summaries}
    agent_rows = [r for r in rows if r.scheduler == "agent"]
    links = {
        "agent <= random": times["agent"] <= times["random"],
        "no agent workflow times out": bool(agent_rows)
        and all(r.timed_out == 0 for r in agent_rows),
    }
    ok = all(links.values())
    detail = "; ".join(f"{name}: {'yes' if held else 'NO'}" for name, held in links.items())
    means = ", ".join(f"{k}={v:.2f}" for k, v in sorted(times.items()))
    msg = _report(7, ok, f"{detail} | {means}")
    assert ok, msg


def test_criterion_8_byte_identical_reruns(tmp_path):
    runner = CliRunner()

    def run_all(root):
        root.mkdir()
        workload = root / "workload"
        result = runner.invoke(main, [
            "generate", "--count", "3", "--seed", "5", "--out", str(workload),
        ])
        assert result.exit_code == 0, result.output
        train_out = root / "train"
        result = runner.invoke(main, [
            "train", "--workload", str(workload), "--episodes", "3",
            "--seed", "1", "--out", str(train_out),
        ])
        assert result.exit_code == 0, result.output
        cmp_out = root / "cmp"
        result = runner.invoke(main, [
            "compare", "--workload", str(workload),
            "--schedulers", "agent,random,k8-default,on-demand",
            "--checkpoint", str(train_out / "checkpoint.json"),
            "--seeds", "1,2", "--out", str(cmp_out),
        ])
        assert result.exit_code == 0, result.output
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    same_names = set(first) == set(second)
    same_bytes = same_names and all(first[k] == second[k] for k in first)
    ok = same_bytes and len(first) >= 7
    msg = _report(8, ok, f"{len(first)} output files byte-identical across reruns")
    assert ok, msg
