"""Event-driven episode mechanics: placement, timing, failures, determinism."""
import math
import operator
import re
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spotsched.baselines import BASELINE_NAMES, RandomPolicy, baseline_cluster, make_baseline
from spotsched.cluster import (
    DEAD_NODE_WAIT,
    EPS,
    ON_DEMAND,
    SPOT,
    ClusterSpec,
    NodeSpec,
    NodeState,
    default_cluster,
    sample_next_interruption,
)
from spotsched.engine import SimEnv, run_episode
from spotsched.errors import ConfigError, DagCycleError, InvalidActionError
from spotsched.workflow import EdgeSpec, Outcome, TaskSpec, WorkflowSpec
from spotsched.workload import WorkloadConfig, generate


def two_nodes(rate_per_hour=0.0, spot_rate=1.0, od_rate=1.0, spot_cpu=4.0, od_cpu=4.0):
    spot = NodeSpec(
        id="s0", flavor="small", cpu=spot_cpu, mem_gb=16.0, rate=spot_rate,
        pricing_class=SPOT, price_per_hour=0.36,
    )
    od = NodeSpec(
        id="o0", flavor="small", cpu=od_cpu, mem_gb=16.0, rate=od_rate,
        pricing_class=ON_DEMAND, price_per_hour=0.72,
    )
    return ClusterSpec(
        nodes=(spot, od),
        bandwidth_mbps=100.0,
        interruption_rate_per_hour=rate_per_hour,
        interruption_downtime_s=600.0,
    )


def single(wf_id="w", work=100.0, cpu=1.0, mem=2.0, arrival=0.0, timeout=1e6):
    task = TaskSpec(id="t", cpu_req=cpu, mem_req=mem, work=work)
    return WorkflowSpec(id=wf_id, tasks=(task,), edges=(), arrival_time=arrival, timeout=timeout)


def chain(data_mb=200.0):
    tasks = (
        TaskSpec(id="a", cpu_req=1, mem_req=2, work=10.0),
        TaskSpec(id="b", cpu_req=1, mem_req=2, work=10.0),
    )
    return WorkflowSpec(id="w", tasks=tasks, edges=(EdgeSpec("a", "b", data_mb),))


def drive(env, policy):
    obs = env.reset()
    while obs is not None:
        obs, _, _ = env.step(policy(obs))
    return env.episode_stats()


def places(records):
    """The `place` records among an episode's on_event records, by (workflow, task)."""
    return {(r["workflow"], r["task"]): r for r in records if r["kind"] == "place"}


def test_reset_offers_first_task_at_time_zero():
    env = SimEnv(two_nodes(), [single()], seed=0)
    obs = env.reset()
    assert obs.time == 0.0
    assert obs.workflow_id == "w" and obs.task.id == "t"
    assert obs.node_ids == ("s0", "o0")
    assert all(obs.alive) and all(obs.fit)
    assert all(w == 0.0 for w in obs.wait)


def test_first_observation_fields_by_name():
    # no two per-node lists agree here (cpu_free != mem_free, alive != fit), so
    # a swapped positional argument in the engine's build shows
    env = SimEnv(two_nodes(spot_cpu=1.0), [single(cpu=2.0, mem=3.0, arrival=3.0)], seed=0)
    obs = env.reset()
    nodes = list(env.nodes.values())
    assert obs.time == env.now == 3.0
    assert obs.workflow_id == "w"
    assert obs.task is env.runs["w"].spec.task_map["t"]
    assert obs.node_ids == tuple(n.spec.id for n in nodes) == ("s0", "o0")
    assert obs.unit_cost == tuple(n.spec.unit_cost for n in nodes) == (0.36 / 3600, 0.72 / 3600)
    assert obs.cpu_free == [n.cpu_free for n in nodes] == [1.0, 4.0]
    assert obs.mem_free == [n.mem_free for n in nodes] == [16.0, 16.0]
    assert obs.alive == [n.alive for n in nodes] == [True, True]
    assert obs.fit == [n.can_fit(obs.task) for n in nodes] == [False, True]


def test_placement_records_its_running_task_by_name():
    # cpu_req != mem_req and compute != exec_start, so a swapped field shows
    tasks = tuple(TaskSpec(id=tid, cpu_req=1.0, mem_req=3.0, work=100.0) for tid in "ab")
    env = SimEnv(two_nodes(spot_rate=2.0), [WorkflowSpec(id="w", tasks=tasks, edges=(),
                                                         arrival_time=5.0)], seed=0)
    assert env.reset().task.id == "a"
    obs, _, _ = env.step("s0")
    assert obs.task.id == "b" and env.now == 5.0  # the next offer, at the same instant
    running = env.nodes["s0"].running[("w", "a")]
    assert (running.workflow_id, running.task_id) == ("w", "a")
    assert (running.cpu_req, running.mem_req) == (1.0, 3.0)
    assert running.compute == 100.0 / 2.0
    assert running.exec_start == env.now


def test_one_arrival_event_per_workflow():
    events = []
    wfs = [single(f"w{i}", work=1.0, arrival=float(i)) for i in range(10)]
    env = SimEnv(two_nodes(), wfs, seed=0, on_event=events.append)
    obs = env.reset()
    while obs is not None:
        obs, _, _ = env.step("s0")
    assert sum(e["kind"] == "arrival" for e in events) == 10


def test_step_reward_is_negative_task_cost():
    cluster = default_cluster(interruption_rate_per_hour=0.0)
    env = SimEnv(cluster, [single(work=100.0)], seed=0)
    env.reset()
    obs, reward, done = env.step("spot-large-0")
    # work 100 on 2 cores: 50 s at $0.033/h
    assert reward == pytest.approx(-4.5833e-4, rel=1e-4)
    assert reward == -(50.0 * (0.033 / 3600.0))
    assert done and obs is None


def test_zero_work_task_is_free():
    env = SimEnv(two_nodes(), [single(work=0.0)], seed=0)
    env.reset()
    _, reward, done = env.step("s0")
    assert reward == 0.0 and done


def test_single_task_episode_stats():
    cluster = two_nodes(spot_rate=2.0)
    stats = run_episode(lambda obs: "s0", cluster, [single(work=100.0)], seed=0)
    wf = stats.workflows["w"]
    assert wf.outcome is Outcome.COMPLETED
    assert wf.makespan == 50.0
    assert wf.cost == 50.0 * (0.36 / 3600.0)
    assert stats.total_cost == wf.cost
    assert stats.mean_execution_time == 50.0
    assert (stats.completed, stats.interrupted, stats.timed_out) == (1, 0, 0)
    assert stats.submitted == 1


def test_cross_node_transfer_adds_delay():
    placements, records = iter(["s0", "o0"]), []
    drive(SimEnv(two_nodes(), [chain()], seed=0, on_event=records.append),
          lambda obs: next(placements))
    place = places(records)["w", "b"]
    assert place["max_transfer"] == 2.0  # 200 MB at 100 MB/s
    assert place["time"] == 10.0  # placed the moment a finishes
    assert place["finish"] == 22.0


def test_same_node_transfer_is_free():
    records = []
    drive(SimEnv(two_nodes(), [chain()], seed=0, on_event=records.append), lambda obs: "s0")
    place = places(records)["w", "b"]
    assert place["max_transfer"] == 0.0
    assert place["finish"] == 20.0


def test_fifo_order_among_ready_tasks():
    env = SimEnv(two_nodes(), [single("b"), single("a")], seed=0)
    obs = env.reset()
    assert obs.workflow_id == "a"


def test_repeated_edge_releases_its_successor_once():
    # a workflow spec accepts a repeated edge; readiness counts edges, so b is
    # queued once, when a finishes
    twice = WorkflowSpec(id="w", tasks=chain().tasks, edges=chain().edges * 2)
    env = SimEnv(two_nodes(), [twice], seed=0)
    obs, offered = env.reset(), []
    while obs is not None:
        offered.append(obs.task.id)
        obs, _, _ = env.step("s0")
    assert offered == ["a", "b"]
    assert env.episode_stats().completed == 1


def test_identical_runs_are_bit_identical():
    cluster = default_cluster()
    wfs = generate(WorkloadConfig(count=5, seed=3))
    first = run_episode(RandomPolicy(seed=[5]), cluster, wfs, seed=[9])
    second = run_episode(RandomPolicy(seed=[5]), cluster, wfs, seed=[9])
    assert first == second


def test_identical_observation_sequences():
    cluster = default_cluster()
    wfs = generate(WorkloadConfig(count=3, seed=1))

    def collect():
        env = SimEnv(cluster, wfs, seed=[4])
        policy = RandomPolicy(seed=[2])
        seen = []
        obs = env.reset()
        while obs is not None:
            seen.append((
                obs.time,
                obs.workflow_id,
                obs.task.id,
                obs.node_ids,
                *(tuple(a) for a in (obs.cpu_free, obs.mem_free, obs.wait, obs.alive, obs.fit)),
            ))
            obs, _, _ = env.step(policy(obs))
        return seen

    assert collect() == collect()


@pytest.mark.parametrize("name", BASELINE_NAMES)
def test_baseline_episodes_estimate_no_waits(name, monkeypatch):
    # only the agent reads an observation's wait, so a baseline run builds none
    calls = []
    estimated_wait = NodeState.estimated_wait
    monkeypatch.setattr(NodeState, "estimated_wait",
                        lambda node, now: calls.append(now) or estimated_wait(node, now))
    cluster = baseline_cluster(default_cluster(interruption_rate_per_hour=30.0), name)
    stats = run_episode(make_baseline(name, cluster, seed=[1]), cluster,
                        generate(WorkloadConfig(count=3, seed=1)), seed=[2])
    assert stats.submitted == 3 and calls == []


def test_observations_are_snapshots():
    # a backlog on failing nodes: later steps rewrite every per-node list the
    # engine keeps, and each offer must keep the values it was made with
    cluster = default_cluster(interruption_rate_per_hour=60.0, interruption_downtime_s=60.0)
    workflows = generate(WorkloadConfig(count=20, parallelism=(6,),
                                        interarrival_range=(0.3, 0.6), seed=1))
    env = SimEnv(cluster, workflows, seed=[1, 2])
    policy = RandomPolicy(seed=[1, 3])
    kept, moved = [], [0, 0, 0, 0]
    obs = env.reset()
    while obs is not None:
        lists = [obs.cpu_free, obs.mem_free, obs.alive, obs.fit]
        at_offer = [values[:] for values in lists]
        kept.append((lists, at_offer))
        shape = (obs.task.cpu_req, obs.task.mem_req)
        obs, _, _ = env.step(policy(obs))
        # the shape's fit row is gone once its queue emptied
        row = env._shapes[shape][2] if shape in env._shapes else at_offer[3]
        for i, now in enumerate([env._cpu_free, env._mem_free, env._alive, row]):
            moved[i] += now != at_offer[i]
    assert all(moved), moved
    assert all(lists == at_offer for lists, at_offer in kept)


def test_wait_read_after_the_offer_raises():
    env = SimEnv(two_nodes(), [chain()], seed=0)
    first = env.reset()
    assert first.wait == [0.0, 0.0]
    second, _, _ = env.step("s0")
    assert first.wait == [0.0, 0.0]  # read before the step, kept
    unread, _, done = env.step("s0")
    assert unread is None and done
    with pytest.raises(RuntimeError, match="moved on"):
        second.wait  # read only after the last step
    again = env.reset()
    env.step("o0")
    with pytest.raises(RuntimeError, match="moved on"):
        again.wait  # read only after a later step


def test_wait_read_from_inside_the_next_step_raises():
    held = []
    env = SimEnv(two_nodes(), [chain()], seed=0, on_event=lambda _record: [o.wait for o in held])
    held.append(env.reset())
    # the place record fires once the step has taken the offer and changed the nodes
    with pytest.raises(RuntimeError, match="moved on"):
        env.step("s0")


def test_wait_is_built_once(monkeypatch):
    calls = []
    estimated_wait = NodeState.estimated_wait
    monkeypatch.setattr(NodeState, "estimated_wait",
                        lambda node, now: calls.append(node.spec.id) or estimated_wait(node, now))
    env = SimEnv(two_nodes(), [chain()], seed=0)
    obs = env.reset()
    assert obs.wait is obs.wait
    assert calls == ["s0", "o0"]


def test_invalid_actions_leave_state_unchanged():
    cluster = two_nodes(spot_cpu=1.0)
    env = SimEnv(cluster, [single(cpu=2.0)], seed=0)
    env.reset()
    with pytest.raises(InvalidActionError):
        env.step("nope")
    with pytest.raises(InvalidActionError):
        env.step("s0")  # too small for the task
    _, _, done = env.step("o0")
    assert done
    assert env.episode_stats().completed == 1


def test_step_without_pending_task():
    env = SimEnv(two_nodes(), [single()], seed=0)
    with pytest.raises(InvalidActionError):
        env.step("s0")  # before reset
    env.reset()
    env.step("s0")
    with pytest.raises(InvalidActionError):
        env.step("s0")  # episode finished, nothing pending


def test_rewards_sum_to_negative_total_cost():
    cluster = default_cluster()
    wfs = generate(WorkloadConfig(count=8, seed=11))
    env = SimEnv(cluster, wfs, seed=[3])
    policy = RandomPolicy(seed=[8])
    obs = env.reset()
    total = 0.0
    while obs is not None:
        obs, reward, _ = env.step(policy(obs))
        total += reward
    assert total == -env.episode_stats().total_cost


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_without_interruptions_everything_completes(seed):
    cluster = default_cluster(interruption_rate_per_hour=0.0)
    wfs = generate(WorkloadConfig(count=4, seed=seed, timeout=1e9))
    stats = run_episode(RandomPolicy(seed=[seed, 1]), cluster, wfs, seed=[seed, 2])
    assert stats.completed == 4
    assert stats.interrupted == 0 and stats.timed_out == 0


def test_zero_interruption_rate_traces_no_interrupt_or_revive():
    # at rate 0 reset draws no first interruption, so none follows either
    cluster = default_cluster(interruption_rate_per_hour=0.0)
    records = []
    stats = run_episode(RandomPolicy(seed=[1]), cluster, generate(WorkloadConfig(count=6, seed=3)),
                        seed=[5], on_event=records.append)
    kinds = {r["kind"] for r in records}
    assert {"place", "finish"} <= kinds and not kinds & {"interrupt", "revive"}
    assert stats.interrupted == 0


def test_interruption_fails_workflow_and_still_charges_it():
    cluster = two_nodes(rate_per_hour=60.0)
    # same stream the environment derives for the spot node
    probe = np.random.default_rng([7, 9, 0])
    g1 = sample_next_interruption(60.0, probe)
    g2 = sample_next_interruption(60.0, probe)
    w2_arrival = g1 + 600.0 + 5.0
    assert w2_arrival + 10.0 < g1 + 600.0 + g2  # layout sanity for this seed

    wfs = [single("w1", work=10_000.0), single("w2", work=10.0, arrival=w2_arrival)]
    events = []
    env = SimEnv(cluster, wfs, seed=[7, 9], on_event=events.append)
    obs = env.reset()
    assert obs.workflow_id == "w1"
    obs, _, _ = env.step("s0")
    # w1 died with the node; w2 is offered after the revival
    assert obs is not None and obs.workflow_id == "w2"
    assert obs.time == w2_arrival
    assert obs.alive[0]
    _, _, done = env.step("s0")
    assert done

    stats = env.episode_stats()
    assert stats.workflows["w1"].outcome is Outcome.FAILED_INTERRUPTED
    assert stats.workflows["w2"].outcome is Outcome.COMPLETED
    assert (stats.completed, stats.interrupted, stats.timed_out) == (1, 1, 0)
    # the killed task is still billed for its planned compute
    assert stats.total_cost == 10_000.0 * (0.36 / 3600.0) + 10.0 * (0.36 / 3600.0)
    assert not env.nodes["s0"].running

    kinds = [e["kind"] for e in events]
    assert "interrupt" in kinds and "revive" in kinds
    assert next(e["time"] for e in events if e["kind"] == "interrupt") == g1
    assert next(e["time"] for e in events if e["kind"] == "revive") == g1 + 600.0


def test_action_on_dead_node_rejected():
    cluster = two_nodes(rate_per_hour=60.0)
    probe = np.random.default_rng([7, 9, 0])
    g1 = sample_next_interruption(60.0, probe)
    wfs = [single("w1", work=10_000.0), single("w2", work=10.0, arrival=g1 + 1.0)]
    env = SimEnv(cluster, wfs, seed=[7, 9])
    env.reset()
    obs, _, _ = env.step("s0")
    assert obs.workflow_id == "w2" and not obs.alive[0] and not obs.fit[0]
    assert obs.wait[0] == DEAD_NODE_WAIT
    with pytest.raises(InvalidActionError):
        env.step("s0")
    _, _, done = env.step("o0")
    assert done and env.episode_stats().completed == 1


def test_timeout_and_head_of_line_skip():
    cluster = two_nodes()
    big = WorkflowSpec(
        id="big",
        tasks=(TaskSpec(id="t", cpu_req=100.0, mem_req=1.0, work=1.0),),
        edges=(),
        arrival_time=0.0,
        timeout=30.0,
    )
    ok = single("ok", work=5.0, arrival=1.0)
    env = SimEnv(cluster, [big, ok], seed=0)
    obs = env.reset()
    # the unplaceable task never blocks the one behind it
    assert obs.workflow_id == "ok" and obs.time == 1.0
    _, _, done = env.step("s0")
    assert done
    stats = env.episode_stats()
    assert stats.workflows["big"].outcome is Outcome.FAILED_TIMEOUT
    assert stats.workflows["big"].cost == 0.0
    assert stats.workflows["ok"].outcome is Outcome.COMPLETED
    assert stats.timed_out == 1 and stats.completed == 1


def test_timeout_cancels_running_tasks():
    cluster = two_nodes()
    env = SimEnv(cluster, [single("w", work=500.0, timeout=50.0)], seed=0)
    env.reset()
    _, _, done = env.step("s0")
    assert done
    stats = env.episode_stats()
    assert stats.workflows["w"].outcome is Outcome.FAILED_TIMEOUT
    assert stats.workflows["w"].cost == 500.0 * (0.36 / 3600.0)
    assert not env.nodes["s0"].running  # capacity released on failure


def test_failure_unqueues_only_its_own_entries():
    # three workflows' tasks of shapes A (1, 2) and B (1, 4) interleave in two
    # queues behind a 3-slot cluster; w1 alone has shape C (1, 8), queued
    # between B and w2's D (1, 16), and times out with one task running
    def workflow(i, mems, timeout=1e6):
        tasks = tuple(TaskSpec(id=f"t{j}", cpu_req=1.0, mem_req=m, work=100.0)
                      for j, m in enumerate(mems))
        return WorkflowSpec(id=f"w{i}", tasks=tasks, edges=(), arrival_time=float(i),
                            timeout=timeout)

    env = SimEnv(two_nodes(spot_cpu=2.0, od_cpu=1.0),
                 [workflow(0, [2.0, 4.0]), workflow(1, [2.0, 4.0, 8.0, 2.0, 4.0], timeout=50.0),
                  workflow(2, [4.0, 16.0, 2.0, 4.0])], seed=0)
    fail, seen = env._fail, []

    def checked_fail(run, outcome):
        before = {shape: queue[:] for shape, (queue, _, _) in env._shapes.items()}
        fail(run, outcome)
        # the full rebuild of every queue without the failed run's entries
        want = {shape: kept for shape, entries in before.items()
                if (kept := [e for e in entries if e[1] != run.spec.id])}
        queues = [(shape, queue) for shape, (queue, _, _) in env._shapes.items()]
        assert queues == list(want.items())
        seen.append((run.spec.id, len(run.node_of), list(before), list(want)))

    env._fail = checked_fail
    stats = drive(env, lambda obs: obs.node_ids[obs.fit.index(True)])
    assert stats.timed_out == 1
    assert seen == [("w1", 1, [(1.0, 2.0), (1.0, 4.0), (1.0, 8.0), (1.0, 16.0)],
                     [(1.0, 2.0), (1.0, 4.0), (1.0, 16.0)])]


def test_failure_refreshes_each_released_node_once():
    # sim-churn's load: 60 interruptions/h with 60 s downtime and 60 s timeouts,
    # so workflows fail both ways, some with several tasks on one node and some
    # with tasks that kill() already dropped from a node now down
    cluster = default_cluster(interruption_rate_per_hour=60.0, interruption_downtime_s=60.0)
    workflows = generate(WorkloadConfig(count=40, parallelism=(6,), interarrival_range=(4.0, 8.0),
                                        work_range=(100.0, 150.0), timeout=60.0, seed=1))
    env = SimEnv(cluster, workflows, seed=[1, 2])
    fail, refresh = env._fail, env._refresh
    refreshed, seen = None, []

    def counted_refresh(node_id):
        if refreshed is not None:
            refreshed.append(node_id)
        refresh(node_id)

    def checked_fail(run, outcome):
        nonlocal refreshed
        wf_id = run.spec.id
        started = [t for t in run.node_of if t not in run.completed]
        holding = [n for t, n in run.node_of.items() if (wf_id, t) in env.nodes[n].running]
        refreshed = []
        fail(run, outcome)
        # each node that released a task, once, and never one that kill() emptied
        assert sorted(refreshed) == sorted(set(holding))
        assert all(env.nodes[n].alive for n in refreshed)
        seen.append((outcome, len(started) > len(holding), len(holding) > len(set(holding))))
        refreshed = None

    env._refresh, env._fail = counted_refresh, checked_fail
    stats = drive(env, RandomPolicy(seed=1))
    assert len(seen) == stats.interrupted + stats.timed_out
    assert {o for o, _, _ in seen} == {Outcome.FAILED_INTERRUPTED, Outcome.FAILED_TIMEOUT}
    assert any(killed for _, killed, _ in seen) and any(shared for _, _, shared in seen)


def test_workflow_totals_are_its_placements_in_order():
    # sim-churn's load again, so some workflows fail with only part of their tasks placed
    cluster = default_cluster(interruption_rate_per_hour=60.0, interruption_downtime_s=60.0)
    workflows = generate(WorkloadConfig(count=40, parallelism=(6,), interarrival_range=(4.0, 8.0),
                                        work_range=(100.0, 150.0), timeout=60.0, seed=1))
    records = []
    env = SimEnv(cluster, workflows, seed=[1, 2], on_event=records.append)
    policy, placed = RandomPolicy(seed=1), {wf.id: [] for wf in workflows}
    obs = env.reset()
    while obs is not None:
        placed[obs.workflow_id].append(obs.task.id)
        obs, _, _ = env.step(policy(obs))
    stats = env.episode_stats()
    assert stats.completed and stats.interrupted and stats.timed_out
    for wf_id, w in stats.workflows.items():
        run = env.runs[wf_id]
        own = [r for r in records if r["kind"] == "place" and r["workflow"] == wf_id]
        assert [r["task"] for r in own] == placed[wf_id]
        for r in own:
            # the finish by the engine's own sum, from the ready time: (time - ready) is the
            # wait; at this load, a finish summed from `time` differs in its last bit for some tasks
            ready = run.ready_time[r["task"]]
            assert r["finish"] == ready + (r["compute"] + (r["time"] - ready) + r["max_transfer"])
        # the left-to-right sum from int 0, in placement order
        assert repr(w.cost) == repr(reduce(operator.add, (r["cost"] for r in own), 0))
        assert w.makespan == max((r["finish"] for r in own), default=0.0)
        assert w.outcome is run.outcome


def test_failure_resums_a_node_once_for_all_its_tasks():
    # two independent tasks, both still running on s0 when the deadline fires
    tasks = tuple(TaskSpec(id=t, cpu_req=1, mem_req=2, work=100.0) for t in ("a", "b"))
    env = SimEnv(two_nodes(), [WorkflowSpec(id="w", tasks=tasks, edges=(), timeout=50.0)], seed=0)
    fail, resums = env._fail, []

    def checked_fail(run, outcome):
        node = env.nodes["s0"]
        assert set(node.running) == {("w", "a"), ("w", "b")}
        resum = node._resum
        node._resum = lambda: (resums.append(set(node.running)), resum())
        fail(run, outcome)
        del node._resum
        assert (node.cpu_free, node.mem_free) == (4.0, 16.0)

    env._fail = checked_fail
    stats = drive(env, lambda obs: "s0")
    assert stats.workflows["w"].outcome is Outcome.FAILED_TIMEOUT
    assert resums == [set()]  # one re-sum, after both tasks left


def test_backlog_queues_stay_sorted_without_the_placed_task():
    cluster = default_cluster(interruption_rate_per_hour=30.0)
    workflows = generate(WorkloadConfig(count=30, parallelism=(6,),
                                        interarrival_range=(0.1, 0.3), timeout=120.0, seed=3))
    env = SimEnv(cluster, workflows, seed=[3])
    policy = RandomPolicy(seed=[3, 1])
    longest, obs = 0, env.reset()
    while obs is not None:
        placed = (obs.workflow_id, obs.task.id)
        obs, _, _ = env.step(policy(obs))
        for queue, _, _ in env._shapes.values():
            assert queue == sorted(queue) and placed not in [e[1:] for e in queue]
            longest = max(longest, len(queue))
    assert longest > 20 and env.episode_stats().timed_out > 0


def test_finish_beats_deadline_at_the_same_instant():
    cluster = two_nodes(spot_rate=2.0)
    stats = run_episode(lambda obs: "s0", cluster, [single("w", work=100.0, timeout=50.0)], seed=0)
    assert stats.workflows["w"].outcome is Outcome.COMPLETED


def test_full_cluster_defers_the_offer():
    only = NodeSpec(
        id="only", flavor="f", cpu=2.0, mem_gb=8.0, rate=1.0,
        pricing_class=ON_DEMAND, price_per_hour=0.72,
    )
    cluster = ClusterSpec(nodes=(only,))
    wfs = [single("w1", cpu=2.0, work=20.0), single("w2", cpu=2.0, work=10.0, arrival=1.0)]
    records = []
    env = SimEnv(cluster, wfs, seed=0, on_event=records.append)
    env.reset()
    obs, _, _ = env.step("only")
    assert obs.time == 20.0  # w2 had to wait for w1 to release the node
    env.step("only")
    place = places(records)["w2", "t"]
    assert (env.runs["w2"].ready_time["t"], place["time"]) == (1.0, 20.0)  # a 19 s wait
    assert place["finish"] == place["time"] + place["compute"] + place["max_transfer"] == 30.0


def test_eligible_subset_defers_until_a_listed_node_frees():
    # The on-demand baseline's cluster holds o0 alone.
    cluster = baseline_cluster(two_nodes(od_cpu=1.0), "on-demand")
    wfs = [single("w1", work=20.0), single("w2", work=10.0, arrival=1.0)]
    records = []
    env = SimEnv(cluster, wfs, seed=0, on_event=records.append)
    obs = env.reset()
    assert obs.workflow_id == "w1" and obs.node_ids == ("o0",)
    obs, _, _ = env.step("o0")
    # s0 would have room the whole time but is not in the cluster
    assert obs.time == 20.0 and obs.workflow_id == "w2"
    with pytest.raises(InvalidActionError):
        env.step("s0")
    _, _, done = env.step("o0")
    assert done
    assert places(records)["w2", "t"]["time"] - env.runs["w2"].ready_time["t"] == 19.0
    assert env.episode_stats().completed == 2


def test_env_validates_workload():
    with pytest.raises(ConfigError):
        SimEnv(two_nodes(), [])
    with pytest.raises(ConfigError):
        SimEnv(two_nodes(), [single("w"), single("w")])
    tasks = tuple(TaskSpec(id=t, cpu_req=1, mem_req=1, work=1) for t in "ab")
    # a cyclic workflow never reaches the environment: building its spec fails
    with pytest.raises(DagCycleError):
        WorkflowSpec(id="c", tasks=tasks, edges=(EdgeSpec("a", "b"), EdgeSpec("b", "a")))


def many(count, work=100.0, arrival=0.0, timeout=3600.0):
    tasks = tuple(TaskSpec(id=f"t{i}", cpu_req=1.0, mem_req=1.0, work=work) for i in range(count))
    return WorkflowSpec(id="many", tasks=tasks, edges=(), arrival_time=arrival, timeout=timeout)


def priced(price_per_hour):
    spot, od = two_nodes().nodes
    return replace(two_nodes(), nodes=(spot, replace(od, price_per_hour=price_per_hour)))


@pytest.mark.parametrize("cluster, workload, message", [
    (two_nodes(spot_rate=5e-324), [single()],
     "node 's0': task work 100.0 at rate 5e-324 takes a compute time that is not finite"),
    (priced(1e308), [single(work=1e5)],
     "node 'o0': a compute time of 100000.0 s at price_per_hour 1e+308 costs more than"),
    (replace(two_nodes(), bandwidth_mbps=1e-3), [chain(data_mb=1e306)],
     "edge data_mb 1e+306 at bandwidth_mbps 0.001 takes a transfer time that is not finite"),
    (two_nodes(), [single(arrival=1e308, timeout=1e308)], "the last deadline, inf s, "),
    # each duration is finite, the sum that mean_execution_time divides is not
    (two_nodes(), [single(f"w{i}", work=5e307, timeout=1e308) for i in range(4)],
     "the last deadline, 1e+308 s, plus the longest compute time 5e+307 s and transfer 0.0 s, "
     "summed over 4 workflows, is not finite"),
    # each task's cost is finite, their sum is not
    (priced(1e308), [many(100)], "100 tasks at up to 2.7777777777777777e+306 each"),
    (two_nodes(rate_per_hour=60.0), [single(timeout=3.1e7)],
     "the last deadline, 31000000.0 s, is too far: 1 spot nodes at 60.0 interruptions/h "
     "expect 1.03e+06 interruption and revival events by then, more than 1,000,000"),
], ids=["compute", "cost", "transfer", "deadline", "deadline-summed", "total-cost", "horizon"])
def test_env_refuses_unbounded_runs(cluster, workload, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        SimEnv(cluster, workload)


def test_env_takes_runs_just_inside_the_bounds():
    SimEnv(two_nodes(rate_per_hour=60.0), [single(timeout=2.9e7)])  # 9.7e5 expected events
    SimEnv(priced(1e308), [many(60)])  # a total cost of 1.7e308
    SimEnv(two_nodes(), [single(arrival=1e308)])  # no spot interruptions at rate 0


def test_empty_workflow_resolves_on_arrival():
    empty = WorkflowSpec(id="e", tasks=(), edges=(), arrival_time=2.0)
    env = SimEnv(two_nodes(), [empty, single("w", work=10.0)], seed=0)
    env.reset()
    _, _, done = env.step("s0")
    assert done
    stats = env.episode_stats()
    assert stats.workflows["e"].outcome is Outcome.COMPLETED
    assert stats.workflows["e"].makespan == 0.0 and stats.workflows["e"].cost == 0.0
    assert stats.completed == 2
    assert stats.mean_execution_time == 5.0  # (10 + 0) / 2


def test_event_stream_is_ordered_with_stable_fields():
    cluster = default_cluster()
    wfs = generate(WorkloadConfig(count=6, seed=2))
    events = []
    run_episode(RandomPolicy(seed=[1]), cluster, wfs, seed=[6], on_event=events.append)
    times = [e["time"] for e in events]
    assert times == sorted(times)
    assert places(events)
    for e in events:
        assert list(e)[:2] == ["time", "kind"]
        if e["kind"] == "finish":
            assert list(e) == ["time", "kind", "node", "workflow", "task"]
        if e["kind"] == "place":
            assert list(e) == ["time", "kind", "workflow", "task", "node", "compute",
                               "max_transfer", "finish", "cost"]
        if e["kind"] in ("interrupt", "revive"):
            assert "node" in e


def test_precedence_is_never_violated():
    cluster = default_cluster(interruption_rate_per_hour=0.0)
    wfs = generate(WorkloadConfig(count=6, seed=13))
    records, specs = [], {wf.id: wf for wf in wfs}
    drive(SimEnv(cluster, wfs, seed=[1], on_event=records.append), RandomPolicy(seed=[2]))
    placed = places(records)
    for (wf_id, task_id), place in placed.items():
        # transfers happen before compute: effective start = finish - compute
        exec_start = place["finish"] - place["compute"]
        for edge in specs[wf_id].preds[task_id]:
            upstream = placed[wf_id, edge.src]
            tt = 0.0 if upstream["node"] == place["node"] else edge.data_mb / cluster.bandwidth_mbps
            assert exec_start + 1e-9 >= upstream["finish"] + tt


@st.composite
def small_episodes(draw):
    """A 1-4 node cluster of both pricing classes, interrupted at 0-60/h, and
    2-4 overlapping random DAGs of 1-5 tasks with short timeouts; a task
    asking for 8 cores fits no node. Workflows often fail with tasks still
    queued while others run on. Rate 3 makes times inexact binary
    fractions, so a reordered timing sum changes the last bit."""
    pick = lambda *values: draw(st.sampled_from(values))
    nodes = tuple(
        NodeSpec(id=f"n{i}", flavor="f", cpu=pick(1.0, 2.0, 4.0), mem_gb=pick(2.0, 4.0, 8.0),
                 rate=pick(1.0, 2.0, 3.0, 4.0), pricing_class=pick(SPOT, ON_DEMAND),
                 price_per_hour=pick(0.03, 0.1, 0.4))
        for i in range(draw(st.integers(1, 4)))
    )
    cluster = ClusterSpec(nodes=nodes, interruption_rate_per_hour=pick(0.0, 0.5, 30.0, 60.0),
                          interruption_downtime_s=pick(5.0, 30.0))
    workflows = []
    for w in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 5))
        tasks = tuple(
            TaskSpec(id=f"t{i}", cpu_req=pick(0.5, 1.0, 2.0, 4.0, 8.0), mem_req=pick(1.0, 2.0, 4.0),
                     work=pick(10.0, 40.0))
            for i in range(n)
        )
        edges = tuple(
            EdgeSpec(f"t{i}", f"t{j}", pick(0.0, 50.0))
            for j in range(n) for i in range(j) if draw(st.integers(0, 3)) == 0
        )
        workflows.append(WorkflowSpec(
            id=f"w{w}", tasks=tasks, edges=edges,
            arrival_time=float(draw(st.integers(0, 10))), timeout=pick(10.0, 30.0, 120.0),
        ))
    return cluster, workflows


@settings(max_examples=60, deadline=None)
@given(episode=small_episodes(), seed=st.integers(0, 1000))
def test_random_episodes_keep_the_engine_invariants(episode, seed):
    cluster, workflows = episode

    def first_fit_in_whole_queue():
        """The offer by a linear scan of the merged, sorted sub-queues."""
        for _ready, wf_id, task_id in sorted(e for q, _, _ in env._shapes.values() for e in q):
            task = env.runs[wf_id].spec.task_map[task_id]
            if any(n.can_fit(task) for n in env.nodes.values()):
                return wf_id, task_id
        return None

    up = {n.id: True for n in cluster.nodes}  # each node's liveness, as its records tell it
    placed = []  # the place records, in placement order

    def state_holds(record=None):
        if record is not None and record["kind"] == "place":
            placed.append(record)
        if record is not None and record["kind"] in ("interrupt", "revive"):
            # a node's interrupts and revivals alternate, starting with an
            # interrupt: one takes down a spot node that was up, and leaves it empty
            node = env.nodes[record["node"]]
            assert up[node.spec.id] == (record["kind"] == "interrupt")
            up[node.spec.id] = not up[node.spec.id]
            if record["kind"] == "interrupt":
                assert node.spec.pricing_class == SPOT and not node.running
        for node in env.nodes.values():
            # the cached free figures equal a fresh re-sum, bit for bit
            assert node.cpu_free == node.spec.cpu - sum(t.cpu_req for t in node.running.values())
            assert node.mem_free == node.spec.mem_gb - sum(t.mem_req for t in node.running.values())
            assert node.cpu_free >= -EPS and node.mem_free >= -EPS
        # the per-node lists and every shape's fit row equal fresh reads
        nodes = list(env.nodes.values())
        assert env._cpu_free == [n.cpu_free for n in nodes]
        assert env._mem_free == [n.mem_free for n in nodes]
        assert env._alive == [n.alive for n in nodes] == [up[n.spec.id] for n in nodes]
        for shape, (queue, task, row) in env._shapes.items():
            assert shape == (task.cpu_req, task.mem_req)
            assert row == [n.can_fit(task) for n in nodes]
            assert queue and queue == sorted(queue)
            assert all((env.runs[w].spec.task_map[t].cpu_req, env.runs[w].spec.task_map[t].mem_req)
                       == shape for _, w, t in queue)
        assert env._next_offer() == first_fit_in_whole_queue()
        for run in env.runs.values():
            if run.outcome is not None:
                continue
            # the readiness counters equal a recount, and a run that has
            # arrived has queued exactly the tasks they release
            assert run.waiting == {t: sum(e.src not in run.completed for e in edges)
                                   for t, edges in run.spec.preds.items()}
            if run.ready_time:
                assert set(run.ready_time) == {t for t, n in run.waiting.items() if not n}

    env = SimEnv(cluster, workflows, seed=[seed], on_event=state_holds)
    policy = RandomPolicy(seed=[seed, 1])
    rewards = []
    obs = env.reset()
    while obs is not None:
        assert (obs.workflow_id, obs.task.id) == first_fit_in_whole_queue()
        # the wait, built on first read, is the cluster's at the offer, bit for bit
        wait = np.array([n.estimated_wait(env.now) for n in env.nodes.values()])
        assert np.array(obs.wait).tobytes() == wait.tobytes()
        run = env.runs[obs.workflow_id]
        assert run.outcome is None
        assert obs.task.id not in run.node_of
        assert all(e.src in run.completed for e in run.spec.preds[obs.task.id])
        task, now = obs.task, env.now
        node_id = policy(obs)
        obs, reward, _ = env.step(node_id)
        rewards.append(reward)
        state_holds()
        # the placement's record, recomputed from the spec fields, bit for bit
        spec = env.nodes[node_id].spec
        compute = task.work / spec.rate
        max_transfer = max(
            (0.0 if run.node_of[e.src] == node_id else e.data_mb / cluster.bandwidth_mbps
             for e in run.spec.preds[task.id]),
            default=0.0,
        )
        start = run.ready_time[task.id]
        wait = now - start
        delay = compute + wait + max_transfer
        assert len(placed) == len(rewards)
        place = placed[-1]
        assert place == {"time": now, "kind": "place", "workflow": run.spec.id, "task": task.id,
                         "node": node_id, "compute": compute, "max_transfer": max_transfer,
                         "finish": start + delay, "cost": compute * spec.unit_cost}
        assert place["cost"] == -reward
        assert min(start, compute, wait, max_transfer, place["cost"]) >= 0
    stats = env.episode_stats()
    assert env.now <= max(wf.arrival_time + wf.timeout for wf in workflows)
    assert len(rewards) <= sum(len(wf.tasks) for wf in workflows)
    assert stats.submitted == len(workflows)
    assert -sum(rewards) == stats.total_cost
    assert math.isclose(stats.total_cost, math.fsum(w.cost for w in stats.workflows.values()),
                        rel_tol=1e-9, abs_tol=1e-12)
    for wf_id, w in stats.workflows.items():
        # each workflow's totals, from its place records alone
        own = [r for r in placed if r["workflow"] == wf_id]
        assert repr(w.cost) == repr(reduce(operator.add, (r["cost"] for r in own), 0))
        assert w.makespan == max((r["finish"] for r in own), default=0.0)
