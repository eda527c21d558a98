"""Event-driven episode mechanics: placement, timing, failures, determinism."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spotsched.baselines import RandomPolicy
from spotsched.cluster import (
    DEAD_NODE_WAIT,
    ON_DEMAND,
    SPOT,
    ClusterSpec,
    NodeSpec,
    default_cluster,
    sample_next_interruption,
)
from spotsched.engine import SimEnv, run_episode
from spotsched.errors import ConfigError, InvalidActionError
from spotsched.workflow import EdgeSpec, Outcome, TaskSpec, WorkflowSpec, transmission_time
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


def test_reset_offers_first_task_at_time_zero():
    env = SimEnv(two_nodes(), [single()], seed=0)
    obs = env.reset()
    assert obs.time == 0.0
    assert obs.workflow_id == "w" and obs.task.id == "t"
    assert obs.node_ids == ("s0", "o0")
    assert obs.alive.all() and obs.fit.all()
    assert (obs.wait == 0.0).all()


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
    placements = iter(["s0", "o0"])
    env = SimEnv(two_nodes(), [chain()], seed=0)
    obs = env.reset()
    while obs is not None:
        obs, _, _ = env.step(next(placements))
    timing = env.runs["w"].timings["b"]
    assert timing.max_transfer == 2.0  # 200 MB at 100 MB/s
    assert timing.start == 10.0  # ready the moment a finishes
    assert timing.finish == 22.0


def test_same_node_transfer_is_free():
    env = SimEnv(two_nodes(), [chain()], seed=0)
    obs = env.reset()
    while obs is not None:
        obs, _, _ = env.step("s0")
    timing = env.runs["w"].timings["b"]
    assert timing.max_transfer == 0.0
    assert timing.finish == 20.0


def test_fifo_order_among_ready_tasks():
    env = SimEnv(two_nodes(), [single("b"), single("a")], seed=0)
    obs = env.reset()
    assert obs.workflow_id == "a"


def test_identical_runs_are_bit_identical():
    cluster = default_cluster()
    wfs = generate(WorkloadConfig(count=5, seed=3))
    first = run_episode(RandomPolicy(cluster, seed=[5]), cluster, wfs, seed=[9])
    second = run_episode(RandomPolicy(cluster, seed=[5]), cluster, wfs, seed=[9])
    assert first == second


def test_identical_observation_sequences():
    cluster = default_cluster()
    wfs = generate(WorkloadConfig(count=3, seed=1))

    def collect():
        env = SimEnv(cluster, wfs, seed=[4])
        policy = RandomPolicy(cluster, seed=[2])
        seen = []
        obs = env.reset()
        while obs is not None:
            seen.append((
                obs.time,
                obs.workflow_id,
                obs.task.id,
                obs.node_ids,
                *(tuple(a.tolist()) for a in (obs.cpu_free, obs.mem_free, obs.wait,
                                               obs.alive, obs.fit)),
            ))
            obs, _, _ = env.step(policy(obs))
        return seen

    assert collect() == collect()


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
    policy = RandomPolicy(cluster, seed=[8])
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
    stats = run_episode(RandomPolicy(cluster, seed=[seed, 1]), cluster, wfs, seed=[seed, 2])
    assert stats.completed == 4
    assert stats.interrupted == 0 and stats.timed_out == 0


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
    env = SimEnv(cluster, wfs, seed=0)
    env.reset()
    obs, _, _ = env.step("only")
    assert obs.time == 20.0  # w2 had to wait for w1 to release the node
    env.step("only")
    timing = env.runs["w2"].timings["t"]
    assert (timing.start, timing.wait) == (1.0, 19.0)
    assert timing.finish == timing.start + timing.compute + timing.wait + timing.max_transfer


def test_eligible_subset_defers_until_a_listed_node_frees():
    cluster = two_nodes(od_cpu=1.0)
    wfs = [single("w1", work=20.0), single("w2", work=10.0, arrival=1.0)]
    env = SimEnv(cluster, wfs, seed=0, eligible=["o0"])
    obs = env.reset()
    assert obs.workflow_id == "w1"
    obs, _, _ = env.step("o0")
    # s0 has room the whole time but is off limits
    assert obs.time == 20.0 and obs.workflow_id == "w2"
    _, _, done = env.step("o0")
    assert done
    assert env.runs["w2"].timings["t"].wait == 19.0
    assert env.episode_stats().completed == 2


def test_eligible_must_name_known_nodes():
    with pytest.raises(ConfigError):
        SimEnv(two_nodes(), [single()], eligible=["ghost"])
    with pytest.raises(ConfigError):
        SimEnv(two_nodes(), [single()], eligible=[])


def test_env_validates_workload():
    with pytest.raises(ConfigError):
        SimEnv(two_nodes(), [])
    with pytest.raises(ConfigError):
        SimEnv(two_nodes(), [single("w"), single("w")])
    tasks = tuple(TaskSpec(id=t, cpu_req=1, mem_req=1, work=1) for t in "ab")
    cyclic = WorkflowSpec(id="c", tasks=tasks, edges=(EdgeSpec("a", "b"), EdgeSpec("b", "a")))
    with pytest.raises(ConfigError):
        SimEnv(two_nodes(), [cyclic])


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
    run_episode(RandomPolicy(cluster, seed=[1]), cluster, wfs, seed=[6], on_event=events.append)
    times = [e["time"] for e in events]
    assert times == sorted(times)
    for e in events:
        assert list(e)[:2] == ["time", "kind"]
        if e["kind"] == "finish":
            assert list(e) == ["time", "kind", "node", "workflow", "task"]
        if e["kind"] in ("interrupt", "revive"):
            assert "node" in e


def test_precedence_is_never_violated():
    cluster = default_cluster(interruption_rate_per_hour=0.0)
    wfs = generate(WorkloadConfig(count=6, seed=13))
    env = SimEnv(cluster, wfs, seed=[1])
    policy = RandomPolicy(cluster, seed=[2])
    obs = env.reset()
    while obs is not None:
        obs, _, _ = env.step(policy(obs))
    for run in env.runs.values():
        preds = run.spec.predecessors()
        for task_id, timing in run.timings.items():
            # transfers happen before compute: effective start = finish - compute
            exec_start = timing.finish - timing.compute
            for edge in preds[task_id]:
                upstream = run.timings[edge.src]
                tt = transmission_time(
                    edge.data_mb,
                    cluster.bandwidth_mbps,
                    same_node=run.node_of[edge.src] == run.node_of[task_id],
                )
                assert exec_start + 1e-9 >= upstream.finish + tt
