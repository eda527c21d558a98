"""Random, filter-and-score, and on-demand-only schedulers."""
from collections import Counter
from dataclasses import replace

import pytest

from spotsched.baselines import (
    BASELINE_NAMES,
    K8DefaultPolicy,
    OnDemandPolicy,
    RandomPolicy,
    baseline_cluster,
    make_baseline,
)
from spotsched.cluster import ON_DEMAND, SPOT, ClusterSpec, NodeSpec, default_cluster
from spotsched.engine import Observation, SimEnv
from spotsched.errors import ConfigError, NoFeasibleActionError
from spotsched.harness import evaluate_rows
from spotsched.workflow import TaskSpec, WorkflowSpec


def idle_offer(cluster, cpu=1.0, mem=2.0):
    task = TaskSpec(id="t", cpu_req=cpu, mem_req=mem, work=100.0)
    wf = WorkflowSpec(id="w", tasks=(task,), edges=())
    return SimEnv(cluster, [wf], seed=0).reset()


def view(node_id, cpu_free, mem_free, alive=True):
    return node_id, cpu_free, mem_free, alive


def manual_obs(nodes, cpu=1.0, mem=1.0):
    """An observation of hand-set nodes, in the order of the cluster it stands for."""
    task = TaskSpec(id="t", cpu_req=cpu, mem_req=mem, work=10.0)
    ids, cpu_free, mem_free, alive = zip(*nodes)
    return Observation(
        time=0.0, workflow_id="w", task=task, node_ids=ids,
        unit_cost=(1e-5,) * len(ids), cpu_free=list(cpu_free), mem_free=list(mem_free),
        compute_wait=lambda: [0.0] * len(ids), alive=list(alive),
        fit=[a and cpu <= c and mem <= m for a, c, m in zip(alive, cpu_free, mem_free)],
    )


def ab_cluster():
    return ClusterSpec(nodes=(
        NodeSpec(id="a", flavor="f", cpu=2.0, mem_gb=8.0, rate=2.0,
                 pricing_class=SPOT, price_per_hour=0.03),
        NodeSpec(id="b", flavor="f", cpu=2.0, mem_gb=8.0, rate=2.0,
                 pricing_class=ON_DEMAND, price_per_hour=0.06),
    ))


def test_random_uniform_over_feasible_nodes():
    cluster = default_cluster()
    obs = idle_offer(cluster)
    policy = RandomPolicy(seed=0)
    draws = 100_000
    counts = Counter(policy(obs) for _ in range(draws))
    assert set(counts) == {n.id for n in cluster.nodes}
    for node_id in counts:
        assert abs(counts[node_id] / draws - 1 / 11) <= 0.01


def test_random_restricted_to_fitting_nodes():
    cluster = default_cluster()
    obs = idle_offer(cluster, cpu=6.0)  # only the two 2xlarge nodes fit
    policy = RandomPolicy(seed=1)
    picks = {policy(obs) for _ in range(200)}
    assert picks == {"spot-2xlarge-0", "od-2xlarge-0"}


def test_random_no_feasible_node():
    obs = manual_obs([view("a", 1.0, 1.0)], cpu=4.0)
    with pytest.raises(NoFeasibleActionError):
        RandomPolicy(seed=0)(obs)


def test_random_policy_seeded_repeatable():
    cluster = default_cluster()
    obs = idle_offer(cluster)
    one = RandomPolicy(seed=5)
    two = RandomPolicy(seed=5)
    other = RandomPolicy(seed=6)
    a = [one(obs) for _ in range(20)]
    b = [two(obs) for _ in range(20)]
    c = [other(obs) for _ in range(20)]
    assert a == b
    assert a != c


def test_score_prefers_first_node_on_idle_cluster():
    cluster = default_cluster()
    obs = idle_offer(cluster)
    assert K8DefaultPolicy(cluster)(obs) == "spot-large-0"


def test_score_prefers_emptier_node():
    cluster = ab_cluster()
    half = view("a", 1.0, 8.0)  # half the cores taken
    idle = view("b", 2.0, 8.0)
    assert K8DefaultPolicy(cluster)(manual_obs([half, idle])) == "b"


def test_score_tie_keeps_first():
    cluster = ab_cluster()
    obs = manual_obs([view("a", 2.0, 8.0), view("b", 2.0, 8.0)])
    assert K8DefaultPolicy(cluster)(obs) == "a"


def test_score_skips_dead_and_overfull_nodes():
    cluster = ab_cluster()
    dead = view("a", 2.0, 8.0, alive=False)
    alive = view("b", 1.0, 1.0)
    assert K8DefaultPolicy(cluster)(manual_obs([dead, alive])) == "b"


def test_score_restriction_to_on_demand():
    cluster = ab_cluster()
    od_cluster = baseline_cluster(cluster, "on-demand")
    spot_idle = view("a", 2.0, 8.0)  # a is spot, b on-demand
    od_busy = view("b", 1.0, 4.0)
    assert K8DefaultPolicy(cluster)(manual_obs([spot_idle, od_busy])) == "a"
    assert K8DefaultPolicy(od_cluster)(manual_obs([od_busy])) == "b"
    assert OnDemandPolicy(cluster)(manual_obs([od_busy])) == "b"
    with pytest.raises(NoFeasibleActionError):
        K8DefaultPolicy(od_cluster)(manual_obs([od_busy], cpu=2.0))


def test_score_rejects_observation_of_another_cluster():
    cluster = default_cluster()
    policy = OnDemandPolicy(cluster)
    with pytest.raises(ValueError):
        policy(idle_offer(cluster))
    # Only the first five nodes fit, as many as the on-demand cluster has:
    # read by position, this would pick a spot node.
    five = [view(n.id, n.cpu if i < 5 else 0.0, n.mem_gb) for i, n in enumerate(cluster.nodes)]
    with pytest.raises(ValueError):
        policy(manual_obs(five))


def test_on_demand_policy_never_touches_spot():
    cluster = default_cluster()
    obs = idle_offer(baseline_cluster(cluster, "on-demand"))
    assert OnDemandPolicy(cluster)(obs).startswith("od-")


def test_baseline_cluster():
    cluster = default_cluster()
    od = baseline_cluster(cluster, "on-demand")
    assert od.nodes == tuple(n for n in cluster.nodes if n.pricing_class == ON_DEMAND)
    assert replace(od, nodes=cluster.nodes) == cluster  # nothing else changes
    assert OnDemandPolicy(cluster).cluster == od
    assert baseline_cluster(cluster, "random") is cluster
    assert baseline_cluster(cluster, "k8-default") is cluster
    spot_only = ClusterSpec(nodes=cluster.pricing_groups()[SPOT])
    with pytest.raises(ConfigError, match="no on-demand nodes"):
        baseline_cluster(spot_only, "on-demand")


def test_on_demand_times_out_a_task_only_a_spot_node_fits():
    # the on-demand baseline runs on the on-demand nodes alone, so a task that only a spot
    # node fits waits there until its deadline, where k8-default places it
    cluster = ClusterSpec(nodes=(
        NodeSpec(id="spot", flavor="f", cpu=8.0, mem_gb=32.0, rate=8.0,
                 pricing_class=SPOT, price_per_hour=0.16),
        NodeSpec(id="od", flavor="f", cpu=4.0, mem_gb=16.0, rate=4.0,
                 pricing_class=ON_DEMAND, price_per_hour=0.13),
    ), interruption_rate_per_hour=0.0)
    task = TaskSpec(id="t", cpu_req=6.0, mem_req=2.0, work=100.0)
    workload = [WorkflowSpec(id="w", tasks=(task,), edges=(), timeout=600.0)]
    k8, od = (evaluate_rows(name, cluster, workload, seeds=[1])[0]
              for name in ("k8-default", "on-demand"))
    assert (k8.completed, k8.timed_out) == (1, 0)
    assert (od.completed, od.timed_out, od.total_cost) == (0, 1, 0.0)


def test_make_baseline():
    cluster = default_cluster()
    assert isinstance(make_baseline("random", cluster, seed=3), RandomPolicy)
    assert isinstance(make_baseline("k8-default", cluster), K8DefaultPolicy)
    assert isinstance(make_baseline("on-demand", cluster), OnDemandPolicy)
    assert set(BASELINE_NAMES) == {"random", "k8-default", "on-demand"}
    with pytest.raises(ConfigError):
        make_baseline("greedy", cluster)
    spot_only = ClusterSpec(nodes=(NodeSpec(
        id="s", flavor="f", cpu=1, mem_gb=1, rate=1,
        pricing_class=SPOT, price_per_hour=0.03,
    ),))
    with pytest.raises(ConfigError):
        make_baseline("on-demand", spot_only)
