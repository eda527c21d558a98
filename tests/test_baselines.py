"""Random, filter-and-score, and on-demand-only schedulers."""
from collections import Counter

import numpy as np
import pytest

from spotsched.baselines import (
    BASELINE_NAMES,
    K8DefaultPolicy,
    OnDemandPolicy,
    RandomPolicy,
    eligible_nodes,
    make_baseline,
    random_policy,
    score_policy,
)
from spotsched.cluster import ON_DEMAND, SPOT, ClusterSpec, NodeSpec, default_cluster
from spotsched.engine import Observation, SimEnv
from spotsched.errors import ConfigError, NoFeasibleActionError
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
    cpu_free, mem_free, alive = np.array(cpu_free), np.array(mem_free), np.array(alive)
    return Observation(
        time=0.0, workflow_id="w", task=task, node_ids=ids,
        unit_cost=np.full(len(ids), 1e-5), cpu_free=cpu_free, mem_free=mem_free,
        wait=np.zeros(len(ids)), alive=alive,
        fit=alive & (cpu <= cpu_free) & (mem <= mem_free),
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
    rng = np.random.default_rng(0)
    draws = 100_000
    counts = Counter(random_policy(obs, rng) for _ in range(draws))
    assert set(counts) == {n.id for n in cluster.nodes}
    for node_id in counts:
        assert abs(counts[node_id] / draws - 1 / 11) <= 0.01


def test_random_restricted_to_fitting_nodes():
    cluster = default_cluster()
    obs = idle_offer(cluster, cpu=6.0)  # only the two 2xlarge nodes fit
    rng = np.random.default_rng(1)
    picks = {random_policy(obs, rng) for _ in range(200)}
    assert picks == {"spot-2xlarge-0", "od-2xlarge-0"}


def test_random_no_feasible_node():
    obs = manual_obs([view("a", 1.0, 1.0)], cpu=4.0)
    with pytest.raises(NoFeasibleActionError):
        random_policy(obs, np.random.default_rng(0))


def test_random_policy_seeded_repeatable():
    cluster = default_cluster()
    obs = idle_offer(cluster)
    one = RandomPolicy(cluster, seed=5)
    two = RandomPolicy(cluster, seed=5)
    other = RandomPolicy(cluster, seed=6)
    a = [one(obs) for _ in range(20)]
    b = [two(obs) for _ in range(20)]
    c = [other(obs) for _ in range(20)]
    assert a == b
    assert a != c


def test_score_prefers_first_node_on_idle_cluster():
    cluster = default_cluster()
    obs = idle_offer(cluster)
    assert score_policy(obs, cluster) == "spot-large-0"
    assert K8DefaultPolicy(cluster)(obs) == "spot-large-0"


def test_score_prefers_emptier_node():
    cluster = ab_cluster()
    half = view("a", 1.0, 8.0)  # half the cores taken
    idle = view("b", 2.0, 8.0)
    assert score_policy(manual_obs([half, idle]), cluster) == "b"


def test_score_tie_keeps_first():
    cluster = ab_cluster()
    obs = manual_obs([view("a", 2.0, 8.0), view("b", 2.0, 8.0)])
    assert score_policy(obs, cluster) == "a"


def test_score_skips_dead_and_overfull_nodes():
    cluster = ab_cluster()
    dead = view("a", 2.0, 8.0, alive=False)
    alive = view("b", 1.0, 1.0)
    assert score_policy(manual_obs([dead, alive]), cluster) == "b"


def test_score_restriction_to_on_demand():
    cluster = ab_cluster()
    spot_idle = view("a", 2.0, 8.0)  # a is spot, b on-demand
    od_busy = view("b", 1.0, 4.0)
    obs = manual_obs([spot_idle, od_busy])
    assert score_policy(obs, cluster) == "a"
    assert score_policy(obs, cluster, restrict=ON_DEMAND) == "b"
    with pytest.raises(NoFeasibleActionError):
        score_policy(manual_obs([spot_idle, od_busy], cpu=2.0), cluster, restrict=ON_DEMAND)


def test_on_demand_policy_never_touches_spot():
    cluster = default_cluster()
    obs = idle_offer(cluster)
    assert OnDemandPolicy(cluster)(obs).startswith("od-")


def test_eligible_nodes():
    cluster = default_cluster()
    subset = eligible_nodes(cluster, "on-demand")
    assert subset == {n.id for n in cluster.nodes if n.pricing_class == ON_DEMAND}
    assert eligible_nodes(cluster, "random") is None
    assert eligible_nodes(cluster, "k8-default") is None


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
