"""Node specs, mutable node state, interruption sampling, and the stock fleet."""
import math

import numpy as np
import pytest

from spotsched.cluster import (
    DEAD_NODE_WAIT,
    ON_DEMAND,
    SPOT,
    ClusterSpec,
    NodeSpec,
    NodeState,
    RunningTask,
    apply_interruption,
    cluster_from_dict,
    cluster_to_dict,
    compute_time_on,
    default_cluster,
    load_cluster,
    sample_next_interruption,
    save_cluster,
)
from spotsched.errors import ConfigError
from spotsched.workflow import TaskSpec


def node(id="n", cpu=2.0, mem=8.0, rate=2.0, cls=SPOT, price=0.033):
    return NodeSpec(
        id=id,
        flavor="t4g.large",
        cpu=cpu,
        mem_gb=mem,
        rate=rate,
        pricing_class=cls,
        price_per_hour=price,
    )


def task(cpu=1.0, mem=4.0, work=100.0):
    return TaskSpec(id="t", cpu_req=cpu, mem_req=mem, work=work)


def test_unit_cost_from_hourly_price():
    assert node(price=0.033).unit_cost == pytest.approx(9.1667e-6, abs=1e-10)
    assert node(cls=ON_DEMAND, price=0.1344).unit_cost == pytest.approx(3.7333e-5, rel=1e-4)
    assert node(price=0.0).unit_cost == 0.0


def test_compute_time_on():
    assert compute_time_on(node(rate=2.0), task(work=100)) == 50.0


def test_can_fit():
    state = NodeState(spec=node(cpu=2, mem=8))
    assert state.can_fit(task(cpu=1, mem=4))
    assert not state.can_fit(task(cpu=4, mem=4))
    assert not state.can_fit(task(cpu=1, mem=9))
    assert state.can_fit(task(cpu=2, mem=8))  # exact fit counts
    state.alive = False
    assert not state.can_fit(task(cpu=1, mem=4))


def test_can_fit_tracks_running_tasks():
    state = NodeState(spec=node(cpu=2, mem=8))
    state.running[("w", "a")] = RunningTask("w", "a", cpu_req=2, mem_req=4, compute=10, exec_start=0)
    assert state.cpu_free == 0 and state.mem_free == 4
    assert not state.can_fit(task(cpu=1, mem=1))
    del state.running[("w", "a")]
    assert state.can_fit(task(cpu=2, mem=8))


def test_estimated_wait():
    state = NodeState(spec=node(rate=2.0))
    assert state.estimated_wait(now=0.0) == 0.0
    # work 100 at rate 2 runs 50 s; halfway through, 25 s remain
    state.running[("w", "a")] = RunningTask("w", "a", 1, 1, compute=50.0, exec_start=0.0)
    assert state.estimated_wait(now=25.0) == pytest.approx(25.0)
    assert state.estimated_wait(now=1000.0) == 0.0  # clamped, never negative
    state.alive = False
    assert state.estimated_wait(now=25.0) == DEAD_NODE_WAIT


def test_sample_next_interruption_edge_rates():
    assert sample_next_interruption(0.0, np.random.default_rng(0)) == math.inf
    with pytest.raises(ValueError):
        sample_next_interruption(-1.0, np.random.default_rng(0))


def test_sample_next_interruption_mean():
    rng = np.random.default_rng(1234)
    slow = np.array([sample_next_interruption(1.0, rng) for _ in range(100_000)])
    assert slow.mean() == pytest.approx(3600.0, rel=0.02)
    fast = np.array([sample_next_interruption(60.0, rng) for _ in range(100_000)])
    assert fast.mean() == pytest.approx(60.0, rel=0.02)
    assert (slow > 0).all() and (fast > 0).all()


def test_apply_interruption_kills_everything():
    state = NodeState(spec=node())
    state.running[("w", "a")] = RunningTask("w", "a", 1, 1, 10, 0)
    state.running[("w", "b")] = RunningTask("w", "b", 1, 1, 10, 0)
    killed = apply_interruption(state, now=100.0, downtime_s=600.0)
    assert sorted(killed) == [("w", "a"), ("w", "b")]
    assert not state.alive and state.down_until == 700.0
    assert not state.running
    assert state.cpu_free == state.spec.cpu  # capacity released


def test_apply_interruption_idle_and_errors():
    idle = NodeState(spec=node())
    assert apply_interruption(idle, 0.0, 60.0) == []
    with pytest.raises(ValueError):
        apply_interruption(idle, 0.0, 60.0)  # already down
    od = NodeState(spec=node(cls=ON_DEMAND))
    with pytest.raises(ValueError):
        apply_interruption(od, 0.0, 60.0)


def test_default_cluster_layout():
    c = default_cluster()
    assert len(c.nodes) == 11
    assert sum(n.pricing_class == SPOT for n in c.nodes) == 6
    assert sum(n.pricing_class == ON_DEMAND for n in c.nodes) == 5
    counts = {}
    for n in c.nodes:
        counts[(n.flavor, n.pricing_class)] = counts.get((n.flavor, n.pricing_class), 0) + 1
    assert counts == {
        ("t4g.large", SPOT): 2,
        ("t4g.large", ON_DEMAND): 2,
        ("t4g.xlarge", SPOT): 3,
        ("t4g.xlarge", ON_DEMAND): 2,
        ("t4g.2xlarge", SPOT): 1,
        ("t4g.2xlarge", ON_DEMAND): 1,
    }
    assert c.nodes[0].id == "spot-large-0"
    assert c.bandwidth_mbps == 100.0
    assert c.interruption_rate_per_hour == 0.5
    assert c.interruption_downtime_s == 600.0


def test_default_cluster_rates_and_prices():
    c = default_cluster()
    for n in c.nodes:
        assert n.rate == n.cpu  # one work unit per second per core
    prices = {(n.flavor, n.pricing_class): n.price_per_hour for n in c.nodes}
    assert prices[("t4g.large", SPOT)] == 0.033
    assert prices[("t4g.large", ON_DEMAND)] == 0.0672
    assert prices[("t4g.xlarge", SPOT)] == 0.0857
    assert prices[("t4g.xlarge", ON_DEMAND)] == 0.1344
    assert prices[("t4g.2xlarge", SPOT)] == 0.1589
    assert prices[("t4g.2xlarge", ON_DEMAND)] == 0.2688


def test_spot_cheaper_than_on_demand_within_flavor():
    c = default_cluster()
    uc = {(n.flavor, n.pricing_class): n.unit_cost for n in c.nodes}
    for flavor in ("t4g.large", "t4g.xlarge", "t4g.2xlarge"):
        assert uc[(flavor, SPOT)] < uc[(flavor, ON_DEMAND)]


def test_default_cluster_overrides():
    c = default_cluster(interruption_rate_per_hour=0.0, bandwidth_mbps=250.0)
    assert c.interruption_rate_per_hour == 0.0
    assert c.bandwidth_mbps == 250.0


def test_pricing_groups():
    c = default_cluster()
    groups = c.pricing_groups()
    assert set(groups) == {SPOT, ON_DEMAND}
    assert {n.id for n in groups[SPOT]} == {n.id for n in c.nodes if n.pricing_class == SPOT}


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        node(cpu=0)
    with pytest.raises(ValueError):
        node(mem=-1)
    with pytest.raises(ValueError):
        node(rate=0)
    with pytest.raises(ValueError):
        node(price=-0.1)
    with pytest.raises(ValueError):
        NodeSpec(id="n", flavor="f", cpu=1, mem_gb=1, rate=1, pricing_class="weird", price_per_hour=0)
    with pytest.raises(ValueError):
        ClusterSpec(nodes=())
    with pytest.raises(ValueError):
        ClusterSpec(nodes=(node(), node()))  # duplicate ids
    with pytest.raises(ValueError):
        ClusterSpec(nodes=(node(),), bandwidth_mbps=0)
    with pytest.raises(ValueError):
        ClusterSpec(nodes=(node(),), interruption_rate_per_hour=-1)
    with pytest.raises(ValueError):
        ClusterSpec(nodes=(node(),), interruption_downtime_s=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, name", [
    (lambda v: node(cpu=v), "capacities"),
    (lambda v: node(mem=v), "capacities"),
    (lambda v: node(rate=v), "rate"),
    (lambda v: node(price=v), "price_per_hour"),
    (lambda v: ClusterSpec(nodes=(node(),), bandwidth_mbps=v), "bandwidth_mbps"),
    (lambda v: ClusterSpec(nodes=(node(),), interruption_rate_per_hour=v),
     "interruption_rate_per_hour"),
    (lambda v: ClusterSpec(nodes=(node(),), interruption_downtime_s=v),
     "interruption_downtime_s"),
])
def test_specs_reject_non_finite(make, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(value)


def test_cluster_file_round_trip(tmp_path):
    c = default_cluster()
    path = tmp_path / "cluster.json"
    save_cluster(c, path)
    assert load_cluster(path) == c


def test_cluster_dict_rejects_bad_fields():
    doc = cluster_to_dict(default_cluster())
    extra = dict(doc)
    extra["surprise"] = 1
    with pytest.raises(ConfigError):
        cluster_from_dict(extra)
    missing = dict(doc)
    del missing["bandwidth_mbps"]
    with pytest.raises(ConfigError):
        cluster_from_dict(missing)
    bad_node = cluster_to_dict(default_cluster())
    bad_node["nodes"][0]["class"] = "preemptible"
    with pytest.raises(ConfigError):
        cluster_from_dict(bad_node)


def test_load_cluster_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_cluster(path)
