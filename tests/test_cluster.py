"""Node specs, mutable node state, interruption sampling, and the stock fleet."""
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spotsched.cluster import (
    DEAD_NODE_WAIT,
    ON_DEMAND,
    SPOT,
    ClusterSpec,
    NodeSpec,
    NodeState,
    RunningTask,
    cluster_from_dict,
    default_cluster,
    load_cluster,
    sample_next_interruption,
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
    state.add(RunningTask("w", "a", cpu_req=2, mem_req=4, compute=10, exec_start=0))
    assert state.cpu_free == 0 and state.mem_free == 4
    assert not state.can_fit(task(cpu=1, mem=1))
    state.remove("w", "a")
    assert state.can_fit(task(cpu=2, mem=8))
    state.remove("w", "a")  # already released: a no-op
    assert (state.cpu_free, state.mem_free) == (2, 8)


def test_remove_releases_several_tasks_at_once():
    state = NodeState(spec=node(cpu=4, mem=8))
    for t in ("a", "b", "c"):
        state.add(RunningTask("w", t, cpu_req=1, mem_req=2, compute=10, exec_start=0))
    assert state.remove("w", "a", "b", "gone") is True  # any one still here is enough
    assert list(state.running) == [("w", "c")] and (state.cpu_free, state.mem_free) == (3, 6)
    assert state.remove("w", "a", "gone") is False
    assert (state.cpu_free, state.mem_free) == (3, 6)


def test_estimated_wait():
    state = NodeState(spec=node(rate=2.0))
    assert state.estimated_wait(now=0.0) == 0.0
    # work 100 at rate 2 runs 50 s; halfway through, 25 s remain
    state.add(RunningTask("w", "a", 1, 1, compute=50.0, exec_start=0.0))
    assert state.estimated_wait(now=25.0) == pytest.approx(25.0)
    assert state.estimated_wait(now=1000.0) == 0.0  # clamped, never negative
    state.alive = False
    assert state.estimated_wait(now=25.0) == DEAD_NODE_WAIT


def reference_wait(state, now):
    """The wait as first written: every running task, clamped to [0, compute]."""
    if not state.alive:
        return DEAD_NODE_WAIT
    rate = state.spec.rate
    backlog = 0.0
    for t in state.running.values():
        elapsed = now - t.exec_start
        remaining = t.compute - elapsed
        backlog += min(max(remaining, 0.0), t.compute) * rate
    return backlog / rate


@given(rate=st.sampled_from([3.0, 2.0, 0.7]),
       tasks=st.lists(st.tuples(st.floats(0.1, 500.0), st.floats(0.0, 1000.0)), max_size=6),
       ahead=st.one_of(st.just(0.0), st.floats(0.0, 2000.0)),
       alive=st.booleans())
def test_estimated_wait_equals_the_clamped_formula(rate, tasks, ahead, alive):
    # compute is work / rate as placement makes it: at rate 3 times are not
    # binary-exact. `now` is at or after every exec_start, as in the simulator:
    # ahead 0 puts it on the latest start, large ahead past every finish.
    state = NodeState(spec=node(rate=rate))
    for i, (work, start) in enumerate(tasks):
        state.add(RunningTask("w", f"t{i}", 0.1, 0.1, compute=work / rate, exec_start=start))
    now = max((start for _, start in tasks), default=0.0) + ahead
    state.alive = alive
    assert state.estimated_wait(now).hex() == reference_wait(state, now).hex()


def test_sample_next_interruption_edge_rates():
    assert sample_next_interruption(0.0, np.random.default_rng(0)) == math.inf


def test_sample_next_interruption_mean():
    rng = np.random.default_rng(1234)
    slow = np.array([sample_next_interruption(1.0, rng) for _ in range(100_000)])
    assert slow.mean() == pytest.approx(3600.0, rel=0.02)
    fast = np.array([sample_next_interruption(60.0, rng) for _ in range(100_000)])
    assert fast.mean() == pytest.approx(60.0, rel=0.02)
    assert (slow > 0).all() and (fast > 0).all()


def test_kill_takes_the_node_down_with_everything_on_it():
    state = NodeState(spec=node())
    state.add(RunningTask("w", "a", 1, 1, 10, 0))
    state.add(RunningTask("w", "b", 1, 1, 10, 0))
    assert sorted(state.kill()) == [("w", "a"), ("w", "b")]
    assert not state.alive
    assert not state.running
    assert state.cpu_free == state.spec.cpu and state.mem_free == state.spec.mem_gb  # released
    assert NodeState(spec=node()).kill() == []  # an idle node drops nothing


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
    c = default_cluster(interruption_rate_per_hour=0.0, interruption_downtime_s=60.0)
    assert c.interruption_rate_per_hour == 0.0
    assert c.interruption_downtime_s == 60.0
    wide = replace(c, bandwidth_mbps=250.0)
    assert wide.bandwidth_mbps == 250.0 and wide.nodes == c.nodes


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


@pytest.mark.parametrize("value, message", [
    (True, "must be a number"), ("8", "must be a number"), (10**400, "is too large for a float"),
])
@pytest.mark.parametrize("make, name", [
    (lambda v: node(mem=v), "capacities"),
    (lambda v: node(price=v), "price_per_hour"),
    (lambda v: ClusterSpec(nodes=(node(),), interruption_rate_per_hour=v),
     "interruption_rate_per_hour"),
], ids=["mem", "price", "interruption-rate"])
def test_specs_reject_what_is_not_a_real_number(make, name, value, message):
    # the specs' own check, the same rule their file reader applies first
    with pytest.raises(ValueError, match=f"{name} {message}"):
        make(value)


# the built-in layout as a cluster file, the format's documented example
EXAMPLE_CLUSTER = Path(__file__).resolve().parent.parent / "examples" / "cluster.json"


def example_doc():
    return json.loads(EXAMPLE_CLUSTER.read_text(encoding="utf-8"))


def test_example_cluster_file_is_the_default_cluster():
    assert load_cluster(EXAMPLE_CLUSTER) == default_cluster()


def test_cluster_dict_rejects_bad_fields():
    doc = example_doc()
    extra = dict(doc)
    extra["surprise"] = 1
    with pytest.raises(ConfigError):
        cluster_from_dict(extra)
    missing = dict(doc)
    del missing["bandwidth_mbps"]
    with pytest.raises(ConfigError):
        cluster_from_dict(missing)
    bad_node = example_doc()
    bad_node["nodes"][0]["class"] = "preemptible"
    with pytest.raises(ConfigError):
        cluster_from_dict(bad_node)


@pytest.mark.parametrize("edit, where", [
    (lambda d: d["nodes"][1].update(cpu=None), r"cluster node\[1\]: "),
    (lambda d: d["nodes"][0].update(rate="fast"), r"cluster node\[0\]: "),
    (lambda d: d.update(nodes=5), "cluster: "),
    (lambda d: d.update(bandwidth_mbps=None), "cluster: "),
    (lambda d: d["nodes"][0].update(cpu=True), r"cluster node\[0\]: cpu must be a number"),
    (lambda d: d["nodes"][2].update(mem_gb="8"), r"cluster node\[2\]: mem_gb must be a number"),
    (lambda d: d["nodes"][3].update(price_per_hour=False),
     r"cluster node\[3\]: price_per_hour must be a number"),
    (lambda d: d.update(interruption_downtime_s="600"),
     "cluster: interruption_downtime_s must be a number"),
    (lambda d: d.update(bandwidth_mbps=10**400), "cluster: bandwidth_mbps is too large"),
], ids=["cpu-null", "rate-str", "nodes-int", "bandwidth-null", "cpu-bool", "mem-str",
        "price-bool", "downtime-str", "bandwidth-huge-int"])
def test_cluster_dict_bad_values_are_config_errors(edit, where):
    doc = example_doc()
    edit(doc)
    with pytest.raises(ConfigError, match="^" + where):
        cluster_from_dict(doc)


def test_load_cluster_bad_json(tmp_path, unreadable_json):
    path = tmp_path / "c.json"
    path.write_text("[", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_cluster(path)
    for path in unreadable_json.values():
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_cluster(path)
