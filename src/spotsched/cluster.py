"""Cluster layout: node flavors, pricing classes, and runtime node state.

A cluster is a fixed list of nodes. Each node belongs to a pricing class
("spot" or "on-demand"); spot nodes are cheaper but suffer random
interruptions that kill whatever they were running.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConfigError
from .workflow import TaskSpec, as_real, check_fields, check_real, duplicates, read_json

SPOT = "spot"
ON_DEMAND = "on_demand"
PRICING_CLASSES = (SPOT, ON_DEMAND)

# Resource-fit comparisons tolerate float dust from repeated alloc/release.
EPS = 1e-9

# estimated_wait() sentinel for nodes that are down.
DEAD_NODE_WAIT = 1e9


@dataclass(frozen=True)
class NodeSpec:
    """One machine: capacity, speed, pricing class, and hourly price."""

    id: str
    flavor: str
    cpu: float
    mem_gb: float
    rate: float
    pricing_class: str
    price_per_hour: float

    def __post_init__(self):
        check_real(self.cpu, f"node {self.id!r}: capacities")
        check_real(self.mem_gb, f"node {self.id!r}: capacities")
        check_real(self.rate, f"node {self.id!r}: rate")
        if self.pricing_class not in PRICING_CLASSES:
            raise ValueError(
                f"node {self.id!r}: pricing_class must be one of {PRICING_CLASSES}, "
                f"got {self.pricing_class!r}"
            )
        check_real(self.price_per_hour, f"node {self.id!r}: price_per_hour", positive=False)

    @property
    def unit_cost(self) -> float:
        """Dollars per second of busy compute."""
        return self.price_per_hour / 3600.0


@dataclass(frozen=True)
class ClusterSpec:
    """Immutable cluster layout shared by the simulator and all policies."""

    nodes: tuple[NodeSpec, ...]
    bandwidth_mbps: float = 100.0
    interruption_rate_per_hour: float = 0.5
    interruption_downtime_s: float = 600.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("cluster must have at least one node")
        dupes = duplicates(n.id for n in self.nodes)
        if dupes:
            raise ValueError(f"duplicate node ids {dupes}")
        check_real(self.bandwidth_mbps, "bandwidth_mbps")
        check_real(self.interruption_rate_per_hour, "interruption_rate_per_hour", positive=False)
        check_real(self.interruption_downtime_s, "interruption_downtime_s")

    def pricing_groups(self) -> dict[str, list[NodeSpec]]:
        """Nodes keyed by pricing class, both keys always present."""
        groups: dict[str, list[NodeSpec]] = {SPOT: [], ON_DEMAND: []}
        for n in self.nodes:
            groups[n.pricing_class].append(n)
        return groups


class RunningTask(NamedTuple):
    """A task occupying a node, enough to charge and kill it; built by position per placement."""

    workflow_id: str
    task_id: str
    cpu_req: float
    mem_req: float
    compute: float
    exec_start: float


@dataclass
class NodeState:
    """Mutable per-node simulator state.

    `running` changes only through add, remove and kill, and each re-sums
    the free figures from it rather than applying a delta, so they never
    drift from conservation and equal a fresh sum bit for bit.
    """

    spec: NodeSpec
    alive: bool = True
    running: dict[tuple[str, str], RunningTask] = field(default_factory=dict, init=False)
    cpu_free: float = field(init=False)
    mem_free: float = field(init=False)

    def __post_init__(self):
        self._resum()

    def _resum(self) -> None:
        # running totals, added left to right on every Python (from 3.12 on,
        # builtin sum() compensates its rounding)
        cpu = mem = 0
        for task in self.running.values():
            cpu += task.cpu_req
            mem += task.mem_req
        self.cpu_free = self.spec.cpu - cpu
        self.mem_free = self.spec.mem_gb - mem

    def add(self, task: RunningTask) -> None:
        self.running[(task.workflow_id, task.task_id)] = task
        self._resum()

    def remove(self, workflow_id: str, *task_ids: str) -> bool:
        """Release tasks at one re-sum; False, changing nothing, when none is still here."""
        released = False
        for task_id in task_ids:
            released |= self.running.pop((workflow_id, task_id), None) is not None
        if released:
            self._resum()
        return released

    def kill(self) -> list[tuple[str, str]]:
        """Take the node down, dropping every running task; returns their (workflow, task) keys.

        The node stays down and empty until the simulator sets `alive` again.
        """
        killed = list(self.running)
        self.running.clear()
        self.alive = False
        self._resum()
        return killed

    def can_fit(self, task: TaskSpec) -> bool:
        """True when the node is up and has the free cpu and memory for the task.

        The one fit rule: the simulator places by it, offers by its results
        (cached per task shape, re-read for a node whenever that node
        changes), and each observation carries it per node as `fit`.
        """
        return (
            self.alive
            and task.cpu_req <= self.cpu_free + EPS
            and task.mem_req <= self.mem_free + EPS
        )

    def estimated_wait(self, now: float) -> float:
        """Seconds of work backlog ahead of a new arrival on this node.

        Remaining work of running tasks divided by the node's rate. A dead
        node reports DEAD_NODE_WAIT. `now` is never before a running task's
        exec_start (the simulator's clock never runs back), so no task has
        more than its compute left.

        Known gap: a task placed at t holds its node until it finishes at
        t + max_transfer + compute, but RunningTask records only compute, so
        each running task counts as if it had started computing at t. The
        wait falls short of the node's real busy time by up to that task's
        max_transfer, and reads 0 in its last max_transfer seconds. Counting
        the transfer would change an agent input, and so trained agents.
        """
        if not self.alive:
            return DEAD_NODE_WAIT
        if not self.running:
            return 0.0
        rate = self.spec.rate
        backlog = 0.0
        for t in self.running.values():
            remaining = t.compute - (now - t.exec_start)
            if remaining > 0.0:  # a finished task would add only 0.0
                backlog += remaining * rate
        return backlog / rate


def sample_next_interruption(rate_per_hour: float, rng: np.random.Generator) -> float:
    """Exponential gap (seconds) to the next spot interruption; inf at rate 0."""
    if rate_per_hour == 0:
        return math.inf
    return float(rng.exponential(3600.0 / rate_per_hour))


# --- default cluster ------------------------------------------------------
#
# Three burstable arm64 flavors in both pricing classes. Rates model one
# work-unit per core-second.

_FLAVORS = {
    # flavor: (cpu, mem_gb, spot $/h, on-demand $/h)
    "t4g.large": (2, 8, 0.0330, 0.0672),
    "t4g.xlarge": (4, 16, 0.0857, 0.1344),
    "t4g.2xlarge": (8, 32, 0.1589, 0.2688),
}

_DEFAULT_COUNTS = {
    # flavor: (spot count, on-demand count)
    "t4g.large": (2, 2),
    "t4g.xlarge": (3, 2),
    "t4g.2xlarge": (1, 1),
}


def default_cluster(
    *,
    interruption_rate_per_hour: float = 0.5,
    interruption_downtime_s: float = 600.0,
) -> ClusterSpec:
    """The stock 11-node mixed cluster used throughout tests and the CLI."""
    nodes = []
    for flavor, (n_spot, n_od) in _DEFAULT_COUNTS.items():
        cpu, mem, spot_price, od_price = _FLAVORS[flavor]
        short = flavor.split(".", 1)[1]
        for i in range(n_spot):
            nodes.append(NodeSpec(
                id=f"spot-{short}-{i}", flavor=flavor, cpu=cpu, mem_gb=mem,
                rate=float(cpu), pricing_class=SPOT, price_per_hour=spot_price,
            ))
        for i in range(n_od):
            nodes.append(NodeSpec(
                id=f"od-{short}-{i}", flavor=flavor, cpu=cpu, mem_gb=mem,
                rate=float(cpu), pricing_class=ON_DEMAND, price_per_hour=od_price,
            ))
    return ClusterSpec(
        nodes=tuple(nodes),
        interruption_rate_per_hour=interruption_rate_per_hour,
        interruption_downtime_s=interruption_downtime_s,
    )


# --- cluster file format --------------------------------------------------
#
# {nodes: [{id, flavor, cpu, mem_gb, rate, class, price_per_hour}],
#  bandwidth_mbps, interruption_rate_per_hour, interruption_downtime_s}

_CLUSTER_FIELDS = {
    "nodes", "bandwidth_mbps", "interruption_rate_per_hour", "interruption_downtime_s",
}
_NODE_FIELDS = {"id", "flavor", "cpu", "mem_gb", "rate", "class", "price_per_hour"}


def cluster_from_dict(doc: Mapping) -> ClusterSpec:
    check_fields(doc, _CLUSTER_FIELDS, "cluster")
    nodes, where = [], "cluster"
    try:
        for i, n in enumerate(doc["nodes"]):
            where = f"cluster node[{i}]"
            check_fields(n, _NODE_FIELDS, where)
            cpu, mem, rate, price = (as_real(n[k], k)
                                     for k in ("cpu", "mem_gb", "rate", "price_per_hour"))
            nodes.append(NodeSpec(id=str(n["id"]), flavor=str(n["flavor"]), cpu=cpu, mem_gb=mem,
                                  rate=rate, pricing_class=str(n["class"]), price_per_hour=price))
        where = "cluster"
        bandwidth, rate, downtime = (as_real(doc[k], k) for k in (
            "bandwidth_mbps", "interruption_rate_per_hour", "interruption_downtime_s"))
        return ClusterSpec(nodes=tuple(nodes), bandwidth_mbps=bandwidth,
                           interruption_rate_per_hour=rate, interruption_downtime_s=downtime)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_cluster(path: str | Path) -> ClusterSpec:
    return cluster_from_dict(read_json(path))

