"""Cluster layout: node flavors, pricing classes, and runtime node state.

A cluster is a fixed list of nodes. Each node belongs to a pricing class
("spot" or "on-demand"); spot nodes are cheaper but suffer random
interruptions that kill whatever they were running.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .workflow import TaskSpec, check_fields, computation_time, duplicates, read_json

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
        if not (0 < self.cpu < math.inf and 0 < self.mem_gb < math.inf):
            raise ValueError(f"node {self.id!r}: capacities must be finite and > 0")
        if not 0 < self.rate < math.inf:
            raise ValueError(f"node {self.id!r}: rate must be finite and > 0")
        if self.pricing_class not in PRICING_CLASSES:
            raise ValueError(
                f"node {self.id!r}: pricing_class must be one of {PRICING_CLASSES}, "
                f"got {self.pricing_class!r}"
            )
        if not 0 <= self.price_per_hour < math.inf:
            raise ValueError(f"node {self.id!r}: price_per_hour must be finite and >= 0")

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
        if not 0 < self.bandwidth_mbps < math.inf:
            raise ValueError("bandwidth_mbps must be finite and > 0")
        if not 0 <= self.interruption_rate_per_hour < math.inf:
            raise ValueError("interruption_rate_per_hour must be finite and >= 0")
        if not 0 < self.interruption_downtime_s < math.inf:
            raise ValueError("interruption_downtime_s must be finite and > 0")

    def pricing_groups(self) -> dict[str, list[NodeSpec]]:
        """Nodes keyed by pricing class, both keys always present."""
        groups: dict[str, list[NodeSpec]] = {SPOT: [], ON_DEMAND: []}
        for n in self.nodes:
            groups[n.pricing_class].append(n)
        return groups


@dataclass
class RunningTask:
    """A task occupying a node, with enough detail to charge and to kill it."""

    workflow_id: str
    task_id: str
    cpu_req: float
    mem_req: float
    compute: float
    exec_start: float


@dataclass
class NodeState:
    """Mutable per-node simulator state.

    Free resources are derived from the running set so allocation and
    release can never drift out of conservation.
    """

    spec: NodeSpec
    alive: bool = True
    down_until: float = 0.0
    running: dict[tuple[str, str], RunningTask] = field(default_factory=dict)

    @property
    def cpu_free(self) -> float:
        return self.spec.cpu - sum(t.cpu_req for t in self.running.values())

    @property
    def mem_free(self) -> float:
        return self.spec.mem_gb - sum(t.mem_req for t in self.running.values())

    def can_fit(self, task: TaskSpec) -> bool:
        """True when the node is up and has the free cpu and memory for the task.

        The one fit rule: the simulator offers and places by it, and each
        observation carries it per node as `fit` for the schedulers. Memory
        is tested only after cpu passes: each free figure re-sums `running`.
        """
        return (
            self.alive
            and task.cpu_req <= self.cpu_free + EPS
            and task.mem_req <= self.mem_free + EPS
        )

    def estimated_wait(self, now: float) -> float:
        """Seconds of work backlog ahead of a new arrival on this node.

        Remaining work of running tasks divided by the node's rate. A dead
        node reports DEAD_NODE_WAIT.

        Known gap: a task placed at t holds its node until it finishes at
        t + max_transfer + compute, but RunningTask records only compute, so
        each running task counts as if it had started computing at t. The
        wait falls short of the node's real busy time by up to that task's
        max_transfer, and reads 0 in its last max_transfer seconds. Counting
        the transfer would change an agent input, and so trained agents.
        """
        if not self.alive:
            return DEAD_NODE_WAIT
        rate = self.spec.rate
        backlog = 0.0
        for t in self.running.values():
            elapsed = now - t.exec_start
            remaining = t.compute - elapsed
            backlog += min(max(remaining, 0.0), t.compute) * rate
        return backlog / rate


def compute_time_on(node: NodeSpec, task: TaskSpec) -> float:
    """Computation time of `task` on `node` (work over node rate)."""
    return computation_time(task.work, node.rate)


def sample_next_interruption(rate_per_hour: float, rng: np.random.Generator) -> float:
    """Exponential gap (seconds) to the next spot interruption; inf at rate 0."""
    if rate_per_hour < 0:
        raise ValueError(f"rate_per_hour must be >= 0, got {rate_per_hour}")
    if rate_per_hour == 0:
        return math.inf
    return float(rng.exponential(3600.0 / rate_per_hour))


def apply_interruption(state: NodeState, now: float, downtime_s: float) -> list[tuple[str, str]]:
    """Kill everything on a live spot node and take it down for downtime_s.

    Returns the killed (workflow id, task id) pairs.
    The node revives empty; restoring alive is the caller's job.
    """
    if state.spec.pricing_class != SPOT:
        raise ValueError(f"node {state.spec.id!r} is not interruptible ({state.spec.pricing_class})")
    if not state.alive:
        raise ValueError(f"node {state.spec.id!r} is already down")
    killed = [(t.workflow_id, t.task_id) for t in state.running.values()]
    state.running.clear()
    state.alive = False
    state.down_until = now + downtime_s
    return killed


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
    bandwidth_mbps: float = 100.0,
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
        bandwidth_mbps=bandwidth_mbps,
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
    nodes = []
    for i, n in enumerate(doc["nodes"]):
        check_fields(n, _NODE_FIELDS, f"cluster node[{i}]")
        try:
            nodes.append(NodeSpec(
                id=str(n["id"]), flavor=str(n["flavor"]), cpu=float(n["cpu"]),
                mem_gb=float(n["mem_gb"]), rate=float(n["rate"]),
                pricing_class=str(n["class"]), price_per_hour=float(n["price_per_hour"]),
            ))
        except ValueError as exc:
            raise ConfigError(f"cluster node[{i}]: {exc}") from exc
    try:
        return ClusterSpec(
            nodes=tuple(nodes),
            bandwidth_mbps=float(doc["bandwidth_mbps"]),
            interruption_rate_per_hour=float(doc["interruption_rate_per_hour"]),
            interruption_downtime_s=float(doc["interruption_downtime_s"]),
        )
    except ValueError as exc:
        raise ConfigError(f"cluster: {exc}") from exc


def cluster_to_dict(cluster: ClusterSpec) -> dict:
    return {
        "nodes": [
            {
                "id": n.id, "flavor": n.flavor, "cpu": n.cpu, "mem_gb": n.mem_gb,
                "rate": n.rate, "class": n.pricing_class,
                "price_per_hour": n.price_per_hour,
            }
            for n in cluster.nodes
        ],
        "bandwidth_mbps": cluster.bandwidth_mbps,
        "interruption_rate_per_hour": cluster.interruption_rate_per_hour,
        "interruption_downtime_s": cluster.interruption_downtime_s,
    }


def load_cluster(path: str | Path) -> ClusterSpec:
    return cluster_from_dict(read_json(path))


def save_cluster(cluster: ClusterSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cluster_to_dict(cluster), indent=2) + "\n", encoding="utf-8")
