"""Workflow DAGs and the per-task timing/cost arithmetic.

Everything here is a pure function over immutable values; the simulator
owns all mutable state. The module also holds the few helpers every other
module shares: seed lists, duplicate ids, field checks and JSON input files.
"""
from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, DagCycleError, DagReferenceError


class Outcome(str, enum.Enum):
    COMPLETED = "completed"
    FAILED_INTERRUPTED = "failed-interrupted"
    FAILED_TIMEOUT = "failed-timeout"


@dataclass(frozen=True)
class TaskSpec:
    """One task: resource demands plus an abstract amount of work."""

    id: str
    cpu_req: float
    mem_req: float
    work: float

    def __post_init__(self):
        # Bounded ranges reject infinities, and NaN, which fails every
        # comparison, here and in every spec below.
        if not 0 < self.cpu_req < math.inf:
            raise ValueError(f"task {self.id!r}: cpu_req must be finite and > 0")
        if not 0 < self.mem_req < math.inf:
            raise ValueError(f"task {self.id!r}: mem_req must be finite and > 0")
        if not 0 <= self.work < math.inf:
            raise ValueError(f"task {self.id!r}: work must be finite and >= 0")


@dataclass(frozen=True)
class EdgeSpec:
    """Precedence edge src -> dst carrying data_mb megabytes of output."""

    src: str
    dst: str
    data_mb: float = 0.0

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"self-edge on task {self.src!r}")
        if not 0 <= self.data_mb < math.inf:
            raise ValueError(f"edge {self.src!r}->{self.dst!r}: data_mb must be finite and >= 0")


@dataclass(frozen=True)
class WorkflowSpec:
    """A DAG of tasks submitted at arrival_time with a completion deadline.

    Construction only checks scalar fields; call validate_dag() for the
    structural checks so invalid graphs can still be built and inspected.
    """

    id: str
    tasks: tuple[TaskSpec, ...]
    edges: tuple[EdgeSpec, ...]
    arrival_time: float = 0.0
    timeout: float = 3600.0

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"workflow {self.id!r}: timeout must be finite and > 0")
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError(f"workflow {self.id!r}: arrival_time must be finite and >= 0")

    def task_map(self) -> dict[str, TaskSpec]:
        return {t.id: t for t in self.tasks}

    def predecessors(self) -> dict[str, list[EdgeSpec]]:
        """Incoming edges per task id (tasks without predecessors included)."""
        preds: dict[str, list[EdgeSpec]] = {t.id: [] for t in self.tasks}
        for e in self.edges:
            preds[e.dst].append(e)
        return preds


@dataclass(frozen=True)
class TaskTiming:
    """Realized timing and cost record of one executed task.

    delay = compute + wait + max_transfer and finish = start + delay hold
    by construction; build instances through task_timing().
    """

    start: float
    compute: float
    wait: float
    max_transfer: float
    delay: float
    finish: float
    cost: float = 0.0


@dataclass(frozen=True)
class WorkflowStats:
    makespan: float
    cost: float
    outcome: Outcome


def computation_time(work: float, rate: float) -> float:
    """Seconds to process `work` work-units at `rate` work-units/second."""
    if rate <= 0:
        raise ValueError(f"processing rate must be > 0, got {rate}")
    if work < 0:
        raise ValueError(f"work must be >= 0, got {work}")
    return work / rate


def transmission_time(data_mb: float, bandwidth_mbps: float, *, same_node: bool = False) -> float:
    """Seconds to move data_mb between two nodes; exactly 0 on the same node."""
    if data_mb < 0:
        raise ValueError(f"data_mb must be >= 0, got {data_mb}")
    if same_node:
        return 0.0
    if bandwidth_mbps <= 0:
        raise ValueError(f"bandwidth must be > 0 between distinct nodes, got {bandwidth_mbps}")
    return data_mb / bandwidth_mbps


def task_timing(
    start: float,
    compute: float,
    wait: float,
    pred_transfers: Iterable[float] = (),
    *,
    cost: float = 0.0,
) -> TaskTiming:
    """Assemble a TaskTiming; delay = compute + wait + max predecessor transfer."""
    transfers = list(pred_transfers)
    if start < 0 or compute < 0 or wait < 0 or any(t < 0 for t in transfers):
        raise ValueError("timing components must be >= 0")
    max_transfer = max(transfers, default=0.0)
    delay = compute + wait + max_transfer
    return TaskTiming(
        start=start,
        compute=compute,
        wait=wait,
        max_transfer=max_transfer,
        delay=delay,
        finish=start + delay,
        cost=cost,
    )


def task_cost(compute: float, unit_cost: float) -> float:
    """Dollars consumed by `compute` seconds at `unit_cost` dollars/second."""
    if compute < 0:
        raise ValueError(f"compute must be >= 0, got {compute}")
    if unit_cost < 0:
        raise ValueError(f"unit_cost must be >= 0, got {unit_cost}")
    return compute * unit_cost


def workflow_stats(timings: Mapping[str, TaskTiming] | Iterable[TaskTiming], outcome: Outcome) -> WorkflowStats:
    """Aggregate task records: makespan = max finish, cost = sum of costs."""
    records = list(timings.values()) if isinstance(timings, Mapping) else list(timings)
    makespan = max((t.finish for t in records), default=0.0)
    cost = sum(t.cost for t in records)
    return WorkflowStats(makespan=makespan, cost=cost, outcome=outcome)


def validate_dag(workflow: WorkflowSpec) -> None:
    """Raise unless the edge relation is acyclic and every endpoint resolves."""
    dupes = duplicates(t.id for t in workflow.tasks)
    if dupes:
        raise DagReferenceError(f"workflow {workflow.id!r}: duplicate task ids {dupes}")
    id_set = {t.id for t in workflow.tasks}
    for e in workflow.edges:
        for endpoint in (e.src, e.dst):
            if endpoint not in id_set:
                raise DagReferenceError(
                    f"workflow {workflow.id!r}: edge {e.src!r}->{e.dst!r} "
                    f"references unknown task {endpoint!r}"
                )
    # Kahn's algorithm; any leftover node sits on a cycle.
    indeg = {tid: 0 for tid in id_set}
    succs: dict[str, list[str]] = {tid: [] for tid in id_set}
    for e in workflow.edges:
        indeg[e.dst] += 1
        succs[e.src].append(e.dst)
    frontier = sorted(tid for tid, d in indeg.items() if d == 0)
    seen = 0
    while frontier:
        tid = frontier.pop()
        seen += 1
        for nxt in succs[tid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                frontier.append(nxt)
    if seen != len(id_set):
        stuck = {tid for tid, d in indeg.items() if d > 0}
        for e in workflow.edges:
            if e.src in stuck and e.dst in stuck:
                raise DagCycleError((e.src, e.dst))
        raise DagCycleError(("?", "?"))  # unreachable on consistent input


# --- helpers shared by every module ----------------------------------------


def seed_list(seed: int | Iterable[int]) -> list[int]:
    """A seed or seed sequence as a list of ints, ready to extend with a stream key."""
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def duplicates(ids: Iterable[str]) -> list[str]:
    """Ids that occur more than once, sorted."""
    return sorted(i for i, n in Counter(ids).items() if n > 1)


def check_fields(obj: Mapping, allowed: set[str], where: str) -> None:
    """Raise ConfigError unless obj is an object with exactly the allowed fields."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")


def read_json(path: str | Path):
    """Parse a JSON input file; bad syntax, NaN or Infinity raise ConfigError."""
    def constant(name: str):
        # Python's json accepts NaN, Infinity and -Infinity, none of which
        # is JSON; the specs would reject them later with a vaguer message.
        raise ConfigError(f"{path}: {name} is not a valid number")

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


# --- workflow file format -------------------------------------------------
#
# {id, arrival_time, timeout, tasks: [{id, cpu, mem_gb, work}],
#  edges: [{src, dst, data_mb}]} with unknown fields rejected.

_WF_FIELDS = {"id", "arrival_time", "timeout", "tasks", "edges"}
_TASK_FIELDS = {"id", "cpu", "mem_gb", "work"}
_EDGE_FIELDS = {"src", "dst", "data_mb"}


def workflow_from_dict(doc: Mapping) -> WorkflowSpec:
    check_fields(doc, _WF_FIELDS, "workflow")
    tasks = []
    for i, t in enumerate(doc["tasks"]):
        check_fields(t, _TASK_FIELDS, f"workflow task[{i}]")
        tasks.append(TaskSpec(id=str(t["id"]), cpu_req=float(t["cpu"]),
                              mem_req=float(t["mem_gb"]), work=float(t["work"])))
    edges = []
    for i, e in enumerate(doc["edges"]):
        check_fields(e, _EDGE_FIELDS, f"workflow edge[{i}]")
        edges.append(EdgeSpec(src=str(e["src"]), dst=str(e["dst"]), data_mb=float(e["data_mb"])))
    wf = WorkflowSpec(
        id=str(doc["id"]),
        tasks=tuple(tasks),
        edges=tuple(edges),
        arrival_time=float(doc["arrival_time"]),
        timeout=float(doc["timeout"]),
    )
    validate_dag(wf)
    return wf


def workflow_to_dict(wf: WorkflowSpec) -> dict:
    return {
        "id": wf.id,
        "arrival_time": wf.arrival_time,
        "timeout": wf.timeout,
        "tasks": [
            {"id": t.id, "cpu": t.cpu_req, "mem_gb": t.mem_req, "work": t.work}
            for t in wf.tasks
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "data_mb": e.data_mb}
            for e in wf.edges
        ],
    }


def load_workflow(path: str | Path) -> WorkflowSpec:
    return workflow_from_dict(read_json(path))


def save_workflow(wf: WorkflowSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(workflow_to_dict(wf), indent=2) + "\n", encoding="utf-8")
