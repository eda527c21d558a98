"""Workflow DAGs, the per-task timing record and per-workflow stats.

The specs here are immutable and reject bad values on construction; the
simulator owns all mutable state and builds the timing records. The module
also holds the few helpers every other module shares: seed lists,
duplicate ids, field checks and JSON input files.
"""
from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Iterable, Mapping, NamedTuple

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
        # check_real's rule, inline, here and in the two specs below; a bounded range
        # also refuses NaN. generate builds these specs by the thousand, and a call per
        # field made a generated batch about 1.5 times as slow.
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

    Construction checks the scalar fields, then the graph: unique task ids,
    edge endpoints that name tasks, and no cycle. The same pass builds
    `task_map` (task by id), `preds` (incoming edges per task, in task
    order) and `succs` (successor ids per task, one per edge). Every episode
    over the spec shares these tables, so they are read-only; they take no
    part in ==, hash or repr.
    """

    id: str
    tasks: tuple[TaskSpec, ...]
    edges: tuple[EdgeSpec, ...]
    arrival_time: float = 0.0
    timeout: float = 3600.0
    task_map: dict[str, TaskSpec] = field(init=False, repr=False, compare=False)
    preds: dict[str, list[EdgeSpec]] = field(init=False, repr=False, compare=False)
    succs: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"workflow {self.id!r}: timeout must be finite and > 0")
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError(f"workflow {self.id!r}: arrival_time must be finite and >= 0")
        task_map = {t.id: t for t in self.tasks}
        if len(task_map) < len(self.tasks):
            dupes = duplicates(t.id for t in self.tasks)
            raise DagReferenceError(f"workflow {self.id!r}: duplicate task ids {dupes}")
        preds: dict[str, list[EdgeSpec]] = {tid: [] for tid in task_map}
        succs: dict[str, list[str]] = {tid: [] for tid in task_map}
        for e in self.edges:
            for endpoint in (e.src, e.dst):
                if endpoint not in task_map:
                    raise DagReferenceError(
                        f"workflow {self.id!r}: edge {e.src!r}->{e.dst!r} "
                        f"references unknown task {endpoint!r}"
                    )
            preds[e.dst].append(e)
            succs[e.src].append(e.dst)
        # Kahn's algorithm. Each task it never frees has a predecessor it never
        # frees, so walking back through those repeats a task on a cycle.
        waiting = {tid: len(edges) for tid, edges in preds.items()}
        freed = [tid for tid, n in waiting.items() if not n]
        for tid in freed:
            for nxt in succs[tid]:
                waiting[nxt] -= 1
                if not waiting[nxt]:
                    freed.append(nxt)
        if len(freed) < len(task_map):
            tid, seen = next(t for t, n in waiting.items() if n), set()
            while tid not in seen:
                seen.add(tid)
                edge = next(e for e in preds[tid] if waiting[e.src])
                tid = edge.src
            raise DagCycleError((edge.src, edge.dst))
        object.__setattr__(self, "task_map", task_map)
        object.__setattr__(self, "preds", preds)
        object.__setattr__(self, "succs", succs)


class TaskTiming(NamedTuple):
    """Realized timing and cost record of one executed task.

    delay = compute + wait + max_transfer and finish = start + delay hold
    by construction; `SimEnv._place` builds every instance, by position,
    once per placement.
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


# --- helpers shared by every module ----------------------------------------


def is_int(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_real(value, name: str) -> float:
    """A real, non-bool number as a float; anything else is a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def check_real(value, name: str, *, positive: bool = True) -> float:
    """as_real, then finite and > 0 (>= 0 when not `positive`): the specs' one number rule."""
    x = as_real(value, name)
    if not (0 < x < math.inf if positive else 0 <= x < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0")
    return x


def seed_list(seed: int | Iterable[int]) -> list[int]:
    """A seed or seed sequence as a list of ints, ready to extend with a stream key.

    numpy seeds only from non-negative integers, so a negative one is a ConfigError.
    """
    seeds = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    for s in seeds:
        if s < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {s}")
    return seeds


def duplicates(ids: Iterable[Hashable]) -> list:
    """Ids (names or seeds) that occur more than once, sorted."""
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
    """Parse a JSON input file. Any file that is not readable JSON raises ConfigError: bad
    syntax, NaN or Infinity, a path that cannot be read (a directory, say), bytes that are
    not UTF-8, an int past Python's digit limit, or nesting past the recursion limit."""
    def constant(name: str):
        # Python's json accepts NaN, Infinity and -Infinity, none of which
        # is JSON; the specs would reject them later with a vaguer message.
        raise ConfigError(f"{path}: {name} is not a valid number")

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=constant)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError too
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
    tasks, edges = [], []
    try:
        for i, t in enumerate(doc["tasks"]):
            check_fields(t, _TASK_FIELDS, f"workflow task[{i}]")
            cpu, mem, work = (as_real(t[k], f"task {t['id']!r}: {k}") for k in ("cpu", "mem_gb", "work"))
            tasks.append(TaskSpec(id=str(t["id"]), cpu_req=cpu, mem_req=mem, work=work))
        for i, e in enumerate(doc["edges"]):
            check_fields(e, _EDGE_FIELDS, f"workflow edge[{i}]")
            data_mb = as_real(e["data_mb"], f"edge {e['src']!r}->{e['dst']!r}: data_mb")
            edges.append(EdgeSpec(src=str(e["src"]), dst=str(e["dst"]), data_mb=data_mb))
        return WorkflowSpec(
            id=str(doc["id"]),
            tasks=tuple(tasks),
            edges=tuple(edges),
            arrival_time=as_real(doc["arrival_time"], "arrival_time"),
            timeout=as_real(doc["timeout"], "timeout"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"workflow {doc['id']!r}: {exc}") from exc


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
