"""Discrete-event cluster simulator with an episodic scheduling interface.

The environment advances through arrivals, task completions, spot
interruptions, node revivals, and workflow timeouts. Whenever some queued
task could be placed somewhere, the loop pauses and offers exactly one
pending task; step() places it and resumes.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .cluster import (
    SPOT,
    ClusterSpec,
    NodeState,
    RunningTask,
    sample_next_interruption,
)
from .errors import ConfigError, InvalidActionError
from .workflow import (
    Outcome,
    TaskSpec,
    WorkflowSpec,
    WorkflowStats,
    duplicates,
    seed_list,
)

# Event kinds, each as (on_event record name, payload field names), in
# tie-break priority order at equal timestamps: completions are credited
# before a node dies at the same instant, a node revives before its next
# interruption, and arrivals land before the deadline that they themselves
# define. A kind is its index here, and SimEnv._HANDLERS follows this order.
EVENT_KINDS = (
    ("finish", ("node", "workflow", "task")),
    ("revive", ("node",)),
    ("interrupt", ("node",)),
    ("arrival", ("workflow",)),
    ("timeout", ("workflow",)),
)
FINISH, REVIVE, INTERRUPT, ARRIVAL, TIMEOUT = range(len(EVENT_KINDS))

# The most spot interruption and revival events a run may expect before its last
# deadline. The benchmark's workloads expect under 1,000 and the largest test case about
# 33,000; an idle cluster ticks through every one of them.
MAX_INTERRUPTION_EVENTS = 10**6


@dataclass(eq=False)
class Observation:
    """One pending task plus the cluster as the scheduler may see it.

    Per-node lists follow cluster config order, always all nodes: `fit` is
    NodeState.can_fit for the task, `wait` is estimated_wait. Each is the
    offer's own copy, so it keeps its values while the environment moves on.
    The `node_ids` and `unit_cost` tuples are shared by all of an
    environment's offers. Only the agent reads `wait`: `compute_wait` builds it
    on first read, kept without the lock cached_property takes then (before
    3.12); SimEnv's raises if that read comes after the environment moved on.
    """

    time: float
    workflow_id: str
    task: TaskSpec
    node_ids: tuple[str, ...]
    unit_cost: tuple[float, ...]
    cpu_free: list[float]
    mem_free: list[float]
    compute_wait: Callable[[], list[float]]
    alive: list[bool]
    fit: list[bool]
    _wait = None  # unannotated, so no field: __init__ pays nothing until `wait` is read

    @property
    def wait(self) -> list[float]:
        if self._wait is None:
            self._wait = self.compute_wait()
        return self._wait


@dataclass(frozen=True)
class EpisodeStats:
    """End-of-episode accounting over every submitted workflow."""

    workflows: dict[str, WorkflowStats]
    total_cost: float
    mean_execution_time: float
    completed: int
    interrupted: int
    timed_out: int

    @property
    def submitted(self) -> int:
        return self.completed + self.interrupted + self.timed_out

    def row(self) -> dict:
        """The reported fields by name, to build a per-episode row from."""
        return {name: getattr(self, name) for name, _ in ROW_FIELDS}


# (name, type) of every field but `workflows`: what each per-episode row reports of it,
# harness.MetricsRow and agent.EpisodeRecord alike
ROW_FIELDS = tuple((f.name, f.type) for f in fields(EpisodeStats) if f.name != "workflows")


class _Run:
    """Mutable per-workflow bookkeeping; the graph tables are the spec's."""

    def __init__(self, spec: WorkflowSpec):
        self.spec = spec
        # Per task: predecessors not yet completed, one per edge.
        self.waiting = {tid: len(edges) for tid, edges in spec.preds.items()}
        self.completed: set[str] = set()
        self.ready_time: dict[str, float] = {}
        self.node_of: dict[str, str] = {}
        self.outcome: Outcome | None = None
        self.cost = 0  # kept by _place, as is makespan; int 0 until the first placement
        self.makespan = 0.0


class SimEnv:
    """Simulates one workload batch on one cluster.

    reset() returns the first Observation (or None if no workflow ever
    needs a decision); step(node_id) places the offered task and returns
    (observation | None, reward, done). Rewards are negated dollar costs.
    An optional on_event callable receives one record dict per processed
    event: `time`, `kind`, then the kind's payload fields in EVENT_KINDS.
    It also receives one `place` record per placement, once the task runs:
    `time`, `kind`, `workflow`, `task`, `node`, `compute`, `max_transfer`,
    `finish` and `cost`, where finish is the task's ready time plus its wait,
    compute and slowest transfer, and cost its compute time x unit cost.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        workload: Sequence[WorkflowSpec],
        seed: int | Sequence[int] = 0,
        on_event: Callable[[dict], None] | None = None,
    ):
        if not workload:
            raise ConfigError("workload must contain at least one workflow")
        dupes = duplicates(wf.id for wf in workload)
        if dupes:
            raise ConfigError(f"duplicate workflow ids {dupes}")
        check_bounded(cluster, workload)
        self.cluster = cluster
        self._node_ids = tuple(n.id for n in cluster.nodes)
        self._index = {node_id: i for i, node_id in enumerate(self._node_ids)}
        self._unit_cost = tuple(n.unit_cost for n in cluster.nodes)
        self.workload = tuple(workload)
        self.seed = seed_list(seed)
        self.on_event = on_event
        self._done = False
        self._offered: tuple[str, str] | None = None

    # -- episode lifecycle -------------------------------------------------

    def reset(self) -> Observation | None:
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        # Per task shape (cpu_req, mem_req), the one thing fit depends on, with tasks of
        # unresolved workflows queued: (their sorted queue, one task of the shape, its
        # can_fit row); like the per-node lists below, _refresh re-reads a changed node.
        self._shapes: dict[tuple[float, float],
                           tuple[list[tuple[float, str, str]], TaskSpec, list[bool]]] = {}
        self._offered: tuple[str, str] | None = None
        self._total_cost = 0.0
        self._done = False
        self.nodes = {n.id: NodeState(spec=n) for n in self.cluster.nodes}
        self._cpu_free = [n.cpu_free for n in self.nodes.values()]
        self._mem_free = [n.mem_free for n in self.nodes.values()]
        self._alive = [n.alive for n in self.nodes.values()]
        self.runs = {wf.id: _Run(wf) for wf in self.workload}
        self._unresolved = len(self.runs)
        for wf in self.workload:
            self._push(wf.arrival_time, ARRIVAL, (wf.id,))
            self._push(wf.arrival_time + wf.timeout, TIMEOUT, (wf.id,))
        rate = self.cluster.interruption_rate_per_hour
        self._int_rng = {}
        for idx, spec in enumerate(self.cluster.nodes):
            if spec.pricing_class != SPOT:
                continue
            rng = np.random.default_rng(self.seed + [idx])
            self._int_rng[spec.id] = rng
            gap = sample_next_interruption(rate, rng)
            if math.isfinite(gap):
                self._push(gap, INTERRUPT, (spec.id,))
        return self._advance()

    def step(self, node_id: str) -> tuple[Observation | None, float, bool]:
        if self._offered is None:
            raise InvalidActionError("no pending task to place")
        wf_id, task_id = self._offered
        run = self.runs[wf_id]
        task = run.spec.task_map[task_id]
        node = self.nodes.get(node_id)
        if node is None:
            raise InvalidActionError(f"unknown node {node_id!r}")
        if not node.alive:
            raise InvalidActionError(f"node {node_id!r} is down")
        if not node.can_fit(task):
            raise InvalidActionError(f"task {task_id!r} does not fit on node {node_id!r}")

        self._offered = None  # the state changes from here on
        shape = (task.cpu_req, task.mem_req)
        del self._shapes[shape][0][0]  # _next_offer offers a shape's head, and nothing ran since
        if not self._shapes[shape][0]:
            del self._shapes[shape]
        reward = -self._place(run, task, node)
        obs = self._advance()
        return obs, reward, self._done

    def episode_stats(self) -> EpisodeStats:
        if not self._done:
            raise RuntimeError("episode still in progress")
        per_wf = {
            wf_id: WorkflowStats(makespan=run.makespan, cost=run.cost, outcome=run.outcome)
            for wf_id, run in self.runs.items()
        }
        durations = [
            # zero-task workflows complete on arrival; never count negative time
            max(0.0, run.makespan - run.spec.arrival_time)
            for run in self.runs.values()
            if run.outcome is Outcome.COMPLETED
        ]
        counts = {o: 0 for o in Outcome}
        for run in self.runs.values():
            counts[run.outcome] += 1
        return EpisodeStats(
            workflows=per_wf,
            total_cost=self._total_cost,
            mean_execution_time=float(np.mean(durations)) if durations else 0.0,
            completed=counts[Outcome.COMPLETED],
            interrupted=counts[Outcome.FAILED_INTERRUPTED],
            timed_out=counts[Outcome.FAILED_TIMEOUT],
        )

    # -- internals ---------------------------------------------------------

    def _push(self, time: float, kind: int, payload: tuple) -> None:
        heapq.heappush(self._heap, (time, kind, self._seq, payload))
        self._seq += 1

    def _place(self, run: _Run, task: TaskSpec, node: NodeState) -> float:
        """Start the task on the node now; returns its cost.

        The spec constructors reject negative and non-finite work, rates,
        prices, data sizes and bandwidth, so nothing here re-checks them.
        """
        spec, now, bandwidth = node.spec, self.now, self.cluster.bandwidth_mbps
        compute = task.work / spec.rate
        max_transfer = 0.0  # the slowest input from another node
        for e in run.spec.preds[task.id]:
            if run.node_of[e.src] != spec.id and e.data_mb / bandwidth > max_transfer:
                max_transfer = e.data_mb / bandwidth
        start = run.ready_time[task.id]
        wait = now - start
        delay = compute + wait + max_transfer
        finish = start + delay
        cost = compute * spec.unit_cost
        run.node_of[task.id] = spec.id
        run.cost += cost  # left to right in placement order, on every Python
        if finish > run.makespan:
            run.makespan = finish
        node.add(RunningTask(run.spec.id, task.id, task.cpu_req, task.mem_req, compute, now))
        self._refresh(spec.id)
        self._total_cost += cost
        self._push(finish, FINISH, (spec.id, run.spec.id, task.id))
        if self.on_event is not None:
            self.on_event({"time": now, "kind": "place", "workflow": run.spec.id, "task": task.id,
                           "node": spec.id, "compute": compute, "max_transfer": max_transfer,
                           "finish": finish, "cost": cost})
        return cost

    def _advance(self) -> Observation | None:
        while True:
            if self._unresolved == 0:
                # Interruption renewals would tick forever; the episode is
                # over as soon as every workflow has an outcome.
                self._offered = None
                self._done = True
                return None
            # Apply every event at the current instant before offering, so
            # simultaneously-ready tasks line up and FIFO order decides.
            while self._heap and self._heap[0][0] <= self.now and self._unresolved > 0:
                self._process(*heapq.heappop(self._heap))
            if self._unresolved == 0:
                continue
            offer = self._next_offer()
            if offer is not None:
                self._offered = offer
                return self._observe(offer)
            if not self._heap:
                raise RuntimeError("event queue drained with unresolved workflows")
            self._process(*heapq.heappop(self._heap))

    def _next_offer(self) -> tuple[str, str] | None:
        """First queued task, in (ready, workflow, task) order, that fits somewhere.

        Tasks of one shape fit the same nodes, so it is the earliest shape
        head whose cached fit row has a True: one list read per queued shape.
        """
        best = None
        for queue, _task, row in self._shapes.values():
            head = queue[0]
            if (best is None or head < best) and any(row):
                best = head
        return None if best is None else best[1:]

    def _observe(self, offer: tuple[str, str]) -> Observation:
        wf_id, task_id = offer
        task = self.runs[wf_id].spec.task_map[task_id]
        nodes = self.nodes.values()

        def compute_wait() -> list[float]:
            # `_next_offer` makes a new tuple per offer, so identity marks this one.
            if self._offered is not offer:
                raise RuntimeError("observation's wait read after the environment moved on")
            return [n.estimated_wait(self.now) for n in nodes]

        # copies of the lists: _refresh keeps rewriting the engine's own after the offer
        return Observation(self.now, wf_id, task, self._node_ids, self._unit_cost,
                           self._cpu_free[:], self._mem_free[:], compute_wait, self._alive[:],
                           self._shapes[task.cpu_req, task.mem_req][2][:])

    def _process(self, time: float, kind: int, _seq: int, payload: tuple) -> None:
        self.now = time
        self._HANDLERS[kind](self, *payload)
        if self.on_event is not None:
            name, fields = EVENT_KINDS[kind]
            self.on_event({"time": time, "kind": name, **dict(zip(fields, payload))})

    def _on_arrival(self, wf_id: str) -> None:
        run = self.runs[wf_id]
        if not run.spec.tasks:
            self._resolve(run, Outcome.COMPLETED)
            return
        for task_id, waiting in run.waiting.items():
            if not waiting:
                self._enqueue(run, task_id)

    def _on_finish(self, node_id: str, wf_id: str, task_id: str) -> None:
        run = self.runs[wf_id]
        if run.outcome is not None:
            return  # the workflow failed, which cancelled the task
        self.nodes[node_id].remove(wf_id, task_id)
        self._refresh(node_id)
        run.completed.add(task_id)
        if len(run.completed) == len(run.spec.tasks):
            self._resolve(run, Outcome.COMPLETED)
            return
        for succ in run.spec.succs[task_id]:
            run.waiting[succ] -= 1
            if not run.waiting[succ]:
                self._enqueue(run, succ)

    def _on_interrupt(self, node_id: str) -> None:
        # Only spot nodes get interruptions, each pushed at or after the revival it
        # follows, which sorts first at a tie: the node is up until kill() here.
        killed = self.nodes[node_id].kill()
        self._refresh(node_id)
        revive_at = self.now + self.cluster.interruption_downtime_s
        self._push(revive_at, REVIVE, (node_id,))
        gap = sample_next_interruption(
            self.cluster.interruption_rate_per_hour, self._int_rng[node_id]
        )
        if math.isfinite(gap):
            self._push(revive_at + gap, INTERRUPT, (node_id,))
        for wf_id, _task_id in killed:
            run = self.runs[wf_id]
            if run.outcome is None:
                self._fail(run, Outcome.FAILED_INTERRUPTED)

    def _on_revive(self, node_id: str) -> None:
        self.nodes[node_id].alive = True  # kill() left it empty
        self._refresh(node_id)

    def _on_timeout(self, wf_id: str) -> None:
        run = self.runs[wf_id]
        if run.outcome is None:
            self._fail(run, Outcome.FAILED_TIMEOUT)

    # one handler per event kind, in EVENT_KINDS order: plain functions on the class,
    # since a tuple of bound methods kept on each env would make it a reference cycle
    _HANDLERS = (_on_finish, _on_revive, _on_interrupt, _on_arrival, _on_timeout)

    def _fail(self, run: _Run, outcome: Outcome) -> None:
        """Mark failed, cancel whatever is still running and unqueue the rest.

        Started tasks stay in the run's cost, as consumed compute is billed.
        """
        on_node = {}  # node -> the run's started, unfinished tasks, in a fixed node order
        for task_id, node_id in run.node_of.items():
            if task_id not in run.completed:
                on_node.setdefault(node_id, []).append(task_id)
        for node_id, task_ids in on_node.items():
            if self.nodes[node_id].remove(run.spec.id, *task_ids):  # False if kill() emptied it
                self._refresh(node_id)
        for task_id, ready in run.ready_time.items():
            if task_id not in run.node_of:  # queued: placing a task unqueues it
                task = run.spec.task_map[task_id]
                shape = (task.cpu_req, task.mem_req)
                queue = self._shapes[shape][0]
                del queue[bisect.bisect_left(queue, (ready, run.spec.id, task_id))]
                if not queue:
                    del self._shapes[shape]
        self._resolve(run, outcome)

    def _resolve(self, run: _Run, outcome: Outcome) -> None:
        run.outcome = outcome
        self._unresolved -= 1

    def _enqueue(self, run: _Run, task_id: str) -> None:
        """Queue a task whose predecessors all completed; insort keeps FIFO order."""
        run.ready_time[task_id] = self.now
        task = run.spec.task_map[task_id]
        shape = (task.cpu_req, task.mem_req)
        if shape not in self._shapes:  # the shape's queue was empty, so its row is built afresh
            self._shapes[shape] = ([], task, [n.can_fit(task) for n in self.nodes.values()])
        bisect.insort(self._shapes[shape][0], (self.now, run.spec.id, task_id))

    def _refresh(self, node_id: str) -> None:
        """Re-read a node's free figures, liveness and fit per shape after it changed."""
        i, node = self._index[node_id], self.nodes[node_id]
        self._cpu_free[i] = node.cpu_free
        self._mem_free[i] = node.mem_free
        self._alive[i] = node.alive
        for _, task, row in self._shapes.values():
            row[i] = node.can_fit(task)


def check_bounded(cluster: ClusterSpec, workload: Sequence[WorkflowSpec]) -> None:
    """Refuse a run that could reach a time or cost past the floats, or that expects more
    than MAX_INTERRUPTION_EVENTS interruptions and revivals.

    Every workflow resolves by its deadline, so no task starts, and no node is
    interrupted, after the latest one; a task ends at most its compute time and slowest
    transfer after its start. Division and multiplication by a positive number keep order
    in floats, so the largest work and data size bound every task's figures.
    """
    # lists: max over one takes about two thirds of its time over a generator
    works = [t.work for wf in workload for t in wf.tasks]
    work = max(works, default=0.0)
    data_mb = max([e.data_mb for wf in workload for e in wf.edges], default=0.0)
    deadline = max(wf.arrival_time + wf.timeout for wf in workload)
    compute = cost = 0.0
    for node in cluster.nodes:
        node_compute = work / node.rate
        if node_compute == math.inf:
            raise ConfigError(f"node {node.id!r}: task work {work!r} at rate {node.rate!r} "
                              f"takes a compute time that is not finite")
        node_cost = node_compute * node.unit_cost
        if node_cost == math.inf:
            raise ConfigError(f"node {node.id!r}: a compute time of {node_compute!r} s at "
                              f"price_per_hour {node.price_per_hour!r} costs more than is finite")
        compute, cost = max(compute, node_compute), max(cost, node_cost)
    transfer = data_mb / cluster.bandwidth_mbps
    if transfer == math.inf:
        raise ConfigError(f"edge data_mb {data_mb!r} at bandwidth_mbps "
                          f"{cluster.bandwidth_mbps!r} takes a transfer time that is not finite")
    # times the workflow count: the sum that mean_execution_time divides
    if (deadline + compute + transfer) * len(workload) == math.inf:
        raise ConfigError(f"the last deadline, {deadline!r} s, plus the longest compute time "
                          f"{compute!r} s and transfer {transfer!r} s, summed over "
                          f"{len(workload)} workflows, is not finite")
    if cost * len(works) == math.inf:
        raise ConfigError(f"{len(works)} tasks at up to {cost!r} each give a total cost that "
                          f"is not finite")
    spot = sum(n.pricing_class == SPOT for n in cluster.nodes)
    events = deadline / 3600.0 * cluster.interruption_rate_per_hour * 2 * spot
    if events > MAX_INTERRUPTION_EVENTS:
        raise ConfigError(
            f"the last deadline, {deadline!r} s, is too far: {spot} spot nodes at "
            f"{cluster.interruption_rate_per_hour!r} interruptions/h expect {events:.3g} "
            f"interruption and revival events by then, more than {MAX_INTERRUPTION_EVENTS:,}")


def run_episode(
    scheduler: Callable[[Observation], str],
    cluster: ClusterSpec,
    workload: Sequence[WorkflowSpec],
    seed: int | Sequence[int] = 0,
    on_event: Callable[[dict], None] | None = None,
) -> EpisodeStats:
    """Drive one full episode with a scheduler callback; returns the stats."""
    env = SimEnv(cluster, workload, seed=seed, on_event=on_event)
    obs = env.reset()
    while obs is not None:
        obs, _reward, _done = env.step(scheduler(obs))
    return env.episode_stats()
