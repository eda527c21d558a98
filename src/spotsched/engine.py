"""Discrete-event cluster simulator with an episodic scheduling interface.

The environment advances through arrivals, task completions, spot
interruptions, node revivals, and workflow timeouts. Whenever some queued
task could be placed somewhere, the loop pauses and offers exactly one
pending task; step() places it and resumes.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cluster import (
    SPOT,
    ClusterSpec,
    NodeState,
    RunningTask,
    apply_interruption,
    compute_time_on,
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
    task_cost,
    task_timing,
    transmission_time,
    validate_dag,
    workflow_stats,
)

# Event kinds, in tie-break priority order at equal timestamps: completions
# are credited before a node dies at the same instant, and arrivals land
# before the deadline that they themselves define.
FINISH = "finish"
REVIVE = "revive"
INTERRUPT = "interrupt"
ARRIVAL = "arrival"
TIMEOUT = "timeout"
_KIND_PRIORITY = {FINISH: 0, REVIVE: 1, INTERRUPT: 2, ARRIVAL: 3, TIMEOUT: 4}


@dataclass(frozen=True, eq=False)
class Observation:
    """One pending task plus the cluster as the scheduler may see it.

    Per-node arrays follow cluster config order, always all nodes: `fit` is
    NodeState.can_fit for the task, `wait` is estimated_wait. `node_ids` and
    the read-only `unit_cost` are shared by all of an environment's offers.
    """

    time: float
    workflow_id: str
    task: TaskSpec
    node_ids: tuple[str, ...]
    unit_cost: np.ndarray
    cpu_free: np.ndarray
    mem_free: np.ndarray
    wait: np.ndarray
    alive: np.ndarray
    fit: np.ndarray


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


class _Run:
    """Mutable per-workflow bookkeeping."""

    def __init__(self, spec: WorkflowSpec):
        self.spec = spec
        self.tasks = spec.task_map()
        self.preds = spec.predecessors()
        self.completed: set[str] = set()
        self.running: set[str] = set()
        self.pending: set[str] = set()
        self.ready_time: dict[str, float] = {}
        self.node_of: dict[str, str] = {}
        self.timings: dict = {}
        self.outcome: Outcome | None = None

    def newly_ready(self) -> list[str]:
        out = [
            tid
            for tid in self.tasks
            if tid not in self.completed
            and tid not in self.running
            and tid not in self.pending
            and all(e.src in self.completed for e in self.preds[tid])
        ]
        return sorted(out)


class SimEnv:
    """Simulates one workload batch on one cluster.

    reset() returns the first Observation (or None if no workflow ever
    needs a decision); step(node_id) places the offered task and returns
    (observation | None, reward, done). Rewards are negated dollar costs.
    An optional on_event callable receives one record dict per processed
    event, with stable field order.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        workload: Sequence[WorkflowSpec],
        seed: int | Sequence[int] = 0,
        on_event: Callable[[dict], None] | None = None,
        eligible: Sequence[str] | None = None,
    ):
        if not workload:
            raise ConfigError("workload must contain at least one workflow")
        dupes = duplicates(wf.id for wf in workload)
        if dupes:
            raise ConfigError(f"duplicate workflow ids {dupes}")
        for wf in workload:
            validate_dag(wf)
        self.cluster = cluster
        self._node_ids = tuple(n.id for n in cluster.nodes)
        self._unit_cost = np.array([n.unit_cost for n in cluster.nodes])
        self._unit_cost.flags.writeable = False
        self.workload = tuple(workload)
        self.seed = seed_list(seed)
        self.on_event = on_event
        if eligible is not None:
            eligible = frozenset(eligible)
            known = {n.id for n in cluster.nodes}
            if not eligible or not eligible <= known:
                raise ConfigError(f"eligible nodes {sorted(eligible - known)} not in cluster")
        # Restricting eligibility makes the offer loop hold tasks back until
        # one of these nodes can take them (class-restricted schedulers).
        self.eligible = eligible
        self._done = False
        self._started = False

    # -- episode lifecycle -------------------------------------------------

    def reset(self) -> Observation | None:
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._queue: list[tuple[float, str, str]] = []
        self._offered: tuple[str, str] | None = None
        self._total_cost = 0.0
        self._done = False
        self._started = True
        self.nodes = {n.id: NodeState(spec=n) for n in self.cluster.nodes}
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
        if not self._started or self._offered is None:
            raise InvalidActionError("no pending task to place")
        wf_id, task_id = self._offered
        run = self.runs[wf_id]
        task = run.tasks[task_id]
        node = self.nodes.get(node_id)
        if node is None:
            raise InvalidActionError(f"unknown node {node_id!r}")
        if not node.alive:
            raise InvalidActionError(f"node {node_id!r} is down")
        if not node.can_fit(task):
            raise InvalidActionError(f"task {task_id!r} does not fit on node {node_id!r}")

        self._queue.remove((run.ready_time[task_id], wf_id, task_id))
        run.pending.discard(task_id)
        reward = -self._place(run, task, node)
        obs = self._advance()
        return obs, reward, self._done

    def episode_stats(self) -> EpisodeStats:
        if not self._done:
            raise RuntimeError("episode still in progress")
        per_wf = {
            wf_id: workflow_stats(run.timings, run.outcome)
            for wf_id, run in self.runs.items()
        }
        durations = [
            # zero-task workflows complete on arrival; never count negative time
            max(0.0, per_wf[wf_id].makespan - run.spec.arrival_time)
            for wf_id, run in self.runs.items()
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

    def _push(self, time: float, kind: str, payload: tuple) -> None:
        heapq.heappush(self._heap, (time, _KIND_PRIORITY[kind], self._seq, kind, payload))
        self._seq += 1

    def _place(self, run: _Run, task: TaskSpec, node: NodeState) -> float:
        """Start the task on the node now; returns its cost."""
        compute = compute_time_on(node.spec, task)
        transfers = [
            transmission_time(
                e.data_mb,
                self.cluster.bandwidth_mbps,
                same_node=run.node_of[e.src] == node.spec.id,
            )
            for e in run.preds[task.id]
        ]
        timing = task_timing(
            start=run.ready_time[task.id],
            compute=compute,
            wait=self.now - run.ready_time[task.id],
            pred_transfers=transfers,
            cost=task_cost(compute, node.spec.unit_cost),
        )
        run.timings[task.id] = timing
        run.node_of[task.id] = node.spec.id
        run.running.add(task.id)
        node.running[(run.spec.id, task.id)] = RunningTask(
            workflow_id=run.spec.id,
            task_id=task.id,
            cpu_req=task.cpu_req,
            mem_req=task.mem_req,
            compute=compute,
            exec_start=self.now,
        )
        self._total_cost += timing.cost
        self._push(timing.finish, FINISH, (node.spec.id, run.spec.id, task.id))
        return timing.cost

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
        """First queued task, in (ready, workflow, task) order, that fits somewhere."""
        stale = []
        offer = None
        candidates = [
            n for n in self.nodes.values()
            if self.eligible is None or n.spec.id in self.eligible
        ]
        for entry in sorted(self._queue):
            ready, wf_id, task_id = entry
            run = self.runs[wf_id]
            if run.outcome is not None or task_id not in run.pending:
                stale.append(entry)
                continue
            if offer is None:
                task = run.tasks[task_id]
                if any(n.can_fit(task) for n in candidates):
                    offer = (wf_id, task_id)
        for entry in stale:
            self._queue.remove(entry)
        return offer

    def _observe(self, offer: tuple[str, str]) -> Observation:
        wf_id, task_id = offer
        task = self.runs[wf_id].tasks[task_id]
        nodes = self.nodes.values()
        return Observation(
            time=self.now,
            workflow_id=wf_id,
            task=task,
            node_ids=self._node_ids,
            unit_cost=self._unit_cost,
            cpu_free=np.array([n.cpu_free for n in nodes]),
            mem_free=np.array([n.mem_free for n in nodes]),
            wait=np.array([n.estimated_wait(self.now) for n in nodes]),
            alive=np.array([n.alive for n in nodes]),
            fit=np.array([n.can_fit(task) for n in nodes]),
        )

    def _process(self, time: float, _prio: int, _seq: int, kind: str, payload: tuple) -> None:
        self.now = time
        if kind == ARRIVAL:
            self._on_arrival(*payload)
        elif kind == FINISH:
            self._on_finish(*payload)
        elif kind == INTERRUPT:
            self._on_interrupt(*payload)
        elif kind == REVIVE:
            self._on_revive(*payload)
        elif kind == TIMEOUT:
            self._on_timeout(*payload)
        if self.on_event is not None:
            record = {"time": time, "kind": kind}
            if kind in (ARRIVAL, TIMEOUT):
                record["workflow"] = payload[0]
            elif kind == FINISH:
                record["node"], record["workflow"], record["task"] = payload
            else:
                record["node"] = payload[0]
            self.on_event(record)

    def _on_arrival(self, wf_id: str) -> None:
        run = self.runs[wf_id]
        if not run.tasks:
            self._resolve(run, Outcome.COMPLETED)
            return
        self._enqueue_ready(run)

    def _on_finish(self, node_id: str, wf_id: str, task_id: str) -> None:
        run = self.runs[wf_id]
        if run.outcome is not None or task_id not in run.running:
            return  # stale event for a cancelled task
        node = self.nodes[node_id]
        del node.running[(wf_id, task_id)]
        run.running.discard(task_id)
        run.completed.add(task_id)
        if len(run.completed) == len(run.tasks):
            self._resolve(run, Outcome.COMPLETED)
        else:
            self._enqueue_ready(run)

    def _on_interrupt(self, node_id: str) -> None:
        node = self.nodes[node_id]
        killed = apply_interruption(node, self.now, self.cluster.interruption_downtime_s)
        revive_at = node.down_until
        self._push(revive_at, REVIVE, (node_id,))
        gap = sample_next_interruption(
            self.cluster.interruption_rate_per_hour, self._int_rng[node_id]
        )
        if math.isfinite(gap):
            self._push(revive_at + gap, INTERRUPT, (node_id,))
        for wf_id, task_id in killed:
            run = self.runs[wf_id]
            run.running.discard(task_id)
            if run.outcome is None:
                self._fail(run, Outcome.FAILED_INTERRUPTED)

    def _on_revive(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.alive = True
        node.down_until = 0.0

    def _on_timeout(self, wf_id: str) -> None:
        run = self.runs[wf_id]
        if run.outcome is None:
            self._fail(run, Outcome.FAILED_TIMEOUT)

    def _fail(self, run: _Run, outcome: Outcome) -> None:
        """Mark failed and cancel whatever is still pending or running.

        Started tasks keep their timing records: consumed compute is billed
        whether or not the workflow survives.
        """
        for task_id in sorted(run.running):
            node_id = run.node_of[task_id]
            self.nodes[node_id].running.pop((run.spec.id, task_id), None)
        run.running.clear()
        run.pending.clear()
        self._resolve(run, outcome)

    def _resolve(self, run: _Run, outcome: Outcome) -> None:
        run.outcome = outcome
        self._unresolved -= 1

    def _enqueue_ready(self, run: _Run) -> None:
        for task_id in run.newly_ready():
            run.pending.add(task_id)
            run.ready_time[task_id] = self.now
            self._queue.append((self.now, run.spec.id, task_id))


def run_episode(
    scheduler: Callable[[Observation], str],
    cluster: ClusterSpec,
    workload: Sequence[WorkflowSpec],
    seed: int | Sequence[int] = 0,
    on_event: Callable[[dict], None] | None = None,
    eligible: Sequence[str] | None = None,
) -> EpisodeStats:
    """Drive one full episode with a scheduler callback; returns the stats."""
    env = SimEnv(cluster, workload, seed=seed, on_event=on_event, eligible=eligible)
    obs = env.reset()
    while obs is not None:
        obs, _reward, _done = env.step(scheduler(obs))
    return env.episode_stats()
