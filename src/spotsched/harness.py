"""Experiment drivers: seeded evaluation, scheduler comparison, training runs.

Comparisons are fair by construction: for a given evaluation seed every
scheduler sees the identical workflow batch and the identical per-node
interruption timeline, because both derive from the seed and never from
scheduling decisions.
"""
from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields, make_dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .agent import EpisodeRecord, MultiActorAgent, train
from .baselines import BASELINE_NAMES, baseline_cluster, make_baseline
from .cluster import ClusterSpec
from .engine import ROW_FIELDS, run_episode
from .errors import ConfigError
from .workflow import WorkflowSpec, duplicates, load_workflow, seed_list
from .workload import WorkloadConfig, generate, load_config

AGENT_NAME = "agent"
SCHEDULER_NAMES = (AGENT_NAME,) + BASELINE_NAMES

WorkloadSource = WorkloadConfig | Sequence[WorkflowSpec]


# one evaluation episode: its scheduler and seed, then what it reports (make_dataclass
# sets __module__ itself only from Python 3.12 on)
MetricsRow = make_dataclass("MetricsRow", [("scheduler", str), ("seed", int), *ROW_FIELDS],
                            frozen=True, namespace={"__module__": __name__})


@dataclass(frozen=True)
class SchedulerSummary:
    scheduler: str
    mean_cost: float
    std_cost: float
    mean_execution_time: float
    std_execution_time: float
    mean_completed: float
    mean_interrupted: float
    mean_timed_out: float


def workload_for_seed(source: WorkloadSource, seed: int) -> list[WorkflowSpec]:
    """The workflow batch one evaluation seed maps to.

    Generated workloads draw from a stream keyed by the seed; a fixed
    workflow list replays unchanged for every seed.
    """
    if isinstance(source, WorkloadConfig):
        return generate(replace(source, seed=tuple(seed_list(source.seed) + [seed, 1])))
    return list(source)


def load_workload_source(path: str | Path) -> WorkloadSource:
    """A workload config file, or a directory of workflow files to replay."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise ConfigError(f"{p}: no workflow files (*.json) found")
        workflows = [load_workflow(f) for f in files]
        dupes = duplicates(wf.id for wf in workflows)
        if dupes:
            raise ConfigError(f"{p}: duplicate workflow ids {dupes}")
        workflows.sort(key=lambda wf: (wf.arrival_time, wf.id))
        return workflows
    return load_config(p)


def _policy_for(name: str, cluster: ClusterSpec, seed: int,
                agent: MultiActorAgent | None):
    if name == AGENT_NAME:
        if agent is None:
            raise ConfigError("scheduler 'agent' requires a checkpoint")
        return agent.scheduler()
    return make_baseline(name, cluster, seed=[seed, 3])


def evaluate_rows(name: str, cluster: ClusterSpec, source: WorkloadSource,
                  seeds: Sequence[int], agent: MultiActorAgent | None = None,
                  ) -> list[MetricsRow]:
    """One metrics row per evaluation seed for a named scheduler."""
    run_cluster = baseline_cluster(cluster, name)
    rows = []
    for seed in seeds:
        policy = _policy_for(name, cluster, seed, agent)
        stats = run_episode(policy, run_cluster, workload_for_seed(source, seed), seed=[seed, 2])
        rows.append(MetricsRow(scheduler=name, seed=seed, **stats.row()))
    return rows


def summarize(rows: Sequence[MetricsRow]) -> SchedulerSummary:
    if not rows:
        raise ValueError("no rows to summarize")
    costs = np.array([r.total_cost for r in rows])
    times = np.array([r.mean_execution_time for r in rows])
    return SchedulerSummary(
        scheduler=rows[0].scheduler,
        mean_cost=float(costs.mean()),
        std_cost=float(costs.std()),
        mean_execution_time=float(times.mean()),
        std_execution_time=float(times.std()),
        mean_completed=float(np.mean([r.completed for r in rows])),
        mean_interrupted=float(np.mean([r.interrupted for r in rows])),
        mean_timed_out=float(np.mean([r.timed_out for r in rows])),
    )


def compare(schedulers: Sequence[str], cluster: ClusterSpec, source: WorkloadSource,
            seeds: Sequence[int], agent: MultiActorAgent | None = None,
            ) -> tuple[list[MetricsRow], list[SchedulerSummary]]:
    """All schedulers over the same seeds; summaries sorted by mean cost."""
    if not seeds:
        raise ConfigError("seed list must be nonempty")
    for name in schedulers:
        if name not in SCHEDULER_NAMES:
            raise ConfigError(f"unknown scheduler {name!r}; expected one of {SCHEDULER_NAMES}")
    dupes = duplicates(schedulers)
    if dupes:
        raise ConfigError(f"duplicate schedulers {dupes}")
    dupes = duplicates(seeds)
    if dupes:
        raise ConfigError(f"duplicate seeds {dupes}")
    rows: list[MetricsRow] = []
    summaries: list[SchedulerSummary] = []
    for name in schedulers:
        scheduler_rows = evaluate_rows(name, cluster, source, seeds, agent)
        rows.extend(scheduler_rows)
        summaries.append(summarize(scheduler_rows))
    summaries.sort(key=lambda s: s.mean_cost)
    return rows, summaries


# --- output files ---------------------------------------------------------

def write_csv(row_type: type, rows: Sequence, path: str | Path) -> None:
    """One line per dataclass row under a header of its field names.

    csv writes floats with repr, so they read back exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(row_type)])
        writer.writerows(astuple(r) for r in rows)


def format_summary_table(summaries: Sequence[SchedulerSummary]) -> str:
    """Plain-text table, one scheduler per line, cheapest first."""
    header = (
        f"{'scheduler':<12} {'mean_cost':>12} {'std_cost':>10} "
        f"{'mean_time':>10} {'completed':>10} {'interrupted':>12} {'timed_out':>10}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.scheduler:<12} {s.mean_cost:>12.6f} {s.std_cost:>10.6f} "
            f"{s.mean_execution_time:>10.2f} {s.mean_completed:>10.2f} "
            f"{s.mean_interrupted:>12.2f} {s.mean_timed_out:>10.2f}"
        )
    return "\n".join(lines) + "\n"


# --- training driver ------------------------------------------------------


def make_training_workloads(config: WorkloadConfig, seed) -> Callable[[int], list[WorkflowSpec]]:
    """Per-episode workload factory keyed by the training seed."""
    base = seed_list(seed)

    def factory(episode: int) -> list[WorkflowSpec]:
        return generate(replace(config, seed=tuple(base + [1, episode])))

    return factory


def train_run(cluster: ClusterSpec, workload_source, train_config,
              ) -> tuple[MultiActorAgent, list[EpisodeRecord]]:
    """Train a fresh agent; returns it with its learning curve."""
    agent = MultiActorAgent(cluster, seed=train_config.seed)
    if isinstance(workload_source, WorkloadConfig):
        factory = make_training_workloads(workload_source, train_config.seed)
    else:
        fixed = list(workload_source)
        if not fixed:
            raise ConfigError("training workload is empty")
        factory = lambda episode: fixed
    curve = train(agent, factory, train_config)
    return agent, curve
