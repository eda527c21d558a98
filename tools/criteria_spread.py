"""Acceptance criteria 4, 5 and 7 over training seeds, as a report.

The Tier-1 suite trains one agent, at seed 0, so each of its learning and
ordering criteria is a single draw. This script trains one agent per seed
with the default configuration, compares it on evaluation seeds 1-5 as the
Tier-1 fixtures do, and prints one line per training seed:

- criterion 4: last-50 over first-50 mean training cost (gate <= 0.9);
- criterion 5: agent over k8-default mean evaluation cost (gate <= 0.95);
- criterion 7: agent and random mean execution time (agent <= random),
  and the agent's timed-out workflows (gate 0).

It gates nothing and changes no test. Run from the repository root:

    PYTHONPATH=src python3 tools/criteria_spread.py

One seed took 5-9 s on a 2-core x86-64 host (Python 3.11, numpy 2.4), so
the eight take about a minute.
"""
from __future__ import annotations

import time

import numpy as np

from spotsched.cluster import default_cluster
from spotsched.harness import compare, train_run
from spotsched.ppo import TrainConfig
from spotsched.workload import WorkloadConfig

TRAINING_SEEDS = range(8)
EVAL_SEEDS = [1, 2, 3, 4, 5]  # the Tier-1 comparison fixture's
SCHEDULERS = ["agent", "random", "k8-default"]


def criteria(seed: int) -> dict:
    cluster = default_cluster()
    agent, curve = train_run(cluster, WorkloadConfig(), TrainConfig(seed=seed))
    costs = [r.total_cost for r in curve]
    rows, summaries = compare(SCHEDULERS, cluster, WorkloadConfig(), EVAL_SEEDS, agent=agent)
    by_name = {s.scheduler: s for s in summaries}
    return {
        "c4_ratio": float(np.mean(costs[-50:])) / float(np.mean(costs[:50])),
        "cost_ratio": by_name["agent"].mean_cost / by_name["k8-default"].mean_cost,
        "agent_exec_s": by_name["agent"].mean_execution_time,
        "random_exec_s": by_name["random"].mean_execution_time,
        "agent_timeouts": sum(r.timed_out for r in rows if r.scheduler == "agent"),
    }


def main() -> None:
    print("seed  c4 ratio (<=0.9)  agent/k8 cost (<=0.95)  agent exec s  random exec s"
          "  agent timeouts")
    for seed in TRAINING_SEEDS:
        start = time.perf_counter()
        c = criteria(seed)
        print(f"{seed:>4}  {c['c4_ratio']:>7.3f} {'ok' if c['c4_ratio'] <= 0.9 else 'MISS':<9}"
              f"  {c['cost_ratio']:>7.3f} {'ok' if c['cost_ratio'] <= 0.95 else 'MISS':<14}"
              f"  {c['agent_exec_s']:>12.2f}  {c['random_exec_s']:>13.2f}"
              f"  {c['agent_timeouts']:>14}  ({time.perf_counter() - start:.1f} s)", flush=True)


if __name__ == "__main__":
    main()
