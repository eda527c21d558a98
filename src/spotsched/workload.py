"""Synthetic Map-Reduce workload batches with uniform-random arrivals.

Each workflow is a fork/join DAG: a tiny source task fans out to P map
tasks and joins into a tiny sink. Map work sizes and interarrival gaps are
drawn uniformly; everything is reproducible from the config seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .workflow import EdgeSpec, TaskSpec, WorkflowSpec, read_json, seed_list

# Fork/join anchor tasks are deliberately near-free so they never compete
# with map tasks for resources or dominate cost.
ANCHOR_WORK = 0.1
ANCHOR_CPU = 0.1
ANCHOR_MEM = 0.1


@dataclass(frozen=True)
class WorkloadConfig:
    count: int = 20
    parallelism: tuple[int, ...] = (4, 8)
    work_range: tuple[float, float] = (50.0, 200.0)
    interarrival_range: tuple[float, float] = (5.0, 30.0)
    data_mb: float = 50.0
    cpu_req: float = 1.0
    mem_req: float = 2.0
    timeout: float = 3600.0
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if isinstance(self.parallelism, (int, np.integer)):
            object.__setattr__(self, "parallelism", (int(self.parallelism),))
        else:
            object.__setattr__(self, "parallelism", tuple(int(p) for p in self.parallelism))
        object.__setattr__(self, "work_range", tuple(float(x) for x in self.work_range))
        object.__setattr__(self, "interarrival_range", tuple(float(x) for x in self.interarrival_range))
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if not self.parallelism or any(p < 1 for p in self.parallelism):
            raise ConfigError("parallelism must be positive")
        for name, (lo, hi) in (("work_range", self.work_range),
                               ("interarrival_range", self.interarrival_range)):
            if not 0 < lo <= hi < math.inf:
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
        if not 0 <= self.data_mb < math.inf:
            raise ConfigError("data_mb must be finite and >= 0")
        if not (0 < self.cpu_req < math.inf and 0 < self.mem_req < math.inf):
            raise ConfigError("cpu_req and mem_req must be finite and > 0")
        if not 0 < self.timeout < math.inf:
            raise ConfigError("timeout must be finite and > 0")


def generate(config: WorkloadConfig) -> list[WorkflowSpec]:
    """Build `count` fork/join workflows; deterministic for a fixed seed.

    Per workflow, in draw order: arrival gap, fan-out P, then P map sizes.
    """
    rng = np.random.default_rng(seed_list(config.seed))
    lo_w, hi_w = config.work_range
    lo_a, hi_a = config.interarrival_range
    workflows = []
    arrival = 0.0
    for i in range(config.count):
        arrival += float(rng.uniform(lo_a, hi_a))
        fanout = int(config.parallelism[rng.integers(len(config.parallelism))])
        works = rng.uniform(lo_w, hi_w, size=fanout)
        tasks = [TaskSpec(id="source", cpu_req=ANCHOR_CPU, mem_req=ANCHOR_MEM, work=ANCHOR_WORK)]
        edges = []
        for m in range(fanout):
            mid = f"map-{m:02d}"
            tasks.append(TaskSpec(id=mid, cpu_req=config.cpu_req,
                                  mem_req=config.mem_req, work=float(works[m])))
            edges.append(EdgeSpec(src="source", dst=mid, data_mb=config.data_mb))
            edges.append(EdgeSpec(src=mid, dst="sink", data_mb=config.data_mb))
        tasks.append(TaskSpec(id="sink", cpu_req=ANCHOR_CPU, mem_req=ANCHOR_MEM, work=ANCHOR_WORK))
        workflows.append(WorkflowSpec(
            id=f"wf-{i:03d}",
            tasks=tuple(tasks),
            edges=tuple(edges),
            arrival_time=arrival,
            timeout=config.timeout,
        ))
    return workflows


# --- workload config file -------------------------------------------------
#
# All fields optional (defaults above), unknown fields rejected:
# {count, parallelism, work_range, interarrival_range, data_mb, cpu,
#  mem_gb, timeout, seed}

_CONFIG_KEYS = {
    "count": "count",
    "parallelism": "parallelism",
    "work_range": "work_range",
    "interarrival_range": "interarrival_range",
    "data_mb": "data_mb",
    "cpu": "cpu_req",
    "mem_gb": "mem_req",
    "timeout": "timeout",
    "seed": "seed",
}


def config_from_dict(doc: Mapping) -> WorkloadConfig:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"workload config: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"workload config: unknown fields {sorted(unknown)}")
    kwargs = {}
    for key, attr in _CONFIG_KEYS.items():
        if key in doc:
            value = doc[key]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[attr] = value
    return WorkloadConfig(**kwargs)


def load_config(path: str | Path) -> WorkloadConfig:
    return config_from_dict(read_json(path))
