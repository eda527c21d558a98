"""Synthetic Map-Reduce workload batches with uniform-random arrivals.

Each workflow is a fork/join DAG: a tiny source task fans out to P map
tasks and joins into a tiny sink. Map work sizes and interarrival gaps are
drawn uniformly; everything is reproducible from the config seed.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .workflow import EdgeSpec, TaskSpec, WorkflowSpec, check_real, is_int, read_json, seed_list

# Fork/join anchor tasks are deliberately near-free so they never compete
# with map tasks for resources or dominate cost.
ANCHOR_WORK = 0.1
ANCHOR_CPU = 0.1
ANCHOR_MEM = 0.1

# The largest fan-out and batch a config may ask for, far above any workload here; the
# bounds keep generate's arrays and loops finite.
MAX_PARALLELISM = 1_000
MAX_COUNT = 100_000


def _ints(value, name: str) -> tuple[int, ...]:
    """An integer or a sequence of integers as a tuple; a string or a bool is neither."""
    values = (value,) if is_int(value) else value
    if isinstance(values, str) or not isinstance(values, Sequence) or not all(map(is_int, values)):
        raise ConfigError(f"{name} must be an integer or a sequence of integers, got {value!r}")
    return tuple(int(v) for v in values)


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
        object.__setattr__(self, "parallelism", _ints(self.parallelism, "parallelism"))
        if not self.parallelism or any(p < 1 for p in self.parallelism):
            raise ConfigError("parallelism must be positive")
        if max(self.parallelism) > MAX_PARALLELISM:
            raise ConfigError(f"parallelism must be at most {MAX_PARALLELISM}, "
                              f"got {max(self.parallelism)}")
        if not is_int(self.count) or self.count < 1:
            raise ConfigError(f"count must be an integer >= 1, got {self.count!r}")
        _ints(self.seed, "seed")
        try:
            for name in ("work_range", "interarrival_range"):
                pair = getattr(self, name)
                if not (isinstance(pair, Sequence) and len(pair) == 2):
                    raise ValueError(f"{name} must be a pair of numbers, got {pair!r}")
                lo, hi = (check_real(v, name) for v in pair)
                if lo > hi:
                    raise ValueError(f"{name} must satisfy lo <= hi, got ({lo}, {hi})")
                object.__setattr__(self, name, (lo, hi))
            # generate's last arrival is up to count * hi, which must be a finite float; the
            # first test keeps a count too large for a float from raising OverflowError
            hi = self.interarrival_range[1]
            if self.count > sys.float_info.max or self.count * hi > sys.float_info.max:
                raise ValueError(f"interarrival_range: count * hi must be finite, got hi {hi}")
            if self.count > MAX_COUNT:
                raise ValueError(f"count must be at most {MAX_COUNT}, got {self.count}")
            check_real(self.data_mb, "data_mb", positive=False)
            for name in ("cpu_req", "mem_req", "timeout"):
                check_real(getattr(self, name), name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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

# file key -> WorkloadConfig field, in field order; the keys are the field names but two
_CONFIG_KEYS = {{"cpu_req": "cpu", "mem_req": "mem_gb"}.get(f.name, f.name): f.name
                for f in fields(WorkloadConfig)}


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
    try:
        return WorkloadConfig(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"workload config: {exc}") from exc


def load_config(path: str | Path) -> WorkloadConfig:
    return config_from_dict(read_json(path))
