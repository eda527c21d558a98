"""Discrete-event cluster simulator and learned scheduler for DAG workflows."""

from .cluster import ClusterSpec, NodeSpec, default_cluster, load_cluster
from .engine import EpisodeStats, Observation, SimEnv, run_episode
from .errors import (
    ConfigError,
    DagCycleError,
    DagReferenceError,
    InvalidActionError,
    LayoutMismatchError,
    NoFeasibleActionError,
    SpotSchedError,
)
from .workflow import (
    EdgeSpec,
    Outcome,
    TaskSpec,
    TaskTiming,
    WorkflowSpec,
    WorkflowStats,
    load_workflow,
    save_workflow,
)
from .workload import WorkloadConfig, generate

__version__ = "0.1.0"

__all__ = [
    "ClusterSpec",
    "ConfigError",
    "DagCycleError",
    "DagReferenceError",
    "EdgeSpec",
    "EpisodeStats",
    "InvalidActionError",
    "LayoutMismatchError",
    "NoFeasibleActionError",
    "NodeSpec",
    "Observation",
    "Outcome",
    "SimEnv",
    "SpotSchedError",
    "TaskSpec",
    "TaskTiming",
    "WorkflowSpec",
    "WorkflowStats",
    "WorkloadConfig",
    "default_cluster",
    "generate",
    "load_cluster",
    "load_workflow",
    "run_episode",
    "save_workflow",
]
