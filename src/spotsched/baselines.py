"""Comparison schedulers: random, filter-and-score, and on-demand-only.

All three consume the same observations as the learned agent and return a
node id. The score policy mimics a default container scheduler: filter
infeasible nodes, then rank the rest by average free-resource fraction.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .cluster import ON_DEMAND, ClusterSpec, fits
from .engine import Observation
from .errors import ConfigError, NoFeasibleActionError
from .workflow import seed_list

BASELINE_NAMES = ("random", "k8-default", "on-demand")

CPU_WEIGHT = 0.5
MEM_WEIGHT = 0.5


def _feasible(obs: Observation, restrict: str | None):
    return [
        n for n in obs.nodes
        if fits(n, obs.task) and (restrict is None or n.pricing_class == restrict)
    ]


def random_policy(obs: Observation, rng: np.random.Generator) -> str:
    """Uniform choice among alive nodes that fit the pending task."""
    nodes = _feasible(obs, None)
    if not nodes:
        raise NoFeasibleActionError("no feasible node for pending task")
    return nodes[int(rng.integers(len(nodes)))].id


def score_policy(obs: Observation, cluster: ClusterSpec, restrict: str | None = None) -> str:
    """Filter then score by free-fraction average; first node wins ties."""
    nodes = _feasible(obs, restrict)
    if not nodes:
        raise NoFeasibleActionError("no feasible node for pending task")
    best, best_score = None, -1.0
    for view in nodes:
        spec = cluster.node(view.id)
        score = CPU_WEIGHT * view.cpu_free / spec.cpu + MEM_WEIGHT * view.mem_free / spec.mem_gb
        if score > best_score:
            best, best_score = view.id, score
    return best


class RandomPolicy:
    def __init__(self, cluster: ClusterSpec, seed: int | Sequence[int] = 0):
        self.rng = np.random.default_rng(seed_list(seed))

    def __call__(self, obs: Observation) -> str:
        return random_policy(obs, self.rng)


class K8DefaultPolicy:
    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def __call__(self, obs: Observation) -> str:
        return score_policy(obs, self.cluster)


class OnDemandPolicy:
    """Filter-and-score restricted to the on-demand pricing class.

    Run it in an environment restricted to the same nodes so that tasks
    are held back until an on-demand node frees up.
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def __call__(self, obs: Observation) -> str:
        return score_policy(obs, self.cluster, restrict=ON_DEMAND)


def eligible_nodes(cluster: ClusterSpec, name: str) -> frozenset[str] | None:
    """Node subset a named baseline is allowed to use, None for all."""
    if name == "on-demand":
        return frozenset(n.id for n in cluster.nodes if n.pricing_class == ON_DEMAND)
    return None


def make_baseline(name: str, cluster: ClusterSpec, seed: int | Sequence[int] = 0):
    if name == "random":
        return RandomPolicy(cluster, seed)
    if name == "k8-default":
        return K8DefaultPolicy(cluster)
    if name == "on-demand":
        if not any(n.pricing_class == ON_DEMAND for n in cluster.nodes):
            raise ConfigError("cluster has no on-demand nodes")
        return OnDemandPolicy(cluster)
    raise ConfigError(f"unknown scheduler {name!r}; expected one of {BASELINE_NAMES}")
