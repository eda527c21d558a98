"""Comparison schedulers: random, filter-and-score, and on-demand-only.

All three consume the same observations as the learned agent and return a
node id. The score policy mimics a default container scheduler: filter
infeasible nodes, then rank the rest by average free-resource fraction.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .cluster import ON_DEMAND, ClusterSpec
from .engine import Observation
from .errors import ConfigError, NoFeasibleActionError
from .workflow import seed_list

BASELINE_NAMES = ("random", "k8-default", "on-demand")

CPU_WEIGHT = 0.5
MEM_WEIGHT = 0.5


def random_policy(obs: Observation, rng: np.random.Generator) -> str:
    """Uniform choice among alive nodes that fit the pending task."""
    nodes = np.flatnonzero(obs.fit)
    if not nodes.size:
        raise NoFeasibleActionError("no feasible node for pending task")
    return obs.node_ids[nodes[rng.integers(nodes.size)]]


def score_policy(obs: Observation, cluster: ClusterSpec, restrict: str | None = None) -> str:
    """Filter then score by free-fraction average; first node wins ties.

    Node i of the observation's arrays is cluster.nodes[i].
    """
    nodes = [i for i in np.flatnonzero(obs.fit).tolist()
             if restrict is None or cluster.nodes[i].pricing_class == restrict]
    if not nodes:
        raise NoFeasibleActionError("no feasible node for pending task")
    # Python floats: indexing numpy arrays one element at a time costs more.
    cpu_free, mem_free = obs.cpu_free.tolist(), obs.mem_free.tolist()

    def score(i):
        spec = cluster.nodes[i]
        return CPU_WEIGHT * cpu_free[i] / spec.cpu + MEM_WEIGHT * mem_free[i] / spec.mem_gb

    return obs.node_ids[max(nodes, key=score)]


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
