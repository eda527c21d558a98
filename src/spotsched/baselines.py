"""Comparison schedulers: random, filter-and-score, and on-demand-only.

All three consume the same observations as the learned agent and return a
node id. The score policy mimics a default container scheduler: filter
infeasible nodes, then rank the rest by average free-resource fraction.
The on-demand-only baseline is that policy run on the cluster's on-demand
nodes alone (`baseline_cluster`).
"""
from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .cluster import ON_DEMAND, ClusterSpec
from .engine import Observation
from .errors import ConfigError, NoFeasibleActionError
from .workflow import seed_list

BASELINE_NAMES = ("random", "k8-default", "on-demand")

CPU_WEIGHT = 0.5
MEM_WEIGHT = 0.5


class RandomPolicy:
    """Uniform choice among alive nodes that fit the pending task."""

    def __init__(self, seed: int | Sequence[int] = 0):
        self.rng = np.random.default_rng(seed_list(seed))

    def __call__(self, obs: Observation) -> str:
        nodes = [i for i, ok in enumerate(obs.fit) if ok]
        if not nodes:
            raise NoFeasibleActionError("no feasible node for pending task")
        return obs.node_ids[nodes[self.rng.integers(len(nodes))]]


class K8DefaultPolicy:
    """Filter then score by free-fraction average; first node wins ties.

    Node i of the observation's lists is cluster.nodes[i].
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def __call__(self, obs: Observation) -> str:
        cluster = self.cluster
        if len(obs.node_ids) != len(cluster.nodes):
            raise ValueError(f"observation of {len(obs.node_ids)} nodes, "
                             f"cluster of {len(cluster.nodes)}")
        nodes = [i for i, ok in enumerate(obs.fit) if ok]
        if not nodes:
            raise NoFeasibleActionError("no feasible node for pending task")
        cpu_free, mem_free = obs.cpu_free, obs.mem_free

        def score(i):
            spec = cluster.nodes[i]
            return CPU_WEIGHT * cpu_free[i] / spec.cpu + MEM_WEIGHT * mem_free[i] / spec.mem_gb

        return obs.node_ids[max(nodes, key=score)]


class OnDemandPolicy(K8DefaultPolicy):
    """Filter-and-score on the on-demand nodes of the cluster it is given.

    Run it on baseline_cluster(cluster, "on-demand"), whose observations
    name those nodes alone.
    """

    def __init__(self, cluster: ClusterSpec):
        super().__init__(baseline_cluster(cluster, "on-demand"))

    __call__ = K8DefaultPolicy.__call__  # own entry: perfbench wraps each class's __call__ by name


def baseline_cluster(cluster: ClusterSpec, name: str) -> ClusterSpec:
    """The cluster a named scheduler runs on: on-demand-only keeps only those nodes."""
    if name != "on-demand":
        return cluster
    nodes = tuple(n for n in cluster.nodes if n.pricing_class == ON_DEMAND)
    if not nodes:
        raise ConfigError("cluster has no on-demand nodes")
    return replace(cluster, nodes=nodes)


def make_baseline(name: str, cluster: ClusterSpec, seed: int | Sequence[int] = 0):
    if name == "random":
        return RandomPolicy(seed)
    if name == "k8-default":
        return K8DefaultPolicy(cluster)
    if name == "on-demand":
        return OnDemandPolicy(cluster)
    raise ConfigError(f"unknown scheduler {name!r}; expected one of {BASELINE_NAMES}")
