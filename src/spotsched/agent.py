"""Two-level scheduling agent: pick a pricing group, then a node in it.

A group actor chooses between on-demand and spot; per-group node actors
choose the machine; a single critic supplies the value baseline for both
levels. Feasibility masks guarantee every sampled action maps to a live
node with room for the pending task.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cluster import ON_DEMAND, SPOT, ClusterSpec
from .engine import Observation, SimEnv
from .errors import ConfigError, LayoutMismatchError
from .nets import Adam, Mlp, forward
from .ppo import RolloutBuffer, TrainConfig, actor_step, critic_step
from .workflow import WorkflowSpec, check_fields, read_json, seed_list

GROUP_ORDER = (ON_DEMAND, SPOT)
HIDDEN_SIZES = (64, 64)

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ActionSpaceLayout:
    """Maps joint actions (group, node-in-group) to node ids.

    `group_positions` holds the same nodes' positions in cluster order, the
    order of an observation's arrays.
    """

    group_nodes: tuple[tuple[str, ...], ...]
    group_positions: tuple[np.ndarray, ...] = field(compare=False)

    @classmethod
    def from_cluster(cls, cluster: ClusterSpec) -> "ActionSpaceLayout":
        groups = cluster.pricing_groups()
        position = {n.id: i for i, n in enumerate(cluster.nodes)}
        group_nodes = tuple(tuple(n.id for n in groups[g]) for g in GROUP_ORDER)
        return cls(group_nodes=group_nodes, group_positions=tuple(
            np.array([position[i] for i in ids], dtype=np.intp) for ids in group_nodes
        ))

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.group_nodes)

    def node_id(self, group: int, node: int) -> str:
        return self.group_nodes[group][node]


@dataclass(frozen=True)
class ScalingConstants:
    """Divisors that squash raw state features to roughly [0, 1]."""

    cpu_norm: float
    mem_norm: float
    work_norm: float = 200.0
    wait_norm: float = 1000.0
    cost_norm: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (numeric and 0 < value < math.inf):
                raise ValueError(f"{f.name} must be a finite number > 0, got {value!r}")

    @classmethod
    def from_cluster(cls, cluster: ClusterSpec) -> "ScalingConstants":
        od_costs = [n.unit_cost for n in cluster.nodes if n.pricing_class == ON_DEMAND]
        costs = od_costs or [n.unit_cost for n in cluster.nodes]
        return cls(
            cpu_norm=max(n.cpu for n in cluster.nodes),
            mem_norm=max(n.mem_gb for n in cluster.nodes),
            cost_norm=max(max(costs), 1e-12),
        )


def encode(obs: Observation, scaling: ScalingConstants) -> np.ndarray:
    """Feature vector: 3 task entries then 5 per node, in cluster order.

    Dead nodes read as saturated: wait 1, alive 0.
    """
    task = obs.task
    nodes = np.array([obs.cpu_free, obs.mem_free, obs.wait, obs.unit_cost, obs.alive]) / np.array(
        [[scaling.cpu_norm], [scaling.mem_norm], [scaling.wait_norm], [scaling.cost_norm], [1.0]])
    nodes[2] = np.where(obs.alive, np.minimum(nodes[2], 1.0), 1.0)
    return np.concatenate([
        [task.cpu_req / scaling.cpu_norm,
         task.mem_req / scaling.mem_norm,
         task.work / scaling.work_norm],
        nodes.T.ravel(),
    ])


def state_dim(node_count: int) -> int:
    return 3 + 5 * node_count


def feasibility_masks(fit: np.ndarray, layout: ActionSpaceLayout):
    """(group mask, per-group node masks) from an observation's `fit` row.

    True means alive and fits. A batch of fit rows gives a batch of masks,
    one row per fit row. An empty group still has one node output, always
    masked out.
    """
    node_masks = [fit[..., pos] if pos.size else np.zeros(fit.shape[:-1] + (1,), dtype=bool)
                  for pos in layout.group_positions]
    group_mask = np.array([m.any(axis=-1) for m in node_masks]).T
    return group_mask, node_masks


@dataclass
class PolicySet:
    """Group actor, one node actor per group, and the shared critic."""

    group_actor: Mlp
    node_actors: tuple[Mlp, ...]
    critic: Mlp

    @classmethod
    def build(cls, n_features: int, layout: ActionSpaceLayout,
              rng: np.random.Generator) -> "PolicySet":
        hidden = list(HIDDEN_SIZES)
        group = Mlp([n_features, *hidden, len(layout.group_nodes)], rng, policy_head=True)
        nodes = tuple(
            Mlp([n_features, *hidden, max(1, size)], rng, policy_head=True)
            for size in layout.group_sizes
        )
        critic = Mlp([n_features, *hidden, 1], rng)
        return cls(group_actor=group, node_actors=nodes, critic=critic)


@dataclass(frozen=True)
class SelectedAction:
    group: int
    node: int
    logp_group: float
    logp_node: float
    value: float | None


def _pick(p: np.ndarray, rng: np.random.Generator | None) -> int:
    """The argmax when rng is None, else the draw Generator.choice(p.size, p=p) makes."""
    if rng is None:
        return int(np.argmax(p))
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def select_action(policies: PolicySet, features: np.ndarray, group_mask, node_masks,
                  rng: np.random.Generator | None) -> SelectedAction:
    """Sample the group, then a node within it; the argmax when rng is None.

    Only sampling (training) reads the critic's value; greedy acting leaves it None.
    """
    p_group = forward(policies.group_actor, features, group_mask)
    g = _pick(p_group, rng)
    p_node = forward(policies.node_actors[g], features, node_masks[g])
    n = _pick(p_node, rng)
    return SelectedAction(
        group=g,
        node=n,
        logp_group=float(np.log(p_group[g])),
        logp_node=float(np.log(p_node[n])),
        value=None if rng is None else forward(policies.critic, features),
    )


class MultiActorAgent:
    """Bundles the layout, scaling, networks and optimizers for one cluster."""

    def __init__(self, cluster: ClusterSpec, seed: int | Sequence[int] = 0, *,
                 scaling: ScalingConstants | None = None,
                 policies: PolicySet | None = None):
        self.cluster = cluster
        self.layout = ActionSpaceLayout.from_cluster(cluster)
        self.scaling = scaling or ScalingConstants.from_cluster(cluster)
        init_rng = np.random.default_rng(seed_list(seed) + [0])
        self.policies = policies or PolicySet.build(
            state_dim(len(cluster.nodes)), self.layout, init_rng
        )
        self._optimizers: dict | None = None

    # -- acting ------------------------------------------------------------

    def act(self, obs: Observation,
            rng: np.random.Generator | None = None) -> tuple[str, SelectedAction, np.ndarray]:
        """(node id, choice, features): sampled from rng, greedy without one."""
        features = encode(obs, self.scaling)
        group_mask, node_masks = feasibility_masks(obs.fit, self.layout)
        choice = select_action(self.policies, features, group_mask, node_masks, rng)
        return self.layout.node_id(choice.group, choice.node), choice, features

    def scheduler(self) -> Callable[[Observation], str]:
        """Greedy policy callback for evaluation episodes."""
        return lambda obs: self.act(obs)[0]

    # -- learning ----------------------------------------------------------

    def _ensure_optimizers(self, config: TrainConfig) -> dict:
        if self._optimizers is None:
            self._optimizers = {
                "group": Adam(self.policies.group_actor.vector, config.group_lr),
                "nodes": [Adam(net.vector, config.node_lr) for net in self.policies.node_actors],
                "critic": Adam(self.policies.critic.vector, config.critic_lr),
            }
        return self._optimizers

    def update(self, buffer: RolloutBuffer, config: TrainConfig,
               rng: np.random.Generator) -> dict:
        """One PPO round: K epochs of one size-S minibatch each.

        The critic and group actor train on the whole minibatch; each node
        actor sees only the samples whose chosen group was its own.
        """
        if len(buffer) == 0:
            raise ValueError("cannot update from an empty buffer")
        if buffer.returns is None or buffer.advantages is None:
            raise ValueError("buffer returns/advantages not computed")
        opts = self._ensure_optimizers(config)
        n = len(buffer)
        report = {"critic_loss": [], "group_loss": [], "node_loss": [], "clip_fraction": []}
        for _ in range(config.epochs):
            idx = rng.choice(n, size=min(config.minibatch_size, n), replace=False)
            states = buffer.features[idx]
            groups = buffer.groups[idx]
            nodes = buffer.nodes[idx]
            logp_nodes = buffer.logp_nodes[idx]
            advs = buffer.advantages[idx]
            group_mask, node_masks = feasibility_masks(buffer.fits[idx], self.layout)
            report["critic_loss"].append(
                critic_step(self.policies.critic, opts["critic"], states,
                            buffer.returns[idx], config)["loss"]
            )
            stats = actor_step(self.policies.group_actor, opts["group"], states, groups,
                               buffer.logp_groups[idx], advs, group_mask, config)
            report["group_loss"].append(stats["loss"])
            report["clip_fraction"].append(stats["clip_fraction"])
            for g, net in enumerate(self.policies.node_actors):
                rows = np.flatnonzero(groups == g)
                if not rows.size:
                    continue
                stats = actor_step(net, opts["nodes"][g], states[rows], nodes[rows],
                                   logp_nodes[rows], advs[rows], node_masks[g][rows], config)
                report["node_loss"].append(stats["loss"])
        return {k: float(np.mean(v)) if v else 0.0 for k, v in report.items()}


# -- training driver -------------------------------------------------------


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    total_reward: float
    total_cost: float
    mean_execution_time: float
    completed: int
    interrupted: int
    timed_out: int


def train(agent: MultiActorAgent,
          make_workload: Callable[[int], Sequence[WorkflowSpec]],
          config: TrainConfig) -> list[EpisodeRecord]:
    """Run the episodic collect/update loop; returns the learning curve.

    Episode e uses environment seed [seed, 2, e]; action sampling and
    minibatch selection draw from their own fixed streams so the curve is
    reproducible end to end.
    """
    base = seed_list(config.seed)
    act_rng = np.random.default_rng(base + [3])
    update_rng = np.random.default_rng(base + [4])
    buffer = RolloutBuffer()
    curve = []
    for episode in range(config.episodes):
        env = SimEnv(agent.cluster, make_workload(episode), seed=base + [2, episode])
        obs = env.reset()
        total_reward = 0.0
        while obs is not None:
            node_id, choice, features = agent.act(obs, act_rng)
            fit = obs.fit
            obs, reward, _ = env.step(node_id)
            total_reward += reward
            buffer.add(features, fit, choice.group, choice.node, choice.logp_group,
                       choice.logp_node, reward, choice.value)
        if len(buffer):
            buffer.compute(config.discount)
            agent.update(buffer, config, update_rng)
            buffer.clear()
        stats = env.episode_stats()
        curve.append(EpisodeRecord(
            episode=episode,
            total_reward=total_reward,
            total_cost=stats.total_cost,
            mean_execution_time=stats.mean_execution_time,
            completed=stats.completed,
            interrupted=stats.interrupted,
            timed_out=stats.timed_out,
        ))
    return curve


# -- checkpoints -----------------------------------------------------------

_CHECKPOINT_FIELDS = {"format_version", "groups", "scaling", "networks"}
_SCALING_FIELDS = {f.name for f in fields(ScalingConstants)}
_NETWORKS_FIELDS = {"group_actor", "node_actors", "critic"}
_NET_FIELDS = {"sizes", "policy_head", "weights", "biases"}


def _net_to_dict(net: Mlp) -> dict:
    return {
        "sizes": list(net.sizes),
        "policy_head": net.policy_head,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _load_net(doc: dict, net: Mlp, where: str) -> None:
    """Copy stored parameters into `net`, a network PolicySet.build made for the cluster."""
    check_fields(doc, _NET_FIELDS, where)
    if doc["sizes"] != net.sizes or doc["policy_head"] != net.policy_head:
        raise LayoutMismatchError(
            f"{where}: sizes {doc['sizes']}, policy head {doc['policy_head']}; the cluster "
            f"needs sizes {net.sizes}, policy head {net.policy_head}")
    stored = (doc["weights"], doc["biases"])
    if not all(isinstance(x, list) and len(x) == len(net.weights) for x in stored):
        raise ConfigError(f"{where}: needs {len(net.weights)} weight and bias layers")
    try:
        params = [np.array(x, dtype=float) for layer in zip(*stored) for x in layer]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: parameters are not numeric arrays ({exc})") from None
    for i, (got, want) in enumerate(zip(params, net.params)):
        if got.shape != want.shape or not np.isfinite(got).all():
            raise ConfigError(f"{where}: parameter {i} must be finite with shape {want.shape}, "
                              f"got shape {got.shape}")
    for have, got in zip(net.params, params):
        have[...] = got  # into the views of net.vector, which the optimizers update


def save_checkpoint(agent: MultiActorAgent, path: str | Path) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "groups": {
            name: list(nodes)
            for name, nodes in zip(GROUP_ORDER, agent.layout.group_nodes)
        },
        "scaling": asdict(agent.scaling),
        "networks": {
            "group_actor": _net_to_dict(agent.policies.group_actor),
            "node_actors": [_net_to_dict(n) for n in agent.policies.node_actors],
            "critic": _net_to_dict(agent.policies.critic),
        },
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path, cluster: ClusterSpec) -> MultiActorAgent:
    """Rebuild an agent; refuses checkpoints for a different cluster layout."""
    doc = read_json(path)
    check_fields(doc, _CHECKPOINT_FIELDS, f"{path}: checkpoint")
    version = doc["format_version"]
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version!r}")
    check_fields(doc["groups"], set(GROUP_ORDER), f"{path}: checkpoint groups")
    layout = ActionSpaceLayout.from_cluster(cluster)
    stored = tuple(tuple(doc["groups"][name]) for name in GROUP_ORDER)
    if stored != layout.group_nodes:
        raise LayoutMismatchError(
            f"{path}: checkpoint groups {stored} do not match cluster layout "
            f"{layout.group_nodes}"
        )
    check_fields(doc["scaling"], _SCALING_FIELDS, f"{path}: checkpoint scaling")
    try:
        scaling = ScalingConstants(**doc["scaling"])
    except ValueError as exc:
        raise ConfigError(f"{path}: checkpoint scaling: {exc}") from exc
    nets = doc["networks"]
    check_fields(nets, _NETWORKS_FIELDS, f"{path}: checkpoint networks")
    policies = PolicySet.build(state_dim(len(cluster.nodes)), layout, np.random.default_rng(0))
    node_docs = nets["node_actors"]
    if not isinstance(node_docs, list) or len(node_docs) != len(policies.node_actors):
        raise LayoutMismatchError(
            f"{path}: the cluster needs a list of {len(policies.node_actors)} node actors")
    node_names = [f"node_actors[{g}]" for g in range(len(node_docs))]
    for name, doc, net in zip(["group_actor", *node_names, "critic"],
                              [nets["group_actor"], *node_docs, nets["critic"]],
                              [policies.group_actor, *policies.node_actors, policies.critic]):
        _load_net(doc, net, f"{path}: checkpoint network {name}")
    return MultiActorAgent(cluster, scaling=scaling, policies=policies)
