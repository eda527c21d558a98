"""Two-level scheduling agent: pick a pricing group, then a node in it.

A group actor chooses between on-demand and spot; per-group node actors
choose the machine; a single critic supplies the value baseline for both
levels. Feasibility masks guarantee every sampled action maps to a live
node with room for the pending task.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cluster import ON_DEMAND, SPOT, ClusterSpec
from .engine import Observation, SimEnv
from .errors import ConfigError, LayoutMismatchError
from .nets import Adam, Mlp, forward
from .ppo import (
    RolloutBuffer,
    TrainConfig,
    Transition,
    actor_step,
    critic_step,
)
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

    @classmethod
    def from_cluster(cls, cluster: ClusterSpec, *,
                     work_norm: float = 200.0, wait_norm: float = 1000.0) -> "ScalingConstants":
        od_costs = [n.unit_cost for n in cluster.nodes if n.pricing_class == ON_DEMAND]
        costs = od_costs or [n.unit_cost for n in cluster.nodes]
        return cls(
            cpu_norm=max(n.cpu for n in cluster.nodes),
            mem_norm=max(n.mem_gb for n in cluster.nodes),
            work_norm=work_norm,
            wait_norm=wait_norm,
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


def feasibility_masks(obs: Observation, layout: ActionSpaceLayout):
    """(group mask, per-group node masks): true means alive and fits.

    An empty group still has one node output, always masked out.
    """
    node_masks = [obs.fit[pos] if pos.size else np.zeros(1, dtype=bool)
                  for pos in layout.group_positions]
    group_mask = np.array([m.any() for m in node_masks])
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
    value: float


def select_action(policies: PolicySet, features: np.ndarray, group_mask, node_masks,
                  rng: np.random.Generator | None, *, greedy: bool = False) -> SelectedAction:
    """Sample (or argmax) the group, then a node within it."""
    p_group = forward(policies.group_actor, features, group_mask)
    g = int(np.argmax(p_group)) if greedy else int(rng.choice(p_group.size, p=p_group))
    p_node = forward(policies.node_actors[g], features, node_masks[g])
    n = int(np.argmax(p_node)) if greedy else int(rng.choice(p_node.size, p=p_node))
    return SelectedAction(
        group=g,
        node=n,
        logp_group=float(np.log(p_group[g])),
        logp_node=float(np.log(p_node[n])),
        value=forward(policies.critic, features),
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

    def act(self, obs: Observation, rng: np.random.Generator | None = None, *,
            greedy: bool = False) -> tuple[str, SelectedAction, np.ndarray, tuple]:
        features = encode(obs, self.scaling)
        group_mask, node_masks = feasibility_masks(obs, self.layout)
        choice = select_action(self.policies, features, group_mask, node_masks,
                               rng, greedy=greedy)
        node_id = self.layout.node_id(choice.group, choice.node)
        return node_id, choice, features, (group_mask, node_masks)

    def scheduler(self) -> Callable[[Observation], str]:
        """Greedy policy callback for evaluation episodes."""
        return lambda obs: self.act(obs, greedy=True)[0]

    # -- learning ----------------------------------------------------------

    def _ensure_optimizers(self, config: TrainConfig) -> dict:
        if self._optimizers is None:
            self._optimizers = {
                "group": Adam(self.policies.group_actor.params, config.group_lr),
                "nodes": [Adam(net.params, config.node_lr) for net in self.policies.node_actors],
                "critic": Adam(self.policies.critic.params, config.critic_lr),
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
        transitions = buffer.transitions
        states = np.stack([t.state for t in transitions])
        n = len(transitions)
        report = {"critic_loss": [], "group_loss": [], "node_loss": [], "clip_fraction": []}
        for _ in range(config.epochs):
            idx = rng.choice(n, size=min(config.minibatch_size, n), replace=False)
            batch = [transitions[i] for i in idx]
            bstates = states[idx]
            breturns = buffer.returns[idx]
            badvs = buffer.advantages[idx]
            report["critic_loss"].append(
                critic_step(self.policies.critic, opts["critic"], bstates, breturns, config)["loss"]
            )
            stats = actor_step(
                self.policies.group_actor, opts["group"], bstates,
                [t.group for t in batch], [t.logp_group for t in batch],
                badvs, [t.group_mask for t in batch], config,
            )
            report["group_loss"].append(stats["loss"])
            report["clip_fraction"].append(stats["clip_fraction"])
            for g, net in enumerate(self.policies.node_actors):
                rows = [i for i, t in enumerate(batch) if t.group == g]
                if not rows:
                    continue
                sub = [batch[i] for i in rows]
                stats = actor_step(
                    net, opts["nodes"][g], bstates[rows],
                    [t.node for t in sub], [t.logp_node for t in sub],
                    badvs[rows], [t.node_mask for t in sub], config,
                )
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
            node_id, choice, features, (gmask, nmasks) = agent.act(obs, act_rng)
            obs, reward, _ = env.step(node_id)
            total_reward += reward
            buffer.add(Transition(
                state=features,
                group=choice.group,
                node=choice.node,
                logp_group=choice.logp_group,
                logp_node=choice.logp_node,
                group_mask=gmask,
                node_mask=nmasks[choice.group],
                reward=reward,
                value=choice.value,
            ))
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


def _net_from_dict(doc: dict) -> Mlp:
    check_fields(doc, _NET_FIELDS, "checkpoint network")
    net = Mlp(doc["sizes"], np.random.default_rng(0), policy_head=doc["policy_head"])
    for i, (w, b) in enumerate(zip(doc["weights"], doc["biases"])):
        net.weights[i] = np.array(w, dtype=float)
        net.biases[i] = np.array(b, dtype=float)
        if net.weights[i].shape != (net.sizes[i], net.sizes[i + 1]):
            raise ConfigError("checkpoint weight shape does not match layer sizes")
    return net


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
    scaling = ScalingConstants(**doc["scaling"])
    nets = doc["networks"]
    check_fields(nets, _NETWORKS_FIELDS, f"{path}: checkpoint networks")
    policies = PolicySet(
        group_actor=_net_from_dict(nets["group_actor"]),
        node_actors=tuple(_net_from_dict(d) for d in nets["node_actors"]),
        critic=_net_from_dict(nets["critic"]),
    )
    expected = state_dim(len(cluster.nodes))
    if policies.critic.sizes[0] != expected:
        raise LayoutMismatchError(
            f"{path}: networks expect {policies.critic.sizes[0]} features, "
            f"cluster needs {expected}"
        )
    return MultiActorAgent(cluster, scaling=scaling, policies=policies)
