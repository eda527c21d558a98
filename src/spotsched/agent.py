"""Two-level scheduling agent: pick a pricing group, then a node in it.

A group actor chooses between on-demand and spot; per-group node actors
choose the machine; a single critic supplies the value baseline for both
levels. Feasibility masks guarantee every sampled action maps to a live
node with room for the pending task.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields, make_dataclass
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cluster import ON_DEMAND, SPOT, ClusterSpec
from .engine import ROW_FIELDS, Observation, SimEnv
from .errors import ConfigError, LayoutMismatchError
from .nets import Adam, Mlp, forward, masked_argmax_row, masked_softmax_row
from .ppo import (EPOCHS, LEARNING_RATE, MINIBATCH_SIZE, Rollout, TrainConfig, actor_step,
                  critic_step, rollout)
from .workflow import WorkflowSpec, as_real, check_fields, check_real, is_int, read_json, seed_list

GROUP_ORDER = (ON_DEMAND, SPOT)
HIDDEN_SIZES = (64, 64)

CHECKPOINT_VERSION = 1

# What MultiActorAgent.update reports, each a mean over the update's steps;
# the clip fraction, entropy and approx-KL are the group actor's.
UPDATE_STATS = ("critic_loss", "group_loss", "node_loss", "clip_fraction", "entropy", "approx_kl")


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
            # save_checkpoint writes these with json, which cannot write a numpy scalar
            if not isinstance(value, (int, float)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            check_real(value, f.name)

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

    Node entries are cpu, mem, wait (capped at 1), unit cost and alive.
    Dead nodes read as saturated: wait 1, alive 0.
    """
    task, s = obs.task, scaling
    cpu_norm, mem_norm, wait_norm, cost_norm = s.cpu_norm, s.mem_norm, s.wait_norm, s.cost_norm
    row = [task.cpu_req / cpu_norm, task.mem_req / mem_norm, task.work / s.work_norm]
    for cpu, mem, wait, cost, alive in zip(obs.cpu_free, obs.mem_free, obs.wait, obs.unit_cost,
                                           obs.alive):
        row += (cpu / cpu_norm, mem / mem_norm, min(wait / wait_norm, 1.0) if alive else 1.0,
                cost / cost_norm, 1.0 if alive else 0.0)
    return np.array(row, dtype=float)  # a stated dtype skips numpy's discovery pass


def state_dim(node_count: int) -> int:
    return 3 + 5 * node_count


def feasibility_masks(fit: list[bool] | np.ndarray, positions: tuple[tuple[int, ...], ...]):
    """(group mask, per-group node masks) from `fit`, each group's nodes at their
    `positions` in it; True is alive and fits.

    An observation's `fit` list gives lists, for acting. The update's bool array of fit
    rows gives bool arrays with one row per fit row. An empty group has one node output,
    always False."""
    if isinstance(fit, list):
        node_masks = [[fit[i] for i in pos] or [False] for pos in positions]
        return [any(m) for m in node_masks], node_masks
    # take and a ufunc reduce cost two thirds of what fit[:, pos] and .any() do
    node_masks = [fit.take(pos, axis=-1) if pos else np.zeros((len(fit), 1), dtype=bool)
                  for pos in positions]
    return np.array([np.logical_or.reduce(m, axis=-1) for m in node_masks]).T, node_masks


class SelectedAction(NamedTuple):
    """One act's choice, built by position once per decision."""

    group: int
    node: int
    logp_group: float
    logp_node: float


def _pick(p: list[float], rng: np.random.Generator) -> int:
    """The draw Generator.choice(len(p), p=p) makes.

    It never lands on a 0.0: a zero repeats the running sum before it, and the search passes it."""
    cdf = list(accumulate(p))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


def select_action(agent: MultiActorAgent, features: np.ndarray, group_mask, node_masks,
                  rng: np.random.Generator) -> SelectedAction:
    """Sample the group, then a node within it.

    It never reads the critic: train takes an episode's values in one pass after its last
    decision.
    """
    p_group = masked_softmax_row(forward(agent.group_actor, features), group_mask)
    g = _pick(p_group, rng)
    p_node = masked_softmax_row(forward(agent.node_actors[g], features), node_masks[g])
    n = _pick(p_node, rng)
    # math.log is safe: a pick never lands on a 0.0. The update recomputes these
    # log-probabilities in numpy, so its first ratio is 1 within a few ulps.
    return SelectedAction(g, n, math.log(p_group[g]), math.log(p_node[n]))


class MultiActorAgent:
    """The networks, node groups, scaling and optimizers for one cluster.

    `group_nodes[g][n]` is the node id of joint action (group g, node n), groups in
    GROUP_ORDER; `group_positions` holds the same nodes' positions in cluster order, the
    order of an observation's lists. The group actor, the node actors (one per group,
    an empty group keeping one output) and the critic draw their weights in that order.
    """

    def __init__(self, cluster: ClusterSpec, seed: int | Sequence[int] = 0):
        self.cluster = cluster
        groups = cluster.pricing_groups()
        position = {n.id: i for i, n in enumerate(cluster.nodes)}
        self.group_nodes = tuple(tuple(n.id for n in groups[g]) for g in GROUP_ORDER)
        self.group_positions = tuple(tuple(position[i] for i in ids) for ids in self.group_nodes)
        self.scaling = ScalingConstants.from_cluster(cluster)
        rng = np.random.default_rng(seed_list(seed) + [0])
        layers = [state_dim(len(cluster.nodes)), *HIDDEN_SIZES]
        self.group_actor = Mlp([*layers, len(GROUP_ORDER)], rng, policy_head=True)
        self.node_actors = tuple(Mlp([*layers, max(1, len(ids))], rng, policy_head=True)
                                 for ids in self.group_nodes)
        self.critic = Mlp([*layers, 1], rng)
        self._optimizers = {
            "group": Adam(self.group_actor.vector, LEARNING_RATE),
            "nodes": [Adam(net.vector, LEARNING_RATE) for net in self.node_actors],
            "critic": Adam(self.critic.vector, LEARNING_RATE),
        }

    # -- acting ------------------------------------------------------------

    def act(self, obs: Observation,
            rng: np.random.Generator) -> tuple[str, SelectedAction, np.ndarray]:
        """(node id, choice, features), the choice sampled from rng."""
        features = encode(obs, self.scaling)
        group_mask, node_masks = feasibility_masks(obs.fit, self.group_positions)
        choice = select_action(self, features, group_mask, node_masks, rng)
        return self.group_nodes[choice.group][choice.node], choice, features

    def scheduler(self) -> Callable[[Observation], str]:
        """Greedy policy callback for evaluation episodes: each level's largest live logit.

        It builds no distribution, draws nothing and takes no log-probability, and like
        act it never reads the critic.
        """
        group_actor, node_actors, scaling = self.group_actor, self.node_actors, self.scaling
        group_nodes, positions = self.group_nodes, self.group_positions

        def greedy(obs: Observation) -> str:
            features = encode(obs, scaling)
            group_mask, node_masks = feasibility_masks(obs.fit, positions)
            g = masked_argmax_row(forward(group_actor, features), group_mask)
            n = masked_argmax_row(forward(node_actors[g], features), node_masks[g])
            return group_nodes[g][n]
        return greedy

    # -- learning ----------------------------------------------------------

    def update(self, batch: Rollout, rng: np.random.Generator) -> dict:
        """One PPO round: EPOCHS epochs of one minibatch of up to MINIBATCH_SIZE samples.

        The critic and group actor train on the whole minibatch; each node
        actor sees only the samples whose chosen group was its own.
        """
        opts = self._optimizers
        n = len(batch.groups)
        report = {k: [] for k in UPDATE_STATS}
        for _ in range(EPOCHS):
            idx = rng.choice(n, size=min(MINIBATCH_SIZE, n), replace=False)
            mb = Rollout(*(column[idx] for column in batch))
            group_mask, node_masks = feasibility_masks(mb.fits, self.group_positions)
            report["critic_loss"].append(
                critic_step(self.critic, opts["critic"], mb.features, mb.returns))
            loss, diagnostics = actor_step(self.group_actor, opts["group"], mb.features,
                                           mb.groups, mb.logp_groups, mb.advantages, group_mask)
            for k, v in {"group_loss": loss, **diagnostics()}.items():
                report[k].append(v)
            for g, net in enumerate(self.node_actors):
                rows = np.flatnonzero(mb.groups == g)
                if not rows.size:
                    continue
                loss, _ = actor_step(net, opts["nodes"][g], mb.features[rows], mb.nodes[rows],
                                     mb.logp_nodes[rows], mb.advantages[rows], node_masks[g][rows])
                report["node_loss"].append(loss)  # its diagnostics go unread, so unreduced
        return {k: float(np.mean(v)) if v else 0.0 for k, v in report.items()}


# -- training driver -------------------------------------------------------


# one training episode: its index and reward, what it reports, then its update report
# (__module__ as for harness.MetricsRow)
EpisodeRecord = make_dataclass(
    "EpisodeRecord",
    [("episode", int), ("total_reward", float), *ROW_FIELDS, *((k, float) for k in UPDATE_STATS)],
    frozen=True, namespace={"__module__": __name__})


def train(agent: MultiActorAgent,
          make_workload: Callable[[int], Sequence[WorkflowSpec]],
          config: TrainConfig) -> list[EpisodeRecord]:
    """Run the episodic collect/update loop; returns the learning curve.

    Episode e uses environment seed [seed, 2, e]; action sampling and
    minibatch selection draw from their own fixed streams so the curve is
    reproducible end to end. Each record carries its episode's update
    report, all 0.0 when the episode made no decision and so no update.
    """
    base = seed_list(config.seed)
    act_rng = np.random.default_rng(base + [3])
    update_rng = np.random.default_rng(base + [4])
    curve = []
    for episode in range(config.episodes):
        env = SimEnv(agent.cluster, make_workload(episode), seed=base + [2, episode])
        obs = env.reset()
        total_reward = 0.0
        rows = []
        while obs is not None:
            node_id, choice, features = agent.act(obs, act_rng)
            fit = obs.fit
            obs, reward, _ = env.step(node_id)
            total_reward += reward
            rows.append((features, fit, choice.group, choice.node, choice.logp_group,
                         choice.logp_node, reward))
        # the critic's values after the last decision: only update changes the critic
        report = (agent.update(rollout(rows, partial(forward, agent.critic)), update_rng)
                  if rows else dict.fromkeys(UPDATE_STATS, 0.0))
        curve.append(EpisodeRecord(episode=episode, total_reward=total_reward,
                                   **env.episode_stats().row(), **report))
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


def _reals(x):
    """Nested lists of numbers as floats; a bool, string or huge integer is a ValueError."""
    return [_reals(v) for v in x] if isinstance(x, list) else as_real(x, "an entry")


def _load_net(doc: dict, net: Mlp, where: str) -> None:
    """Copy stored parameters into `net`, a network of the agent built for the cluster."""
    check_fields(doc, _NET_FIELDS, where)
    sizes, head = doc["sizes"], doc["policy_head"]
    if not (isinstance(sizes, list) and all(map(is_int, sizes))):
        raise ConfigError(f"{where}: sizes must be a list of integers, got {sizes!r}")
    if not isinstance(head, bool):
        raise ConfigError(f"{where}: policy_head must be true or false, got {head!r}")
    if sizes != net.sizes or head != net.policy_head:
        raise LayoutMismatchError(
            f"{where}: sizes {sizes}, policy head {head}; the cluster "
            f"needs sizes {net.sizes}, policy head {net.policy_head}")
    stored = (doc["weights"], doc["biases"])
    if not all(isinstance(x, list) and len(x) == len(net.weights) for x in stored):
        raise ConfigError(f"{where}: needs {len(net.weights)} weight and bias layers")
    names = [f"{kind}[{i}]" for i in range(len(net.weights)) for kind in ("weights", "biases")]
    values = [x for layer in zip(*stored) for x in layer]
    for name, x, have in zip(names, values, net.params):  # params is [W0, b0, W1, b1, ...]
        try:
            got = np.array(_reals(x), dtype=float)
        except ValueError as exc:  # as_real's, or numpy's for ragged lists
            raise ConfigError(f"{where}: {name}: {exc}") from None
        if got.shape != have.shape or not np.isfinite(got).all():
            raise ConfigError(f"{where}: {name} must be finite with shape {have.shape}, "
                              f"got shape {got.shape}")
        have[...] = got  # into the views of net.vector, which the optimizers update


def save_checkpoint(agent: MultiActorAgent, path: str | Path) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "groups": {name: list(nodes) for name, nodes in zip(GROUP_ORDER, agent.group_nodes)},
        "scaling": asdict(agent.scaling),
        "networks": {
            "group_actor": _net_to_dict(agent.group_actor),
            "node_actors": [_net_to_dict(n) for n in agent.node_actors],
            "critic": _net_to_dict(agent.critic),
        },
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path, cluster: ClusterSpec) -> MultiActorAgent:
    """The agent MultiActorAgent(cluster) builds, with the stored scaling and parameters.

    Refuses checkpoints for a different cluster layout."""
    doc = read_json(path)
    check_fields(doc, _CHECKPOINT_FIELDS, f"{path}: checkpoint")
    version = doc["format_version"]
    if not is_int(version) or version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint format_version {version!r}")
    check_fields(doc["groups"], set(GROUP_ORDER), f"{path}: checkpoint groups")
    for name in GROUP_ORDER:
        if not isinstance(doc["groups"][name], list):
            raise ConfigError(f"{path}: checkpoint groups: {name} must be a list of node ids")
    agent = MultiActorAgent(cluster)
    stored = tuple(tuple(doc["groups"][name]) for name in GROUP_ORDER)
    if stored != agent.group_nodes:
        raise LayoutMismatchError(
            f"{path}: checkpoint groups {stored} do not match cluster layout {agent.group_nodes}")
    check_fields(doc["scaling"], _SCALING_FIELDS, f"{path}: checkpoint scaling")
    try:
        scaling = ScalingConstants(**doc["scaling"])
    except ValueError as exc:
        raise ConfigError(f"{path}: checkpoint scaling: {exc}") from exc
    for node in cluster.nodes:  # encode divides each node's figures by these norms
        for norm, figure in (("cpu_norm", node.cpu), ("mem_norm", node.mem_gb),
                             ("cost_norm", node.unit_cost)):
            if not math.isfinite(figure / getattr(scaling, norm)):
                raise ConfigError(f"{path}: checkpoint scaling: {norm} {getattr(scaling, norm)!r} "
                                  f"makes node {node.id!r}'s feature infinite")
    agent.scaling = scaling
    nets = doc["networks"]
    check_fields(nets, _NETWORKS_FIELDS, f"{path}: checkpoint networks")
    node_docs = nets["node_actors"]
    if not isinstance(node_docs, list) or len(node_docs) != len(agent.node_actors):
        raise LayoutMismatchError(
            f"{path}: the cluster needs a list of {len(agent.node_actors)} node actors")
    node_names = [f"node_actors[{g}]" for g in range(len(node_docs))]
    for name, doc, net in zip(["group_actor", *node_names, "critic"],
                              [nets["group_actor"], *node_docs, nets["critic"]],
                              [agent.group_actor, *agent.node_actors, agent.critic]):
        _load_net(doc, net, f"{path}: checkpoint network {name}")
    return agent
