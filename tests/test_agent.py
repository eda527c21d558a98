"""Hierarchical action space, state encoding, updates, and checkpoints."""
import json
from dataclasses import replace

import numpy as np
import pytest

from spotsched.agent import (
    ActionSpaceLayout,
    MultiActorAgent,
    ScalingConstants,
    _pick,
    encode,
    feasibility_masks,
    load_checkpoint,
    save_checkpoint,
    select_action,
    state_dim,
    train,
)
from spotsched.baselines import K8DefaultPolicy, OnDemandPolicy, RandomPolicy, baseline_cluster
from spotsched.cluster import ON_DEMAND, SPOT, ClusterSpec, NodeSpec, default_cluster
from spotsched.engine import Observation, SimEnv, run_episode
from spotsched.errors import ConfigError, LayoutMismatchError
from spotsched.harness import train_run
from spotsched.nets import forward, masked_softmax
from spotsched.ppo import RolloutBuffer, TrainConfig
from spotsched.workflow import TaskSpec, WorkflowSpec
from spotsched.workload import WorkloadConfig, generate


def small_cluster():
    spot = NodeSpec(
        id="s0", flavor="f", cpu=2.0, mem_gb=8.0, rate=2.0,
        pricing_class=SPOT, price_per_hour=0.036,
    )
    od = NodeSpec(
        id="o0", flavor="f", cpu=8.0, mem_gb=32.0, rate=8.0,
        pricing_class=ON_DEMAND, price_per_hour=0.288,
    )
    return ClusterSpec(nodes=(spot, od), interruption_rate_per_hour=0.0)


def single(wf_id="w", work=100.0, cpu=1.0, mem=2.0, arrival=0.0):
    task = TaskSpec(id="t", cpu_req=cpu, mem_req=mem, work=work)
    return WorkflowSpec(id=wf_id, tasks=(task,), edges=(), arrival_time=arrival)


def offer(cluster, workload):
    return SimEnv(cluster, workload, seed=0).reset()


def test_layout_orders_on_demand_first():
    layout = ActionSpaceLayout.from_cluster(default_cluster())
    assert len(layout.group_nodes) == 2
    assert all(i.startswith("od-") for i in layout.group_nodes[0])
    assert all(i.startswith("spot-") for i in layout.group_nodes[1])
    assert layout.group_sizes == (5, 6)
    assert layout.node_id(1, 3) == "spot-xlarge-1"


def test_scaling_constants_from_cluster():
    s = ScalingConstants.from_cluster(default_cluster())
    assert s.cpu_norm == 8.0 and s.mem_norm == 32.0
    assert s.work_norm == 200.0 and s.wait_norm == 1000.0
    # priciest on-demand node sets the cost scale
    assert s.cost_norm == pytest.approx(0.2688 / 3600)
    spot_only = ClusterSpec(nodes=(NodeSpec(
        id="s", flavor="f", cpu=1, mem_gb=1, rate=1,
        pricing_class=SPOT, price_per_hour=0.36,
    ),))
    assert ScalingConstants.from_cluster(spot_only).cost_norm == pytest.approx(0.36 / 3600)


def test_encode_layout():
    cluster = default_cluster()
    obs = offer(cluster, [single(cpu=1.0, mem=2.0, work=100.0)])
    feats = encode(obs, ScalingConstants.from_cluster(cluster))
    assert feats.shape == (state_dim(11),) == (58,)
    assert feats[0] == pytest.approx(1 / 8)
    assert feats[1] == pytest.approx(2 / 32)
    assert feats[2] == pytest.approx(100 / 200)
    # first node block: idle spot t4g.large
    assert feats[3] == pytest.approx(2 / 8)  # cpu free
    assert feats[4] == pytest.approx(8 / 32)  # mem free
    assert feats[5] == 0.0  # no backlog
    assert feats[7] == 1.0  # alive


def test_encode_dead_node_saturates():
    # a dead node next to a live one whose backlog exceeds wait_norm
    obs = Observation(
        time=0.0, workflow_id="w", task=TaskSpec(id="t", cpu_req=1, mem_req=1, work=1),
        node_ids=("x", "y"), unit_cost=np.array([1e-5, 2e-5]),
        cpu_free=np.array([2.0, 1.0]), mem_free=np.array([8.0, 4.0]),
        wait=np.array([1e9, 250.0]), alive=np.array([False, True]),
        fit=np.array([False, True]),
    )
    feats = encode(obs, ScalingConstants(cpu_norm=8.0, mem_norm=32.0, cost_norm=1e-4,
                                         wait_norm=100.0))
    assert feats.tolist() == [1 / 8, 1 / 32, 1 / 200,
                              2 / 8, 8 / 32, 1.0, 1e-5 / 1e-4, 0.0,
                              1 / 8, 4 / 32, 1.0, 2e-5 / 1e-4, 1.0]


def test_feasibility_masks_respect_capacity():
    cluster = default_cluster()
    # cpu 6 only fits the 8-core flavors
    obs = offer(cluster, [single(cpu=6.0, mem=2.0)])
    layout = ActionSpaceLayout.from_cluster(cluster)
    gmask, nmasks = feasibility_masks(obs.fit, layout)
    assert gmask.tolist() == [True, True]
    od_fit = [layout.group_nodes[0][i] for i in np.flatnonzero(nmasks[0])]
    spot_fit = [layout.group_nodes[1][i] for i in np.flatnonzero(nmasks[1])]
    assert od_fit == ["od-2xlarge-0"]
    assert spot_fit == ["spot-2xlarge-0"]


def test_feasibility_masks_batch_matches_rows():
    rng = np.random.default_rng(11)
    spot_free = ClusterSpec(nodes=tuple(n for n in default_cluster().nodes
                                        if n.pricing_class == ON_DEMAND))
    for cluster in (default_cluster(), small_cluster(), spot_free):
        layout = ActionSpaceLayout.from_cluster(cluster)
        fits = rng.random((40, len(cluster.nodes))) < 0.3
        gmasks, nmasks = feasibility_masks(fits, layout)
        assert gmasks.shape == (40, 2)
        for b, fit in enumerate(fits):
            gmask, row_masks = feasibility_masks(fit, layout)
            assert np.array_equal(gmasks[b], gmask)
            assert all(np.array_equal(m[b], r) for m, r in zip(nmasks, row_masks))
    # the spot-free cluster's empty group: one output, never feasible
    assert nmasks[1].shape == (40, 1) and not nmasks[1].any() and not gmasks[:, 1].any()


def test_masks_and_baselines_match_engine_fit_over_episodes():
    # 30 interruptions/h with 60 s downtime and arrivals far faster than the
    # cluster serves them: offers see dead nodes and full nodes. Maps of
    # 2 cores and 8 GB fill every flavor exactly, so offers also meet fits
    # with no slack, where a drifted comparison would disagree.
    cluster = default_cluster(interruption_rate_per_hour=30.0, interruption_downtime_s=60.0)
    config = WorkloadConfig(count=15, parallelism=(6,), interarrival_range=(0.5, 2.0),
                            cpu_req=2.0, mem_req=8.0, timeout=600.0)
    agent = MultiActorAgent(cluster, seed=0)
    rng = np.random.default_rng(3)
    schedulers = {
        "random": RandomPolicy(cluster, seed=3),
        "k8-default": K8DefaultPolicy(cluster),
        "on-demand": OnDemandPolicy(cluster),
        "agent": lambda obs: agent.act(obs, rng)[0],
    }
    for name, policy in schedulers.items():
        saw_dead = saw_full = 0
        for seed in (1, 2):
            env = SimEnv(baseline_cluster(cluster, name), generate(replace(config, seed=seed)),
                         seed=[seed, 2])
            obs = env.reset()
            while obs is not None:
                assert obs.fit.tolist() == [env.nodes[i].can_fit(obs.task) for i in obs.node_ids]
                pick = policy(obs)
                assert obs.fit[obs.node_ids.index(pick)], name
                saw_dead += not obs.alive.all()
                saw_full += (obs.alive & ~obs.fit).any()
                obs, _, _ = env.step(pick)
        assert saw_full, name
        # on-demand runs on the on-demand nodes, which are never interrupted
        assert bool(saw_dead) == (name != "on-demand"), name


def test_single_feasible_node_is_forced():
    cluster = small_cluster()
    obs = offer(cluster, [single(cpu=4.0, mem=2.0)])  # only o0 has 4 cores
    agent = MultiActorAgent(cluster, seed=0)
    node_id, choice, _ = agent.act(obs, np.random.default_rng(0))
    assert node_id == "o0"
    assert feasibility_masks(obs.fit, agent.layout)[0].tolist() == [True, False]
    assert choice.logp_group == 0.0 and choice.logp_node == 0.0
    assert agent.act(obs)[0] == "o0"  # no rng: the greedy pick


def test_pick_draws_what_generator_choice_draws():
    dists = np.random.default_rng(8)
    mine, theirs = np.random.default_rng(21), np.random.default_rng(21)
    for trial in range(3000):
        n = int(dists.integers(1, 12))
        logits = dists.normal(size=n) * (40.0 if trial % 3 == 0 else 3.0)  # near-zero probabilities
        mask = dists.random(n) < (0.0 if trial % 5 == 0 else 0.6)  # one live action every 5th
        mask[dists.integers(n)] = True
        p = masked_softmax(logits, mask)
        assert _pick(p, mine) == int(theirs.choice(n, p=p))
        assert _pick(p, None) == int(np.argmax(p))
    assert mine.random() == theirs.random()  # both streams end at the same place


def test_greedy_act_skips_the_critic():
    cluster = default_cluster()
    obs = offer(cluster, [single()])
    agent = MultiActorAgent(cluster, seed=0)
    agent.policies.critic.vector[:] = np.nan
    node_id, choice, _ = agent.act(obs)
    assert node_id in obs.node_ids and choice.value is None
    with pytest.raises(FloatingPointError):
        agent.act(obs, np.random.default_rng(0))


def test_untrained_group_choice_is_near_even():
    cluster = default_cluster()
    obs = offer(cluster, [single()])
    agent = MultiActorAgent(cluster, seed=0)
    feats = encode(obs, agent.scaling)
    gmask, nmasks = feasibility_masks(obs.fit, agent.layout)
    rng = np.random.default_rng(123)
    counts = np.zeros(2)
    for _ in range(10_000):
        counts[select_action(agent.policies, feats, gmask, nmasks, rng).group] += 1
    freq = counts / 10_000
    assert abs(freq[0] - 0.5) <= 0.02
    assert abs(freq[1] - 0.5) <= 0.02


def test_spot_free_cluster_matches_on_demand_restriction():
    nodes = tuple(
        NodeSpec(
            id=f"o{i}", flavor="f", cpu=4.0, mem_gb=16.0, rate=4.0,
            pricing_class=ON_DEMAND, price_per_hour=0.1 * (i + 1),
        )
        for i in range(3)
    )
    cluster = ClusterSpec(nodes=nodes)
    wfs = generate(WorkloadConfig(count=4, seed=2))
    agent = MultiActorAgent(cluster, seed=1)

    def drive(cluster):
        env = SimEnv(cluster, wfs, seed=[5])
        rng = np.random.default_rng(77)
        groups = set()
        obs = env.reset()
        while obs is not None:
            node_id, choice, _ = agent.act(obs, rng)
            groups.add(choice.group)
            obs, _, _ = env.step(node_id)
        return env.episode_stats(), groups

    free, groups = drive(cluster)
    restricted, _ = drive(baseline_cluster(cluster, "on-demand"))
    assert groups == {0}  # masking forces the on-demand arm
    assert free == restricted


def _collect_buffer(agent, cluster, wfs, seed):
    env = SimEnv(cluster, wfs, seed=seed)
    rng = np.random.default_rng(3)
    buffer = RolloutBuffer()
    obs = env.reset()
    while obs is not None:
        node_id, choice, feats = agent.act(obs, rng)
        fit = obs.fit
        obs, reward, _ = env.step(node_id)
        buffer.add(feats, fit, choice.group, choice.node, choice.logp_group,
                   choice.logp_node, reward, choice.value)
    return buffer


def test_update_reports_and_steps_optimizers():
    cluster = small_cluster()
    wfs = generate(WorkloadConfig(count=3, seed=4))
    agent = MultiActorAgent(cluster, seed=0)
    buffer = _collect_buffer(agent, cluster, wfs, seed=[1])
    cfg = TrainConfig(epochs=1, minibatch_size=len(buffer))
    buffer.compute(cfg.discount)
    report = agent.update(buffer, cfg, np.random.default_rng(0))
    opts = agent._optimizers
    assert opts["critic"].t == 1 and opts["group"].t == 1
    assert all(o.t <= 1 for o in opts["nodes"])
    assert set(report) == {"critic_loss", "group_loss", "node_loss", "clip_fraction"}
    assert all(np.isfinite(v) for v in report.values())


def test_update_requires_computed_buffer():
    agent = MultiActorAgent(small_cluster(), seed=0)
    with pytest.raises(ValueError):
        agent.update(RolloutBuffer(), TrainConfig(), np.random.default_rng(0))
    buffer = RolloutBuffer()
    buffer.add(np.zeros(state_dim(2)), np.ones(2, dtype=bool), 0, 0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        agent.update(buffer, TrainConfig(), np.random.default_rng(0))


def test_training_curves_reproducible():
    cluster = small_cluster()
    cfg = TrainConfig(episodes=3, seed=9)
    first = train_run(cluster, WorkloadConfig(count=2), cfg)[1]
    second = train_run(cluster, WorkloadConfig(count=2), cfg)[1]
    assert first == second
    assert [r.episode for r in first] == [0, 1, 2]
    assert all(r.total_cost > 0 for r in first)
    assert all(r.total_reward == -r.total_cost for r in first)


def test_train_uses_fresh_workload_per_episode():
    cluster = small_cluster()
    agent = MultiActorAgent(cluster, seed=0)
    seen = []

    def make_workload(episode):
        wfs = generate(WorkloadConfig(count=2, seed=(100, episode)))
        seen.append(episode)
        return wfs

    curve = train(agent, make_workload, TrainConfig(episodes=2, seed=0))
    assert seen == [0, 1]
    assert len(curve) == 2
    assert curve[0].completed + curve[0].interrupted + curve[0].timed_out == 2


def test_greedy_scheduler_drives_episodes():
    cluster = small_cluster()
    wfs = generate(WorkloadConfig(count=3, seed=6))
    agent = MultiActorAgent(cluster, seed=2)
    stats = run_episode(agent.scheduler(), cluster, wfs, seed=[4])
    assert stats.submitted == 3


def test_checkpoint_round_trip(tmp_path):
    cluster = small_cluster()
    agent = MultiActorAgent(cluster, seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path)
    clone = load_checkpoint(path, cluster)
    nets = lambda p: [p.group_actor, *p.node_actors, p.critic]
    for mine, theirs in zip(nets(agent.policies), nets(clone.policies)):
        assert mine.sizes == theirs.sizes
        for a, b in zip(mine.params, theirs.params):
            assert np.array_equal(a, b)
    assert clone.scaling == agent.scaling
    assert clone.layout == agent.layout


def test_loaded_parameters_stay_views_the_optimizers_train(tmp_path):
    cluster = small_cluster()
    agent = MultiActorAgent(cluster, seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path)
    clone = load_checkpoint(path, cluster)
    for policies in (agent.policies, clone.policies):
        for net in [policies.group_actor, *policies.node_actors, policies.critic]:
            assert all(np.shares_memory(p, net.vector) for p in net.params)
    feats = np.full(state_dim(2), 0.5)
    group_mask = np.ones(2, dtype=bool)
    before = forward(clone.policies.group_actor, feats, group_mask)
    value_before = forward(clone.policies.critic, feats)
    buffer = _collect_buffer(clone, cluster, generate(WorkloadConfig(count=3, seed=4)), seed=[1])
    cfg = TrainConfig(epochs=1, minibatch_size=len(buffer))
    buffer.compute(cfg.discount)
    clone.update(buffer, cfg, np.random.default_rng(0))
    assert not np.array_equal(forward(clone.policies.group_actor, feats, group_mask), before)
    assert forward(clone.policies.critic, feats) != value_before


def test_checkpoint_layout_mismatch(tmp_path):
    agent = MultiActorAgent(small_cluster(), seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path)
    with pytest.raises(LayoutMismatchError):
        load_checkpoint(path, default_cluster())


def test_checkpoint_version_and_shape_guards(tmp_path):
    agent = MultiActorAgent(small_cluster(), seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path)

    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = 99
    bad = tmp_path / "bad_version.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_checkpoint(bad, small_cluster())

    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["networks"]["critic"]["weights"][0] = [[0.0]]
    bad = tmp_path / "bad_shape.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_checkpoint(bad, small_cluster())


@pytest.mark.parametrize("damage", [
    "format_version", "groups", "scaling", "networks", "groups.spot",
    "scaling.cpu_norm", "networks.critic", "networks.critic.sizes", "list",
])
def test_checkpoint_missing_keys_are_config_errors(tmp_path, damage):
    agent = MultiActorAgent(small_cluster(), seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if damage == "list":
        doc = [doc]
    else:
        *parents, key = damage.split(".")
        target = doc
        for name in parents:
            target = target[name]
        del target[key]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_checkpoint(path, small_cluster())


@pytest.mark.parametrize("norm,value,message", [
    ("cpu_norm", 0.0, "cpu_norm"),
    ("wait_norm", "x", "wait_norm"),
    ("mem_norm", -2.0, "mem_norm"),
    # json writes NaN, which read_json refuses before the norms are checked
    ("cost_norm", float("nan"), "NaN"),
])
def test_checkpoint_rejects_bad_scaling(tmp_path, norm, value, message):
    """A norm that would divide by zero or poison encode fails at load."""
    cluster = small_cluster()
    path = tmp_path / "ck.json"
    save_checkpoint(MultiActorAgent(cluster, seed=0), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["scaling"][norm] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_checkpoint(path, cluster)
    with pytest.raises(ValueError, match=norm):
        ScalingConstants(**doc["scaling"])


def _damage_layer_count(nets):
    del nets["critic"]["weights"][-1]
    del nets["critic"]["biases"][-1]


def _damage_bias(nets):
    nets["critic"]["biases"][0].pop()


def _damage_node_actor_count(nets):
    del nets["node_actors"][1]


def _damage_spot_outputs(nets):
    # a self-consistent spot actor with 5 outputs, for the cluster's 6 spot nodes
    spot = nets["node_actors"][1]
    spot["sizes"][-1] = 5
    spot["weights"][-1] = [row[:5] for row in spot["weights"][-1]]
    spot["biases"][-1] = spot["biases"][-1][:5]


@pytest.mark.parametrize("damage,error", [
    (_damage_layer_count, ConfigError),
    (_damage_bias, ConfigError),
    (_damage_node_actor_count, LayoutMismatchError),
    (_damage_spot_outputs, LayoutMismatchError),
], ids=["critic-missing-last-layer", "short-bias", "one-node-actor", "spot-actor-5-outputs"])
def test_checkpoint_rejects_malformed_networks(tmp_path, damage, error):
    cluster = default_cluster()
    path = tmp_path / "ck.json"
    save_checkpoint(MultiActorAgent(cluster, seed=0), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    damage(doc["networks"])
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(error):
        load_checkpoint(path, cluster)
