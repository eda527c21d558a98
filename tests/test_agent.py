"""Hierarchical action space, state encoding, updates, and checkpoints."""
import json
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from spotsched.agent import (
    ActionSpaceLayout,
    MultiActorAgent,
    UPDATE_STATS,
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
from spotsched.nets import forward, masked_argmax_row, masked_softmax_row
from spotsched.ppo import EPOCHS, LEARNING_RATE, TrainConfig, rollout
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
    assert layout.group_nodes[1][3] == "spot-xlarge-1"


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


def test_scaling_constants_refuse_numpy_scalars():
    """save_checkpoint writes the constants with json, which cannot write a numpy scalar."""
    with pytest.raises(ValueError, match="cpu_norm"):
        ScalingConstants(cpu_norm=np.float32(8.0), mem_norm=32.0, cost_norm=1e-4, wait_norm=100.0)


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


def numpy_encode(obs, scaling):
    """encode's former numpy formula, the reference its Python pass must equal."""
    divisor = np.array([[scaling.cpu_norm], [scaling.mem_norm], [scaling.wait_norm],
                        [scaling.cost_norm], [1.0]])
    nodes = np.array([obs.cpu_free, obs.mem_free, obs.wait, obs.unit_cost, obs.alive]) / divisor
    nodes[2] = np.where(obs.alive, np.minimum(nodes[2], 1.0), 1.0)
    task = obs.task
    return np.concatenate([[task.cpu_req / scaling.cpu_norm, task.mem_req / scaling.mem_norm,
                            task.work / scaling.work_norm], nodes.T.ravel()])


def test_encode_equals_the_numpy_formula_bit_for_bit():
    # 60 interruptions/h and long maps: offers meet dead nodes and live
    # nodes whose wait exceeds wait_norm
    cluster = default_cluster(interruption_rate_per_hour=60.0, interruption_downtime_s=60.0)
    scaling = ScalingConstants.from_cluster(cluster)
    config = WorkloadConfig(count=8, parallelism=(6,), work_range=(1000.0, 3000.0),
                            interarrival_range=(1.0, 5.0))
    saw_dead = saw_long_wait = 0
    for seed in (1, 2):
        env = SimEnv(cluster, generate(replace(config, seed=seed)), seed=[seed, 2])
        policy = RandomPolicy(seed=[seed, 3])
        obs = env.reset()
        while obs is not None:
            assert encode(obs, scaling).tobytes() == numpy_encode(obs, scaling).tobytes()
            saw_dead += not all(obs.alive)
            saw_long_wait += any(a and w > scaling.wait_norm for a, w in zip(obs.alive, obs.wait))
            obs, _, _ = env.step(policy(obs))
    assert saw_dead and saw_long_wait, (saw_dead, saw_long_wait)


def test_encode_dead_node_saturates():
    # a dead node next to a live one whose backlog exceeds wait_norm
    obs = Observation(
        time=0.0, workflow_id="w", task=TaskSpec(id="t", cpu_req=1, mem_req=1, work=1),
        node_ids=("x", "y"), unit_cost=(1e-5, 2e-5),
        cpu_free=[2.0, 1.0], mem_free=[8.0, 4.0],
        compute_wait=lambda: [1e9, 250.0], alive=[False, True],
        fit=[False, True],
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
    assert gmask == [True, True]
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
        fits[0] = np.arange(len(cluster.nodes)) == 1  # a single live entry
        gmasks, nmasks = feasibility_masks(fits, layout)
        assert gmasks.shape == (40, 2)
        for b, fit in enumerate(fits):
            gmask, row_masks = feasibility_masks(fit.tolist(), layout)  # an observation's list
            assert gmasks[b].tolist() == gmask
            assert all(m[b].tolist() == r for m, r in zip(nmasks, row_masks))
    # the spot-free cluster's empty group: one output, never feasible, in a
    # batch as in a single row
    assert nmasks[1].shape == (40, 1) and not nmasks[1].any() and not gmasks[:, 1].any()
    assert row_masks[1] == [False] and gmask[1] is False
    assert feasibility_masks(fits[0].tolist(), layout)[0] == [True, False]


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
        "random": RandomPolicy(seed=3),
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
                assert obs.fit == [env.nodes[i].can_fit(obs.task) for i in obs.node_ids]
                pick = policy(obs)
                assert obs.fit[obs.node_ids.index(pick)], name
                saw_dead += not all(obs.alive)
                saw_full += any(a and not f for a, f in zip(obs.alive, obs.fit))
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
    assert feasibility_masks(obs.fit, agent.layout)[0] == [True, False]
    assert choice.logp_group == 0.0 and choice.logp_node == 0.0
    assert agent.scheduler()(obs) == "o0"  # the greedy pick


def test_pick_draws_what_generator_choice_draws():
    dists = np.random.default_rng(8)
    mine, theirs = np.random.default_rng(21), np.random.default_rng(21)
    for trial in range(3000):
        n = int(dists.integers(1, 12))
        logits = dists.normal(size=n) * (40.0 if trial % 3 == 0 else 3.0)  # near-zero probabilities
        mask = dists.random(n) < (0.0 if trial % 5 == 0 else 0.6)  # one live action every 5th
        mask[dists.integers(n)] = True
        p = masked_softmax_row(logits.tolist(), mask.tolist())
        assert _pick(p, mine) == int(theirs.choice(n, p=p))
        assert masked_argmax_row(logits.tolist(), mask.tolist()) == int(np.argmax(p))
    assert mine.random() == theirs.random()  # both streams end at the same place


def test_pick_never_lands_on_a_zero_probability():
    # logits 1000 apart underflow live probabilities to 0.0, first and last
    # entries included; select_action's math.log(0.0) would raise
    dists, rng = np.random.default_rng(9), np.random.default_rng(10)
    zeros = 0
    for trial in range(2000):
        n = int(dists.integers(2, 12))
        logits = dists.integers(-2, 2, size=n) * 1000.0 + dists.normal(size=n)
        p = masked_softmax_row(logits.tolist(), [True] * n)
        zeros += p.count(0.0)
        for _ in range(5):
            assert p[_pick(p, rng)] > 0.0
        assert p[masked_argmax_row(logits.tolist(), [True] * n)] > 0.0
    assert zeros > 2000


def test_greedy_act_skips_the_critic():
    # neither the greedy scheduler nor a sampled act reads the critic, so a
    # poisoned one cannot stop either
    cluster = default_cluster()
    obs = offer(cluster, [single()])
    agent = MultiActorAgent(cluster, seed=0)
    agent.policies.critic.vector[:] = np.nan
    assert agent.scheduler()(obs) in obs.node_ids
    node_id, _, _ = agent.act(obs, np.random.default_rng(0))
    assert node_id in obs.node_ids


def test_train_rejects_a_nonfinite_critic_before_any_update():
    # the episode's value pass raises, so no optimizer has stepped
    agent = MultiActorAgent(small_cluster(), seed=0)
    agent.policies.critic.vector[:] = np.nan
    with pytest.raises(FloatingPointError):
        train(agent, lambda e: generate(WorkloadConfig(count=2, seed=e)),
              TrainConfig(episodes=2, seed=0))
    opts = agent._optimizers
    assert all(o.t == 0 for o in [opts["group"], *opts["nodes"], opts["critic"]])


def test_episode_value_pass_trains_as_the_per_row_critic(monkeypatch):
    # train's one stacked critic pass per episode against a forward per row:
    # the same values, so bit for bit the same networks after three updates
    import spotsched.agent as agent_mod
    cluster = small_cluster()
    batches = []

    def per_row(net, x, *args, _forward=agent_mod.forward):
        if x.ndim == 2:
            batches.append(len(x))
            return np.array([_forward(net, row) for row in x])
        return _forward(net, x, *args)

    def trained():
        agent = MultiActorAgent(cluster, seed=0)
        train(agent, lambda e: generate(WorkloadConfig(count=3, seed=(100, e))),
              TrainConfig(episodes=3, seed=0))
        p = agent.policies
        return [net.vector for net in (p.group_actor, *p.node_actors, p.critic)]

    stacked = trained()
    monkeypatch.setattr(agent_mod, "forward", per_row)
    rowwise = trained()
    assert len(batches) == 3 and min(batches) > 0 and len(stacked) == len(rowwise) == 4
    assert all(np.array_equal(a, b) for a, b in zip(stacked, rowwise))


def test_sampled_act_calls_each_layer_once(monkeypatch):
    # perfbench times acting through these names; one sampled decision makes
    # one encode, one mask build and two forwards (group, node), none of the critic
    import spotsched.agent as agent_mod
    calls = {"encode": 0, "feasibility_masks": 0, "forward": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(agent_mod, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(agent_mod, name, counted)
    cluster = default_cluster()
    obs = offer(cluster, [single()])
    MultiActorAgent(cluster, seed=0).act(obs, np.random.default_rng(0))
    assert calls == {"encode": 1, "feasibility_masks": 1, "forward": 2}


def test_greedy_scheduler_calls_each_layer_once_and_builds_no_distribution(monkeypatch):
    # one greedy decision: one encode, one mask build and two forwards (group,
    # node), each level's argmax of its logits, and no softmax anywhere
    import spotsched.agent as agent_mod
    import spotsched.nets as nets_mod
    calls = {"encode": 0, "feasibility_masks": 0, "forward": 0, "masked_argmax_row": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(agent_mod, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(agent_mod, name, counted)

    def no_softmax(*args, **kwargs):
        raise AssertionError("a greedy decision built a distribution")
    for module in (agent_mod, nets_mod):
        monkeypatch.setattr(module, "masked_softmax_row", no_softmax)
    cluster = default_cluster()
    obs = offer(cluster, [single()])
    assert MultiActorAgent(cluster, seed=0).scheduler()(obs) in obs.node_ids
    assert calls == {"encode": 1, "feasibility_masks": 1, "forward": 2, "masked_argmax_row": 2}


@pytest.mark.parametrize("scale", [None, 0.3])
def test_greedy_scheduler_picks_the_softmax_argmax_over_an_episode(scale):
    # every offer of a 60-interruptions-per-hour episode, with dead and full
    # nodes among them: the greedy node equals the one that the probabilities'
    # argmax picks at each level, for the untrained agent (None) and for one
    # with every parameter redrawn at that scale
    cluster = default_cluster(interruption_rate_per_hour=60.0, interruption_downtime_s=60.0)
    workflows = generate(WorkloadConfig(count=40, parallelism=(6,), interarrival_range=(4.0, 8.0),
                                        work_range=(100.0, 150.0), timeout=60.0, seed=1))
    agent = MultiActorAgent(cluster, seed=0)
    policies = agent.policies
    if scale is not None:
        rng = np.random.default_rng(5)
        for net in (policies.group_actor, *policies.node_actors):
            net.vector[:] = rng.normal(scale=scale, size=net.vector.size)
    greedy = agent.scheduler()
    offers, dead, picked = 0, 0, set()

    def checked(obs):
        nonlocal offers, dead
        features = encode(obs, agent.scaling)
        group_mask, node_masks = feasibility_masks(obs.fit, agent.layout)
        p = masked_softmax_row(forward(policies.group_actor, features), group_mask)
        g = p.index(max(p))
        p = masked_softmax_row(forward(policies.node_actors[g], features), node_masks[g])
        want = agent.layout.group_nodes[g][p.index(max(p))]
        node_id = greedy(obs)
        assert node_id == want
        offers += 1
        dead += not all(obs.alive)
        picked.add(node_id)
        return node_id

    stats = run_episode(checked, cluster, workflows, seed=[1, 2])
    assert offers > 100 and dead > 10 and stats.interrupted > 0
    assert len(picked) > 1


def test_sampled_act_leaves_its_features_row_unchanged(monkeypatch):
    # forward runs its hidden layers in place: each of a sampled act's two
    # forwards must leave the row it was given, and act returns encode's row
    import spotsched.agent as agent_mod
    unchanged = []

    def checked(net, x, *args, _forward=agent_mod.forward):
        before = x.tobytes()
        out = _forward(net, x, *args)
        unchanged.append(x.tobytes() == before)
        return out
    monkeypatch.setattr(agent_mod, "forward", checked)
    cluster = default_cluster()
    obs = offer(cluster, [single()])
    agent = MultiActorAgent(cluster, seed=0)
    _, _, features = agent.act(obs, np.random.default_rng(0))
    assert unchanged == [True, True]
    assert features.tobytes() == encode(obs, agent.scaling).tobytes()


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


def _collect_rollout(agent, cluster, wfs, seed):
    env = SimEnv(cluster, wfs, seed=seed)
    rng = np.random.default_rng(3)
    rows = []
    obs = env.reset()
    while obs is not None:
        node_id, choice, feats = agent.act(obs, rng)
        fit = obs.fit
        obs, reward, _ = env.step(node_id)
        rows.append((feats, fit, choice.group, choice.node, choice.logp_group,
                     choice.logp_node, reward))
    return rollout(rows, partial(forward, agent.policies.critic))


def test_update_reports_and_steps_optimizers():
    cluster = small_cluster()
    wfs = generate(WorkloadConfig(count=3, seed=4))
    agent = MultiActorAgent(cluster, seed=0)
    report = agent.update(_collect_rollout(agent, cluster, wfs, seed=[1]),
                          np.random.default_rng(0))
    opts = agent._optimizers
    assert opts["critic"].t == EPOCHS and opts["group"].t == EPOCHS
    # every sample chose a group, so some node actor steps in each epoch
    assert all(o.t <= EPOCHS for o in opts["nodes"])
    assert sum(o.t for o in opts["nodes"]) >= EPOCHS
    assert set(report) == {"critic_loss", "group_loss", "node_loss", "clip_fraction", "entropy",
                           "approx_kl"}
    assert all(np.isfinite(v) for v in report.values())


def test_rollout_needs_a_decision():
    with pytest.raises(ValueError):
        rollout([], lambda features: np.zeros(len(features)))


def test_each_update_takes_one_episode(monkeypatch):
    # rows must not leak across episodes: update n sees exactly episode n's decisions
    agent = MultiActorAgent(small_cluster(), seed=0)
    sizes, decisions = [], []
    act, update = MultiActorAgent.act, MultiActorAgent.update

    def counting_act(self, obs, rng=None):
        decisions[-1] += 1
        return act(self, obs, rng)

    def recording_update(self, batch, rng):
        sizes.append(len(batch.groups))
        return update(self, batch, rng)

    def make_workload(episode):
        decisions.append(0)
        return generate(WorkloadConfig(count=2 + episode, seed=(100, episode)))

    monkeypatch.setattr(MultiActorAgent, "act", counting_act)
    monkeypatch.setattr(MultiActorAgent, "update", recording_update)
    train(agent, make_workload, TrainConfig(episodes=3, seed=0))
    assert sizes == decisions and all(sizes)


def test_training_curves_reproducible():
    cluster = small_cluster()
    cfg = TrainConfig(episodes=3, seed=9)
    first = train_run(cluster, WorkloadConfig(count=2), cfg)[1]
    second = train_run(cluster, WorkloadConfig(count=2), cfg)[1]
    assert first == second
    assert [r.episode for r in first] == [0, 1, 2]
    assert all(r.total_cost > 0 for r in first)
    assert all(r.total_reward == -r.total_cost for r in first)


def test_training_curve_carries_update_reports(monkeypatch):
    cluster = small_cluster()
    agent = MultiActorAgent(cluster, seed=0)
    reports = []
    update = agent.update
    monkeypatch.setattr(agent, "update",
                        lambda batch, rng: reports.append(update(batch, rng)) or reports[-1])
    # episode 1's workflow has no task, so it makes no decision and no update
    empty = WorkflowSpec(id="empty", tasks=(), edges=())
    workloads = [[single()], [empty], [single(cpu=2.0, work=50.0)]]
    curve = train(agent, workloads.__getitem__, TrainConfig(episodes=3, seed=0))
    recorded = [{k: getattr(r, k) for k in UPDATE_STATS} for r in curve]
    assert recorded == [reports[0], dict.fromkeys(UPDATE_STATS, 0.0), reports[1]]
    assert len(reports) == 2
    assert all(r["critic_loss"] > 0 and 0.0 <= r["clip_fraction"] <= 1.0 for r in reports)
    # two groups: the group actor's entropy lies in (0, log 2]
    assert all(0.0 < r["entropy"] <= np.log(2) and np.isfinite(r["approx_kl"]) for r in reports)


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
    # the loader fills in the agent MultiActorAgent(cluster) builds, with seed 0 and the
    # cluster's scaling; a saved seed and norm other than those show that it copies both
    cluster = small_cluster()
    agent = MultiActorAgent(cluster, seed=3)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["scaling"]["wait_norm"] = 500.0
    path.write_text(json.dumps(doc), encoding="utf-8")
    clone = load_checkpoint(path, cluster)
    built = MultiActorAgent(cluster)
    nets = lambda p: [p.group_actor, *p.node_actors, p.critic]
    for mine, theirs, fresh in zip(nets(agent.policies), nets(clone.policies),
                                   nets(built.policies)):
        assert mine.sizes == theirs.sizes
        for a, b in zip(mine.params, theirs.params):
            assert np.array_equal(a, b)
        assert not np.array_equal(theirs.vector, fresh.vector)
    assert clone.scaling == replace(agent.scaling, wait_norm=500.0)
    assert clone.scaling != built.scaling
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
    group_mask = [True, True]
    before = masked_softmax_row(forward(clone.policies.group_actor, feats), group_mask)
    value_before = forward(clone.policies.critic, feats)
    batch = _collect_rollout(clone, cluster, generate(WorkloadConfig(count=3, seed=4)), seed=[1])
    clone.update(batch, np.random.default_rng(0))
    assert masked_softmax_row(forward(clone.policies.group_actor, feats), group_mask) != before
    assert forward(clone.policies.critic, feats) != value_before


def test_optimizers_are_built_with_the_agent(tmp_path):
    cluster = small_cluster()
    agent = MultiActorAgent(cluster, seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(agent, path)
    for built in (agent, load_checkpoint(path, cluster)):
        p, opts = built.policies, built._optimizers
        nets = [p.group_actor, *p.node_actors, p.critic]
        optimizers = [opts["group"], *opts["nodes"], opts["critic"]]
        assert len(optimizers) == len(nets) == 4
        for net, opt in zip(nets, optimizers):
            assert opt.lr == LEARNING_RATE and opt.t == 0
            assert opt.m.shape == opt.v.shape == net.vector.shape
            assert not opt.m.any() and not opt.v.any()


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
    # below math.inf as an int, but no float holds it
    pytest.param("cpu_norm", 10**400, "cpu_norm", id="cpu_norm-401-digit-int"),
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


@pytest.mark.parametrize("norm", ["cpu_norm", "mem_norm", "cost_norm"])
def test_checkpoint_refuses_a_norm_that_makes_a_node_feature_infinite(tmp_path, norm):
    # a valid norm on its own, but the cluster's figures divided by it overflow to inf
    cluster = small_cluster()
    path = tmp_path / "ck.json"
    save_checkpoint(MultiActorAgent(cluster, seed=0), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["scaling"][norm] = 5e-324
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"checkpoint scaling: {norm} 5e-324 makes node 's0'"):
        load_checkpoint(path, cluster)


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


@pytest.mark.parametrize("keys,value,where", [
    (("format_version",), True, "format_version"),
    (("format_version",), 1.0, "format_version"),
    (("groups", "spot"), 5, "groups: spot"),
    (("networks", "group_actor", "policy_head"), 1, "network group_actor: policy_head"),
    (("networks", "critic", "sizes"), [58.0, 64.0, 64.0, 1.0], "network critic: sizes"),
    (("networks", "critic", "weights", 0, 0, 0), True, "network critic: weights[0]"),
    (("networks", "critic", "weights", 0, 0, 0), "0.5", "network critic: weights[0]"),
    (("networks", "critic", "biases", 1, 0), True, "network critic: biases[1]"),
    (("networks", "critic", "biases", 1, 0), "0.5", "network critic: biases[1]"),
    (("networks", "node_actors", 1, "weights", 2, 0, 0), 10**400,
     "network node_actors[1]: weights[2]"),
], ids=["version-true", "version-float", "spot-group-int", "policy-head-int", "float-sizes",
        "weight-true", "weight-string", "bias-true", "bias-string", "weight-401-digit-int"])
def test_checkpoint_rejects_mistyped_values(tmp_path, keys, value, where):
    """Values that == and numpy's casts would let through, or that would raise a raw
    TypeError or OverflowError, are ConfigErrors naming the network and field."""
    cluster = default_cluster()
    path = tmp_path / "ck.json"
    save_checkpoint(MultiActorAgent(cluster, seed=0), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    *parents, key = keys
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_checkpoint(path, cluster)
