"""Evaluation rows, summaries, CSV output, and the training driver."""
import csv

import numpy as np
import pytest

from spotsched.agent import EpisodeRecord
from spotsched.cluster import ON_DEMAND, SPOT, ClusterSpec, NodeSpec, default_cluster
from spotsched.errors import ConfigError
from spotsched.harness import (
    COMPARISON_HEADER,
    CURVE_HEADER,
    MetricsRow,
    SCHEDULER_NAMES,
    compare,
    evaluate_rows,
    format_summary_table,
    load_workload_source,
    make_training_workloads,
    summarize,
    train_run,
    workload_for_seed,
    write_comparison_csv,
    write_curve_csv,
)
from spotsched.ppo import TrainConfig
from spotsched.workload import WorkloadConfig, generate
from spotsched.workflow import save_workflow


def tiny_cluster():
    return ClusterSpec(nodes=(
        NodeSpec(id="s0", flavor="f", cpu=4.0, mem_gb=16.0, rate=4.0,
                 pricing_class=SPOT, price_per_hour=0.08),
        NodeSpec(id="o0", flavor="f", cpu=4.0, mem_gb=16.0, rate=4.0,
                 pricing_class=ON_DEMAND, price_per_hour=0.16),
    ), interruption_rate_per_hour=0.0)


def test_workload_for_seed_config_vs_list():
    cfg = WorkloadConfig(count=3)
    a = workload_for_seed(cfg, 1)
    b = workload_for_seed(cfg, 1)
    c = workload_for_seed(cfg, 2)
    assert a == b and a != c
    fixed = generate(WorkloadConfig(count=2, seed=0))
    assert workload_for_seed(fixed, 1) == fixed
    assert workload_for_seed(fixed, 9) == fixed


def test_load_workload_source_directory(tmp_path):
    wfs = generate(WorkloadConfig(count=3, seed=1))
    d = tmp_path / "wl"
    d.mkdir()
    for wf in wfs:
        save_workflow(wf, d / f"{wf.id}.json")
    loaded = load_workload_source(d)
    assert list(loaded) == sorted(wfs, key=lambda w: (w.arrival_time, w.id))
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(ConfigError):
        load_workload_source(empty)


def test_load_workload_source_rejects_duplicates(tmp_path):
    wf = generate(WorkloadConfig(count=1, seed=1))[0]
    d = tmp_path / "wl"
    d.mkdir()
    save_workflow(wf, d / "a.json")
    save_workflow(wf, d / "b.json")
    with pytest.raises(ConfigError):
        load_workload_source(d)


def test_load_workload_source_config_file(tmp_path):
    path = tmp_path / "wl.json"
    path.write_text('{"count": 2}', encoding="utf-8")
    src = load_workload_source(path)
    assert isinstance(src, WorkloadConfig)
    assert src.count == 2


def test_evaluate_rows_and_summary():
    cluster = tiny_cluster()
    rows = evaluate_rows("k8-default", cluster, WorkloadConfig(count=3), [1, 2])
    assert [r.seed for r in rows] == [1, 2]
    assert all(r.scheduler == "k8-default" for r in rows)
    assert all(r.completed == 3 for r in rows)
    summary = summarize(rows)
    costs = np.array([r.total_cost for r in rows])
    assert summary.scheduler == "k8-default"
    assert summary.mean_cost == pytest.approx(costs.mean())
    assert summary.std_cost == pytest.approx(costs.std())
    assert summary.mean_completed == 3.0


def test_evaluate_is_deterministic_per_seed():
    cluster = tiny_cluster()
    one = evaluate_rows("random", cluster, WorkloadConfig(count=2), [4, 5])
    two = evaluate_rows("random", cluster, WorkloadConfig(count=2), [4, 5])
    assert one == two


def test_summarize_requires_rows():
    with pytest.raises(ValueError):
        summarize([])


def test_compare_orders_by_cost_and_validates():
    cluster = tiny_cluster()
    rows, summaries = compare(["random", "on-demand"], cluster, WorkloadConfig(count=2), [1, 2])
    assert len(rows) == 4
    assert {r.scheduler for r in rows} == {"random", "on-demand"}
    assert [s.mean_cost for s in summaries] == sorted(s.mean_cost for s in summaries)
    with pytest.raises(ConfigError):
        compare(["nope"], cluster, WorkloadConfig(count=1), [1])
    with pytest.raises(ConfigError):
        compare(["random"], cluster, WorkloadConfig(count=1), [])
    with pytest.raises(ConfigError):
        evaluate_rows("agent", cluster, WorkloadConfig(count=1), [1])  # no checkpoint


def test_scheduler_names():
    assert SCHEDULER_NAMES == ("agent", "random", "k8-default", "on-demand")


def test_comparison_csv_round_trip(tmp_path):
    rows = [
        MetricsRow("random", 1, 0.125, 33.25, 3, 0, 0),
        MetricsRow("random", 2, 1 / 3, 12.5, 2, 1, 0),
    ]
    path = tmp_path / "cmp.csv"
    write_comparison_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == COMPARISON_HEADER
    assert got[1][0] == "random" and got[1][1] == "1"
    assert float(got[2][2]) == 1 / 3  # repr keeps full precision


def test_curve_csv(tmp_path):
    curve = [EpisodeRecord(0, -0.5, 0.5, 10.0, 2, 0, 0), EpisodeRecord(1, -0.25, 0.25, 8.0, 2, 0, 0)]
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == CURVE_HEADER
    assert [row[0] for row in got[1:]] == ["0", "1"]
    assert float(got[1][2]) == 0.5


def test_format_summary_table():
    summaries = [
        summarize([MetricsRow("on-demand", 1, 0.4, 30.0, 3, 0, 0)]),
        summarize([MetricsRow("random", 1, 0.9, 50.0, 2, 1, 0)]),
    ]
    table = format_summary_table(summaries)
    lines = table.splitlines()
    assert "scheduler" in lines[0] and "mean_cost" in lines[0]
    assert lines[2].startswith("on-demand")
    assert "random" in table


def test_make_training_workloads_vary_by_episode():
    factory = make_training_workloads(WorkloadConfig(count=2), seed=0)
    assert factory(0) == factory(0)
    assert factory(0) != factory(1)


def test_train_run_on_fixed_workload_list():
    cluster = tiny_cluster()
    fixed = generate(WorkloadConfig(count=2, seed=3))
    agent, curve = train_run(cluster, fixed, TrainConfig(episodes=2, seed=1))
    assert len(curve) == 2
    assert agent.cluster is cluster
    with pytest.raises(ConfigError):
        train_run(cluster, [], TrainConfig(episodes=1))
