"""Smoke test of the benchmark at tiny sizes.

Runs every workload path untraced and traced, and the per-episode output
check, in a few seconds:

    python -m pytest perfbench/test_smoke.py -q
"""
import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.use_repo_sources()

import bench  # noqa: E402
from probes import EpisodeProbe, patched  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(wl):
    """The same code paths at a size that runs in well under a second."""
    return replace(wl, count=min(wl.count, 6), episodes=min(wl.episodes, 2))


def _patch_points():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in
            bench.trace_targets(bench.Tracer()) + EpisodeProbe().hooks(bench.engine_mod.SimEnv)]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_runs_checked(name, trace):
    before = _patch_points()
    result = bench.run(tiny(bench.WORKLOADS[name]), bench.DEFAULT_SEED, 0, trace)
    assert _patch_points() == before  # every wrapper was taken off again

    assert result.correct, result.info["problems"]
    assert result.failed == 0 and result.attempted >= 1
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result.metrics) == set(units)
    assert all(math.isfinite(v) for v in result.metrics.values())
    line = json.loads(run.result_line(result, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (result.tracer is not None) == trace


def test_tables_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in bench.WORKLOADS.items()}
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == table


def test_output_check_catches_broken_accounting():
    wl = tiny(bench.WORKLOADS["sim-backlog"])
    inputs = bench.setup(wl, bench.DEFAULT_SEED)
    probe = EpisodeProbe()
    with patched(probe.hooks(bench.engine_mod.SimEnv)):
        rows, _ = bench.harness_mod.compare(
            ["random"], inputs.cluster, inputs.workflows, [bench.DEFAULT_SEED])
    ep, row = probe.episodes[0], rows[0]
    assert bench.check_episode(ep, row) == []

    assert bench.check_episode(replace(ep, reward_sum=ep.reward_sum + 1e-3), row)
    assert bench.check_episode(replace(ep, submitted=ep.submitted + 1), row)
    assert bench.check_episode(ep, replace(row, completed=row.completed - 1))
    nan_stats = replace(ep.stats, mean_execution_time=math.nan)
    problems = bench.check_episode(replace(ep, stats=nan_stats), row)
    assert any("non-finite" in p for p in problems)


def test_refuses_to_run_without_package_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "bench.py", "probes.py"):
        (tmp_path / "perfbench" / f).write_text((run.ROOT / "perfbench" / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-ppo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
