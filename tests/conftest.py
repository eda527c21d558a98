"""Shared fixtures.

The trained agent and the four-way comparison are expensive (seconds to
minutes), so they are built once per session and shared by every test
that needs them.
"""
import time

import pytest
from hypothesis import HealthCheck, settings

from spotsched.cluster import default_cluster
from spotsched.harness import compare, train_run
from spotsched.ppo import TrainConfig
from spotsched.workload import WorkloadConfig

# Property tests share the machine with a minutes-long training fixture;
# wall-clock health checks flake under that load, so judge examples only
# on whether the property holds.
settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

EVAL_SEEDS = [1, 2, 3, 4, 5]


@pytest.fixture
def unreadable_json(tmp_path):
    """By kind, a path that no reader can parse as JSON, each alone in its own directory."""
    paths = {kind: tmp_path / kind / "x.json" for kind in ("not-utf8", "too-deep", "directory")}
    for path in paths.values():
        path.parent.mkdir()
    paths["not-utf8"].write_bytes(b"\xff\xfe{}")
    paths["too-deep"].write_bytes(b"[" * 200_000)  # past the parser's recursion limit
    paths["directory"].mkdir()
    return paths


@pytest.fixture(scope="session")
def builtin_cluster():
    return default_cluster()


@pytest.fixture(scope="session")
def trained(builtin_cluster):
    start = time.perf_counter()
    agent, curve = train_run(builtin_cluster, WorkloadConfig(), TrainConfig(seed=0))
    elapsed = time.perf_counter() - start
    return agent, curve, elapsed


@pytest.fixture(scope="session")
def comparison(builtin_cluster, trained):
    agent, _, _ = trained
    rows, summaries = compare(
        ["agent", "random", "k8-default", "on-demand"],
        builtin_cluster,
        WorkloadConfig(),
        EVAL_SEEDS,
        agent=agent,
    )
    return rows, summaries
