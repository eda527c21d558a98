"""Synthetic fork-join workload generation."""
import json
import math
import re

import numpy as np
import pytest

from spotsched.errors import ConfigError
from spotsched.workload import MAX_TASKS, WorkloadConfig, config_from_dict, generate, load_config


def test_generate_counts_and_shape():
    wfs = generate(WorkloadConfig(count=3, parallelism=(3,), seed=0))
    assert [wf.id for wf in wfs] == ["wf-000", "wf-001", "wf-002"]
    for wf in wfs:
        assert len(wf.tasks) == 5  # source + 3 maps + sink
        assert len(wf.edges) == 6
        ids = [t.id for t in wf.tasks]
        assert ids[0] == "source" and ids[-1] == "sink"


def test_generate_is_deterministic():
    first = generate(WorkloadConfig(count=4, seed=9))
    second = generate(WorkloadConfig(count=4, seed=9))
    assert first == second
    other = generate(WorkloadConfig(count=4, seed=10))
    assert first != other


def test_map_tasks_stay_within_configured_ranges():
    cfg = WorkloadConfig(count=30, parallelism=(4, 8), work_range=(50, 200), seed=5)
    fanouts = set()
    for wf in generate(cfg):
        maps = [t for t in wf.tasks if t.id.startswith("map-")]
        fanouts.add(len(maps))
        assert all(50 <= t.work <= 200 for t in maps)
        assert all(t.cpu_req == 1.0 and t.mem_req == 2.0 for t in maps)
        assert all(e.data_mb == 50.0 for e in wf.edges)
        assert wf.timeout == 3600.0
    assert fanouts <= {4, 8} and len(fanouts) == 2


def test_interarrival_gaps_are_uniform():
    wfs = generate(WorkloadConfig(count=10_000, parallelism=(1,), seed=77))
    arrivals = [wf.arrival_time for wf in wfs]
    gaps = np.diff([0.0] + arrivals)
    assert (gaps >= 5.0).all() and (gaps <= 30.0).all()
    assert gaps.mean() == pytest.approx(17.5, rel=0.02)


def test_anchor_tasks_are_cheap():
    wf = generate(WorkloadConfig(count=1, seed=0))[0]
    src = wf.task_map["source"]
    sink = wf.task_map["sink"]
    for t in (src, sink):
        assert (t.cpu_req, t.mem_req, t.work) == (0.1, 0.1, 0.1)


def test_config_validation():
    with pytest.raises(ConfigError):
        WorkloadConfig(count=0)
    with pytest.raises(ConfigError):
        WorkloadConfig(parallelism=())
    with pytest.raises(ConfigError):
        WorkloadConfig(parallelism=(0,))
    with pytest.raises(ConfigError):
        WorkloadConfig(work_range=(0, 10))
    with pytest.raises(ConfigError):
        WorkloadConfig(work_range=(10, 5))
    with pytest.raises(ConfigError):
        WorkloadConfig(interarrival_range=(-1, 3))
    with pytest.raises(ConfigError):
        WorkloadConfig(data_mb=-1)
    with pytest.raises(ConfigError):
        WorkloadConfig(cpu_req=0)
    with pytest.raises(ConfigError):
        WorkloadConfig(mem_req=0)
    with pytest.raises(ConfigError):
        WorkloadConfig(timeout=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [
    "data_mb", "cpu_req", "mem_req", "timeout", "work_range", "interarrival_range",
])
def test_config_rejects_non_finite(name, value):
    field = {"work_range": (50.0, value), "interarrival_range": (value, 30.0)}.get(name, value)
    with pytest.raises(ConfigError, match=name):
        WorkloadConfig(**{name: field})


def test_config_file_rejects_infinity(tmp_path):
    path = tmp_path / "wl.json"
    path.write_text('{"timeout": Infinity}', encoding="utf-8")
    with pytest.raises(ConfigError, match="Infinity is not a valid number"):
        load_config(path)


def test_scalar_parallelism_normalized():
    assert WorkloadConfig(parallelism=5).parallelism == (5,)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "wl.json"
    path.write_text(
        json.dumps({"count": 7, "parallelism": [2, 3], "cpu": 2.0, "mem_gb": 4.0}),
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.count == 7 and cfg.parallelism == (2, 3)
    assert cfg.cpu_req == 2.0 and cfg.mem_req == 4.0
    assert cfg.work_range == (50.0, 200.0)  # defaults fill the rest


def test_config_seed_is_a_tuple():
    cfg = config_from_dict({"seed": [3, 4]})
    assert cfg.seed == (3, 4) and WorkloadConfig(seed=7).seed == (7,)
    assert hash(cfg) == hash(WorkloadConfig(seed=[3, 4])) == hash(WorkloadConfig(seed=(3, 4)))


@pytest.mark.parametrize("doc", [
    {"count": "x"}, {"parallelism": ["a"]}, {"work_range": [1.0]}, {"timeout": None},
    {"count": 2.5}, {"count": True}, {"seed": "x"}, {"seed": 1.5}, {"seed": [1, "x"]},
    {"seed": [True]}, {"seed": None}, {"parallelism": "48"}, {"parallelism": [2.5, 4]},
    {"parallelism": True}, {"parallelism": [4, True]}, {"timeout": True}, {"cpu": True},
    {"mem_gb": False}, {"data_mb": True}, {"timeout": "60"}, {"work_range": [True, 2]},
    {"interarrival_range": ["5", "30"]}, {"work_range": 5}, {"interarrival_range": "12"},
    {"work_range": [1, 2, 3]}, {"timeout": 10**400}, {"work_range": [1, 10**400]},
    {"interarrival_range": [10**400, 10**401]},
    # generate's last arrival, up to count * hi, would overflow to inf
    {"interarrival_range": [1e308, 1e308], "count": 3},
    {"interarrival_range": [5e-324, 5e-324], "count": 10**400},
    # just past the task budget, count * (max(parallelism) + 2), at the default count 20
    # and the default parallelism (4, 8)
    {"parallelism": [MAX_TASKS // 20 - 1]}, {"count": MAX_TASKS // 10 + 1},
    # each value modest alone, together 1000 * (1000 + 2) task specs
    {"count": 1000, "parallelism": [1000]},
], ids=["count-str", "parallelism-str", "work-range-short", "timeout-null",
        "count-float", "count-bool", "seed-str", "seed-float", "seed-list-str",
        "seed-list-bool", "seed-null", "parallelism-digits", "parallelism-float",
        "parallelism-bool", "parallelism-list-bool", "timeout-bool", "cpu-bool",
        "mem-bool", "data-mb-bool", "timeout-str", "work-range-bool", "interarrival-str",
        "work-range-scalar", "interarrival-digits", "work-range-long",
        "timeout-huge-int", "work-range-huge-int", "interarrival-huge-int",
        "interarrival-overflow", "interarrival-count-past-floats", "parallelism-huge",
        "count-past-bound", "count-and-parallelism-past-bound"])
def test_config_dict_bad_values_are_config_errors(doc):
    # each bad value is refused, naming its field, rather than coerced
    with pytest.raises(ConfigError, match="^workload config: ") as info:
        config_from_dict(doc)
    key = next(iter(doc))
    field = {"cpu": "cpu_req", "mem_gb": "mem_req"}.get(key, key)
    assert field in str(info.value)


def test_config_bounds_are_accepted():
    config = WorkloadConfig(count=MAX_TASKS // 10, parallelism=(1, 8))  # exactly MAX_TASKS
    assert (config.count, config.parallelism) == (MAX_TASKS // 10, (1, 8))


def test_config_file_rejects_unknown_and_bad_json(tmp_path, unreadable_json):
    with pytest.raises(ConfigError):
        config_from_dict({"workflows": 3})
    path = tmp_path / "wl.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    for path in unreadable_json.values():
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_config(path)
