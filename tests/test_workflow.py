"""Timing/cost arithmetic and DAG plumbing."""
import json
import math

import pytest
from hypothesis import given, strategies as st

from spotsched.errors import ConfigError, DagCycleError, DagReferenceError
from spotsched.workflow import (
    EdgeSpec,
    Outcome,
    TaskSpec,
    WorkflowSpec,
    computation_time,
    load_workflow,
    save_workflow,
    task_cost,
    task_timing,
    transmission_time,
    validate_dag,
    workflow_from_dict,
    workflow_stats,
    workflow_to_dict,
)


def diamond():
    tasks = tuple(TaskSpec(id=t, cpu_req=1, mem_req=1, work=10) for t in "abcd")
    edges = (
        EdgeSpec("a", "b", 5),
        EdgeSpec("a", "c", 5),
        EdgeSpec("b", "d", 5),
        EdgeSpec("c", "d", 5),
    )
    return WorkflowSpec(id="wf", tasks=tasks, edges=edges)


def test_computation_time():
    assert computation_time(100, 2) == 50.0
    assert computation_time(0, 5) == 0.0
    with pytest.raises(ValueError):
        computation_time(100, 0)
    with pytest.raises(ValueError):
        computation_time(-1, 2)


def test_transmission_time():
    assert transmission_time(200, 100) == 2.0
    assert transmission_time(200, 100, same_node=True) == 0.0
    with pytest.raises(ValueError):
        transmission_time(200, 0)
    with pytest.raises(ValueError):
        transmission_time(-1, 100)


def test_task_timing_components():
    t = task_timing(start=3.0, compute=4.0, wait=2.0, pred_transfers=[0.5, 2.0, 1.0], cost=9.0)
    assert t.max_transfer == 2.0
    assert t.delay == 8.0
    assert t.finish == 11.0
    assert t.cost == 9.0


def test_task_timing_no_predecessors():
    t = task_timing(start=0.0, compute=1.0, wait=0.0)
    assert t.max_transfer == 0.0
    assert t.finish == 1.0


def test_task_timing_rejects_negative():
    with pytest.raises(ValueError):
        task_timing(start=-1.0, compute=0.0, wait=0.0)
    with pytest.raises(ValueError):
        task_timing(start=0.0, compute=0.0, wait=0.0, pred_transfers=[-0.1])


@given(
    start=st.floats(0, 1e6),
    compute=st.floats(0, 1e6),
    wait=st.floats(0, 1e6),
    transfers=st.lists(st.floats(0, 1e4), max_size=5),
)
def test_task_timing_totals(start, compute, wait, transfers):
    t = task_timing(start=start, compute=compute, wait=wait, pred_transfers=transfers)
    assert t.delay == compute + wait + t.max_transfer
    assert t.finish == start + t.delay
    if transfers:
        assert t.max_transfer == max(transfers)


def test_task_cost():
    # one hour of spot t4g.large, half an hour of on-demand t4g.2xlarge
    assert task_cost(3600.0, 0.033 / 3600) == pytest.approx(0.033, rel=1e-12)
    assert task_cost(1800.0, 0.2688 / 3600) == pytest.approx(0.1344, rel=1e-12)
    assert task_cost(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        task_cost(-1.0, 1.0)
    with pytest.raises(ValueError):
        task_cost(1.0, -1.0)


def test_workflow_stats_aggregates():
    a = task_timing(start=0, compute=5, wait=0, cost=1.5)
    b = task_timing(start=5, compute=3, wait=1, pred_transfers=[2.0], cost=0.5)
    stats = workflow_stats({"a": a, "b": b}, Outcome.COMPLETED)
    assert stats.makespan == b.finish == 11.0
    assert stats.cost == 2.0
    assert stats.outcome is Outcome.COMPLETED
    # iterable input works too, and the empty case stays at zero
    assert workflow_stats([a], Outcome.COMPLETED).makespan == 5.0
    empty = workflow_stats({}, Outcome.FAILED_TIMEOUT)
    assert empty.makespan == 0.0 and empty.cost == 0.0


def test_validate_dag_accepts_diamond():
    validate_dag(diamond())


def test_validate_dag_cycle():
    tasks = tuple(TaskSpec(id=t, cpu_req=1, mem_req=1, work=1) for t in "abc")
    edges = (EdgeSpec("a", "b"), EdgeSpec("b", "c"), EdgeSpec("c", "b"))
    with pytest.raises(DagCycleError) as err:
        validate_dag(WorkflowSpec(id="w", tasks=tasks, edges=edges))
    assert set(err.value.edge) <= {"b", "c"}


def test_validate_dag_unknown_endpoint():
    tasks = (TaskSpec(id="a", cpu_req=1, mem_req=1, work=1),)
    wf = WorkflowSpec(id="w", tasks=tasks, edges=(EdgeSpec("a", "ghost"),))
    with pytest.raises(DagReferenceError):
        validate_dag(wf)


def test_validate_dag_duplicate_ids():
    tasks = (
        TaskSpec(id="a", cpu_req=1, mem_req=1, work=1),
        TaskSpec(id="a", cpu_req=1, mem_req=1, work=1),
    )
    with pytest.raises(DagReferenceError):
        validate_dag(WorkflowSpec(id="w", tasks=tasks, edges=()))


def test_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(id="t", cpu_req=0, mem_req=1, work=1)
    with pytest.raises(ValueError):
        TaskSpec(id="t", cpu_req=1, mem_req=-1, work=1)
    with pytest.raises(ValueError):
        TaskSpec(id="t", cpu_req=1, mem_req=1, work=-1)
    with pytest.raises(ValueError):
        EdgeSpec(src="a", dst="a")
    with pytest.raises(ValueError):
        EdgeSpec(src="a", dst="b", data_mb=-1)
    with pytest.raises(ValueError):
        WorkflowSpec(id="w", tasks=(), edges=(), timeout=0)
    with pytest.raises(ValueError):
        WorkflowSpec(id="w", tasks=(), edges=(), arrival_time=-1)
    # zero work is fine: no-op tasks carry DAG structure
    TaskSpec(id="t", cpu_req=1, mem_req=1, work=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, name", [
    (lambda v: TaskSpec(id="t", cpu_req=v, mem_req=1, work=1), "cpu_req"),
    (lambda v: TaskSpec(id="t", cpu_req=1, mem_req=v, work=1), "mem_req"),
    (lambda v: TaskSpec(id="t", cpu_req=1, mem_req=1, work=v), "work"),
    (lambda v: EdgeSpec(src="a", dst="b", data_mb=v), "data_mb"),
    (lambda v: WorkflowSpec(id="w", tasks=(), edges=(), arrival_time=v), "arrival_time"),
    (lambda v: WorkflowSpec(id="w", tasks=(), edges=(), timeout=v), "timeout"),
])
def test_specs_reject_non_finite(make, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(value)


def test_outcome_labels():
    assert Outcome.COMPLETED.value == "completed"
    assert Outcome.FAILED_INTERRUPTED.value == "failed-interrupted"
    assert Outcome.FAILED_TIMEOUT.value == "failed-timeout"


def test_workflow_json_round_trip(tmp_path):
    wf = WorkflowSpec(
        id="w",
        tasks=diamond().tasks,
        edges=diamond().edges,
        arrival_time=4.0,
        timeout=100.0,
    )
    path = tmp_path / "w.json"
    save_workflow(wf, path)
    assert load_workflow(path) == wf


def test_workflow_dict_rejects_unknown_and_missing():
    doc = workflow_to_dict(diamond())
    extra = dict(doc)
    extra["surprise"] = 1
    with pytest.raises(ConfigError):
        workflow_from_dict(extra)
    missing = dict(doc)
    del missing["timeout"]
    with pytest.raises(ConfigError):
        workflow_from_dict(missing)
    bad_task = json.loads(json.dumps(doc))
    bad_task["tasks"][0]["nope"] = 1
    with pytest.raises(ConfigError):
        workflow_from_dict(bad_task)


@pytest.mark.parametrize("edit", [
    lambda d: d["tasks"][0].update(cpu=0),      # ValueError from TaskSpec
    lambda d: d["tasks"][0].update(cpu=None),   # TypeError from float()
    lambda d: d.update(tasks=5),                # TypeError from iteration
    lambda d: d["edges"][0].update(data_mb="x"),
], ids=["cpu-zero", "cpu-null", "tasks-int", "data-mb-str"])
def test_workflow_dict_bad_values_are_config_errors(edit):
    doc = workflow_to_dict(diamond())
    edit(doc)
    with pytest.raises(ConfigError, match="^workflow 'wf': "):
        workflow_from_dict(doc)


def test_workflow_dict_validates_dag():
    tasks = tuple(TaskSpec(id=t, cpu_req=1, mem_req=1, work=1) for t in "ab")
    cyclic = WorkflowSpec(id="w", tasks=tasks, edges=(EdgeSpec("a", "b"), EdgeSpec("b", "a")))
    with pytest.raises(DagCycleError):
        workflow_from_dict(workflow_to_dict(cyclic))


def test_load_workflow_bad_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_workflow(path)


def test_load_workflow_rejects_nan(tmp_path):
    doc = workflow_to_dict(diamond())
    doc["tasks"][0]["cpu"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert '"cpu": NaN' in path.read_text(encoding="utf-8")
    with pytest.raises(ConfigError, match="NaN") as err:
        load_workflow(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("value, literal", [(math.inf, "Infinity"), (-math.inf, "-Infinity")])
def test_load_workflow_rejects_infinity(tmp_path, value, literal):
    doc = workflow_to_dict(diamond())
    doc["tasks"][0]["cpu"] = value
    doc["timeout"] = value
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert f'"cpu": {literal}' in path.read_text(encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{literal} is not a valid number") as err:
        load_workflow(path)
    assert str(path) in str(err.value)
