"""Spec validation, DAG checks, outcomes and the workflow file format."""
import json
import math
import re
from dataclasses import replace

import pytest

from spotsched.cluster import default_cluster
from spotsched.engine import SimEnv
from spotsched.errors import ConfigError, DagCycleError, DagReferenceError
from spotsched.workflow import (
    EdgeSpec,
    Outcome,
    TaskSpec,
    WorkflowSpec,
    load_workflow,
    save_workflow,
    seed_list,
    workflow_from_dict,
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


def test_validate_dag_accepts_diamond():
    wf = diamond()
    a, b, c, d = wf.tasks
    e_ab, e_ac, e_bd, e_cd = wf.edges
    assert wf.task_map == {"a": a, "b": b, "c": c, "d": d}
    assert wf.preds == {"a": [], "b": [e_ab], "c": [e_ac], "d": [e_bd, e_cd]}
    assert wf.succs == {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}


def test_validate_dag_cycle():
    tasks = tuple(TaskSpec(id=t, cpu_req=1, mem_req=1, work=1) for t in "abc")
    edges = (EdgeSpec("a", "b"), EdgeSpec("b", "c"), EdgeSpec("c", "b"))
    with pytest.raises(DagCycleError) as err:
        WorkflowSpec(id="w", tasks=tasks, edges=edges)
    assert set(err.value.edge) <= {"b", "c"}
    # c hangs off the cycle a <-> b; the reported edge is on the cycle itself
    edges = (EdgeSpec("b", "c"), EdgeSpec("a", "b"), EdgeSpec("b", "a"))
    with pytest.raises(DagCycleError) as err:
        WorkflowSpec(id="w", tasks=tasks, edges=edges)
    assert err.value.edge in {("a", "b"), ("b", "a")}


def test_validate_dag_unknown_endpoint():
    tasks = (TaskSpec(id="a", cpu_req=1, mem_req=1, work=1),)
    with pytest.raises(DagReferenceError):
        WorkflowSpec(id="w", tasks=tasks, edges=(EdgeSpec("a", "ghost"),))


def test_validate_dag_duplicate_ids():
    tasks = (
        TaskSpec(id="a", cpu_req=1, mem_req=1, work=1),
        TaskSpec(id="a", cpu_req=1, mem_req=1, work=1),
    )
    with pytest.raises(DagReferenceError):
        WorkflowSpec(id="w", tasks=tasks, edges=())


def test_graph_tables_leave_equality_alone_and_replace_rechecks():
    first, second = diamond(), diamond()
    assert first is not second and first.preds is not second.preds
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) and "preds" not in repr(first)
    with pytest.raises(DagCycleError):
        replace(first, edges=first.edges + (EdgeSpec("d", "a"),))


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


def test_seed_list_refuses_negative_seeds():
    assert seed_list(3) == [3] and seed_list((0, 5)) == [0, 5]
    for seed in (-1, (4, -1), [-1]):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
            seed_list(seed)


@pytest.mark.parametrize("seed", [True, [1.5, 2], "12"])
def test_seed_list_refuses_non_integers(seed):
    # a bool is not a seed, a float is not truncated, and a string is not a digit sequence
    with pytest.raises(ConfigError, match="seed must be an integer or a sequence of integers"):
        seed_list(seed)
    with pytest.raises(ConfigError, match="seed must be an integer or a sequence of integers"):
        SimEnv(default_cluster(), [diamond()], seed=seed)


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


@pytest.mark.parametrize("edit, names", [
    (lambda d: d["tasks"][0].update(cpu=0), "task 'a': cpu_req"),  # ValueError from TaskSpec
    (lambda d: d["tasks"][0].update(cpu=None), "task 'a': cpu"),
    (lambda d: d.update(tasks=5), ""),                              # TypeError from iteration
    (lambda d: d["edges"][0].update(data_mb="x"), "edge 'a'->'b': data_mb"),
    (lambda d: d["tasks"][1].update(cpu=True), "task 'b': cpu"),
    (lambda d: d["tasks"][2].update(mem_gb="8"), "task 'c': mem_gb"),
    (lambda d: d["tasks"][3].update(work=False), "task 'd': work"),
    (lambda d: d["edges"][3].update(data_mb=True), "edge 'c'->'d': data_mb"),
    (lambda d: d.update(timeout="60"), "timeout"),
    (lambda d: d.update(arrival_time=True), "arrival_time"),
    (lambda d: d["tasks"][0].update(cpu=10**400), "task 'a': cpu is too large"),
], ids=["cpu-zero", "cpu-null", "tasks-int", "data-mb-str", "cpu-bool", "mem-str",
        "work-bool", "data-mb-bool", "timeout-str", "arrival-bool", "cpu-huge-int"])
def test_workflow_dict_bad_values_are_config_errors(edit, names):
    # each bad value is refused, naming its task, edge or field, rather than coerced
    doc = workflow_to_dict(diamond())
    edit(doc)
    with pytest.raises(ConfigError, match="^workflow 'wf': ") as err:
        workflow_from_dict(doc)
    assert names in str(err.value)


def test_workflow_dict_validates_dag():
    doc = workflow_to_dict(diamond())
    doc["edges"].append({"src": "d", "dst": "a", "data_mb": 0.0})
    with pytest.raises(DagCycleError):
        workflow_from_dict(doc)


def test_load_workflow_bad_json(tmp_path, unreadable_json):
    path = tmp_path / "x.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_workflow(path)
    for path in unreadable_json.values():
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
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
