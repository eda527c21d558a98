"""End-user command behavior via the click runner."""
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from spotsched.agent import MultiActorAgent, save_checkpoint
from spotsched.cli import main
from spotsched.cluster import default_cluster
from spotsched.workflow import load_workflow, workflow_to_dict
from spotsched.workload import WorkloadConfig, generate

EXAMPLE_CLUSTER = Path(__file__).resolve().parent.parent / "examples" / "cluster.json"


def invoke(args):
    return CliRunner().invoke(main, args)


def test_help_lists_commands():
    result = invoke(["--help"])
    assert result.exit_code == 0
    for cmd in ("train", "compare", "generate"):
        assert cmd in result.output


def test_generate_writes_workflow_files(tmp_path):
    out = tmp_path / "wl"
    result = invoke(["generate", "--count", "4", "--seed", "9", "--out", str(out)])
    assert result.exit_code == 0, result.output
    files = sorted(out.glob("*.json"))
    assert [f.name for f in files] == [f"wf-{i:03d}.json" for i in range(4)]
    for f in files:
        load_workflow(f)
    assert "wrote 4 workflow files" in result.output


def test_generate_reruns_are_byte_identical(tmp_path):
    for sub in ("one", "two"):
        result = invoke(["generate", "--count", "3", "--seed", "7", "--out", str(tmp_path / sub)])
        assert result.exit_code == 0, result.output
    one = sorted((tmp_path / "one").glob("*.json"))
    two = sorted((tmp_path / "two").glob("*.json"))
    assert [f.name for f in one] == [f.name for f in two]
    for a, b in zip(one, two):
        assert a.read_bytes() == b.read_bytes()


def test_generate_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "wl.json"
    cfg.write_text(json.dumps({"count": 9, "parallelism": [2]}), encoding="utf-8")
    out = tmp_path / "out"
    result = invoke(["generate", "--config", str(cfg), "--count", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(list(out.glob("*.json"))) == 2


def test_generate_rejects_bad_config(tmp_path):
    cfg = tmp_path / "wl.json"
    cfg.write_text('{"bogus": 1}', encoding="utf-8")
    result = invoke(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "unknown fields" in result.output


def test_bad_workflow_file_is_an_error_not_a_traceback(tmp_path):
    wl = tmp_path / "wl"
    result = invoke(["generate", "--count", "1", "--out", str(wl)])
    assert result.exit_code == 0, result.output
    path = wl / "wf-000.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["tasks"][0]["cpu"] = None
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke(["compare", "--workload", str(wl), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an escaped TypeError
    assert result.output.startswith("Error: workflow 'wf-000': ")
    assert "Traceback" not in result.output


def test_train_then_compare_pipeline(tmp_path):
    train_out = tmp_path / "run"
    result = invoke(["train", "--episodes", "2", "--seed", "3", "--out", str(train_out)])
    assert result.exit_code == 0, result.output
    assert (train_out / "checkpoint.json").exists()
    curve = (train_out / "training_curve.csv").read_text(encoding="utf-8").splitlines()
    assert curve[0] == ("episode,total_reward,total_cost,mean_execution_time,completed,interrupted,"
                        "timed_out,critic_loss,group_loss,node_loss,clip_fraction,entropy,approx_kl")
    assert len(curve) == 3  # header + one line per episode
    assert "trained 2 episodes" in result.output

    cmp_out = tmp_path / "cmp"
    result = invoke([
        "compare",
        "--schedulers", "agent,random",
        "--checkpoint", str(train_out / "checkpoint.json"),
        "--seeds", "1,2",
        "--out", str(cmp_out),
    ])
    assert result.exit_code == 0, result.output
    table = (cmp_out / "summary.txt").read_text(encoding="utf-8")
    assert "agent" in table and "random" in table
    rows = (cmp_out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "scheduler,seed,total_cost,mean_execution_time,completed,interrupted,timed_out"
    assert len(rows) == 5  # header + 2 schedulers x 2 seeds


def test_compare_baselines_only(tmp_path):
    out = tmp_path / "cmp"
    result = invoke(["compare", "--seeds", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    table = (out / "summary.txt").read_text(encoding="utf-8")
    for name in ("random", "k8-default", "on-demand"):
        assert name in table


def test_compare_agent_requires_checkpoint(tmp_path):
    result = invoke(["compare", "--schedulers", "agent", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "--checkpoint" in result.output


def test_compare_unknown_scheduler(tmp_path):
    result = invoke(["compare", "--schedulers", "metal", "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "unknown scheduler" in result.output


def test_compare_duplicate_scheduler(tmp_path):
    out = tmp_path / "x"
    result = invoke(["compare", "--schedulers", "random,random", "--seeds", "1", "--out", str(out)])
    assert result.exit_code == 1
    assert "duplicate schedulers" in result.output
    assert not out.exists()


def test_compare_duplicate_seeds_is_a_one_line_error(tmp_path):
    out = tmp_path / "x"
    result = invoke(["compare", "--seeds", "1,1,2", "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == "Error: duplicate seeds [1]\n"
    assert not out.exists()


def test_compare_bad_seeds(tmp_path):
    result = invoke(["compare", "--seeds", "1,x", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "--seeds" in result.output


@pytest.mark.parametrize("args", [
    ["generate", "--seed", "-1"],
    ["train", "--seed", "-1", "--episodes", "1"],
    ["compare", "--seeds", "2,-1"],
    ["generate", "--config", "{config}"],
    ["train", "--workload", "{config}", "--episodes", "1"],
], ids=["generate", "train", "compare", "config-file", "train-config-file"])
def test_negative_seed_is_a_one_line_error(tmp_path, args):
    cfg = tmp_path / "wl.json"
    cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
    where = "workload config: " if "{config}" in args else ""  # the reader names the file's field
    args = [a.replace("{config}", str(cfg)) for a in args]
    result = invoke([*args, "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an escaped numpy ValueError
    assert result.output == f"Error: {where}seed must be an integer >= 0, got -1\n"


def test_summary_past_the_floats_is_a_one_line_error(tmp_path):
    # each episode's cost is finite, but the spread of three is not; pytest turns a numpy
    # overflow warning into an exception, which would escape the runner
    doc = json.loads(EXAMPLE_CLUSTER.read_text(encoding="utf-8"))
    for node in doc["nodes"]:
        node["price_per_hour"] = 1e306
    cluster = tmp_path / "cluster.json"
    cluster.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke(["compare", "--cluster", str(cluster), "--schedulers", "random,k8-default",
                     "--seeds", "1,2,3", "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: scheduler 'random': std_cost overflows a float\n"


@pytest.mark.parametrize("args, kind", [
    (["compare", "--cluster", "{file}"], "not-utf8"),
    (["compare", "--cluster", "{file}"], "too-deep"),
    (["generate", "--config", "{file}"], "not-utf8"),
    (["generate", "--config", "{file}"], "too-deep"),
    (["compare", "--workload", "{dir}"], "not-utf8"),
    (["compare", "--workload", "{dir}"], "too-deep"),
    (["compare", "--workload", "{dir}"], "directory"),
], ids=["cluster-not-utf8", "cluster-too-deep", "config-not-utf8", "config-too-deep",
        "workload-dir-not-utf8", "workload-dir-too-deep", "workload-dir-directory"])
def test_unreadable_file_is_a_one_line_error(tmp_path, unreadable_json, args, kind):
    path = unreadable_json[kind]
    args = [a.replace("{file}", str(path)).replace("{dir}", str(path.parent)) for a in args]
    result = invoke([*args, "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an escaped decode or OS error
    assert result.output.startswith(f"Error: {path}: ") and result.output.count("\n") == 1


@pytest.mark.parametrize("config, count, message", [
    ({"parallelism": [2**70]}, "2", "count * (max(parallelism) + 2) must be at most 1000000 "
                                    f"tasks, got {2 * (2**70 + 2)}"),
    ({}, "100001", "count * (max(parallelism) + 2) must be at most 1000000 tasks, got 1000010"),
], ids=["parallelism", "count"])
def test_workload_past_its_bounds_is_a_one_line_error(tmp_path, config, count, message):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    result = invoke(["generate", "--config", str(cfg), "--count", count,
                     "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not numpy's "maximum dimension" error
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    assert message in result.output


def test_checkpoint_norm_past_the_cluster_is_a_one_line_error(tmp_path):
    ck = tmp_path / "ck.json"
    save_checkpoint(MultiActorAgent(default_cluster(), seed=0), ck)
    doc = json.loads(ck.read_text(encoding="utf-8"))
    doc["scaling"]["cpu_norm"] = 5e-324
    ck.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke(["compare", "--schedulers", "agent", "--checkpoint", str(ck), "--seeds", "1",
                     "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a FloatingPointError mid-run
    assert result.output.startswith(f"Error: {ck}: checkpoint scaling: cpu_norm 5e-324 ")
    assert result.output.count("\n") == 1 and not (tmp_path / "o").exists()


def _unbounded_input(tmp_path, kind):
    """compare arguments for an input the simulator refuses, by kind."""
    if kind in ("fits-no-node", "far-arrivals"):
        config = ({"count": 1, "cpu": 100.0, "timeout": 1e15} if kind == "fits-no-node"
                  else {"count": 3, "interarrival_range": [1e12, 1e12]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return ["--workload", str(path), "--schedulers", "random"]
    if kind == "far-arrival-file":
        doc = workflow_to_dict(generate(WorkloadConfig(count=1))[0])
        doc["arrival_time"] = 1e308
        (tmp_path / "wl").mkdir()
        (tmp_path / "wl" / "wf.json").write_text(json.dumps(doc), encoding="utf-8")
        return ["--workload", str(tmp_path / "wl"), "--schedulers", "random"]
    doc = json.loads(EXAMPLE_CLUSTER.read_text(encoding="utf-8"))
    doc["nodes"][0]["rate"] = 5e-324
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["--cluster", str(path), "--schedulers", "random,k8-default"]


@pytest.mark.parametrize("kind, message", [
    ("fits-no-node", "Error: the last deadline, 1000000000000026.2 s, is too far: "),
    ("far-arrivals", "Error: the last deadline, 3000000003600.0 s, is too far: "),
    ("far-arrival-file", "Error: the last deadline, 1e+308 s, is too far: "),
    ("tiny-rate", "Error: node 'spot-large-0': task work "),
], ids=["fits-no-node", "far-arrivals", "far-arrival-file", "tiny-rate"])
def test_unbounded_run_is_a_one_line_error(tmp_path, kind, message):
    # each of these ran for hours or printed inf and nan before the simulator refused it
    result = invoke(["compare", *_unbounded_input(tmp_path, kind), "--seeds", "1",
                     "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(message) and result.output.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_missing_cluster_file_is_a_usage_error(tmp_path):
    result = invoke(["train", "--cluster", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


def test_compare_checkpoint_cluster_mismatch(tmp_path):
    train_out = tmp_path / "run"
    result = invoke(["train", "--episodes", "1", "--out", str(train_out)])
    assert result.exit_code == 0, result.output
    other = {
        "nodes": [
            {"id": "s0", "flavor": "f", "cpu": 2.0, "mem_gb": 8.0, "rate": 2.0,
             "class": "spot", "price_per_hour": 0.03},
            {"id": "o0", "flavor": "f", "cpu": 2.0, "mem_gb": 8.0, "rate": 2.0,
             "class": "on_demand", "price_per_hour": 0.06},
        ],
        "bandwidth_mbps": 100.0,
        "interruption_rate_per_hour": 0.5,
        "interruption_downtime_s": 600.0,
    }
    cluster_file = tmp_path / "small.json"
    cluster_file.write_text(json.dumps(other), encoding="utf-8")
    result = invoke([
        "compare",
        "--cluster", str(cluster_file),
        "--schedulers", "agent",
        "--checkpoint", str(train_out / "checkpoint.json"),
        "--seeds", "1",
        "--out", str(tmp_path / "cmp"),
    ])
    assert result.exit_code == 1
    assert "does not match" in result.output
