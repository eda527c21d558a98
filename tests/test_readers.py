"""The input boundary: each reader returns or raises ConfigError, and nothing else.

Each example starts from a valid document, makes one mutation at a drawn
place in it, and runs the document's reader. A cluster, workflow or
workload-config document that loads then runs one random-policy episode,
which must end in finite stats unless the simulator refuses its inputs with
a ConfigError. Checkpoints are only loaded.
"""
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spotsched import agent
from spotsched.agent import MultiActorAgent, load_checkpoint, save_checkpoint
from spotsched.baselines import RandomPolicy
from spotsched.cluster import cluster_from_dict, default_cluster
from spotsched.engine import SimEnv
from spotsched.errors import ConfigError
from spotsched.workflow import workflow_from_dict, workflow_to_dict
from spotsched.workload import WorkloadConfig, config_from_dict, generate

EXAMPLE_CLUSTER = Path(__file__).resolve().parent.parent / "examples" / "cluster.json"

# a bool, a string, a list, an object, null, an int past a float's exact integers,
# one past its range, the extreme floats, and values at or below the specs' bounds
REPLACEMENTS = [True, "x", [1.0], {"x": 1.0}, None, 2**70, 10**400, 5e-324, 1e308, -1, 0]

CONFIG_DOC = {"count": 20, "parallelism": [4, 8], "work_range": [50.0, 200.0],
              "interarrival_range": [5.0, 30.0], "data_mb": 50.0, "cpu": 1.0, "mem_gb": 2.0,
              "timeout": 3600.0, "seed": 0}


def mutate(data, doc):
    """Walk into doc (changed in place) at drawn keys, then delete, add or replace there."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else
                                        range(len(node))))
        child = node[key]
        # descend three times in four, so that deep leaves (a checkpoint weight) are reached
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)):
            node = child
            continue
        kind = data.draw(st.sampled_from(["delete", "add", "replace"]))
        value = data.draw(st.sampled_from(REPLACEMENTS))
        if kind == "delete":
            del node[key]
        elif kind == "add" and isinstance(node, dict):
            node["unexpected"] = value
        elif kind == "add":
            node.insert(key, value)
        else:
            node[key] = value
        return doc


def loads_or_refuses(read, doc):
    try:
        read(doc)
    except ConfigError:
        pass


def episode_is_finite(env):
    """Run one random-policy episode; assert that its stats are finite.

    Each task is offered at most once, so a count bounds the decisions; an episode
    that asks for more fails here rather than running on."""
    policy = RandomPolicy(seed=[0])
    decisions = sum(len(wf.tasks) for wf in env.workload)
    obs = env.reset()
    while obs is not None:
        assert decisions > 0, "more decisions than tasks"
        decisions -= 1
        obs = env.step(policy(obs))[0]
    stats = env.episode_stats()
    values = [stats.total_cost, stats.mean_execution_time,
              *(x for w in stats.workflows.values() for x in (w.cost, w.makespan))]
    assert all(map(math.isfinite, values)), values


def runs_or_refuses(read, episode_inputs, doc):
    """Load doc, build its episode's environment, and run it to finite stats; or refuse."""
    try:
        env = SimEnv(*episode_inputs(read(doc)), seed=[0])
    except ConfigError:
        return
    episode_is_finite(env)


BATCH = generate(WorkloadConfig(count=3))

# (reader, valid document, the (cluster, workload) of an episode over what it read)
DOCUMENTS = [
    (cluster_from_dict, EXAMPLE_CLUSTER.read_text(encoding="utf-8"),
     lambda cluster: (cluster, BATCH)),
    (workflow_from_dict, json.dumps(workflow_to_dict(generate(WorkloadConfig(count=1))[0])),
     lambda workflow: (default_cluster(), [workflow])),
    (config_from_dict, json.dumps(CONFIG_DOC),
     lambda config: (default_cluster(), generate(config))),
]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A saved checkpoint for the built-in cluster, and its text.

    Its hidden layers are 4 wide, not 64, while this module runs: the reader's
    checks do not depend on the width, and each example copies a document
    about 1/29 of the size (24 KB), so more examples fit in the same time.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "HIDDEN_SIZES", (4, 4))
        path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.json"
        save_checkpoint(MultiActorAgent(default_cluster(), seed=0), path)
        yield path, path.read_text(encoding="utf-8")


def read_checkpoint(path):
    return load_checkpoint(path, default_cluster())


def test_the_starting_documents_load(checkpoint):
    for read, text, episode_inputs in DOCUMENTS:
        episode_is_finite(SimEnv(*episode_inputs(read(json.loads(text))), seed=[0]))
    read_checkpoint(checkpoint[0])


# no per-example deadline: the task count bounds each episode, and Tier-1 times nothing
@pytest.mark.parametrize("read, text, episode_inputs", DOCUMENTS,
                         ids=["cluster", "workflow", "workload-config"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents_load_or_raise_config_error(read, text, episode_inputs, data):
    runs_or_refuses(read, episode_inputs, mutate(data, json.loads(text)))


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_checkpoints_load_or_raise_config_error(checkpoint, data):
    saved, text = checkpoint
    path = saved.with_name("mutated.json")
    path.write_text(json.dumps(mutate(data, json.loads(text))), encoding="utf-8")
    loads_or_refuses(read_checkpoint, path)
