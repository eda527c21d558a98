"""The input boundary: each reader returns or raises ConfigError, and nothing else.

Each example starts from a valid document, makes one mutation at a drawn
place in it, and runs the document's reader. It only loads documents; no
episode runs.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spotsched import agent
from spotsched.agent import MultiActorAgent, load_checkpoint, save_checkpoint
from spotsched.cluster import cluster_from_dict, default_cluster
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


DOCUMENTS = [
    (cluster_from_dict, EXAMPLE_CLUSTER.read_text(encoding="utf-8")),
    (workflow_from_dict, json.dumps(workflow_to_dict(generate(WorkloadConfig(count=1))[0]))),
    (config_from_dict, json.dumps(CONFIG_DOC)),
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
    for read, text in DOCUMENTS:
        read(json.loads(text))
    read_checkpoint(checkpoint[0])


@pytest.mark.parametrize("read, text", DOCUMENTS, ids=["cluster", "workflow", "workload-config"])
@settings(max_examples=300)
@given(data=st.data())
def test_mutated_documents_load_or_raise_config_error(read, text, data):
    loads_or_refuses(read, mutate(data, json.loads(text)))


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_checkpoints_load_or_raise_config_error(checkpoint, data):
    saved, text = checkpoint
    path = saved.with_name("mutated.json")
    path.write_text(json.dumps(mutate(data, json.loads(text))), encoding="utf-8")
    loads_or_refuses(read_checkpoint, path)
