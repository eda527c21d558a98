"""Golden sha256 digests of the baselines' outputs.

Refactors must keep these outputs byte-identical for fixed seeds:
`comparison.csv` and `summary.txt` of `compare --seeds 1,2,3,4,5`, and
the `on_event` records but `place` and the `EpisodeStats` of each
baseline at three interruption rates, on the default workload and on a
20- and a 60-workflow backlog.

A digest that stops matching means behaviour changed. Do not regenerate
one to get a green run: a change that is meant to alter these outputs
names the behaviour change in CHANGES.md. A numpy upgrade that changes a
`Generator` stream counts as such a change.

Agent outputs are left out. They pass through 64-wide BLAS matmuls whose
summation order depends on the CPU's kernels, so their digests would hold
on one host only; criterion 8 checks agent reruns on a single host.
"""
import hashlib
import json
from dataclasses import asdict

import pytest
from click.testing import CliRunner

from spotsched.baselines import BASELINE_NAMES
from spotsched.cli import main
from spotsched.cluster import default_cluster
from spotsched.engine import run_episode
from spotsched.harness import evaluation_inputs
from spotsched.workload import WorkloadConfig

WORKLOADS = {
    "default": WorkloadConfig(),
    # arrivals far faster than the cluster serves them: queues build up
    "backlog": WorkloadConfig(count=20, interarrival_range=(0.3, 0.6)),
    # the queue grows to over a hundred tasks
    "backlog-60": WorkloadConfig(count=60, interarrival_range=(0.3, 0.6)),
}
RATES = (0.5, 30.0, 60.0)  # interruptions per hour per spot node
SEEDS = (1, 2, 3)

COMPARE_DIGESTS = {
    "comparison.csv": "13e4f877613c5ae5a644cff9ccb80c4a7c70e4a858f99f646f0f0f0ed9c65ce9",
    "summary.txt": "0931bf8ac9b379f6ae5cc87266ca2cce138341fbd2bc179dd08103750995e5d4",
}

# (scheduler, workload, rate) -> (on_event records but place, EpisodeStats), seeds 1-3
EPISODE_DIGESTS = {
    ("random", "default", 0.5): (
        "29b076653e0e8c72b1f5909f969e5fcb07e2190085dcd9552f561461dde413d4",
        "19375ca7653717c399c97fe959de0279dead51f25f5f577ecd9646cc1cc5975b",
    ),
    ("random", "default", 30.0): (
        "b0d74ab4a4adbf76381ed3367f4016c463365961ddc32016ceaa4acf19f16c96",
        "acb2344a764400331c1ee189c9485f226e2b2dd90317df2b0af40ca1ba669341",
    ),
    ("random", "default", 60.0): (
        "720e011039a6e27d2d55fe8c6d3b994ac25f4899dc1bb60b2acb24652cdc57f9",
        "e7c5420a3bb53502ca91e46348e5f010b9dc9d16e484892de93836e34dc3bb45",
    ),
    ("random", "backlog", 0.5): (
        "70d2eb3c2f2a86bd824ffe7c6eb794b6714388e3003b16c643e40f43629d058a",
        "9a8293f8f9b2e237745362314b5fcfa165d53676dbdbcf1813896e0312bea850",
    ),
    ("random", "backlog", 30.0): (
        "fd8ca54b528cfef004c7553afee7e880a1905a61373f0f43cc458d4f8266ffe4",
        "8acb5641ec38aa2771d80c970977ad4d69c4d39d4965f8b309ba4059a0d2b52f",
    ),
    ("random", "backlog", 60.0): (
        "5ce87f535b2be03f8b9873548c80804a01bbb7693faf3d16775785a651410df0",
        "4d1774be512d1a38d4e87f1566f8071736c68c5853b891893b49e02972c8779a",
    ),
    ("random", "backlog-60", 0.5): (
        "ad25b31fc1246ff289ce8136de694c345e07d6b968048f3332877f11d34317f7",
        "1ce4e2cbae06c59b9a9cda8af761e74681e865949e9669950673635784d89ade",
    ),
    ("random", "backlog-60", 30.0): (
        "b4a254bc9a215aa28e01dbbff785623aafae53198880a6eebc3f89750420e21a",
        "d95a4f4bf02196d4890e12f9a60f9a553913ead97866c4c72628165081948c74",
    ),
    ("random", "backlog-60", 60.0): (
        "f5a781aa18f92a74c01a459d2cec7977ef8a834701ab923c85cd1ad64df4e026",
        "9b03923d5ae5303ad55d50fd95016598fa1a71148157395ffd928a8865d0c5dd",
    ),
    ("k8-default", "default", 0.5): (
        "39bfb7adf3f574cb51b21e0b447cf1ecb30b66f8c75d9468fa970c2a5e160a97",
        "ce283801cfb4d3c637ff38f81b5e0a48a80ac4a0bc48318bc6f86b59e44c61cd",
    ),
    ("k8-default", "default", 30.0): (
        "1641cbe3f97fa3eddce4bfa72a76833b1413ab1879b74d8e738bf9f3bf5fbb59",
        "981456e85faa3ef0569b7f44f5682765728b0273e0445472a0a3fb54e8888bf2",
    ),
    ("k8-default", "default", 60.0): (
        "b265ebcda99e23945378fb5db9bb5340783454bb31b0b5cd1348332b36f7cbc7",
        "3439d8c545f06d90f99264ee680924c06c5c5167d330870a296f47a126135618",
    ),
    ("k8-default", "backlog", 0.5): (
        "39de5664daf9a150fa0b207253d9c4518fbdf9ab88e758f11691970601416d7b",
        "acdbdbb7ef5fd8ab020a3ce2a743a7ec11f9634035719975225cd6b4b50ccfc5",
    ),
    ("k8-default", "backlog", 30.0): (
        "4efa2e7359398690a33d7df80442ba6547155f424494cba2cec1a060bf63b4b6",
        "60df60925873712dfbf41bc33e40c161937e1f82f5461c493cc23dbf4fe29879",
    ),
    ("k8-default", "backlog", 60.0): (
        "e9d34cc646d12545e3d493c9740d5b79126f326ee0d031c5c7ef9634581664db",
        "5fc5378234052fefd944388a8917a9c4de13e92cb2f038ccacd323f69b027922",
    ),
    ("k8-default", "backlog-60", 0.5): (
        "7384a1dfabb6e6c34f9934bd23394d1a3543fb2657ea675c0bfef98c5b33a4d3",
        "ad352a541854a397d42672d62fbdd8f71638b83fd6bfc62c8c016a4d8ad418e9",
    ),
    ("k8-default", "backlog-60", 30.0): (
        "2802296d750b12d391d9af2353ccd749404aaaa92f43efd0d4d0dfdf56f388ec",
        "de77e4a18df19d350f1df0cfa7cf9d5d93a62e1376dcff99d4f7e180b6dbbb0d",
    ),
    ("k8-default", "backlog-60", 60.0): (
        "4af13630487d47bef09fdebf8946f6b5bbdb61988b534f94966045f9803f5cfc",
        "29cfb9b3d491368538bea2e4c064fed56100df7e7a25f81282463d23555f2fec",
    ),
    # on-demand runs on the on-demand nodes alone, which are never
    # interrupted, so its digests do not depend on the rate
    ("on-demand", "default", 0.5): (
        "09e1384a3a00e5277b7faf86a956a43ff74ee72ca4d4aae4082d87bc3ff596d6",
        "de9280e51955a8390dc1aeef2ce201ea9c77128673241cb203c1f37525bfb7ae",
    ),
    ("on-demand", "default", 30.0): (
        "09e1384a3a00e5277b7faf86a956a43ff74ee72ca4d4aae4082d87bc3ff596d6",
        "de9280e51955a8390dc1aeef2ce201ea9c77128673241cb203c1f37525bfb7ae",
    ),
    ("on-demand", "default", 60.0): (
        "09e1384a3a00e5277b7faf86a956a43ff74ee72ca4d4aae4082d87bc3ff596d6",
        "de9280e51955a8390dc1aeef2ce201ea9c77128673241cb203c1f37525bfb7ae",
    ),
    ("on-demand", "backlog", 0.5): (
        "e1a02302009a734efd3aa26ba9dd756fb1f366260546ad591071a911807d69b6",
        "26340982f15dc326b1443bedb442dbb631021922cbda528d8fdf865193d06243",
    ),
    ("on-demand", "backlog", 30.0): (
        "e1a02302009a734efd3aa26ba9dd756fb1f366260546ad591071a911807d69b6",
        "26340982f15dc326b1443bedb442dbb631021922cbda528d8fdf865193d06243",
    ),
    ("on-demand", "backlog", 60.0): (
        "e1a02302009a734efd3aa26ba9dd756fb1f366260546ad591071a911807d69b6",
        "26340982f15dc326b1443bedb442dbb631021922cbda528d8fdf865193d06243",
    ),
    ("on-demand", "backlog-60", 0.5): (
        "d59875cc2c4a257727cd3c56d739afa08270863b25ee4986cce882642c122577",
        "64e8eef8914a26d27d8382149ce75bdf4eb06b22ac3526c47d5066c52e32670a",
    ),
    ("on-demand", "backlog-60", 30.0): (
        "d59875cc2c4a257727cd3c56d739afa08270863b25ee4986cce882642c122577",
        "64e8eef8914a26d27d8382149ce75bdf4eb06b22ac3526c47d5066c52e32670a",
    ),
    ("on-demand", "backlog-60", 60.0): (
        "d59875cc2c4a257727cd3c56d739afa08270863b25ee4986cce882642c122577",
        "64e8eef8914a26d27d8382149ce75bdf4eb06b22ac3526c47d5066c52e32670a",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def episode_digests(name: str, workload: str, rate: float) -> tuple[str, str]:
    """Digests of one baseline's event records and stats over SEEDS.

    Each episode is the one `compare` runs for that evaluation seed, by
    construction: both take its inputs from `harness.evaluation_inputs`.
    """
    cluster = default_cluster(interruption_rate_per_hour=rate)
    records, stats = [], []
    for seed in SEEDS:
        events = []
        episode = run_episode(*evaluation_inputs(name, cluster, WORKLOADS[workload], seed),
                              on_event=events.append)
        # heap events only; test_engine recomputes every place record field by field
        records.append([e for e in events if e["kind"] != "place"])
        stats.append(asdict(episode))
    return sha256(json.dumps(records).encode()), sha256(json.dumps(stats).encode())


def test_compare_outputs_match_digests(tmp_path):
    result = CliRunner().invoke(main, ["compare", "--seeds", "1,2,3,4,5", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    got = {name: sha256((tmp_path / name).read_bytes()) for name in COMPARE_DIGESTS}
    assert got == COMPARE_DIGESTS


@pytest.mark.parametrize(
    "name,workload,rate",
    [(n, w, r) for n in BASELINE_NAMES for w in WORKLOADS for r in RATES],
)
def test_baseline_episodes_match_digests(name, workload, rate):
    events, stats = episode_digests(name, workload, rate)
    want_events, want_stats = EPISODE_DIGESTS[name, workload, rate]
    assert events == want_events, "on_event records changed"
    assert stats == want_stats, "EpisodeStats changed"
