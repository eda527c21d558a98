"""Timing hooks installed from outside the program, at module and class attributes.

Nothing here edits the package: `patched` swaps an attribute for a wrapper
and puts the original back on exit.

- `EpisodeProbe` is on in every run. Three thin wrappers on `SimEnv`
  (`reset`, `step`, `episode_stats`) give the host time of each decision
  and each episode's outputs, whichever harness function runs the loop.
- `Tracer` is the traced run. It records one span per call into a layer's
  public functions and classes. Calls too frequent to keep one span each
  (`NodeState.can_fit` runs hundreds of times per step on a long queue)
  are folded instead: a count and total per name, and their time charged
  to the enclosing span so that self times still add up.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# --- always-on episode probe ----------------------------------------------


@dataclass(frozen=True)
class EpisodeOutput:
    """What one finished episode produced, as seen at the SimEnv boundary."""

    stats: object          # engine.EpisodeStats
    submitted: int         # workflows handed to the environment
    arrivals: dict         # workflow id -> arrival time
    reward_sum: float      # sum of the rewards step() returned
    decisions: int
    end: float             # perf_counter() when episode_stats() returned


class EpisodeProbe:
    """Decision times and episode outputs, collected at SimEnv's methods.

    A decision is the policy call plus `env.step`: the time from the end of
    the previous `reset`/`step` on the same environment to the end of this
    `step`, so the calling loop's bookkeeping is included.
    """

    def __init__(self):
        self.decision_s = array("d")
        self.episodes: list[EpisodeOutput] = []
        self._open: dict[int, list] = {}  # id(env) -> [last end, reward sum, decisions]

    def hooks(self, sim_env_cls) -> list:
        reset = vars(sim_env_cls)["reset"]
        step = vars(sim_env_cls)["step"]
        episode_stats = vars(sim_env_cls)["episode_stats"]
        probe = self

        @functools.wraps(reset)
        def timed_reset(env):
            obs = reset(env)
            probe._open[id(env)] = [perf_counter(), 0.0, 0]
            return obs

        @functools.wraps(step)
        def timed_step(env, node_id):
            out = step(env, node_id)
            now = perf_counter()
            state = probe._open[id(env)]
            probe.decision_s.append(now - state[0])
            state[0] = now
            state[1] += out[1]
            state[2] += 1
            return out

        @functools.wraps(episode_stats)
        def captured_stats(env):
            stats = episode_stats(env)
            _, reward_sum, decisions = probe._open.pop(id(env))
            probe.episodes.append(EpisodeOutput(
                stats=stats,
                submitted=len(env.workload),
                arrivals={wf.id: wf.arrival_time for wf in env.workload},
                reward_sum=reward_sum,
                decisions=decisions,
                end=perf_counter(),
            ))
            return stats

        return [
            (sim_env_cls, "reset", timed_reset),
            (sim_env_cls, "step", timed_step),
            (sim_env_cls, "episode_stats", captured_stats),
        ]


# --- traced run -------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans kept in flat arrays until the run ends, plus folded counters.

    Span i has a name, start, end, parent index (-1 for a root) and the
    time of folded calls made directly inside it. Parents always have
    smaller indices than their children.
    """

    def __init__(self):
        self.origin = perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.folded_s = array("d")
        self.top = -1
        self.counts: Counter = Counter()  # folded calls by name, events by kind
        self.folded_total: Counter = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span."""
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            parent = tracer.top
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.folded_s.append(0.0)
            tracer.end.append(0.0)
            tracer.top = idx
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.top = parent

        return traced

    def folded(self, name: str, fn):
        """Wrap fn so that each call adds to a count and a total only."""
        tracer = self
        counts, totals = self.counts, self.folded_total

        @functools.wraps(fn)
        def counted(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            counts[name] += 1
            totals[name] += dt
            if tracer.top >= 0:
                tracer.folded_s[tracer.top] += dt
            return result

        return counted

    def count(self, name: str) -> None:
        self.counts[name] += 1

    # -- analysis -----------------------------------------------------------

    def roots(self) -> array:
        """Index of each span's root span."""
        root = array("l", range(len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]
        return root

    def indices_by_name(self) -> dict[str, list[int]]:
        by_name: dict[str, list[int]] = {name: [] for name in self.names}
        for i, n in enumerate(self.name_id):
            by_name[self.names[n]].append(i)
        return by_name

    def self_time_by_layer(self, keep) -> dict[str, float]:
        """Seconds per layer, over the spans in keep, with children taken out.

        A span's self time is its duration minus its child spans' durations
        and minus the folded calls made inside it. Folded time, all of it
        since the counters were last cleared, is credited to the folded
        function's own layer.
        """
        child_s = [0.0] * len(self.start)
        for i in keep:
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        by_layer: Counter = Counter()
        for i in keep:
            name = self.names[self.name_id[i]]
            by_layer[layer_of(name)] += (
                self.end[i] - self.start[i] - child_s[i] - self.folded_s[i]
            )
        for name, total in self.folded_total.items():
            by_layer[layer_of(name)] += total
        return dict(by_layer)

    def write(self, path) -> None:
        """Every span, one JSON object a line, then the folded counters; gzipped."""
        o = self.origin
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"name": "{self.names[self.name_id[i]]}", '
                    f'"start": {self.start[i] - o:.9f}, "end": {self.end[i] - o:.9f}, '
                    f'"parent": {self.parent[i]}, "folded_s": {self.folded_s[i]:.9f}}}\n'
                )
            for name, calls in sorted(self.counts.items()):
                fh.write(json.dumps({
                    "counter": name,
                    "calls": calls,
                    "total_s": self.folded_total.get(name, 0.0),
                }) + "\n")
