"""spotsched benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload sim-backlog --seed 1 --seconds 40 --trace 0

Run it from the repository root; it imports the package from `src/` there
and nowhere else. Each line before the last is a human-readable report;
the last line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones, with `--trace 1` the per-layer ones (see BENCHMARK.json and
perfbench/README.md). The full result, with the environment it ran in, is
also written to perfbench/out/, and a traced run writes its spans there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def use_repo_sources() -> None:
    """Import spotsched from this checkout's src/, or stop with an error."""
    if not (SRC / "spotsched" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'spotsched'}")
    sys.path.insert(0, str(SRC))
    import spotsched

    if SRC.resolve() not in Path(spotsched.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported spotsched from {spotsched.__file__}, not {SRC}")


def git_sha(root: Path) -> str:
    """HEAD's commit from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(ROOT),
    }


def result_line(result, units: dict) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def main(argv=None) -> int:
    # numpy's BLAS starts a thread per core by default. On a shared machine a
    # second thread times the other core's load as much as the program, so
    # BLAS runs on one thread. This must be set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    use_repo_sources()
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED,
                        help=f"workload seed (default {bench.DEFAULT_SEED}; "
                             f"held out for claims: {bench.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure passes until the next would end past this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = bench.WORKLOADS[args.workload]
    env = environment()
    result = bench.run(wl, args.seed, args.seconds, bool(args.trace))
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    info = result.info

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {wl.why}")
    for name, unit in units.items():
        if name in result.metrics:
            print(f"  {name:<40} {result.metrics[name]:>16.6g} {unit}")
    per_pass = max(info["passes"], 1)
    print(f"  samples: {info['decisions'] // per_pass} decisions and "
          f"{info['episodes'] // per_pass} episodes per pass, {info['passes']} passes, "
          f"{info['setup_repeats']} set-ups")
    print(f"  failed_op_frac {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted} episodes)")
    print(f"  sim output digest {info['digest']}")
    for problem in info["problems"]:
        print(f"  PROBLEM {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.write(OUT / f"{stem}-spans.jsonl.gz")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, **info,
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "failed_op_frac": result.failed / result.attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }, indent=1) + "\n")

    if not result.metrics:
        return 1
    print(result_line(result, units))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
