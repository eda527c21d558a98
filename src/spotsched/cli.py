"""Command-line interface: train, compare, generate.

All randomness flows from --seed / --seeds, so rerunning a command with
the same arguments reproduces its output files byte for byte.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import click

from .agent import EpisodeRecord, load_checkpoint, save_checkpoint
from .cluster import default_cluster, load_cluster
from .errors import LayoutMismatchError, SpotSchedError
from .harness import (
    AGENT_NAME,
    SCHEDULER_NAMES,
    MetricsRow,
    compare,
    format_summary_table,
    load_workload_source,
    train_run,
    write_csv,
)
from .ppo import TrainConfig
from .workload import WorkloadConfig, generate, load_config
from .workflow import save_workflow


def _load_cluster(path):
    return load_cluster(path) if path else default_cluster()


def _load_workload(path):
    return load_workload_source(path) if path else WorkloadConfig()


def _parse_csv_list(value: str, what: str) -> list[str]:
    items = [item.strip() for item in value.split(",") if item.strip()]
    if not items:
        raise click.UsageError(f"--{what} must list at least one entry")
    return items


class _Main(click.Group):
    """The command group; any command's SpotSchedError ends the run as a one-line error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except LayoutMismatchError as exc:
            raise click.ClickException(f"checkpoint does not match cluster: {exc}")
        except SpotSchedError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Main)
def main():
    """Simulate DAG workflows on a spot/on-demand cluster and schedule them."""


@main.command()
@click.option("--cluster", "cluster_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Cluster file; defaults to the built-in 11-node layout.")
@click.option("--workload", "workload_path", type=click.Path(exists=True),
              default=None, help="Workload config file or directory of workflow files.")
@click.option("--episodes", type=click.IntRange(min=1), default=None,
              help="Training episodes (default 300).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def train(cluster_path, workload_path, episodes, seed, out_dir):
    """Train the scheduling agent; writes checkpoint.json and training_curve.csv."""
    cluster = _load_cluster(cluster_path)
    source = _load_workload(workload_path)
    config = TrainConfig(seed=seed) if episodes is None else TrainConfig(
        seed=seed, episodes=episodes)
    agent, curve = train_run(cluster, source, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(agent, out / "checkpoint.json")
    write_csv(EpisodeRecord, curve, out / "training_curve.csv")
    first = curve[0].total_cost
    last = curve[-1].total_cost
    click.echo(f"trained {len(curve)} episodes: cost {first:.6f} -> {last:.6f}")
    click.echo(f"wrote {out / 'checkpoint.json'} and {out / 'training_curve.csv'}")


@main.command("compare")
@click.option("--cluster", "cluster_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Cluster file; defaults to the built-in 11-node layout.")
@click.option("--workload", "workload_path", type=click.Path(exists=True),
              default=None, help="Workload config file or directory of workflow files.")
@click.option("--schedulers", default="random,k8-default,on-demand", show_default=True,
              help="Comma-separated subset of: " + ", ".join(SCHEDULER_NAMES))
@click.option("--checkpoint", "checkpoint_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Agent checkpoint; required when 'agent' is listed.")
@click.option("--seeds", default="1,2,3,4,5", show_default=True,
              help="Comma-separated evaluation seeds.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def compare_cmd(cluster_path, workload_path, schedulers, checkpoint_path, seeds, out_dir):
    """Run schedulers over identical seeded workloads; writes comparison.csv
    and summary.txt (cheapest scheduler first)."""
    names = _parse_csv_list(schedulers, "schedulers")
    try:
        seed_list = [int(s) for s in _parse_csv_list(seeds, "seeds")]
    except ValueError as exc:
        raise click.UsageError(f"--seeds must be integers: {exc}")
    if AGENT_NAME in names and checkpoint_path is None:
        raise click.UsageError("--checkpoint is required when 'agent' is listed")
    cluster = _load_cluster(cluster_path)
    source = _load_workload(workload_path)
    agent = load_checkpoint(checkpoint_path, cluster) if checkpoint_path else None
    rows, summaries = compare(names, cluster, source, seed_list, agent)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(MetricsRow, rows, out / "comparison.csv")
    table = format_summary_table(summaries)
    (out / "summary.txt").write_text(table, encoding="utf-8")
    click.echo(table, nl=False)
    click.echo(f"wrote {out / 'comparison.csv'} and {out / 'summary.txt'}")


@main.command("generate")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Workload config file; defaults apply when omitted.")
@click.option("--count", type=click.IntRange(min=1), default=None,
              help="Override the workflow count.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def generate_cmd(config_path, count, seed, out_dir):
    """Generate workflow files from a workload config."""
    config = load_config(config_path) if config_path else WorkloadConfig()
    overrides = {}
    if count is not None:
        overrides["count"] = count
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = replace(config, **overrides)
    workflows = generate(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for wf in workflows:
        save_workflow(wf, out / f"{wf.id}.json")
    click.echo(f"wrote {len(workflows)} workflow files to {out}")


if __name__ == "__main__":
    main()
