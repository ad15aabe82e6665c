"""Experiment runner: train and evaluate dispatch policies, compare baselines.

Subcommands:
  train     run training episodes, writing checkpoints, a learning-curve CSV,
            and a summary JSON; resumable from a checkpoint
  eval      run frozen-policy episodes over held-out seeds and write a
            metrics report per invocation
  compare   tabulate metric deltas between report files
  gen-data  emit a synthetic trip-record CSV

``train`` and ``eval`` run their episodes through one loop,
:func:`run_episodes`, which also writes ``timings.json``: the cpu seconds the
simulating thread spent in each phase of a tick, summed over the command's
episodes, and the tick count. ``train`` writes a checkpoint after every
episode.

Config files are YAML; every run is fully determined by config plus seed.
The output directory is ``--out``, else the config's ``out_dir``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import types
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import metrics as mx
from .demand import write_trip_records
from .dispatch_rl import CheckpointError
from .engine import (
    BASELINES,
    MODE_EVAL,
    MODE_TRAIN,
    PHASES,
    DispatchPolicy,
    SimConfig,
    Simulation,
    check_lower_bounds,
    generate_workload,
)


@dataclass
class TrainSettings:
    episodes: int

    def __post_init__(self):
        check_lower_bounds(self, "train.", (("episodes", 1),))


@dataclass
class EvalSettings:
    seeds: list[int]

    def __post_init__(self):
        if not self.seeds:
            raise ValueError(f"eval.seeds must list at least one seed, got {self.seeds}")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"eval.seeds must all be >= 0, got {self.seeds}")


@dataclass
class ExperimentConfig:
    sim: SimConfig
    train: TrainSettings
    eval: EvalSettings
    out_dir: str


def _fits(hint, value) -> bool:
    """Whether the YAML ``value`` fits the type hint ``hint``: an int takes
    no bool or float, a float takes an int but no bool, a list holds items
    that fit its item type (a tuple field is read from a list)."""
    if hint is int or hint is float:
        allowed = int if hint is int else (int, float)
        return isinstance(value, allowed) and not isinstance(value, bool)
    origin = get_origin(hint)
    if origin is types.UnionType:
        return any(_fits(h, value) for h in get_args(hint))
    if origin in (list, tuple):
        item = get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(item, v) for v in value)
    return isinstance(value, hint)


def build_config(cls, data, where: str = ""):
    """``cls`` built from the mapping ``data``, nested sections included.

    Raise ValueError naming a key of ``data`` that ``cls`` does not have, a
    field of ``cls`` that ``data`` leaves out (every key is required), or a
    value that does not fit its field's type hint."""
    if not isinstance(data, dict):
        raise ValueError(f"{where.rstrip('.') or 'config'} must be a mapping")
    hints = get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ValueError(f"unknown key {where}{key}")
    values = {}
    for f in fields(cls):
        if f.name not in data:
            raise ValueError(f"missing key {where}{f.name}")
        value, hint = data[f.name], hints[f.name]
        if is_dataclass(hint):
            value = build_config(hint, value, f"{where}{f.name}.")
        elif not _fits(hint, value):
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ValueError(f"{where}{f.name} must be {name}, got {value!r}")
        values[f.name] = value
    return cls(**values)


# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# both build the document with SafeLoader's constructor
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.load(fh, Loader=YAML_LOADER)
    return build_config(ExperimentConfig, data)


def _resolve_out(cfg: ExperimentConfig, args) -> str:
    out = args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    overrides = {"seed": args.seed, "episode_ticks": args.ticks,
                 "baseline": getattr(args, "baseline", None)}
    cfg.sim = replace(cfg.sim, **{k: v for k, v in overrides.items() if v is not None})
    return cfg


class InputError(Exception):
    """A config, checkpoint or report file cannot be used; the CLI prints why
    and exits 2."""


def _run_config(args) -> ExperimentConfig:
    """The ``--config`` file with the command-line overrides applied."""
    try:
        return _apply_overrides(load_config(args.config), args)
    except FileNotFoundError:
        raise InputError(f"config file not found: {args.config}") from None
    except (yaml.YAMLError, TypeError, ValueError) as exc:
        raise InputError(f"bad config {args.config}: {exc}") from None


def _load_checkpoint(policy: DispatchPolicy, path: str) -> dict:
    """Load the checkpoint at ``path`` into ``policy``; its header."""
    try:
        return policy.load(path)
    except FileNotFoundError:
        raise InputError(f"checkpoint not found: {path}") from None
    except CheckpointError as exc:
        raise InputError(f"checkpoint rejected: {exc}") from None


# ---------------------------------------------------------------------------
# episodes


def run_episodes(cfg: ExperimentConfig, policy: DispatchPolicy, seeds, mode: str, out: str):
    """Run one episode of ``policy`` per seed in ``mode``; yield each one's
    simulation, event log and metrics report. After the last episode, write
    ``timings.json`` to ``out``: the tick count and the phase seconds summed
    over the episodes."""
    ticks, phase_seconds = 0, dict.fromkeys(PHASES, 0.0)
    for seed in seeds:
        sim = Simulation(replace(cfg.sim, seed=seed), policy=policy)
        sim.initialize()
        log = sim.run(mode=mode)
        ticks += sim.tick
        for phase, seconds in sim.phase_seconds.items():
            phase_seconds[phase] += seconds
        yield sim, log, mx.build_report(log, cfg.sim.effective_distance_includes_dispatch)
    with open(os.path.join(out, "timings.json"), "w") as fh:
        json.dump({"ticks": ticks, "phase_seconds": phase_seconds}, fh, indent=2)


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _run_config(args)
    out = _resolve_out(cfg, args)

    policy = DispatchPolicy(cfg.sim)
    start_episode = 0
    if args.checkpoint:
        header = _load_checkpoint(policy, args.checkpoint)
        start_episode = int(header.get("extra", {}).get("episode", 0))
        print(f"resumed from {args.checkpoint} at step {policy.schedule_step}")

    curve_path = os.path.join(out, "training_curve.csv")
    resume_curve = args.checkpoint and os.path.exists(curve_path)
    seeds = [cfg.sim.seed + start_episode + i for i in range(cfg.train.episodes)]
    episode_rows = []
    with open(curve_path, "a" if resume_curve else "w", newline="") as curve_fh:
        curve = csv.DictWriter(curve_fh, ["step", "q_max", "loss", "epsilon", "act_probability"])
        if not resume_curve:
            curve.writeheader()
        for i, (sim, log, report) in enumerate(run_episodes(cfg, policy, seeds, MODE_TRAIN, out)):
            episode = start_episode + i
            curve.writerows(sim.curve)
            episode_rows.append({"episode": episode, "seed": log.seed,
                                 "steps": policy.schedule_step,
                                 "accept_rate": report.accept_rate_overall,
                                 "delivered": report.delivered})
            policy.save(os.path.join(out, f"checkpoint_ep{episode:03d}.npz"),
                        extra={"episode": episode + 1})
            print(f"episode {episode}: steps={policy.schedule_step} "
                  f"accept={report.accept_rate_overall}")

    final_ckpt = os.path.join(out, "checkpoint_final.npz")
    policy.save(final_ckpt, extra={"episode": start_episode + cfg.train.episodes})
    log.to_jsonl(os.path.join(out, "last_episode.jsonl"))
    summary = {
        "episodes": episode_rows,
        "total_steps": policy.schedule_step,
        "checkpoint": final_ckpt,
        "baseline": cfg.sim.baseline,
        "seed": cfg.sim.seed,
    }
    with open(os.path.join(out, "train_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"wrote {final_ckpt}")
    return 0


# ---------------------------------------------------------------------------
# eval


def evaluate(cfg: ExperimentConfig, policy: DispatchPolicy, checkpoint: str | None,
             out: str) -> dict:
    """Frozen-policy evaluation over the held-out seeds; returns the report
    dict. ``checkpoint`` names the file ``policy`` was loaded from, for the
    report; the episodes' ``timings.json`` goes to ``out``."""
    per_seed = [asdict(report) for _, _, report
                in run_episodes(cfg, policy, cfg.eval.seeds, MODE_EVAL, out)]
    keys = ["accept_rate_overall", "accept_rate_passenger", "accept_rate_goods",
            "fuel_cost_per_delivery", "active_vehicle_ratio", "mean_wait_ticks",
            "mean_wait_minutes", "effective_distance_ratio", "hop_transfers", "delivered"]
    aggregate = {}
    for key in keys:
        values = [r[key] for r in per_seed if r[key] is not None]
        aggregate[key] = float(np.mean(values)) if values else None
    return {
        "baseline": cfg.sim.baseline,
        "checkpoint": checkpoint,
        "eval_seeds": cfg.eval.seeds,
        "ticks": cfg.sim.episode_ticks,
        "n_vehicles": cfg.sim.n_vehicles,
        "aggregate": aggregate,
        "per_seed": per_seed,
    }


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    out = _resolve_out(cfg, args)
    policy = DispatchPolicy(cfg.sim)
    if args.checkpoint:
        _load_checkpoint(policy, args.checkpoint)
    report = evaluate(cfg, policy, args.checkpoint, out)
    path = os.path.join(out, f"report_{cfg.sim.baseline}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    with open(os.path.join(out, f"report_{cfg.sim.baseline}_days.csv"), "w", newline="") as fh:
        days = csv.DictWriter(fh, ["seed", "day", "generated", "accept_rate",
                                   "mean_wait_ticks", "active_vehicle_ratio"])
        days.writeheader()
        for seed_report in report["per_seed"]:
            days.writerows({"seed": seed_report["seed"], **row} for row in seed_report["per_day"])
    print(f"baseline {cfg.sim.baseline} over seeds {report['eval_seeds']}:")
    for key, value in report["aggregate"].items():
        print(f"  {key:<26} {value if value is not None else 'n/a'}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# compare

# metric -> True when larger is better
COMPARE_DIRECTIONS = {
    "accept_rate_overall": True,
    "accept_rate_passenger": True,
    "accept_rate_goods": True,
    "fuel_cost_per_delivery": False,
    "active_vehicle_ratio": False,
    "mean_wait_minutes": False,
    "effective_distance_ratio": True,
}


def cmd_compare(args) -> int:
    reports = []
    for path in args.reports:
        try:
            with open(path) as fh:
                report = json.load(fh)
        except FileNotFoundError:
            raise InputError(f"report not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"unreadable report {path}: {exc}") from None
        if not (isinstance(report, dict) and "baseline" in report
                and isinstance(report.get("aggregate"), dict)):
            raise InputError(f"not an eval report: {path}")
        reports.append(report)
    # one label per report given, by position: two reports of one baseline stay apart
    labels = [f"{i}:{r['baseline']}" for i, r in enumerate(reports)]
    comparison = {"reference": labels[0], "reports": dict(zip(labels, args.reports)),
                  "metrics": {}}
    name_width = max(len(m) for m in COMPARE_DIRECTIONS)
    header = f"{'metric':<{name_width}}  " + "  ".join(f"{label:>14}" for label in labels)
    lines = [header]
    for metric, bigger_is_better in COMPARE_DIRECTIONS.items():
        values = [r["aggregate"].get(metric) for r in reports]
        deltas = [None if (v is None or values[0] is None) else v - values[0] for v in values]
        usable = [(v, label) for v, label in zip(values, labels) if v is not None]
        pick = max if bigger_is_better else min  # the first report at the best value
        best = pick(usable, key=lambda pair: pair[0])[1] if usable else None
        comparison["metrics"][metric] = {
            "values": dict(zip(labels, values)),
            "delta_vs_reference": dict(zip(labels, deltas)),
            "direction": "higher_better" if bigger_is_better else "lower_better",
            "best": best,
        }
        cells = "  ".join("           n/a" if v is None else f"{v:>14.4f}" for v in values)
        lines.append(f"{metric:<{name_width}}  {cells}  -> best: {best}")
    table = "\n".join(lines)
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "compare.json"), "w") as fh:
            json.dump(comparison, fh, indent=2, sort_keys=True)
        print(f"wrote {os.path.join(args.out, 'compare.json')}")
    return 0


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    cfg = _run_config(args)
    requests = generate_workload(cfg.sim, cfg.sim.episode_ticks)
    write_trip_records(args.out, requests)
    print(f"wrote {len(requests)} requests over {cfg.sim.episode_ticks} ticks to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopfleet",
                                     description="fleet dispatch simulator and trainer")
    sub = parser.add_subparsers(dest="command", required=True)
    configured = argparse.ArgumentParser(add_help=False)  # train, eval and gen-data
    configured.add_argument("--config", required=True)
    configured.add_argument("--seed", type=int)
    configured.add_argument("--ticks", type=int)
    episodes = argparse.ArgumentParser(add_help=False, parents=[configured])  # train and eval
    episodes.add_argument("--out")
    episodes.add_argument("--checkpoint", help="start from this checkpoint; train resumes it")
    episodes.add_argument("--baseline", choices=BASELINES)

    sub.add_parser("train", parents=[episodes],
                   help="train a dispatch policy").set_defaults(func=cmd_train)
    sub.add_parser("eval", parents=[episodes],
                   help="evaluate a frozen policy").set_defaults(func=cmd_eval)

    cp = sub.add_parser("compare", help="compare metric reports")
    cp.add_argument("reports", nargs="+")
    cp.add_argument("--out")
    cp.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen-data", parents=[configured],
                         help="write a synthetic trip-record CSV")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
