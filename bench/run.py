"""hopfleet benchmark: host time per simulated tick and per episode, set-up
time, peak memory and the simulated service figures on three fleet
workloads; with ``--trace 1``, per-layer self times and counts instead.

    python3 bench/run.py --workload desk_eval --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports ``src/hopfleet`` from
that checkout and reads ``configs/default.yaml`` through ``cli.load_config``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine facts, the episode-log digest, and every metric with its
unit and sample count.

A run simulates several worlds, seeded from ``--seed``, one episode each,
then repeats them until ``--seconds`` are used up; it repeats the first
world at least once and times at least MIN_TICKS ticks. Every episode of a
world must reproduce the same ``EpisodeLog.canonical()`` digest, and with
``--trace 1`` the traced episodes must reproduce the untraced ones;
otherwise, or when a step raises, the run is not correct. The engine's
invariant checks stay on.
"""

import os

# One BLAS thread, pinned before numpy is imported: on two cores a batch-32
# forward pass takes 0.25 ms with one thread and 4.7 ms with two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.yaml"
OUT_DIR = BENCH_DIR / "out"
PUBLISHED_DIGESTS = BENCH_DIR / "digests.json"

MIN_TICKS = 200  # timed ticks per run, so that ten lie beyond tick_ms.p95

# Host times are the simulating thread's cpu time. The simulator runs on one
# thread and does no I/O while it steps, so this is its wall time less the
# stalls in which the virtual machine's host runs something else: on the
# two-core machine this was built on, 6.5% of 7 ms loops were stalled by more
# than 1 ms, some by 10 ms, which set the tail of the tick times.
CLOCK = time.thread_time

# Host times are reported at a reference host speed. That host also switches
# between a fast state and one about twice as slow, every few to a few hundred
# ms, with cpu time slowing alike, so the same episode's median tick took
# 4.6 ms and 8.9 ms a minute apart. A short fixed pure-Python loop, the speed
# probe, runs after every tick, outside its time. Each tick is scaled by
# (REFERENCE_PROBE_S / p) ** SPEED_EXPONENT, p the mean probe time over the
# SPEED_WINDOW ticks on either side of it; set-up and episode times use the
# episode's mean probe time. The simulator slows less than the probe, its
# numpy work less than its Python: over five runs of each workload, exponents
# from 0.7 to 1.0 left the scaled times spreading least, and 0.85 suited all
# three. The table printed before the result line gives the raw times.
PROBE_ITERATIONS = 1000
REFERENCE_PROBE_S = 0.0003
SPEED_WINDOW = 2
SPEED_EXPONENT = 0.85
_PROBE_RNG = random.Random(12345)
_PROBE_POINTS = [(_PROBE_RNG.randrange(60), _PROBE_RNG.randrange(60)) for _ in range(1000)]


def speed_probe_s() -> float:
    """Time of a fixed loop of tuple arithmetic and dict updates, the kind
    of work the simulator does, using none of its code."""
    points, tally = _PROBE_POINTS, {}
    start = CLOCK()
    for i in range(PROBE_ITERATIONS):
        a, b = points[i % 1000], points[i * 7 % 1000]
        d = abs(a[0] - b[0]) + abs(a[1] - b[1])
        tally[d] = tally.get(d, 0) + 1
    return CLOCK() - start


def speed_scale(probe_s: list) -> float:
    """Factor from the host speed the probe times show to the reference speed."""
    return (REFERENCE_PROBE_S / statistics.fmean(probe_s)) ** SPEED_EXPONENT


@dataclass(frozen=True)
class Workload:
    """How a workload changes ``configs/default.yaml``; 0 keeps the shipped value.

    A run simulates ``worlds`` seeds derived from ``--seed``, one episode of
    ``ticks`` each, and reports the mean service figures over them, as
    ``hopfleet eval`` aggregates over its evaluation seeds. One world differs
    from the next in its hot zones, goods sites and relay hubs, so a single
    world's mean wait moves by 10-25% from seed to seed. Each episode starts
    from its own seeded, untrained policy, so episodes of one world repeat.
    """

    mode: str  # "eval" or "train"
    replay: bool  # demand replayed from a trip CSV written from the world's seed
    ticks: int  # episode length
    worlds: int
    grid: int = 0  # side of a square grid
    n_vehicles: int = 0


# Short episodes over several worlds keep the figures steady. A 20 s run is
# one pass over the worlds plus the repeat of the first, so each world weighs
# about the same; on a host whose stalls stretch wall time by half, such a
# pass still takes under 30 s.
# A desk eval episode is one simulated day (ticks_per_day 250). Train episodes
# run two days: the replay buffer holds a first batch only after about 180
# ticks, and the learner updates on about two thirds of 500 ticks. City
# episodes stop at 60 ticks: the pool of parked dispatched vehicles, whose
# growth differs most between worlds, is still small then.
WORKLOADS = {
    # demand generation and route planning carry it; the learner is idle
    "desk_eval": Workload("eval", False, ticks=250, worlds=10),
    # the only workload the learner works on; generate_tick_requests is idle
    "desk_train_replay": Workload("train", True, ticks=500, worlds=5),
    # the requests x vehicles loop in matching carries it, and warmup demand
    # over 3,600 zones makes set-up large
    "city_eval": Workload("eval", False, ticks=60, worlds=5, grid=60, n_vehicles=500),
}


def world_seeds(seed: int, worlds: int) -> list:
    return [seed * 1000 + i for i in range(worlds)]


END_TO_END_UNITS = {
    "setup_s": "s",
    "episode_s": "s",
    "tick_ms.p50": "ms",
    "tick_ms.p95": "ms",
    "peak_rss_mb": "MB",
    "accept_rate": "ratio",
    "mean_wait_ticks": "ticks",
    "fuel_per_delivery": "USD",
    "completed_tick_share": "ratio",
}

FLEET_STATUSES = ("idle", "dispatching", "dispatched", "matched", "serving")
# a layer's self time is the sum over its spans, which are named after it
LAYERS = ("demand", "fleet", "matching", "hopplan", "dispatch_rl", "reward", "engine",
          "metrics")

PER_LAYER_UNITS = {
    "demand.generate_tick_requests.calls": "count",
    "demand.generate_tick_requests.self_ms": "ms",
    "geo.zones_within.calls": "count",
    "demand.requests_generated": "count",
    "demand.forecast.self_ms": "ms",
    "demand.ingest_trip_records.ms": "ms",
    "fleet.planned_stops.calls": "count",
    "fleet.planned_stops.self_ms": "ms",
    "fleet.move.self_ms": "ms",
    "fleet.project_supply.self_ms": "ms",
    "fleet.process_arrivals.self_ms": "ms",
    **{f"fleet.status_share.{s}": "ratio" for s in FLEET_STATUSES},
    "matching.match.calls": "count",
    "matching.match.self_ms": "ms",
    "matching.pairs_scanned": "count",
    "geo.eta.calls": "count",
    "matching.assigned": "count",
    "matching.assign_ratio": "ratio",
    "hopplan.assign_hop_zones.calls": "count",
    "hopplan.assign_hop_zones.self_ms": "ms",
    "hopplan.legs_per_goods": "legs",
    "geo.hub_count": "count",
    "dispatch_rl.train_step.calls": "count",
    "dispatch_rl.train_step.self_ms": "ms",
    "dispatch_rl.update_ratio": "ratio",
    "dispatch_rl.q_values.calls": "count",
    "dispatch_rl.q_values.rows": "count",
    "dispatch_rl.q_values.self_ms": "ms",
    "dispatch_rl.loss_and_gradients.self_ms": "ms",
    "dispatch_rl.apply_gradients.self_ms": "ms",
    "dispatch_rl.encode_state.self_ms": "ms",
    "dispatch_rl.select_action.self_ms": "ms",
    "reward.agent_reward.calls": "count",
    "reward.agent_reward.self_ms": "ms",
    "engine.step.self_ms": "ms",
    "engine.events": "count",
    "engine.initialize.ms": "ms",
    "cli.load_config.ms": "ms",
    "metrics.build_report.ms": "ms",
    "engine.canonical.ms": "ms",
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_s": "s",
}


class CheckoutError(RuntimeError):
    """The working directory is not a hopfleet source checkout."""


def load_program() -> SimpleNamespace:
    """Import hopfleet from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hopfleet" / "__init__.py").is_file() or not CONFIG.is_file():
        raise CheckoutError(f"{ROOT} holds no src/hopfleet package or configs/default.yaml")
    sys.path.insert(0, str(SRC))
    import hopfleet
    from hopfleet import cli, demand, dispatch_rl, engine, fleet, geo, metrics

    if not Path(hopfleet.__file__).resolve().is_relative_to(SRC):
        raise CheckoutError(f"imported hopfleet from {hopfleet.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, demand=demand, dispatch_rl=dispatch_rl, engine=engine,
                           fleet=fleet, geo=geo, metrics=metrics)


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# episodes


def sim_config(prog, wl: Workload, seed: int, trips_csv=None):
    """The workload's SimConfig, from configs/default.yaml via cli.load_config."""
    cfg = replace(prog.cli.load_config(CONFIG).sim, seed=seed, episode_ticks=wl.ticks)
    if wl.grid:
        cfg = replace(cfg, grid=replace(cfg.grid, width=wl.grid, height=wl.grid))
    if wl.n_vehicles:
        cfg = replace(cfg, n_vehicles=wl.n_vehicles)
    if trips_csv:
        cfg = replace(cfg, demand=replace(cfg.demand, trips_csv=str(trips_csv)))
    return cfg


def write_trips(prog, wl: Workload, seed: int, path: Path) -> Path:
    """A replay trip file: the demand the seed draws over one episode."""
    cfg = sim_config(prog, wl, seed)
    prog.demand.write_trip_records(path, prog.engine.generate_workload(cfg, cfg.episode_ticks))
    return path


def set_up(prog, wl: Workload, seed: int, trips_csv=None):
    """Config load through Simulation.initialize(), as ``hopfleet eval`` does."""
    cfg = sim_config(prog, wl, seed, trips_csv)
    sim = prog.engine.Simulation(cfg, policy=prog.engine.DispatchPolicy(cfg))
    sim.initialize()
    return sim


def log_digest(log) -> str:
    return hashlib.sha256(log.canonical().encode()).hexdigest()


def digests_agree(digests) -> bool:
    """The correctness gate: every episode of one world, traced or not, must
    write the same canonical log."""
    return len(set(digests)) == 1


def service_errors(log, report, ticks: int) -> list:
    """Checks of the episode report against counts taken from the log itself."""
    requests = sum(1 for e in log.events if e["kind"] == "request" and e.get("parent") is None)
    picked = sum(1 for e in log.events if e["kind"] == "pickup" and e.get("parent") is None)
    errors = []
    if report.ticks != ticks or len(log.by_kind("tick_stats")) != ticks:
        errors.append(f"episode logged {report.ticks} ticks, expected {ticks}")
    if requests == 0 or report.delivered == 0:
        errors.append("episode generated or delivered nothing")
        return errors
    if report.accept_rate_overall != picked / requests:
        errors.append(f"accept rate {report.accept_rate_overall} != {picked}/{requests} in the log")
    if not (report.fuel_cost_per_delivery > 0 and report.mean_wait_ticks >= 0):
        errors.append("fuel per delivery or mean wait out of range")
    return errors


@dataclass
class Episode:
    seed: int
    setup_s: float
    episode_s: float
    digest: str
    report: object
    hubs: int
    events: int
    errors: list
    tick_ms: list
    probe_s: list  # the speed probe after each tick
    traced: bool = False

    @property
    def scale(self) -> float:
        """To the reference host speed, over the whole episode."""
        return speed_scale(self.probe_s)

    def scaled_tick_ms(self) -> list:
        """Each tick at the reference speed, from the probes around it."""
        probes, w = self.probe_s, SPEED_WINDOW
        return [ms * speed_scale(probes[max(0, i - w):i + w + 1])
                for i, ms in enumerate(self.tick_ms)]


class TickClock:
    """Times every ``Simulation.step`` call, in ms, and runs the speed probe
    after each one, outside its time."""

    def __init__(self, engine):
        self.engine = engine

    def __enter__(self):
        self.ms, self.probe_s = [], []
        self.original = vars(self.engine.Simulation)["step"]
        original, ms, probe_s, clock = self.original, self.ms, self.probe_s, CLOCK

        def step(sim):
            start = clock()
            out = original(sim)
            ms.append((clock() - start) * 1e3)
            probe_s.append(speed_probe_s())
            return out

        self.engine.Simulation.step = step
        return self

    def __exit__(self, *exc):
        self.engine.Simulation.step = self.original
        return False


def run_episode(prog, wl: Workload, seed: int, clock: TickClock, trips_csv=None) -> Episode:
    """setup_s spans config load through initialize(); episode_s adds every
    tick and metrics.build_report, less the speed probes. The digest is taken
    outside both."""
    gc.collect()
    with clock:
        t0 = CLOCK()
        sim = set_up(prog, wl, seed, trips_csv)
        t1 = CLOCK()
        log = sim.run(mode=wl.mode)
        report = prog.metrics.build_report(log, sim.cfg.effective_distance_includes_dispatch)
        t2 = CLOCK()
    return Episode(seed, t1 - t0, t2 - t0 - sum(clock.probe_s), log_digest(log), report,
                   len(sim.grid.hop_zones), len(log.events), service_errors(log, report, wl.ticks),
                   clock.ms, clock.probe_s)


# ---------------------------------------------------------------------------
# tracing


def _count_status(tr, args, result):
    for v in args[0].vehicles:
        tr.counts["status." + v.status] += 1
    tr.counts["status.samples"] += len(args[0].vehicles)


def _count_match(tr, args, result):
    requests, vehicles = args[0], args[1]
    tr.counts["match.offered"] += len(requests)
    tr.counts["match.pairs"] += len(requests) * len(vehicles)
    tr.counts["match.assigned"] += len(result)


def build_tracer(prog) -> Tracer:
    """Wrap the names the engine resolves when it runs, layer by layer."""
    eng, dm, fl, rl = prog.engine, prog.demand, prog.fleet, prog.dispatch_rl
    tr = Tracer()
    tr.span(prog.cli, "load_config", "cli.load_config")
    tr.span(eng.Simulation, "initialize", "engine.initialize")
    tr.span(eng.Simulation, "step", "engine.step", _count_status, opens_tick=True)
    tr.span(eng.EpisodeLog, "canonical", "engine.canonical")
    tr.span(prog.metrics, "build_report", "metrics.build_report")
    tr.span(dm, "generate_tick_requests", "demand.generate_tick_requests",
            lambda t, a, r: t.counts.update({"requests": len(r)}))
    tr.span(dm, "ingest_trip_records", "demand.ingest_trip_records")
    tr.span(dm.HistoricalAverageForecaster, "forecast", "demand.forecast")
    tr.span(fl.VehicleState, "planned_stops", "fleet.planned_stops")
    tr.span(fl, "move", "fleet.move")
    tr.span(fl, "project_supply", "fleet.project_supply")
    tr.span(fl, "process_arrivals", "fleet.process_arrivals")
    # from-imports: the engine holds its own references to these
    tr.span(eng, "match", "matching.match", _count_match)
    tr.span(eng, "assign_hop_zones", "hopplan.assign_hop_zones",
            lambda t, a, r: t.counts.update({"legs": len(r.legs)}))
    tr.span(eng, "agent_reward", "reward.agent_reward")
    tr.span(rl, "train_step", "dispatch_rl.train_step",
            lambda t, a, r: t.counts.update({"updates": r is not None}))
    tr.span(rl.QNetwork, "q_values", "dispatch_rl.q_values",
            lambda t, a, r: t.counts.update({"q_rows": 1 if np.ndim(a[1]) == 1 else len(a[1])}))
    tr.span(rl.QNetwork, "loss_and_gradients", "dispatch_rl.loss_and_gradients")
    tr.span(rl.QNetwork, "apply_gradients", "dispatch_rl.apply_gradients")
    tr.span(rl, "encode_state", "dispatch_rl.encode_state")
    tr.span(rl, "select_action", "dispatch_rl.select_action")
    tr.count(prog.geo.GridWorld, "eta", "geo.eta")
    tr.count(prog.geo.GridWorld, "zones_within", "geo.zones_within")
    return tr


def layer_sample(tr: Tracer, ep: Episode) -> dict:
    """Per-layer figures of one traced episode: its ticks, report and
    digest; set-up shows only in the ``.ms`` figures of the set-up calls."""
    calls, counts = tr.calls, tr.counts

    def self_ms(name):
        return tr.self_s[name] * 1e3 * ep.scale

    def setup_ms(name):
        return tr.setup_s[name] * 1e3 * ep.scale

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "demand.generate_tick_requests.calls": calls["demand.generate_tick_requests"],
        "demand.generate_tick_requests.self_ms": self_ms("demand.generate_tick_requests"),
        "geo.zones_within.calls": calls["geo.zones_within"],
        "demand.requests_generated": counts["requests"],
        "demand.forecast.self_ms": self_ms("demand.forecast"),
        "demand.ingest_trip_records.ms": setup_ms("demand.ingest_trip_records"),
        "fleet.planned_stops.calls": calls["fleet.planned_stops"],
        "fleet.planned_stops.self_ms": self_ms("fleet.planned_stops"),
        "fleet.move.self_ms": self_ms("fleet.move"),
        "fleet.project_supply.self_ms": self_ms("fleet.project_supply"),
        "fleet.process_arrivals.self_ms": self_ms("fleet.process_arrivals"),
        "matching.match.calls": calls["matching.match"],
        "matching.match.self_ms": self_ms("matching.match"),
        "matching.pairs_scanned": counts["match.pairs"],
        "geo.eta.calls": calls["geo.eta"],
        "matching.assigned": counts["match.assigned"],
        "matching.assign_ratio": ratio(counts["match.assigned"], counts["match.offered"]),
        "hopplan.assign_hop_zones.calls": calls["hopplan.assign_hop_zones"],
        "hopplan.assign_hop_zones.self_ms": self_ms("hopplan.assign_hop_zones"),
        "hopplan.legs_per_goods": ratio(counts["legs"], calls["hopplan.assign_hop_zones"]),
        "geo.hub_count": ep.hubs,
        "dispatch_rl.train_step.calls": calls["dispatch_rl.train_step"],
        "dispatch_rl.train_step.self_ms": self_ms("dispatch_rl.train_step"),
        "dispatch_rl.update_ratio": ratio(counts["updates"], calls["dispatch_rl.train_step"]),
        "dispatch_rl.q_values.calls": calls["dispatch_rl.q_values"],
        "dispatch_rl.q_values.rows": counts["q_rows"],
        "dispatch_rl.q_values.self_ms": self_ms("dispatch_rl.q_values"),
        "dispatch_rl.loss_and_gradients.self_ms": self_ms("dispatch_rl.loss_and_gradients"),
        "dispatch_rl.apply_gradients.self_ms": self_ms("dispatch_rl.apply_gradients"),
        "dispatch_rl.encode_state.self_ms": self_ms("dispatch_rl.encode_state"),
        "dispatch_rl.select_action.self_ms": self_ms("dispatch_rl.select_action"),
        "reward.agent_reward.calls": calls["reward.agent_reward"],
        "reward.agent_reward.self_ms": self_ms("reward.agent_reward"),
        "engine.step.self_ms": self_ms("engine.step"),
        "engine.events": ep.events,
        "engine.initialize.ms": setup_ms("engine.initialize"),
        "cli.load_config.ms": setup_ms("cli.load_config"),
        "metrics.build_report.ms": self_ms("metrics.build_report"),
        "engine.canonical.ms": self_ms("engine.canonical"),
    }
    for s in FLEET_STATUSES:
        out[f"fleet.status_share.{s}"] = ratio(counts["status." + s], counts["status.samples"])
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = sum(
            self_ms(span) for span in tr.calls if span.startswith(layer + "."))
    return out


# ---------------------------------------------------------------------------
# one run


def host_times(episodes: list, scaled: bool) -> dict:
    """Set-up, episode and tick times, at the reference host speed or raw."""
    def at(e, value):
        return value * e.scale if scaled else value

    ticks = [t for e in episodes for t in (e.scaled_tick_ms() if scaled else e.tick_ms)]
    return {
        "setup_s": statistics.median(at(e, e.setup_s) for e in episodes),
        "episode_s": statistics.median(at(e, e.episode_s) for e in episodes),
        "tick_ms.p50": statistics.median(ticks),
        "tick_ms.p95": statistics.quantiles(ticks, n=20)[18],
    }


def measure(prog, wl: Workload, seed: int, seconds: float, trace: bool,
            min_ticks: int = MIN_TICKS) -> dict:
    """Run episodes for ``seconds``; returns the result object plus the
    per-metric sample counts and the digests seen.

    Untraced, the run cycles through the workload's worlds and repeats the
    first one, at least. Traced, it alternates untraced and traced episodes
    of the first world, so that their counts repeat exactly.
    """
    seeds = world_seeds(seed, 1 if trace else wl.worlds)
    least = 2 if trace else len(seeds) + 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer = build_tracer(prog) if trace else None
    episodes, layer_samples, errors = [], [], []
    attempted = failed = ticks = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        # every input exists before the first timer starts or a wrapper goes in
        trips = {s: write_trips(prog, wl, s, Path(work_dir) / f"trips-{s}.csv") if wl.replay
                 else None for s in seeds}
        clock = TickClock(prog.engine)
        start = time.perf_counter()  # --seconds is wall time
        while True:
            world = seeds[len(episodes) % len(seeds)]
            traced = trace and len(episodes) % 2 == 1
            if traced:
                tracer.reset()
            try:
                # the clock goes in inside the tracer, so no span times a probe
                with tracer if traced else nullcontext():
                    ep = run_episode(prog, wl, world, clock, trips[world])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                attempted += wl.ticks
                failed += wl.ticks - len(clock.ms)
                errors.append(f"an episode of world {world} raised; the run stops")
                break
            attempted += wl.ticks
            ep.traced = traced
            episodes.append(ep)
            ticks += len(ep.tick_ms)
            errors.extend(f"world {world}: {e}" for e in ep.errors)
            if traced:
                layer_samples.append(layer_sample(tracer, ep))
            elapsed = time.perf_counter() - start
            if (len(episodes) >= least and (trace or ticks >= min_ticks)
                    and elapsed + elapsed / len(episodes) > seconds):
                break

    by_world = {}
    for ep in episodes:
        by_world.setdefault(ep.seed, []).append(ep)
    for world, eps in by_world.items():
        if not digests_agree(e.digest for e in eps):
            errors.append(f"world {world}: {len(eps)} episodes wrote different logs")
    metrics, samples = {}, {}
    if trace and layer_samples:
        for key in PER_LAYER_UNITS:
            if key != "trace.overhead_s":
                metrics[key] = statistics.median(s[key] for s in layer_samples)
                samples[key] = len(layer_samples)
        metrics["trace.overhead_s"] = (
            statistics.median(e.episode_s * e.scale for e in episodes if e.traced)
            - statistics.median(e.episode_s * e.scale for e in episodes if not e.traced))
        samples["trace.overhead_s"] = len(episodes)
    elif not trace and len(by_world) == len(seeds) and not errors:
        reports = [eps[0].report for eps in by_world.values()]
        metrics = {
            **host_times(episodes, scaled=True),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accept_rate": statistics.mean(r.accept_rate_overall for r in reports),
            "mean_wait_ticks": statistics.mean(r.mean_wait_ticks for r in reports),
            "fuel_per_delivery": statistics.mean(r.fuel_cost_per_delivery for r in reports),
            "completed_tick_share": (attempted - failed) / attempted,
        }
        samples = {key: len(reports) for key in metrics}
        samples.update({"setup_s": len(episodes), "episode_s": len(episodes),
                        "tick_ms.p50": ticks, "tick_ms.p95": ticks,
                        "peak_rss_mb": 1, "completed_tick_share": attempted})
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = [key for key in units if key not in metrics]
    if missing and not errors:
        errors.append(f"no value for {', '.join(missing)}")
    return {
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "samples": samples,
        # the run's digest: one per world, in world order
        "digest": hashlib.sha256(" ".join(
            eps[0].digest for eps in by_world.values()).encode()).hexdigest(),
        "errors": errors,
        "raw": host_times(episodes, scaled=False) if metrics and not trace else {},
        "episodes": len(episodes),
        "worlds": len(by_world),
        "tracer": tracer,
    }


def published_digest(name: str, seed: int):
    try:
        with open(PUBLISHED_DIGESTS) as fh:
            return json.load(fh).get(name, {}).get(str(seed))
    except FileNotFoundError:
        return None


def print_run(name: str, seed: int, trace: bool, facts: dict, run: dict):
    wl = WORKLOADS[name]
    print(f"workload {name} seed {seed} trace {int(trace)}: {run['episodes']} episodes "
          f"of {wl.ticks} ticks over {run['worlds']} worlds")
    print("facts " + json.dumps(facts, sort_keys=True))
    published = published_digest(name, seed)
    verdict = ("none" if published is None or trace
               else "match" if run["digest"] == published else "MISMATCH")
    print(f"log digest {run['digest']} (published for this seed: {verdict})")
    for error in run["errors"]:
        print(f"not correct: {error}")
    metrics = run["result"]["metrics"]
    width = max((len(k) for k in metrics), default=6)
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<6}  {'samples':>7}  raw host time")
    for key, m in metrics.items():
        raw = f"{run['raw'][key]:.6g}" if key in run["raw"] else ""
        print(f"{key:<{width}}  {m['value']:>14.6g}  {m['unit']:<6}  {run['samples'][key]:>7}  {raw}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    facts = machine_facts()
    try:
        prog = load_program()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = measure(prog, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if run["tracer"] is not None:
        run["tracer"].write_spans(OUT_DIR / f"spans-{args.workload}.jsonl")
    print_run(args.workload, args.seed, bool(args.trace), facts, run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
