"""Discrete-time fleet simulation: intake, dispatch, matching, relays, learning.

Each tick runs a fixed phase order over vehicles in ascending id. The
fleet is a ``fleet.FleetTable``, which builds the vehicles as its rows and
is the one stored copy of each vehicle's status, zone, objective, odometer,
capacity and orders: phases 2-6 pick their vehicles by a mask over its
columns, which the vehicles write as they change, phase 5 moves the fleet
and phase 6 prices its orders in one pass over the columns each:

  1. intake the tick's requests, drawn as one Poisson total of passengers
     and one count per goods site (``demand.generate_tick_requests``), and
     add their origins to the forecaster's flat per-zone mean; plan each
     package's relay chain (``Request.legs``)
  2. arrival processing, in id order, for the vehicles the last move pass
     left where something resolves (``fleet.FleetTable.arriving``; the fleet
     module docstring states the rule): a dispatching vehicle at its target
     becomes dispatched; a serving one drops, then picks up, and goes idle
     once it holds no orders. A vehicle on its plan's first stop drops that
     stop, a drop elsewhere rebuilds the plan. ``fleet.process_arrivals``
     returns the dropped and the picked-up request ids, which are logged at
     the vehicle's zone and the tick (the request stays held); a drop at the
     end of a leg that is not the package's last queues the same request row again at the hub, its
     leg cursor advanced (``RequestTable.hand_off``)
  3. idle vehicles query the dispatch policy with the scheduled probability;
     a self-targeted action holds the vehicle idle, anything else starts a
     dispatch drive and writes its target. Each idle vehicle first makes its
     draws in id order (the act gate, then the exploration draw), as no draw
     reads a Q-value; the acting ones are then taken in chunks of
     ``STACK_CHUNK`` as arrays, cropped from the tick's maps padded once
     (``observation_maps``), one matrix product each (``q_values`` says
     how near its rows are to a pass per row), the moving ones written as
     columns (``FleetTable.dispatch``) and logged in id order.
     Before it, ``project_supply`` counts the available vehicles per zone
     with one ``np.bincount`` over the zone column; on a full-check tick the
     fleet table is checked against a fresh count first, since supply and
     matching read it
  4. greedy matching binds queued requests, in queue order, each priced by
     its current leg's origin and its kind code within ``reject_ticks``, to
     dispatched vehicles and to partially filled serving vehicles, a pool
     whose zones and free capacity it reads from the table; a dispatched
     vehicle serves from its first assignment. Stale requests expire
  5. one ``fleet.move`` pass advances every vehicle that is not parked,
     i.e. neither idle nor dispatched, toward its objective, in integer
     arrays over the zone and target columns; a serving vehicle adds the
     steps moved to its plan's odometer column
  6. rewards and objective components are settled: one ``agent_reward``
     call prices the whole fleet from the status and onboard columns and
     the onboard orders late against a direct trip (``fleet.late_orders``,
     one pass over the order table and the request table's columns, each
     ETA at the order's ``drop_cum``), by vehicle and then manifest
     position; per-tick stats are logged. In training mode each vehicle has
     at most one open decision: the tick's reward is added to every open
     one, then each decision of the tick, in dispatch order, pushes its
     vehicle's open decision to replay with its own state as the next
     state, and opens in its place (evaluation keeps no decisions and
     pushes nothing)
  7. training mode takes one gradient step and syncs the target on schedule

The invariant checks run after settling, as passes over the fleet table and
the request table (``demand.RequestTable``, one row per request for its
whole life and the one stored copy of its status, leg cursor and queue
entry: the queue is its queued rows, and the next request id its length;
whether a held request is onboard is its order's flag alone).
Every tick, column expressions find an overcommitted vehicle (free seats or
trunk slots below zero), a status code outside ``VEHICLE_STATUSES``, or a
vehicle that serves without orders or holds orders without serving, and
check that every order's request is held, so a request queued or closed
while in an order fails here. Every ``FULL_CHECK_EVERY`` ticks, the fleet
table is compared with a fresh count of the status column, plans and order
table (``first_stale``, which keeps the zone column on the grid); then the
stored stop plan of each vehicle that holds orders with a fresh one built
from the zone column (which covers the position and the odometer), while a
vehicle with none must have an empty plan, as ``planned_stops`` would make
it; each order's ``drop_cum`` with its vehicle's stored plan; and the
orders are counted per request with one ``np.bincount``: one for each held
request, none for any other, which catches a request lost or held twice.
Onboard orders are a subset of held ones, so a fresh column that is not
overcommitted is within capacity too.

Identical seed and config give bit-identical episode logs. ``step`` also sums
the thread's cpu time in each phase into ``phase_seconds``, which is kept
out of the log so that it stays bit-identical.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import demand as dm
from . import dispatch_rl as rl
from . import fleet as fl
from .geo import GridWorld, ZoneId, designate_hop_zones, hub_lattice, nearest_zone, travel_ticks
from .hopplan import assign_hop_zones
from .matching import match
from .reward import (
    RewardWeights,
    agent_reward,
    global_objective,
    supply_demand_gap,
)

BASELINE_FLEX_HOPS = "flex_hops"
BASELINE_FLEX_NOHOPS = "flex_nohops"
BASELINE_SEPARATE = "separate"
BASELINES = (BASELINE_FLEX_HOPS, BASELINE_FLEX_NOHOPS, BASELINE_SEPARATE)

MODE_TRAIN = "train"
MODE_EVAL = "eval"

FULL_CHECK_EVERY = 25  # ticks between full conservation scans

_QUEUED, _HELD = dm.REQUEST_STATUS_CODE[dm.QUEUED], dm.REQUEST_STATUS_CODE[dm.HELD]

# the parts of Simulation.step timed into Simulation.phase_seconds, in order
PHASES = ("intake", "arrivals", "supply", "forecast", "dispatch", "match", "advance",
          "settle", "checks", "learn")


class EngineInvariantError(RuntimeError):
    """A simulation invariant broke; the message carries a state dump."""


# ---------------------------------------------------------------------------
# configuration


def check_lower_bounds(cfg, section: str, bounds):
    """Raise ValueError naming the first ``(field, low)`` of ``bounds`` whose
    value in ``cfg`` is below ``low``; ``section`` prefixes the name."""
    for name, low in bounds:
        if getattr(cfg, name) < low:
            raise ValueError(f"{section}{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass
class GridConfig:
    width: int
    height: int
    zone_edge_m: float
    vehicle_speed: int
    hop_stride: int
    hop_min_pickups: int
    hop_count_radius: int  # neighborhood radius when tallying warmup pickups

    def __post_init__(self):
        check_lower_bounds(self, "grid.", (("width", 1), ("height", 1), ("vehicle_speed", 1),
                                           ("hop_stride", 1), ("hop_min_pickups", 0),
                                           ("hop_count_radius", 0)))
        if not self.zone_edge_m > 0:
            raise ValueError(f"grid.zone_edge_m must be > 0, got {self.zone_edge_m}")
        if self.width * self.height < 2:
            # a trip needs a destination other than its origin
            raise ValueError(f"grid.width x grid.height must give at least 2 zones, "
                             f"got {self.width}x{self.height}")


@dataclass
class DemandConfig:
    passenger_rate_per_zone: float  # uniform base rate
    origin_hot_zone_count: int
    origin_hot_rate: float  # extra passenger rate at each hot origin
    hot_weight: float  # share of passenger trips headed to a hot origin
    goods_locations_per_kind: int
    goods_location_rate: float
    goods_radius_zones: int
    trips_csv: str | None

    def __post_init__(self):
        check_lower_bounds(self, "demand.", (("passenger_rate_per_zone", 0), ("origin_hot_rate", 0),
                                             ("goods_location_rate", 0), ("goods_radius_zones", 1),
                                             ("goods_locations_per_kind", 0)))
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError(f"demand.hot_weight must be in [0, 1], got {self.hot_weight}")


@dataclass
class RLConfig:
    window: int
    action_radius: int
    hidden: tuple[int, ...]
    learning_rate: float
    batch_size: int
    buffer_capacity: int
    sync_period: int

    def __post_init__(self):
        if self.window % 2 == 0:
            raise ValueError(f"rl.window must be odd, got {self.window}")
        check_lower_bounds(self, "rl.", (("window", 1), ("action_radius", 0), ("batch_size", 1),
                                         ("buffer_capacity", 1), ("sync_period", 1)))
        self.hidden = tuple(self.hidden)
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"rl.hidden layers must each be >= 1 wide, got {list(self.hidden)}")
        if not self.learning_rate > 0:
            raise ValueError(f"rl.learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size > self.buffer_capacity:
            # a batch larger than the buffer can never be sampled: no step is taken
            raise ValueError(f"rl.batch_size must be <= rl.buffer_capacity, got "
                             f"{self.batch_size} > {self.buffer_capacity}")


@dataclass
class SimConfig:
    """One world and its learner; ``configs/default.yaml`` holds every field."""

    grid: GridConfig
    demand: DemandConfig
    rl: RLConfig
    n_vehicles: int
    seats: int
    trunk: int
    separate_split: float
    separate_goods_trunk: int
    dt_minutes: float
    ticks_per_day: int
    weights_preset: str
    discount: float
    t_n: int
    seed: int
    reject_radius_m: float
    patience_ticks: int
    max_hop_depth: int
    baseline: str
    warmup_ticks: int
    episode_ticks: int
    effective_distance_includes_dispatch: bool

    def __post_init__(self):
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}")
        check_lower_bounds(self, "", (("seed", 0), ("n_vehicles", 1), ("ticks_per_day", 1),
                                      ("t_n", 1), ("episode_ticks", 0), ("seats", 0), ("trunk", 0),
                                      ("separate_goods_trunk", 0), ("max_hop_depth", 0),
                                      ("reject_radius_m", 0), ("patience_ticks", 0),
                                      ("warmup_ticks", 0)))
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {self.discount}")
        if not 0.0 <= self.separate_split <= 1.0:
            raise ValueError(f"separate_split must be in [0, 1], got {self.separate_split}")
        if not self.dt_minutes > 0:
            # the report's minute-based metrics scale by it
            raise ValueError(f"dt_minutes must be > 0, got {self.dt_minutes}")
        zones = self.grid.width * self.grid.height
        if not 0 <= self.demand.origin_hot_zone_count <= zones:
            # the hot zones are distinct zones of the grid
            raise ValueError(f"demand.origin_hot_zone_count must be in [0, grid.width x "
                             f"grid.height = {zones}], got {self.demand.origin_hot_zone_count}")
        self.weights()  # an unknown weights_preset fails here, not at the first tick

    @property
    def reject_ticks(self) -> int:
        """The pickup-ETA bound: the reject radius in ticks, rounded up."""
        return math.ceil(self.reject_radius_m / self.grid.zone_edge_m / self.grid.vehicle_speed)

    def weights(self) -> RewardWeights:
        return RewardWeights.preset(self.weights_preset)


# ---------------------------------------------------------------------------
# episode log


# exact types a log event stores as they are; np.float64, a subclass of
# float, and bool, a subclass of int, still go through _plain
_AS_IS = frozenset({int, float, str, type(None)})


def _plain(value):
    if isinstance(value, tuple):
        return [v if type(v) in _AS_IS else _plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


@dataclass
class EpisodeLog:
    """Ordered event records for one episode; everything metrics need."""

    n_vehicles: int
    dt_minutes: float
    ticks_per_day: int
    baseline: str
    seed: int
    ticks: int = 0
    events: list = field(default_factory=list)

    def add(self, tick: int, kind: str, **payload):
        event = {"tick": tick, "kind": kind}
        for key, value in payload.items():
            event[key] = value if type(value) in _AS_IS else _plain(value)
        self.events.append(event)

    def by_kind(self, kind: str) -> list:
        return [e for e in self.events if e["kind"] == kind]

    def canonical(self) -> str:
        head = {
            "n_vehicles": self.n_vehicles,
            "dt_minutes": self.dt_minutes,
            "ticks_per_day": self.ticks_per_day,
            "baseline": self.baseline,
            "seed": self.seed,
            "ticks": self.ticks,
        }
        lines = [json.dumps(head, sort_keys=True)]
        lines.extend(json.dumps(e, sort_keys=True) for e in self.events)
        return "\n".join(lines) + "\n"

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            fh.write(self.canonical())


# ---------------------------------------------------------------------------
# dispatch policy container


class DispatchPolicy:
    """Online and target Q-networks plus one replay buffer, shared by the fleet."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.input_dim = rl.state_dim(cfg.rl.window)
        self.n_actions = rl.action_count(cfg.rl.action_radius)
        init_seq, sample_seq = np.random.SeedSequence(cfg.seed).spawn(2)
        self.sample_rng = np.random.default_rng(sample_seq)
        self.online = rl.QNetwork(self.input_dim, self.n_actions, cfg.rl.hidden,
                                  rng=np.random.default_rng(init_seq.spawn(1)[0]))
        self.target = self.online.clone()
        self.buffer = rl.ReplayBuffer(cfg.rl.buffer_capacity)
        self.schedule_step = 0

    def train_tick(self):
        """One training step and the scheduled target sync; returns the loss or None."""
        self.schedule_step += 1
        loss = rl.train_step(self.buffer, self.online, self.target, self.cfg.rl.batch_size,
                             self.cfg.rl.learning_rate, self.cfg.discount, self.sample_rng)
        rl.sync_target(self.online, self.target, self.schedule_step, self.cfg.rl.sync_period)
        return None if loss is None else float(loss)

    def epsilon(self, training: bool) -> float:
        if not training:
            return rl.EPSILON_FLOOR
        return rl.epsilon_at(self.schedule_step, self.cfg.t_n)

    def act_probability(self, training: bool) -> float:
        if not training:
            return 1.0
        return rl.act_probability_at(self.schedule_step, self.cfg.t_n)

    def save(self, path, extra: dict | None = None):
        rl.save_checkpoint(path, self.online, self.target, self.schedule_step, extra)

    def load(self, path):
        expected = {"input_dim": self.input_dim, "hidden": list(self.cfg.rl.hidden),
                    "n_actions": self.n_actions}
        self.online, self.target, header = rl.load_checkpoint(path, expected=expected)
        self.schedule_step = int(header["step"])
        return header


# ---------------------------------------------------------------------------
# simulation


@dataclass
class _Pending:
    """A decision waiting for its successor: the replay transition in flight."""

    state: np.ndarray
    action: int
    tick: int
    accum: float = 0.0


class Simulation:
    def __init__(self, cfg: SimConfig, policy: DispatchPolicy | None = None):
        self.cfg = cfg
        demand_seq, self.place_seq, match_seq, explore_seq, self._layout_seq = (
            np.random.SeedSequence(cfg.seed).spawn(5))
        self.demand_rng = np.random.default_rng(demand_seq)
        self.match_rng = np.random.default_rng(match_seq)
        self.explore_rng = np.random.default_rng(explore_seq)
        self.policy = policy or DispatchPolicy(cfg)
        self.weights = cfg.weights()

        self.grid = GridWorld(
            width=cfg.grid.width,
            height=cfg.grid.height,
            zone_edge_m=cfg.grid.zone_edge_m,
            vehicle_speed=cfg.grid.vehicle_speed,
        )
        self.forecaster = dm.HistoricalAverageForecaster(self.grid)
        self.fleet: fl.FleetTable | None = None  # built by initialize
        self.registry = dm.RequestTable()
        self.tick = 0
        self.training = False
        self.pending: dict[int, _Pending] = {}
        self.prev_active = np.zeros(0, dtype=np.int64)  # activation flags by vehicle id
        self._decisions: list[tuple] = []  # the tick's training (vehicle id, state, action)
        self.log: EpisodeLog | None = None
        self.curve: list[dict] = []
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)
        self._initialized = False
        self._trip_table = None
        self._sources: dm.DemandSources | None = None

    @property
    def vehicles(self) -> list:
        """The fleet table's vehicles, vehicle ``i`` at index ``i``."""
        return self.fleet.vehicles

    # -- demand sources ----------------------------------------------------

    def _build_demand(self):
        cfg, grid = self.cfg, self.grid
        rng = np.random.default_rng(self._layout_seq)
        if cfg.demand.trips_csv:
            records = dm.ingest_trip_records(cfg.demand.trips_csv, grid)
            self._trip_table = {}
            for r in records:
                if r.created_tick >= -cfg.warmup_ticks:  # older rows are never drawn
                    self._trip_table.setdefault(r.created_tick, []).append(r)
            return
        # the busy centers both emit and attract passenger trips
        hot = []
        while len(hot) < cfg.demand.origin_hot_zone_count:
            z = ZoneId(int(rng.integers(grid.height)), int(rng.integers(grid.width)))
            if z not in hot:
                hot.append(z)
        rates = np.full((grid.height, grid.width), cfg.demand.passenger_rate_per_zone)
        for z in hot:
            rates[z] += cfg.demand.origin_hot_rate
        lattice = np.array(hub_lattice(grid, cfg.grid.hop_stride))
        sites = []
        for _ in range(3 * cfg.demand.goods_locations_per_kind):  # postal, meal, supermarket
            if hot:
                # park goods sources on the relay lattice next to a busy
                # center, so their own corner never splits their trips
                z = nearest_zone(lattice, hot[int(rng.integers(len(hot)))])
            else:
                z = ZoneId(int(rng.integers(grid.height)), int(rng.integers(grid.width)))
            sites.append((z, cfg.demand.goods_location_rate))
        self._sources = dm.DemandSources(grid, rates, sites, cfg.demand.goods_radius_zones, hot,
                                         cfg.demand.hot_weight)

    def _draw_requests(self, tick: int, rng, id_start: int) -> list:
        """The tick's requests, numbered from ``id_start``; a trip file hands each out once."""
        if self._trip_table is not None:
            out = self._trip_table.pop(tick, [])
            for i, r in enumerate(out, id_start):
                r.id = i
            return out
        return dm.generate_tick_requests(self._sources, tick, rng, id_start)

    # -- initialization ----------------------------------------------------

    def initialize(self):
        """Place the fleet, run the no-dispatch warmup and designate hop-zones.

        The warmup ticks -``warmup_ticks``..-1 draw their requests as any
        tick does, from the demand stream or the trip file's rows at those
        ticks, and only the forecaster records them; its summed counts then
        pick the hop-zones."""
        cfg = self.cfg
        self._build_demand()

        # fleet at the origins of the first requests a run draws, or a placement stream
        origins: list[ZoneId] = []
        if self._trip_table is not None:
            for t in sorted(self._trip_table):
                origins.extend(r.origin for r in self._trip_table[t])
            if not origins:
                raise EngineInvariantError("trip file holds no requests to place the fleet at")
            while len(origins) < cfg.n_vehicles:
                origins.extend(origins[: cfg.n_vehicles - len(origins)])
        else:
            place_rng = np.random.default_rng(self.place_seq)
            guard = 0
            while len(origins) < cfg.n_vehicles:
                batch = dm.generate_tick_requests(self._sources, 0, place_rng)
                origins.extend(r.origin for r in batch)
                guard += 1
                if guard > 100_000:
                    raise EngineInvariantError("placement stream is empty; are all demand rates zero?")

        seats, trunk = np.full(cfg.n_vehicles, cfg.seats), np.full(cfg.n_vehicles, cfg.trunk)
        if cfg.baseline == BASELINE_SEPARATE:
            split = round(cfg.n_vehicles * cfg.separate_split)
            seats[split:] = 0  # passenger-only vehicles first, then goods-only ones
            trunk[:split], trunk[split:] = 0, cfg.separate_goods_trunk
        self.fleet = fl.FleetTable(self.grid, seats, trunk, origins[: cfg.n_vehicles])
        self.prev_active = np.zeros(cfg.n_vehicles, dtype=np.int64)

        # warmup: demand history only, no dispatch, no queueing; warmup ids
        # are discarded with the requests
        for tick in range(-cfg.warmup_ticks, 0):
            self.forecaster.record_requests(self._draw_requests(tick, self.demand_rng, 0))
        # candidates qualify on the warmup pickups in their neighborhood, so
        # relay hubs land next to busy blocks rather than exactly on them
        designate_hop_zones(self.grid, cfg.grid.hop_stride, self.forecaster.total,
                            cfg.grid.hop_count_radius, cfg.grid.hop_min_pickups)

        self.log = EpisodeLog(
            n_vehicles=cfg.n_vehicles,
            dt_minutes=cfg.dt_minutes,
            ticks_per_day=cfg.ticks_per_day,
            baseline=cfg.baseline,
            seed=cfg.seed,
        )
        self._initialized = True

    # -- per-tick helpers ----------------------------------------------------

    def _intake(self, detail: dict):
        reqs = self._draw_requests(self.tick, self.demand_rng, len(self.registry))
        self.forecaster.record_requests(reqs)
        self.registry.add(reqs)
        for r in reqs:
            self.log.add(self.tick, "request", request=r.id, req_kind=r.kind,
                         origin=r.origin, destination=r.destination, parent=None,
                         urgency=dm.URGENCY[r.kind])
            if r.kind == dm.GOODS and self.cfg.baseline == BASELINE_FLEX_HOPS:
                r.legs = assign_hop_zones(r, self.grid, self.cfg.max_hop_depth).legs
        detail["generated"] = len(reqs)

    def _handle_drop(self, rid: int, vid: int, zone: ZoneId, detour: dict) -> bool:
        """Deliver the package ``rid`` that vehicle ``vid`` dropped at
        ``zone``, or hand it off at a hub; True for a handoff."""
        registry = self.registry
        hop = registry.leg.item(rid) + 1
        if hop == len(registry[rid].legs):
            registry.set_status(rid, dm.DELIVERED)
            self.log.add(self.tick, "deliver", request=rid, vehicle=vid, zone=zone, leg=rid)
            return False
        registry.hand_off(rid, self.tick)  # queued at the hub for its next leg
        detour[vid] = detour.get(vid, 0.0) + 1.0
        self.log.add(self.tick, "hop_drop", request=rid, leg=rid, vehicle=vid, zone=zone,
                     hops_done=hop)
        return True

    def _arrivals(self, detour: dict, detail: dict):
        hops = 0
        registry = self.registry
        # nothing moves between the last move pass and here
        for vid in self.fleet.arriving:
            v = self.fleet.vehicles[vid]
            dropped, picked = fl.process_arrivals(v)
            if not (dropped or picked):
                continue
            zone = v.location
            for rid in dropped:
                hops += self._handle_drop(rid, vid, zone, detour)
            for rid in picked:
                # parent flags a later leg, whose wait counts from its handoff
                self.log.add(self.tick, "pickup", request=rid,
                             parent=rid if registry.leg.item(rid) else None,
                             vehicle=vid, zone=zone, wait=self.tick - registry.since.item(rid))
        detail["hops"] = hops

    def _observe(self, maps: np.ndarray, vids: list) -> np.ndarray:
        """The state vectors of the vehicles ``vids``, one row each,
        cropped from the tick's maps."""
        return rl.encode_state(maps, self.fleet, vids)

    def _dispatch(self, supply: fl.FleetSnapshot, forecast: np.ndarray, detail: dict):
        grid, rng, online = self.grid, self.explore_rng, self.policy.online
        beta = self.policy.act_probability(self.training)
        eps = self.policy.epsilon(self.training)
        # each idle vehicle's draws in id order: the act gate, then the
        # exploration draw; none reads a Q-value
        acting, drawn = [], []
        for vid in np.flatnonzero(self.fleet.mask(fl.IDLE)).tolist():
            if rng.random() < beta:
                acting.append(vid)
                drawn.append(rl.exploration_draw(online.n_actions, eps, rng))
        dispatch_time, q_maxes = 0, []
        maps = rl.observation_maps(supply, forecast, self.cfg.rl.window) if acting else None
        for start in range(0, len(acting), rl.STACK_CHUNK):
            chunk = np.array(acting[start : start + rl.STACK_CHUNK])
            states = self._observe(maps, chunk)
            values = online.q_values(states)  # one matrix product per layer
            q_maxes.extend(values.max(axis=1).tolist())
            actions = rl.select_action(values, drawn[start : start + rl.STACK_CHUNK])
            if self.training:
                self._decisions.extend(zip(chunk.tolist(), states, actions.tolist()))
            # (row, col) pairs, as the log stores zones
            origins = np.column_stack(np.divmod(self.fleet.zone[chunk], grid.width))
            targets = np.column_stack(rl.action_target(grid, origins.T, actions,
                                                       self.cfg.rl.action_radius))
            moving = (targets != origins).any(axis=1)  # a hold stays idle, unmatched
            vids, origins, targets = chunk[moving], origins[moving], targets[moving]
            self.fleet.dispatch(vids, targets[:, 0] * grid.width + targets[:, 1])
            eta = travel_ticks(abs(targets - origins).sum(axis=1), grid.vehicle_speed)
            dispatch_time += int(eta.sum())
            for vid, at, to, ticks in zip(vids.tolist(), origins.tolist(), targets.tolist(),
                                          eta.tolist()):
                self.log.add(self.tick, "dispatch", vehicle=vid, origin=at, target=to, eta=ticks)
        detail["dispatch_time"] = float(dispatch_time)
        detail["q_max"] = float(np.mean(q_maxes)) if q_maxes else None

    def _match(self, detour: dict, detail: dict):
        cfg = self.cfg
        speed = self.grid.vehicle_speed
        # dispatched vehicles and partly filled serving ones, in id order
        fleet, registry = self.fleet, self.registry
        pool = np.flatnonzero(fleet.mask(fl.DISPATCHED)
                              | (fleet.mask(fl.SERVING) & fleet.available()))
        queue = registry.queued()
        requests = list(map(registry.requests.__getitem__, queue.tolist()))
        # each package is picked up where its current leg starts
        origins = [r.legs[leg][0] for r, leg in zip(requests, registry.leg[queue].tolist())]
        kinds = [fl.KINDS.index(r.kind) for r in requests]
        assignments = match(origins, pool, fleet, kinds, cfg.reject_ticks, self.match_rng)
        for pos, vid, eta in assignments:
            v = fleet.vehicles[vid]
            rid = requests[pos].id
            leg = registry.leg.item(rid)
            before = v.route_eta(speed) if v.stops else None
            v.add_entry(registry[rid], leg)
            if before is not None:
                after = v.route_eta(speed)
                detour[v.id] = detour.get(v.id, 0.0) + max(0.0, after - before)
            registry.set_status(rid, dm.HELD)
            if v.status == fl.DISPATCHED:
                v.set_status(fl.SERVING)
            self.log.add(self.tick, "assign", request=rid, parent=rid if leg else None,
                         vehicle=vid, slot=fl.SLOTS[kinds[pos]], eta=eta)
        # expire stale requests still queued on their first leg; a relayed package waits at its hub
        expired = queue[(registry.status[queue] == _QUEUED) & (registry.leg[queue] == 0)
                        & (registry.since[queue] <= self.tick - cfg.patience_ticks)].tolist()
        for rid in expired:
            registry.set_status(rid, dm.REJECTED)
            self.log.add(self.tick, "reject", request=rid, req_kind=registry[rid].kind)
        detail["assigned"] = len(assignments)
        detail["rejected"] = len(expired)

    def _advance(self, detail: dict):
        detail["moved_total"], detail["moved_serving"] = fl.move(self.fleet, self.grid)

    def _settle(self, supply, forecast, detour: dict, detail: dict):
        tick, fleet = self.tick, self.fleet
        active_now = (fleet.status != fl.STATUS_CODE[fl.IDLE]).astype(np.int64)
        active_prev, self.prev_active = self.prev_active, active_now
        detour_ticks = np.zeros(len(fleet.onboard))
        detour_ticks[list(detour)] = list(detour.values())
        owner, urgency, extra, max_hops = fl.late_orders(fleet, tick, self.grid.vehicle_speed,
                                                         self.registry.since, self.registry.leg)
        rewards = agent_reward(self.weights, fleet.onboard, detour_ticks, active_now, active_prev,
                               max_hops, owner, urgency, extra)
        total_detour_delay = float(extra.sum())
        activations = int(np.maximum(active_now - active_prev, 0).sum())
        active = int(active_now.sum())

        # the tick's reward goes to every open decision; then each decision
        # of the tick closes its vehicle's open one and opens in its place
        reward_of = rewards.tolist()
        for vid, pend in self.pending.items():
            pend.accum += (self.cfg.discount ** (tick - pend.tick - 1)) * reward_of[vid]
        for vid, vec, action in self._decisions:
            old = self.pending.get(vid)
            if old is not None:
                self.policy.buffer.push(rl.Transition(old.state, old.action, old.accum, vec,
                                                      elapsed=tick - old.tick - 1))
            self.pending[vid] = _Pending(vec, action, tick)
        self._decisions = []

        gap = supply_demand_gap(forecast, supply.available)
        components = [gap, detail["dispatch_time"], total_detour_delay,
                      float(activations), float(detail["hops"])]
        detail["objective"] = global_objective(components, self.weights)
        detail["gap"] = gap
        detail["detour_delay"] = total_detour_delay
        detail["activations"] = activations
        detail["reward_mean"] = float(np.mean(rewards))
        detail["active"] = active
        detail["queued"] = int(np.count_nonzero(self.registry.status == _QUEUED))

    # -- invariants ----------------------------------------------------------

    def _dump(self, message: str, vid: int | None = None) -> str:
        """The message and a state dump: the first 20 vehicles and vehicle
        ``vid``, each with its fleet table row and its orders."""
        shown = self.fleet.vehicles[:20]
        if vid is not None and vid >= len(shown):
            shown = [*shown, self.fleet.vehicles[vid]]
        names = dict(enumerate(fl.VEHICLE_STATUSES))  # a code that names no status shows as it is
        state = {
            "tick": self.tick,
            "queue": self.registry.queued()[:50].tolist(),
            "vehicles": [
                {"id": v.id, "status": names.get(code := self.fleet.status.item(v.id), code),
                 "location": list(v.location),
                 "orders": dict(zip(fl.ORDER_FIELDS, v.rows())),
                 "table": self.fleet.row(v.id)}
                for v in shown
            ],
        }
        return f"{message}\nstate dump: {json.dumps(state, sort_keys=True)}"

    def _check_fleet_table(self):
        stale = self.fleet.first_stale()
        if stale is not None:
            vid, column, stored, counted = stale
            raise EngineInvariantError(self._dump(
                f"vehicle {vid} fleet table {column} {stored} is stale, "
                f"the vehicle says {counted}", vid))

    def _check_invariants(self, full: bool):
        fleet, registry = self.fleet, self.registry
        over = (fleet.seats_free < 0) | (fleet.trunk_free < 0)
        code, held = fleet.status, fleet.onboard + fleet.pending
        bad_code = (code < 0) | (code >= len(fl.VEHICLE_STATUSES))
        # a vehicle serves exactly while it holds orders
        broken = over | bad_code | ((code == fl.STATUS_CODE[fl.SERVING]) != (held > 0))
        if broken.any():
            vid = int(np.argmax(broken))
            if over[vid]:
                what = "overcommitted"
            elif bad_code[vid]:
                what = f"bad status code {code[vid]}"
            else:
                what = f"{fl.VEHICLE_STATUSES[code[vid]]} with {held[vid]} orders"
            raise EngineInvariantError(self._dump(f"vehicle {vid} {what}", vid))
        # every order's request is held
        orders = fleet.orders
        live = orders[fl.REQUEST] >= 0  # row-major: by vehicle, then manifest position
        rids = orders[fl.REQUEST][live]
        got = registry.status[rids]
        wrong = got != _HELD
        if wrong.any():
            i = int(np.argmax(wrong))
            vid = int(np.nonzero(live)[0][i])
            raise EngineInvariantError(self._dump(
                f"request {rids[i]} {dm.REQUEST_STATUSES[got[i]]} in an order of vehicle {vid}",
                vid))
        if not full:
            return
        self._check_fleet_table()
        # the fleet table now vouches for each vehicle's order count: a
        # vehicle with no orders has an empty plan, as planned_stops makes it
        vehicles = fleet.vehicles
        stale = [vid for vid in np.flatnonzero(held == 0).tolist() if vehicles[vid].stops]
        stale += [vid for vid in np.flatnonzero(held).tolist()
                  if vehicles[vid].remaining_stops() != vehicles[vid].planned_stops()]
        if stale:
            vid = min(stale)
            raise EngineInvariantError(self._dump(f"vehicle {vid} stored stop plan is stale", vid))
        # each order's drop_cum is its destination's entry in the zone index of its vehicle's plan
        vids = np.nonzero(live)[0].tolist()
        index = {vid: fl.stop_index(vehicles[vid].stops) for vid in dict.fromkeys(vids)}
        indexed = [index[vid].get(zone)
                   for vid, zone in zip(vids, orders[fl.DESTINATION][live].tolist())]
        stored = orders[fl.DROP_CUM][live].tolist()
        if stored != indexed:
            i = next(i for i, pair in enumerate(zip(stored, indexed)) if pair[0] != pair[1])
            raise EngineInvariantError(self._dump(
                f"vehicle {vids[i]} order table drop_cum {stored[i]} of request {rids[i]} "
                f"is stale, the zone index says {indexed[i]}", vids[i]))
        # a held request sits in exactly one order, every other in none
        held = np.bincount(rids, minlength=len(registry))
        expect = registry.status == _HELD
        bad = np.flatnonzero(held != expect)
        if len(bad):
            rid = int(bad[0])
            raise EngineInvariantError(self._dump(
                f"request {rid} ({registry.status_of(rid)}) is held in {held[rid]} orders, "
                f"expected {int(expect[rid])}"))

    # -- main loop -----------------------------------------------------------

    def step(self) -> dict:
        if not self._initialized:
            raise EngineInvariantError("call initialize() before step()")
        clock = time.thread_time
        marks = [clock()]  # the end of each phase of PHASES follows its start
        full = self.tick % FULL_CHECK_EVERY == 0
        detail = {}
        detour: dict[int, float] = {}
        self._intake(detail)
        marks.append(clock())
        self._arrivals(detour, detail)
        marks.append(clock())
        table_check = 0.0
        if full:
            # supply and matching read the table; an entry stale for them
            # alone may be rewritten by the moves before the full check
            self._check_fleet_table()
            table_check = clock() - marks[-1]
        supply = fl.project_supply(self.fleet, self.grid)
        marks.append(clock())
        forecast = self.forecaster.forecast()
        marks.append(clock())
        self._dispatch(supply, forecast, detail)
        marks.append(clock())
        self._match(detour, detail)
        marks.append(clock())
        self._advance(detail)
        marks.append(clock())
        self._settle(supply, forecast, detour, detail)
        # q_max feeds the training curve, not the log
        self.log.add(self.tick, "tick_stats",
                     **{k: v for k, v in detail.items() if k != "q_max"})
        marks.append(clock())
        self._check_invariants(full=full)
        marks.append(clock())

        if self.training:
            loss = self.policy.train_tick()
            self.curve.append({
                "step": self.policy.schedule_step,
                "q_max": detail.get("q_max"),
                "loss": loss,
                "epsilon": self.policy.epsilon(True),
                "act_probability": self.policy.act_probability(True),
            })
        self.tick += 1
        self.log.ticks = self.tick
        marks.append(clock())
        for phase, start, end in zip(PHASES, marks, marks[1:]):
            self.phase_seconds[phase] += end - start
        self.phase_seconds["supply"] -= table_check
        self.phase_seconds["checks"] += table_check
        return detail

    def _flush_pending(self):
        """Episode truncation: bootstrap every in-flight decision."""
        maps = rl.observation_maps(fl.project_supply(self.fleet, self.grid),
                                   self.forecaster.forecast(), self.cfg.rl.window)
        vids = sorted(self.pending)
        for vid, state in zip(vids, self._observe(maps, vids)):
            pend = self.pending[vid]
            self.policy.buffer.push(rl.Transition(pend.state, pend.action, pend.accum, state,
                                                  elapsed=max(0, self.tick - pend.tick - 1)))
        self.pending = {}

    def run(self, ticks: int | None = None, mode: str = MODE_EVAL) -> EpisodeLog:
        if mode not in (MODE_TRAIN, MODE_EVAL):
            raise ValueError("mode must be 'train' or 'eval'")
        if not self._initialized:
            self.initialize()
        self.training = mode == MODE_TRAIN
        for _ in range(self.cfg.episode_ticks if ticks is None else ticks):
            self.step()
        if self.training:
            self._flush_pending()
        self._check_invariants(full=True)
        return self.log


def generate_workload(cfg: SimConfig, ticks: int) -> list:
    """Draw the request stream the config implies, without simulating the fleet."""
    sim = Simulation(cfg)
    sim._build_demand()
    rng = np.random.default_rng(sim.cfg.seed)
    out = []
    for tick in range(ticks):
        out.extend(sim._draw_requests(tick, rng, len(out)))
    return out
