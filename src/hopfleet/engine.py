"""Discrete-time fleet simulation: intake, dispatch, matching, relays, learning.

Each tick runs a fixed phase order over vehicles in ascending id. The
fleet is a ``fleet.FleetTable``, the one stored copy of each vehicle's
status, zone, objective and odometer: phases 2-6 pick their vehicles by a
mask over its status, capacity and onboard columns, which the vehicles
write as they change (``set_status`` the status and objective, ``recount``
the free seats, free trunk slots, onboard count and pending pickups), and
phase 5 moves the fleet as one pass over its columns:

  1. intake new requests; plan relay chains for goods
  2. arrival processing, in id order, for the vehicles the last move pass
     left where something can resolve: those standing on their objective,
     and those holding both a pending pickup and an onboard order that
     stand on a zone of their plan (``fleet.FleetTable.arriving``; no other
     vehicle can resolve anything, and no vehicle changes between that pass
     and this phase). Status transitions, pickups, drops: a vehicle on its
     plan's first stop drops that stop and re-indexes the plan, a drop
     elsewhere rebuilds the plan; a drop that is not a chain's last leg
     enqueues the next leg as a child request. A leg request's
     ``hops_completed`` is its index in its chain, so
     ``legs[chain id][hops_completed]`` is the leg it carries
  3. idle vehicles query the dispatch policy with the scheduled probability;
     a self-targeted action holds the vehicle idle, anything else starts a
     dispatch drive. Each idle vehicle first makes its draws in id order
     (the act gate, then the exploration draw), as no draw reads a Q-value;
     the acting ones are then encoded and evaluated in chunks of
     ``STACK_CHUNK``, each a stack of single rows whose values equal the
     vehicle's own pass bit for bit, and their actions applied in id order.
     Before it, ``project_supply`` counts the available vehicles per zone
     with one ``np.bincount`` over the zone column; on a full-check tick the
     fleet table is checked against a fresh count first, since supply and
     matching read it
  4. greedy matching binds queued requests to dispatched vehicles and to
     partially filled en-route vehicles, a pool whose zones and free
     capacity it reads from the table; stale requests expire
  5. one ``fleet.move`` pass advances every vehicle that is not parked,
     i.e. neither idle nor dispatched, toward its objective, in integer
     arrays over the zone and target columns; a matched or serving vehicle
     adds the steps moved to its plan's odometer column
  6. rewards and objective components are settled: one ``agent_reward``
     call prices the whole fleet from the status and onboard columns and
     the flat list of late onboard orders of the loaded vehicles, each
     order's ETA read from its drop zone's entry in the zone index through
     ``VehicleState.ticks_to``; per-tick stats are logged. In training
     mode each vehicle has at most one open decision: the tick's reward is
     added to every open one, then each decision of the tick, in dispatch
     order, pushes its vehicle's open decision to replay with its own state
     as the next state, and opens in its place (evaluation keeps no
     decisions and pushes nothing)
  7. training mode takes one gradient step and syncs the target on schedule

The invariant checks run after settling. Every tick, column expressions find
an overcommitted vehicle (free seats or trunk slots below zero) or a status
code outside ``VEHICLE_STATUSES``, and each manifest is checked against the
registry and the queue. Every ``FULL_CHECK_EVERY`` ticks, the stored stop
plans and zone indexes are compared with fresh ones built from the zone
column (which covers the position and the odometer), the fleet table with a
fresh count from the status column, plans and manifests (``first_stale``,
which keeps the zone column on the grid), and each open request's live
legs are counted. Onboard entries are a subset of committed ones, so a
fresh column that is not overcommitted is within capacity too.

Identical seed and config give bit-identical episode logs. ``step`` also sums
the thread's cpu time in each phase into ``phase_seconds``, which is kept
out of the log so that it stays bit-identical.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import demand as dm
from . import dispatch_rl as rl
from . import fleet as fl
from .geo import GridWorld, ZoneId, designate_hop_zones, hub_lattice, manhattan
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
    goods_dest_hot_weight: float  # share of packages headed near another center
    trips_csv: str | None

    def __post_init__(self):
        check_lower_bounds(self, "demand.", (("passenger_rate_per_zone", 0), ("origin_hot_rate", 0),
                                             ("goods_location_rate", 0), ("goods_radius_zones", 1),
                                             ("goods_locations_per_kind", 0)))
        for name in ("hot_weight", "goods_dest_hot_weight"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"demand.{name} must be in [0, 1], got {getattr(self, name)}")


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
    def reject_radius_zones(self) -> float:
        return self.reject_radius_m / self.grid.zone_edge_m

    def weights(self) -> RewardWeights:
        w = RewardWeights.preset(self.weights_preset, discount=self.discount)
        if self.baseline == BASELINE_FLEX_NOHOPS or self.baseline == BASELINE_SEPARATE:
            w = replace(w, b5=0.0)  # no hop-trips, no hop penalty
        return w


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
        # child 4 is unused: the policy seeds from cfg.seed itself, and
        # spawning six keeps the layout on child 5 and its stream
        seq = np.random.SeedSequence(cfg.seed)
        (self.demand_seq, self.place_seq, self.match_seq, self.explore_seq,
         _, self._layout_seq) = seq.spawn(6)
        self.demand_rng = np.random.default_rng(self.demand_seq)
        self.match_rng = np.random.default_rng(self.match_seq)
        self.explore_rng = np.random.default_rng(self.explore_seq)
        self.policy = policy or DispatchPolicy(cfg)
        self.weights = cfg.weights()

        self.grid = GridWorld(
            width=cfg.grid.width,
            height=cfg.grid.height,
            zone_edge_m=cfg.grid.zone_edge_m,
            vehicle_speed=cfg.grid.vehicle_speed,
        )
        self.forecaster = dm.HistoricalAverageForecaster(self.grid, cfg.ticks_per_day)
        self.vehicles: list[fl.VehicleState] = []
        self.fleet: fl.FleetTable | None = None  # built with the vehicles
        self.registry: dict[int, dm.Request] = {}
        self.queue: list[int] = []
        self.legs: dict[int, tuple] = {}  # relayed goods id -> HopTrip.legs
        self.next_request_id = 0
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
        self._origin_hot: list[ZoneId] = []
        self._trip_distribution = dm.TripDistribution()

    # -- demand sources ----------------------------------------------------

    def _build_demand(self):
        cfg = self.cfg
        rng = np.random.default_rng(self._layout_seq)
        if cfg.demand.trips_csv:
            records = dm.ingest_trip_records(cfg.demand.trips_csv, self.grid)
            self._trip_table = {}
            for r in records:
                self._trip_table.setdefault(r.created_tick, []).append(r)
            return
        self._origin_hot = []
        while len(self._origin_hot) < cfg.demand.origin_hot_zone_count:
            z = ZoneId(int(rng.integers(self.grid.height)), int(rng.integers(self.grid.width)))
            if z not in self._origin_hot:
                self._origin_hot.append(z)
        # the busy centers both emit and attract passenger trips
        self._trip_distribution = dm.TripDistribution(
            hot_zones=tuple(self._origin_hot),
            hot_weight=cfg.demand.hot_weight,
        )
        passenger_rates = {z: cfg.demand.passenger_rate_per_zone for z in self.grid.all_zones()}
        for z in self._origin_hot:
            passenger_rates[z] += cfg.demand.origin_hot_rate

        lattice = hub_lattice(self.grid, cfg.grid.hop_stride)
        locations = []
        for kind in ("postal", "meal", "supermarket"):
            for _ in range(cfg.demand.goods_locations_per_kind):
                if self._origin_hot:
                    # park goods sources on the relay lattice next to a busy
                    # center, so their own corner never splits their trips
                    hub = self._origin_hot[int(rng.integers(len(self._origin_hot)))]
                    z = min(lattice, key=lambda cand: manhattan(hub, cand))
                else:
                    z = ZoneId(int(rng.integers(self.grid.height)), int(rng.integers(self.grid.width)))
                locations.append(dm.ServiceLocation(z, kind, cfg.demand.goods_location_rate))
        self._sources = dm.demand_sources(self.grid, locations, passenger_rates,
                                          cfg.demand.goods_radius_zones)

    def _draw_requests(self, tick: int, rng) -> list:
        if self._trip_table is not None:
            rows = self._trip_table.get(tick, [])
            out = []
            for r in rows:
                out.append(dm.Request(self.next_request_id, r.kind, r.origin, r.destination,
                                      tick, r.urgency))
                self.next_request_id += 1
            return out
        reqs = dm.generate_tick_requests(
            self._sources,
            tick,
            rng,
            id_start=self.next_request_id,
            trip_distribution=self._trip_distribution,
            goods_dest_hot=self._origin_hot,
            goods_dest_hot_weight=self.cfg.demand.goods_dest_hot_weight,
        )
        if reqs:
            self.next_request_id = reqs[-1].id + 1
        return reqs

    # -- initialization ----------------------------------------------------

    def initialize(self):
        """Place the fleet, run the no-dispatch warmup, designate hop-zones."""
        cfg = self.cfg
        self._build_demand()

        # fleet at the origins of the first requests drawn from a placement stream
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
                batch = dm.generate_tick_requests(
                    self._sources, 0, place_rng,
                    trip_distribution=self._trip_distribution,
                )
                origins.extend(r.origin for r in batch)
                guard += 1
                if guard > 100_000:
                    raise EngineInvariantError("placement stream is empty; are all demand rates zero?")

        n_passenger_only = round(cfg.n_vehicles * cfg.separate_split)
        for i in range(cfg.n_vehicles):
            if cfg.baseline == BASELINE_SEPARATE:
                if i < n_passenger_only:
                    seats, trunk = cfg.seats, 0
                else:
                    seats, trunk = 0, cfg.separate_goods_trunk
            else:
                seats, trunk = cfg.seats, cfg.trunk
            self.vehicles.append(fl.VehicleState(id=i, seats_total=seats, trunk_total=trunk))
        self.fleet = fl.FleetTable(self.vehicles, self.grid, origins[: cfg.n_vehicles])
        self.prev_active = np.zeros(cfg.n_vehicles, dtype=np.int64)

        # warmup: demand history and pickup counts only, no dispatch, no queueing
        pickup_counts: dict[ZoneId, int] = {}
        for k in range(cfg.warmup_ticks):
            tick = -cfg.warmup_ticks + k
            batch = self._draw_requests(tick, self.demand_rng) if self._trip_table is None else []
            self.forecaster.record_requests(tick, batch)
            for r in batch:
                pickup_counts[r.origin] = pickup_counts.get(r.origin, 0) + 1
        self.next_request_id = 0  # warmup ids are discarded with the requests

        # candidates qualify on pickups in their neighborhood, so relay hubs
        # land next to busy blocks rather than exactly on them
        smoothed = {}
        for z in hub_lattice(self.grid, cfg.grid.hop_stride):
            total = pickup_counts.get(z, 0)
            for nb in self.grid.zones_within(z, cfg.grid.hop_count_radius):
                total += pickup_counts.get(nb, 0)
            smoothed[z] = total
        designate_hop_zones(self.grid, cfg.grid.hop_stride, smoothed, cfg.grid.hop_min_pickups)

        self.log = EpisodeLog(
            n_vehicles=cfg.n_vehicles,
            dt_minutes=cfg.dt_minutes,
            ticks_per_day=cfg.ticks_per_day,
            baseline=cfg.baseline,
            seed=cfg.seed,
        )
        self._initialized = True

    # -- per-tick helpers ----------------------------------------------------

    @staticmethod
    def _chain_id(req: dm.Request) -> int:
        """The primary request a leg belongs to (itself for a primary)."""
        return req.id if req.parent_id is None else req.parent_id

    def _leg_for(self, req: dm.Request) -> tuple:
        """(origin, destination, is_last) of the leg a request carries."""
        legs = self.legs.get(self._chain_id(req))
        if legs is None:
            return req.origin, req.destination, True
        o, d = legs[req.hops_completed]
        return o, d, req.hops_completed == len(legs) - 1

    def _intake(self, detail: dict):
        reqs = self._draw_requests(self.tick, self.demand_rng)
        self.forecaster.record_requests(self.tick, reqs)
        for r in reqs:
            self.registry[r.id] = r
            self.queue.append(r.id)
            self.log.add(self.tick, "request", request=r.id, req_kind=r.kind,
                         origin=r.origin, destination=r.destination, parent=r.parent_id,
                         urgency=r.urgency)
            if r.kind == dm.GOODS and self.cfg.baseline == BASELINE_FLEX_HOPS:
                trip = assign_hop_zones(r, self.grid, self.cfg.max_hop_depth)
                if len(trip.legs) > 1:
                    self.legs[r.id] = trip.legs
        detail["generated"] = len(reqs)

    def _handle_drop(self, event: fl.DropEvent, detour: dict) -> bool:
        """Deliver the package or hand it off at a hub; True for a handoff."""
        req = self.registry[event.request_id]
        orig = self.registry[self._chain_id(req)]
        if req.parent_id is not None:
            req.set_status(dm.DELIVERED)
        _, _, last = self._leg_for(req)
        if last:
            orig.set_status(dm.DELIVERED)
            self.log.add(event.tick, "deliver", request=orig.id, vehicle=event.vehicle_id,
                         zone=event.zone, leg=event.request_id)
            return False
        # hop handoff: enqueue the next leg, indexed by its hops_completed
        idx = req.hops_completed + 1
        o, d = self.legs[orig.id][idx]
        if o != event.zone:
            raise EngineInvariantError(self._dump(f"hop chain misaligned for request {orig.id}",
                                                  event.vehicle_id))
        child = dm.Request(self.next_request_id, dm.GOODS, o, d, event.tick, orig.urgency,
                           hops_completed=idx, parent_id=orig.id)
        self.next_request_id += 1
        self.registry[child.id] = child
        self.queue.append(child.id)
        detour[event.vehicle_id] = detour.get(event.vehicle_id, 0.0) + 1.0
        self.log.add(event.tick, "hop_drop", request=orig.id, leg=event.request_id,
                     vehicle=event.vehicle_id, zone=event.zone, hops_done=idx)
        return True

    def _arrivals(self, detour: dict, detail: dict):
        hops = 0
        # nothing moves between the last move pass and here
        for vid in self.fleet.arriving:
            for event in fl.process_arrivals(self.vehicles[vid], self.tick):
                if isinstance(event, fl.PickupEvent):
                    req = self.registry[event.request_id]
                    req.set_status(dm.PICKED_UP)
                    self.log.add(self.tick, "pickup", request=event.request_id,
                                 parent=req.parent_id, vehicle=event.vehicle_id,
                                 zone=event.zone, wait=self.tick - req.created_tick)
                elif self._handle_drop(event, detour):
                    hops += 1
        detail["hops"] = hops

    def _observe(self, maps: np.ndarray, vids: list) -> np.ndarray:
        """The state vectors of the vehicles ``vids``, one row each,
        cropped from the tick's maps."""
        return rl.encode_state(maps, self.fleet, vids, self.tick, window=self.cfg.rl.window,
                               ticks_per_day=self.cfg.ticks_per_day)

    def _dispatch(self, supply: fl.FleetSnapshot, forecast: np.ndarray, detail: dict):
        cfg, rng, online = self.cfg, self.explore_rng, self.policy.online
        beta = self.policy.act_probability(self.training)
        eps = self.policy.epsilon(self.training)
        # each idle vehicle's draws in id order: the act gate, then the
        # exploration draw; none reads a Q-value
        acting, drawn = [], []
        for vid in np.flatnonzero(self.fleet.mask(fl.IDLE)).tolist():
            if rng.random() < beta:
                acting.append(vid)
                drawn.append(rl.exploration_draw(online.n_actions, eps, rng))
        dispatch_time = 0.0
        q_maxes = []
        maps = rl.observation_maps(supply, forecast) if acting else None
        for start in range(0, len(acting), rl.STACK_CHUNK):
            chunk = acting[start : start + rl.STACK_CHUNK]
            states = self._observe(maps, chunk)
            # a stack of single rows: each row's bits are those of its own pass
            values = online.q_values(states[:, None, :])[:, 0]
            q_maxes.extend(values.max(axis=1).tolist())
            for vid, vec, row, explore in zip(chunk, states, values,
                                              drawn[start : start + rl.STACK_CHUNK]):
                action = rl.select_action(row, explore)
                if self.training:
                    self._decisions.append((vid, vec, action))
                v = self.vehicles[vid]
                location = v.location
                target = rl.action_target(self.grid, location, action, cfg.rl.action_radius)
                if target == location:
                    continue  # hold: stay idle, stay unmatched
                v.set_status(fl.DISPATCHING)
                v.dispatch_target = target
                eta = self.grid.eta(location, target).ticks
                dispatch_time += eta
                self.log.add(self.tick, "dispatch", vehicle=v.id, origin=location,
                             target=target, eta=eta)
        detail["dispatch_time"] = dispatch_time
        detail["q_max"] = float(np.mean(q_maxes)) if q_maxes else None

    def _match(self, detour: dict, detail: dict):
        cfg = self.cfg
        speed = self.grid.vehicle_speed
        # dispatched vehicles and partly filled en-route ones, in id order
        fleet = self.fleet
        pool = np.flatnonzero(fleet.mask(fl.DISPATCHED)
                              | (fleet.mask(fl.MATCHED, fl.SERVING) & fleet.available()))
        requests = [self.registry[rid] for rid in self.queue]
        assignments = match(requests, pool, fleet, self.grid, cfg.reject_radius_zones,
                            self.match_rng)
        for a in assignments:
            v = self.vehicles[a.vehicle_id]
            req = self.registry[a.request_id]
            origin, dest, _ = self._leg_for(req)
            before = v.route_eta(speed) if v.manifest else None
            v.add_entry(fl.ManifestEntry(req.id, req.kind, origin, dest,
                                         direct_ticks=math.ceil(manhattan(origin, dest) / speed)))
            if before is not None:
                after = v.route_eta(speed)
                detour[v.id] = detour.get(v.id, 0.0) + max(0.0, after - before)
            req.set_status(dm.ASSIGNED)
            if v.status in (fl.DISPATCHED, fl.SERVING):
                v.set_status(fl.MATCHED)
            self.log.add(self.tick, "assign", request=req.id, parent=req.parent_id,
                         vehicle=v.id, slot=a.slot, eta=a.eta_ticks)
        # expire stale primary requests; relay legs wait at their hop-zone
        assigned = {a.request_id for a in assignments}
        expired = [
            r for r in requests
            if r.id not in assigned and r.parent_id is None
            and self.tick - r.created_tick >= cfg.patience_ticks
        ]
        for r in expired:
            r.set_status(dm.REJECTED)
            self.legs.pop(r.id, None)
            self.log.add(self.tick, "reject", request=r.id, req_kind=r.kind)
        if assigned or expired:
            gone = assigned.union(r.id for r in expired)
            self.queue = [rid for rid in self.queue if rid not in gone]
        detail["assigned"] = len(assignments)
        detail["rejected"] = len(expired)

    def _advance(self, detail: dict):
        detail["moved_total"], detail["moved_serving"] = fl.move(
            self.fleet, np.arange(len(self.vehicles)), self.grid)

    def _settle(self, supply, forecast, detour: dict, detail: dict):
        speed = self.grid.vehicle_speed
        registry, tick, fleet = self.registry, self.tick, self.fleet
        active_now = (fleet.status != fl.STATUS_CODE[fl.IDLE]).astype(np.int64)
        active_prev, self.prev_active = self.prev_active, active_now
        onboard = fleet.onboard
        max_hops = [0] * len(onboard)
        detour_ticks = np.zeros(len(onboard))
        detour_ticks[list(detour)] = list(detour.values())
        # the orders late against a direct trip, vehicle by vehicle in
        # manifest order; an order on time adds +0.0 and is left out
        owner, urgency, extra = [], [], []
        for vid in np.flatnonzero(onboard).tolist():
            v = self.vehicles[vid]
            index = v.zone_index
            for e in v.manifest:
                if not e.onboard:
                    continue
                req = registry[e.request_id]
                eta = v.ticks_to(index[e.destination], speed)
                delay = tick - req.created_tick + eta - e.direct_ticks
                if delay > 0:
                    owner.append(v.id)
                    urgency.append(req.urgency)
                    extra.append(delay)
                if e.kind == dm.GOODS and req.hops_completed > max_hops[v.id]:
                    max_hops[v.id] = req.hops_completed
        rewards = agent_reward(self.weights, onboard, detour_ticks, active_now, active_prev,
                               max_hops, owner, urgency, extra)
        total_detour_delay = float(sum(extra))
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

        gap = supply_demand_gap(forecast[0], supply.available)
        components = [gap, detail["dispatch_time"], total_detour_delay,
                      float(activations), float(detail["hops"])]
        detail["objective"] = global_objective(components, self.weights)
        detail["gap"] = gap
        detail["detour_delay"] = total_detour_delay
        detail["activations"] = activations
        detail["reward_mean"] = float(np.mean(rewards))
        detail["active"] = active
        detail["queued"] = len(self.queue)

    # -- invariants ----------------------------------------------------------

    def _dump(self, message: str, vid: int | None = None) -> str:
        """The message and a state dump: the first 20 vehicles and vehicle
        ``vid``, each with its fleet table row."""
        shown = self.vehicles[:20]
        if vid is not None and vid >= len(shown):
            shown = [*shown, self.vehicles[vid]]
        names = dict(enumerate(fl.VEHICLE_STATUSES))  # a code that names no status shows as it is
        state = {
            "tick": self.tick,
            "queue": self.queue[:50],
            "vehicles": [
                {"id": v.id, "status": names.get(code := self.fleet.status.item(v.id), code),
                 "location": list(v.location),
                 "manifest": [(e.request_id, e.kind, e.onboard) for e in v.manifest],
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
        fleet = self.fleet
        over = (fleet.seats_free < 0) | (fleet.trunk_free < 0)
        broken = over | (fleet.status < 0) | (fleet.status >= len(fl.VEHICLE_STATUSES))
        if broken.any():
            vid = int(np.argmax(broken))
            what = "overcommitted" if over[vid] else f"bad status code {fleet.status[vid]}"
            raise EngineInvariantError(self._dump(f"vehicle {vid} {what}", vid))
        manifest_owner = {}
        for v in self.vehicles:
            if full:
                if v.remaining_stops() != v.planned_stops():
                    raise EngineInvariantError(self._dump(
                        f"vehicle {v.id} stored stop plan is stale", v.id))
                if v.zone_index != fl.stop_index(v.stops):
                    raise EngineInvariantError(self._dump(
                        f"vehicle {v.id} stored zone index is stale", v.id))
            for e in v.manifest:
                if e.request_id in manifest_owner:
                    raise EngineInvariantError(self._dump(
                        f"request {e.request_id} in two manifests", v.id))
                manifest_owner[e.request_id] = v.id
                status = self.registry[e.request_id].status
                expect = dm.PICKED_UP if e.onboard else dm.ASSIGNED
                if status != expect:
                    raise EngineInvariantError(self._dump(
                        f"request {e.request_id} status {status} vs manifest {expect}", v.id))
        for rid in self.queue:
            if rid in manifest_owner:
                raise EngineInvariantError(self._dump(f"request {rid} queued and assigned"))
            if self.registry[rid].status != dm.QUEUED:
                raise EngineInvariantError(self._dump(f"queued request {rid} not in queued status"))
        if not full:
            return
        self._check_fleet_table()
        # an open primary request has exactly one live leg, queued or in a
        # manifest; a delivered or rejected one has none
        live: dict[int, int] = {}
        for rid in [*self.queue, *manifest_owner]:
            chain_id = self._chain_id(self.registry[rid])
            live[chain_id] = live.get(chain_id, 0) + 1
        for req in self.registry.values():
            if req.parent_id is not None:
                continue
            n = live.get(req.id, 0)
            expect = 0 if req.status in (dm.DELIVERED, dm.REJECTED) else 1
            if n != expect:
                raise EngineInvariantError(self._dump(
                    f"request {req.id} ({req.status}) has {n} live legs, expected {expect}"))

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
        forecast = self.forecaster.forecast(self.tick, rl.DEMAND_REACH)
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
                                   self.forecaster.forecast(self.tick, rl.DEMAND_REACH))
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
        out.extend(sim._draw_requests(tick, rng))
    return out
