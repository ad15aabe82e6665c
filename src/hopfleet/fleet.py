"""Vehicle state, the five-status lifecycle, and capacity accounting.

Statuses move along idle -> dispatching -> dispatched -> matched -> serving
-> idle; a partially filled serving vehicle that accepts another request
steps back to matched to route to the new pickup. Any other transition is a
bug and raises.

A vehicle's work is its manifest. Entries start as reserved pickups and
become onboard at the pickup zone; seats and trunk slots are reserved at
assignment time so matching can never overbook. Stops are ordered by a
nearest-next greedy: all pending pickups first, then deliveries.
The plan is stored as ``stops``, with cumulative distances measured from
where it was built, and kept on an odometer: ``driven`` counts the steps
moved since then, so ``move`` adds one int and the plan as seen from the
vehicle is ``(zone, cum - driven)``. That view is exact: a step toward the
first stop shortens only the first leg, and ties break on the zone, so the
greedy order holds. Every ETA is the one rule ``ticks_to``:
``ceil((cum - driven) / speed)``. ``zone_index`` maps each stop zone to the
cumulative distance of the plan's first stop there; it changes only with
the plan. A vehicle that reaches the plan's first stop resolves there what
the greedy resolved there (no entry ends where it starts), and the greedy
from that stop is the rest of the plan, so ``process_arrivals`` drops the
stop and re-indexes. Only an added entry or a drop at a later stop of the
plan rebuilds it with ``replan``, which resets the odometer. Every manifest
change recounts the tallies (seats and trunk slots committed, passengers
and packages onboard), so they are plain ints that change only with the
plan.

Arrival checks rely on the stored plan: every pending pickup's origin and
every onboard order's destination is one of its stops, so
``process_arrivals`` returns at once for a matched or serving vehicle that
stands on none of them. Parked vehicles (idle or dispatched) hold position
with nothing to resolve; the engine calls neither ``process_arrivals`` nor
``move`` for them.

The fleet is a ``FleetTable``: the vehicles, whose ids are their indices,
and one int column per fleet-wide fact the engine filters or counts on each
tick: the status code, the flat zone ``row * width + col`` (``OFF_GRID``
for a location outside the grid), the free seats, the free trunk slots and
the onboard count. A vehicle in a table writes its row where these facts
change, and nowhere else: ``set_status`` the status, ``move`` the zone, and
``recount`` the capacity and onboard counts. So the engine picks vehicles by
mask in ascending id, ``project_supply`` counts the available ones with one
``np.bincount``, and matching reads its pool's zones and free capacity as
arrays. A vehicle built on its own belongs to no table and writes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .demand import GOODS, PASSENGER
from .geo import GridWorld, ZoneId

IDLE = "idle"
DISPATCHING = "dispatching"
DISPATCHED = "dispatched"
MATCHED = "matched"
SERVING = "serving"

VEHICLE_STATUSES = (IDLE, DISPATCHING, DISPATCHED, MATCHED, SERVING)
STATUS_CODE = {status: code for code, status in enumerate(VEHICLE_STATUSES)}
OFF_GRID = -1  # the flat zone of a location outside the grid

ALLOWED_TRANSITIONS = {
    (IDLE, DISPATCHING),
    (DISPATCHING, DISPATCHED),
    (DISPATCHED, MATCHED),
    (MATCHED, SERVING),
    (SERVING, IDLE),
    (SERVING, MATCHED),
}

class VehicleStateError(RuntimeError):
    """Internal consistency violation in a vehicle's lifecycle."""


@dataclass
class ManifestEntry:
    request_id: int
    kind: str  # passenger | goods
    origin: ZoneId
    destination: ZoneId
    onboard: bool = False
    pickup_tick: int | None = None
    direct_ticks: int = 0  # ticks of a direct trip origin -> destination, set at assignment


class PickupEvent(NamedTuple):
    request_id: int
    vehicle_id: int
    zone: ZoneId
    tick: int


class DropEvent(NamedTuple):
    request_id: int
    vehicle_id: int
    zone: ZoneId
    tick: int


@dataclass
class VehicleState:
    id: int
    location: ZoneId
    status: str = IDLE
    seats_total: int = 4
    trunk_total: int = 5
    manifest: list = field(default_factory=list)
    dispatch_target: ZoneId | None = None
    stops: list = field(default_factory=list)  # planned_stops() where it was built
    driven: int = field(default=0, init=False)  # steps moved since the plan was built
    zone_index: dict = field(default_factory=dict, init=False)  # stop_index(stops)
    # manifest tallies, recounted by replan() with the stop plan
    seats_committed: int = field(default=0, init=False)
    trunk_committed: int = field(default=0, init=False)
    passengers_onboard: int = field(default=0, init=False)
    packages_onboard: int = field(default=0, init=False)
    # the table whose row ``id`` this vehicle writes, if any
    fleet: FleetTable | None = field(default=None, init=False, repr=False, compare=False)

    # ---- capacity -------------------------------------------------------

    def tallies(self) -> tuple:
        """(seats committed, trunk committed, passengers onboard, packages
        onboard), counted from the manifest."""
        seats = trunk = passengers = packages = 0
        for e in self.manifest:
            if e.kind == PASSENGER:
                seats += 1
                passengers += e.onboard
            elif e.kind == GOODS:
                trunk += 1
                packages += e.onboard
        return seats, trunk, passengers, packages

    @property
    def seats_free(self) -> int:
        return self.seats_total - self.seats_committed

    @property
    def trunk_free(self) -> int:
        return self.trunk_total - self.trunk_committed

    # ---- lifecycle ------------------------------------------------------

    def set_status(self, new: str):
        if (self.status, new) not in ALLOWED_TRANSITIONS:
            raise VehicleStateError(f"vehicle {self.id}: illegal transition {self.status} -> {new}")
        self.status = new
        if self.fleet is not None:
            self.fleet.status[self.id] = STATUS_CODE[new]

    def add_entry(self, entry: ManifestEntry):
        if entry.kind == PASSENGER and self.seats_free <= 0:
            raise VehicleStateError(f"vehicle {self.id}: no seat for request {entry.request_id}")
        if entry.kind == GOODS and self.trunk_free <= 0:
            raise VehicleStateError(f"vehicle {self.id}: no trunk slot for request {entry.request_id}")
        self.manifest.append(entry)
        self.replan()

    def replan(self):
        """Rebuild the stop plan, its index and the tallies after a manifest
        change, and reset the odometer."""
        self.stops = self.planned_stops()
        self.driven = 0
        self.zone_index = stop_index(self.stops)
        self.recount()

    def recount(self):
        """Store the tallies of the manifest, and the free capacity and
        onboard count in the fleet table."""
        (self.seats_committed, self.trunk_committed,
         self.passengers_onboard, self.packages_onboard) = self.tallies()
        fleet = self.fleet
        if fleet is not None:
            fleet.seats_free[self.id] = self.seats_total - self.seats_committed
            fleet.trunk_free[self.id] = self.trunk_total - self.trunk_committed
            fleet.onboard[self.id] = self.passengers_onboard + self.packages_onboard

    # ---- routing --------------------------------------------------------

    def planned_stops(self) -> list:
        """Greedy stop order from the current location: pickups, then drops.

        Returns [(zone, cumulative_distance)], merging co-located events.
        The next stop is the nearest pending pickup, or once none is left the
        nearest drop; equal distances go to the smaller zone.
        """
        row, col = self.location
        cum = 0
        origins = [e.origin for e in self.manifest if not e.onboard]
        carried = [e.destination for e in self.manifest if not e.onboard]  # origins' drops
        drops = [e.destination for e in self.manifest if e.onboard]
        stops = []
        while origins or drops:
            zone, dist = None, math.inf
            for z in origins or drops:
                # manhattan(), inlined: a call per candidate costs more than the rest
                z_row, z_col = z
                d = ((row - z_row if row > z_row else z_row - row)
                     + (col - z_col if col > z_col else z_col - col))
                if d < dist or (d == dist and z < zone):
                    zone, dist = z, d
            cum += dist
            row, col = zone
            stops.append((zone, cum))
            # everything co-located resolves at this stop
            if zone in origins:
                drops += [d for o, d in zip(origins, carried) if o == zone]
                carried = [d for o, d in zip(origins, carried) if o != zone]
                origins = [o for o in origins if o != zone]
            drops = [d for d in drops if d != zone]
        return stops

    def next_stop(self) -> ZoneId | None:
        return self.stops[0][0] if self.stops else None

    def remaining_stops(self) -> list:
        """The stored plan as seen from the vehicle: [(zone, distance left)]."""
        return [(zone, cum - self.driven) for zone, cum in self.stops]

    def ticks_to(self, cum: int, speed: int) -> int:
        """Ticks until the plan's point at cumulative distance ``cum`` is
        reached; every ETA on the stored plan goes through this rule."""
        return math.ceil((cum - self.driven) / speed)

    def route_eta(self, speed: int) -> int:
        """Ticks to finish the whole manifest (last planned stop)."""
        return self.ticks_to(self.stops[-1][1], speed) if self.stops else 0


def stop_index(stops: list) -> dict:
    """Each zone of a stop plan mapped to the cumulative distance of the
    plan's first stop there."""
    return dict(reversed(stops))  # the earliest stop at a zone wins


def process_arrivals(v: VehicleState, tick: int) -> list:
    """Resolve everything co-located with the vehicle: dispatch arrival,
    drops, then pickups. Returns Pickup/Drop events for the engine."""
    events = []
    if v.status == DISPATCHING and v.location == v.dispatch_target:
        v.dispatch_target = None
        v.set_status(DISPATCHED)

    if v.status in (MATCHED, SERVING):
        # every pickup origin and onboard destination is a stop of the plan:
        # away from all of them nothing resolves
        if v.manifest and v.location not in v.zone_index:
            return events
        for e in [e for e in v.manifest if e.onboard and e.destination == v.location]:
            v.manifest.remove(e)
            events.append(DropEvent(e.request_id, v.id, v.location, tick))
        picked = False
        for e in v.manifest:
            if not e.onboard and e.origin == v.location:
                e.onboard = True
                e.pickup_tick = tick
                picked = True
                events.append(PickupEvent(e.request_id, v.id, v.location, tick))
        if events:
            if v.stops[0][0] == v.location:
                # the plan's first stop, reached after driving its cumulative
                # distance: the greedy from here is the rest of the plan, and
                # it resolves here what was just resolved
                del v.stops[0]
                v.zone_index = stop_index(v.stops)
                v.recount()
            else:
                v.replan()  # a drop on the way to another stop
        if picked and v.status == MATCHED:
            v.set_status(SERVING)
        if v.status == SERVING and not v.manifest:
            v.set_status(IDLE)
    return events


def move(v: VehicleState, grid: GridWorld) -> int:
    """Advance min(vehicle_speed, distance) lattice steps toward the current
    objective in one move: row steps first, then column steps.

    Dispatching vehicles head for their dispatch target; matched/serving
    vehicles head for their next planned stop; idle and dispatched vehicles
    hold position. Returns the number of steps moved.
    """
    if v.status == DISPATCHING:
        target = v.dispatch_target
        if target is None:
            raise VehicleStateError(f"vehicle {v.id}: dispatching without a target")
    elif v.status in (MATCHED, SERVING):
        target = v.next_stop()
        if target is None:
            raise VehicleStateError(f"vehicle {v.id}: {v.status} with an empty stop plan")
    else:
        return 0
    # plain comparisons: min() and abs() calls would cost more than the rest
    (row, col), (t_row, t_col) = v.location, target
    left = grid.vehicle_speed
    if row != t_row:
        step = t_row - row if row < t_row else row - t_row
        step = step if step < left else left
        row += step if row < t_row else -step
        left -= step
    if left and col != t_col:
        step = t_col - col if col < t_col else col - t_col
        step = step if step < left else left
        col += step if col < t_col else -step
        left -= step
    moved = grid.vehicle_speed - left
    if not moved:
        return 0
    v.location = ZoneId(row, col)
    fleet = v.fleet
    if fleet is not None:
        # flat_zone(), inlined: one store per move keeps the tick level
        fleet.zone[v.id] = (row * fleet.width + col
                            if 0 <= row < fleet.height and 0 <= col < fleet.width else OFF_GRID)
    if v.status != DISPATCHING:
        v.driven += moved
    return moved


def flat_zone(location: ZoneId, height: int, width: int) -> int:
    """``row * width + col``, or ``OFF_GRID`` outside a height x width grid."""
    row, col = location
    return row * width + col if 0 <= row < height and 0 <= col < width else OFF_GRID


# the table's columns, in the order the full check compares them
COLUMNS = ("status", "zone", "seats_free", "trunk_free", "onboard")


def fleet_columns(vehicles: Sequence[VehicleState], height: int, width: int) -> dict:
    """Each column of a fleet table, counted from the vehicles' own fields."""
    return {
        "status": np.array([STATUS_CODE[v.status] for v in vehicles], dtype=np.int64),
        "zone": np.array([flat_zone(v.location, height, width) for v in vehicles], dtype=np.int64),
        "seats_free": np.array([v.seats_free for v in vehicles], dtype=np.int64),
        "trunk_free": np.array([v.trunk_free for v in vehicles], dtype=np.int64),
        "onboard": np.array([v.passengers_onboard + v.packages_onboard for v in vehicles],
                            dtype=np.int64),
    }


class FleetTable:
    """The vehicles of one grid, vehicle ``i`` at index ``i``, and their
    columns (``COLUMNS``): one int per vehicle each, written by the vehicles."""

    def __init__(self, vehicles: list, grid: GridWorld):
        self.vehicles = vehicles
        if [v.id for v in self.vehicles] != list(range(len(self.vehicles))):
            raise ValueError("a fleet table holds vehicles 0..n-1 in id order")
        self.height, self.width = grid.height, grid.width
        columns = fleet_columns(self.vehicles, self.height, self.width)
        self.status = columns["status"]
        self.zone = columns["zone"]
        self.seats_free = columns["seats_free"]
        self.trunk_free = columns["trunk_free"]
        self.onboard = columns["onboard"]
        for v in self.vehicles:
            v.fleet = self

    def mask(self, *statuses: str) -> np.ndarray:
        """The vehicles in any of ``statuses``."""
        return np.array([s in statuses for s in VEHICLE_STATUSES])[self.status]

    def available(self) -> np.ndarray:
        """The vehicles free for new work: a seat or a trunk slot is uncommitted."""
        return (self.seats_free > 0) | (self.trunk_free > 0)

    def row(self, vid: int) -> dict:
        """Vehicle ``vid``'s entry in every column."""
        return {name: int(getattr(self, name)[vid]) for name in COLUMNS}

    def first_stale(self) -> tuple | None:
        """(vehicle id, column, stored, counted) for the first column, and
        its first vehicle, where the table disagrees with the vehicles' own
        fields; None when every entry holds."""
        fresh = fleet_columns(self.vehicles, self.height, self.width)
        for name in COLUMNS:
            bad = np.flatnonzero(getattr(self, name) != fresh[name])
            if len(bad):
                vid = int(bad[0])
                return vid, name, int(getattr(self, name)[vid]), int(fresh[name][vid])
        return None


@dataclass
class FleetSnapshot:
    """Vehicles free now per zone, and where and when each busy one frees."""

    available: np.ndarray  # (height, width), vehicles with free capacity now
    freeing: np.ndarray  # (busy vehicles, 3) int: ticks until free, row, col


def project_supply(fleet: FleetTable, grid: GridWorld) -> FleetSnapshot:
    """Count available vehicles per zone; a busy vehicle frees at its final
    stop, after its remaining route ETA."""
    free = fleet.available()
    available = np.bincount(fleet.zone[free], minlength=grid.height * grid.width)
    available = available.reshape(grid.height, grid.width).astype(np.float64)
    freeing = []
    for vid in np.flatnonzero(~free).tolist():
        v = fleet.vehicles[vid]
        if v.stops:
            zone, cum = v.stops[-1]
            freeing.append((v.ticks_to(cum, grid.vehicle_speed), zone.row, zone.col))
    return FleetSnapshot(available, np.array(freeing, dtype=np.int64).reshape(-1, 3))
