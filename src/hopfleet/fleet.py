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
moved since then, so a move adds one int and the plan as seen from the
vehicle is ``(zone, cum - driven)``. That view is exact: a step toward the
first stop shortens only the first leg, and ties break on the zone, so the
greedy order holds. Every ETA is the one rule ``ticks_to``:
``ceil((cum - driven) / speed)``. ``zone_index`` maps each stop zone to the
cumulative distance of the plan's first stop there; it changes only with
the plan. A vehicle that reaches the plan's first stop resolves there what
the greedy resolved there (no entry ends where it starts), and the greedy
from that stop is the rest of the plan, so ``process_arrivals`` drops the
stop and re-indexes. Only an added entry or a drop at a later stop of the
plan rebuilds it with ``replan``, which resets the odometer.

Every vehicle is a row of a ``FleetTable``: the vehicles, whose ids are
their indices, and one int column per fleet-wide fact the engine filters,
counts or moves on each tick. The table is the one stored copy of each
vehicle's status, position and odometer: ``status``, ``location`` and
``driven`` are views of its ``status`` (the index in ``VEHICLE_STATUSES``;
every row starts idle), ``zone`` (``row * width + col``) and ``driven``
columns. Its ``target`` column is the vehicle's objective, the zone it
drives toward: the dispatch target while dispatching (``dispatch_target``
is a view of it), the plan's first stop while matched or serving, and -1
when parked. The capacity columns (free seats, free trunk slots, onboard
count, pending pickups) are counted from the manifest. A vehicle writes its
row where these facts change, and nowhere else: ``set_status`` the status
and the objective, ``replan`` and a first-stop drop the objective,
``recount`` the capacity columns, from ``tallies``. Locations are on the
grid: the table checks each one when it is built, and a vehicle moves only
toward a stop or a dispatch target, both zones of the grid. So the engine
picks vehicles by mask in ascending id, ``project_supply`` counts the
available ones with one ``np.bincount``, matching and the state encoder
read zones and free capacity as arrays, and ``move`` advances every
vehicle that is not parked in one array pass.

Arrival checks rely on the stored plan: every pending pickup's origin and
every onboard order's destination is one of its stops, so a matched or
serving vehicle that stands on none of them resolves nothing. Parked
vehicles (idle or dispatched) hold position with nothing to resolve. Of the
vehicles that move, ``move`` leaves in ``FleetTable.arriving`` the only
ones where something can resolve, and the engine calls ``process_arrivals``
for those alone:

* those standing on their objective;
* those that hold both a pending pickup and an onboard order and stand on
  a zone of their plan.

Every other moving vehicle can resolve nothing. A dispatching vehicle
resolves only at its target. A matched or serving vehicle drives from the
point P where its plan was built, or where its last first stop was dropped,
along a shortest path toward the first stop S, so wherever it stands short
of S it is nearer to P than S is. The greedy took S as the nearest pending
pickup from P, or, with none pending, the nearest drop; so no pending
pickup lies short of S on the way, and without a pending pickup no drop
does either. A drop needs an onboard order, so only a vehicle holding both
a pending pickup (S is a pickup) and an onboard order can meet a drop
before S, and only on a zone of its plan. So the vehicles skipped are those
that can resolve nothing, not those away from every zone of their plan: a
vehicle can stand on the drop zone of an order it has not picked up yet, a
zone of its plan where nothing resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    """One vehicle; its status, position, odometer and objective are its row
    of the table it is built into (``FleetTable``)."""

    id: int
    seats_total: int
    trunk_total: int
    manifest: list = field(default_factory=list)
    stops: list = field(default_factory=list)  # planned_stops() where it was built
    zone_index: dict = field(default_factory=dict, init=False)  # stop_index(stops)
    # the table whose row ``id`` this vehicle is, set when the table is built
    fleet: FleetTable = field(init=False, repr=False, compare=False)

    # ---- the vehicle's row ------------------------------------------------

    @property
    def status(self) -> str:
        return VEHICLE_STATUSES[self.fleet.status.item(self.id)]

    @property
    def location(self) -> ZoneId:
        return ZoneId._make(divmod(self.fleet.zone.item(self.id), self.fleet.grid.width))

    @property
    def driven(self) -> int:
        """Steps moved since the plan was built."""
        return self.fleet.driven.item(self.id)

    @driven.setter
    def driven(self, steps: int):
        self.fleet.driven[self.id] = steps

    @property
    def dispatch_target(self) -> ZoneId | None:
        """Where a dispatching vehicle drives; None for any other vehicle,
        or for a dispatching one not yet given a target."""
        target = self.fleet.target.item(self.id)
        if self.status != DISPATCHING or target < 0:
            return None
        return ZoneId._make(divmod(target, self.fleet.grid.width))

    @dispatch_target.setter
    def dispatch_target(self, zone: ZoneId | None):
        self.fleet.target[self.id] = -1 if zone is None else zone[0] * self.fleet.grid.width + zone[1]

    def objective(self) -> int:
        """The flat zone the vehicle drives toward: its dispatch target while
        dispatching, its plan's first stop while matched or serving, and -1
        when parked or with an empty plan."""
        status = self.status
        if status == DISPATCHING:
            return self.fleet.target.item(self.id)  # the table holds the only copy
        if self.stops and status in (MATCHED, SERVING):
            row, col = self.stops[0][0]
            return row * self.fleet.grid.width + col
        return -1

    def aim(self):
        """Write the objective into the vehicle's row of the table."""
        self.fleet.target[self.id] = self.objective()

    # ---- capacity -------------------------------------------------------

    def tallies(self) -> tuple:
        """(free seats, free trunk slots, onboard count, pending pickups):
        the vehicle's capacity columns as its manifest counts them."""
        seats, trunk, onboard = self.seats_total, self.trunk_total, 0
        for e in self.manifest:
            if e.kind == PASSENGER:
                seats -= 1
            elif e.kind == GOODS:
                trunk -= 1
            onboard += e.onboard
        return seats, trunk, onboard, len(self.manifest) - onboard

    # ---- lifecycle ------------------------------------------------------

    def set_status(self, new: str):
        if (self.status, new) not in ALLOWED_TRANSITIONS:
            raise VehicleStateError(f"vehicle {self.id}: illegal transition {self.status} -> {new}")
        self.fleet.status[self.id] = STATUS_CODE[new]
        self.aim()

    def add_entry(self, entry: ManifestEntry):
        if entry.kind == PASSENGER and self.fleet.seats_free[self.id] <= 0:
            raise VehicleStateError(f"vehicle {self.id}: no seat for request {entry.request_id}")
        if entry.kind == GOODS and self.fleet.trunk_free[self.id] <= 0:
            raise VehicleStateError(f"vehicle {self.id}: no trunk slot for request {entry.request_id}")
        self.manifest.append(entry)
        self.replan()

    def replan(self):
        """Rebuild the stop plan and its index after a manifest change,
        reset the odometer, and recount the capacity columns."""
        self.stops = self.planned_stops()
        self.driven = 0
        self.zone_index = stop_index(self.stops)
        self.recount()
        self.aim()

    def recount(self):
        """Write the manifest's tallies into the vehicle's row of the table."""
        fleet, vid = self.fleet, self.id
        (fleet.seats_free[vid], fleet.trunk_free[vid], fleet.onboard[vid],
         fleet.pending[vid]) = self.tallies()

    # ---- routing --------------------------------------------------------

    def planned_stops(self) -> list:
        """Greedy stop order from the current location: pickups, then drops.

        Returns [(zone, cumulative_distance)], merging co-located events.
        The next stop is the nearest pending pickup, or once none is left the
        nearest drop; equal distances go to the smaller zone.
        """
        if not self.manifest:
            return []
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

    def remaining_stops(self) -> list:
        """The stored plan as seen from the vehicle: [(zone, distance left)]."""
        if not self.stops:
            return []
        driven = self.driven
        return [(zone, cum - driven) for zone, cum in self.stops]

    def ticks_to(self, cum: int, speed: int) -> int:
        """Ticks until the plan's point at cumulative distance ``cum`` is
        reached; every ETA on the stored plan goes through this rule."""
        return math.ceil((cum - self.fleet.driven.item(self.id)) / speed)

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
    status = v.status
    if status == DISPATCHING:
        fleet = v.fleet
        if fleet.zone[v.id] == fleet.target[v.id]:
            v.set_status(DISPATCHED)
        return events
    if status != MATCHED and status != SERVING:
        return events
    location = v.location
    for e in [e for e in v.manifest if e.onboard and e.destination == location]:
        v.manifest.remove(e)
        events.append(DropEvent(e.request_id, v.id, location, tick))
    picked = False
    for e in v.manifest:
        if not e.onboard and e.origin == location:
            e.onboard = True
            picked = True
            events.append(PickupEvent(e.request_id, v.id, location, tick))
    if events:
        if v.stops[0][0] == location:
            # the plan's first stop, reached after driving its cumulative
            # distance: the greedy from here is the rest of the plan, and
            # it resolves here what was just resolved
            del v.stops[0]
            v.zone_index = stop_index(v.stops)
            v.recount()
            v.aim()
        else:
            v.replan()  # a drop on the way to another stop
    if picked and status == MATCHED:
        v.set_status(SERVING)  # with what it picked up, the manifest is not empty
    elif status == SERVING and not v.manifest:
        v.set_status(IDLE)
    return events


def move(fleet: FleetTable, ids, grid: GridWorld) -> tuple:
    """Advance each vehicle of ``ids`` (ascending) that is not parked
    min(vehicle_speed, distance) lattice steps toward its objective, row
    steps first, then column steps, in one array pass.

    Dispatching vehicles head for their dispatch target; matched/serving
    vehicles head for their next planned stop and add the steps to their
    odometer; idle and dispatched vehicles hold position. Leaves in
    ``fleet.arriving`` the moved vehicles where something can resolve (see
    the module docstring). Returns (steps moved in total, steps moved by
    matched or serving vehicles).
    """
    ids = np.asarray(ids, dtype=np.int64)
    ids = ids[fleet.mask(DISPATCHING, MATCHED, SERVING)[ids]]
    status, target = fleet.status[ids], fleet.target[ids]
    if (target < 0).any():
        v = fleet.vehicles[int(ids[np.argmax(target < 0)])]
        if v.status == DISPATCHING:
            raise VehicleStateError(f"vehicle {v.id}: dispatching without a target")
        raise VehicleStateError(f"vehicle {v.id}: {v.status} with an empty stop plan")
    width, speed = grid.width, grid.vehicle_speed
    zone = fleet.zone[ids]
    (t_row, t_col), (row, col) = np.divmod(target, width), np.divmod(zone, width)
    rows = np.minimum(np.maximum(t_row - row, -speed), speed)  # signed row steps
    steps = np.abs(rows)
    left = speed - steps
    cols = np.minimum(np.maximum(t_col - col, -left), left)  # signed column steps
    steps += np.abs(cols)
    zone += rows * width + cols  # the objective is on the grid, so is the step
    fleet.zone[ids] = zone
    served = steps * (status != STATUS_CODE[DISPATCHING])
    fleet.driven[ids] += served
    arriving = zone == target
    mixed = np.flatnonzero(np.minimum(fleet.onboard[ids], fleet.pending[ids]))
    for i, vid, at in zip(mixed.tolist(), ids[mixed].tolist(), zone[mixed].tolist()):
        if divmod(at, width) in fleet.vehicles[vid].zone_index:
            arriving[i] = True
    fleet.arriving = ids[arriving].tolist()
    return int(steps.sum()), int(served.sum())


# the table's columns: the only copies of status and zone, then those fleet_columns counts
COLUMNS = ("status", "zone", "target", "seats_free", "trunk_free", "onboard", "pending")


def fleet_columns(fleet: FleetTable) -> dict:
    """The columns of a fleet table that have a second source, counted
    afresh: the objective from the vehicles' status and plans (a
    dispatching vehicle's target is its own), the capacity columns from
    their manifests. A zone off the grid raises InvalidZoneError."""
    grid = fleet.grid
    off = (fleet.zone < 0) | (fleet.zone >= grid.height * grid.width)
    if off.any():
        grid.require(divmod(int(fleet.zone[np.argmax(off)]), grid.width))
    counted = np.array([(v.objective(), *v.tallies()) for v in fleet.vehicles], dtype=np.int64)
    return dict(zip(COLUMNS[2:], counted.reshape(-1, 5).T.copy()))


class FleetTable:
    """The vehicles of one grid, vehicle ``i`` at index ``i``, idle and at
    ``locations[i]``, and their columns (``COLUMNS`` and the odometer
    ``driven``): one int per vehicle each, written by the vehicles and by
    ``move``. A location off the grid raises InvalidZoneError."""

    def __init__(self, vehicles: list, grid: GridWorld, locations: list):
        self.vehicles = vehicles
        if [v.id for v in self.vehicles] != list(range(len(self.vehicles))):
            raise ValueError("a fleet table holds vehicles 0..n-1 in id order")
        if len(locations) != len(vehicles):
            raise ValueError("a fleet table holds one location per vehicle")
        self.grid = grid
        zones = grid.require_all(locations)
        self.zone = zones[:, 0] * grid.width + zones[:, 1]
        self.status = np.full(len(vehicles), STATUS_CODE[IDLE], dtype=np.int64)
        self.driven = np.zeros(len(vehicles), dtype=np.int64)
        self.arriving = []  # the vehicles the last move left where something can resolve
        for v in self.vehicles:
            v.fleet = self
        for name, column in fleet_columns(self).items():
            setattr(self, name, column)

    def mask(self, *statuses: str) -> np.ndarray:
        """The vehicles in any of ``statuses``."""
        return np.array([s in statuses for s in VEHICLE_STATUSES])[self.status]

    def available(self) -> np.ndarray:
        """The vehicles free for new work: a seat or a trunk slot is uncommitted."""
        return (self.seats_free > 0) | (self.trunk_free > 0)

    def row(self, vid: int) -> dict:
        """Vehicle ``vid``'s entry in every column."""
        return {name: int(getattr(self, name)[vid]) for name in (*COLUMNS, "driven")}

    def first_stale(self) -> tuple | None:
        """(vehicle id, column, stored, counted) for the first column, and
        its first vehicle, where the table disagrees with a fresh count
        (``fleet_columns``); None when every entry holds."""
        for name, counted in fleet_columns(self).items():
            bad = np.flatnonzero(getattr(self, name) != counted)
            if len(bad):
                vid = int(bad[0])
                return vid, name, int(getattr(self, name)[vid]), int(counted[vid])
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
