"""Vehicle state, the four-status lifecycle, and the fleet and order tables.

Statuses move along idle -> dispatching -> dispatched -> serving -> idle: a
dispatched vehicle serves from its first assignment, and a vehicle serves
exactly while it holds orders, so it goes idle when its last one resolves.
Any other transition is a bug and raises.

A vehicle's work is its manifest, its orders in the order it took them on,
each the current leg of a request (a relayed package's leg ends at a hub):
reserved pickups until they become onboard at their origin. Seats and trunk
slots are reserved at assignment, so matching can never overbook. Stops are
ordered by a nearest-next greedy: all pending pickups first, then
deliveries. The plan is stored as ``stops``, (flat zone, cumulative
distance) pairs measured from where it was built, on an odometer:
``driven`` counts the steps moved since, so the plan as seen from the
vehicle is ``(zone, cum - driven)``. That view is exact: a step toward the
first stop shortens only the first leg, and ties break on the zone, so the
greedy order holds. Every ETA is the one rule ``ticks_to``: ``ceil((cum -
driven) / speed)``. A vehicle that reaches the plan's first stop resolves
there what the greedy resolved there (no order ends where it starts), and
the greedy from that stop is the rest of the plan, so ``process_arrivals``
drops the stop and rewrites its rows with ``index``; only an added order or
a drop at a later stop rebuilds the plan with ``replan``, which resets the
odometer.

A ``FleetTable`` builds the vehicles as its rows (vehicle ``i`` at index
``i``) from their seats, trunk slots and locations, and is the one stored
copy of their status, zone, odometer, objective, capacity and manifests,
each an int column: the objective ``target`` is the dispatch target while
dispatching, the plan's first stop while serving, and -1 when parked; the
capacity columns are the seats and trunk slots, free seats, free trunk
slots, onboard count and pending pickups.
``VehicleState.status`` and ``location`` are views of the columns.
The order table ``orders[field, vehicle, slot]`` holds each vehicle's
orders from slot 0 in manifest order, one int plane per field of
``ORDER_FIELDS``, so a row-major pass meets them by vehicle, then by
manifest position. An order keeps only what routing reads, and its onboard
flag is the one copy of that fact; its ``drop_cum`` is the cumulative
distance of the plan's first stop at its destination (``stop_index``),
written wherever the plan changes.
A vehicle writes its rows where these facts change, and nowhere else:
``set_status`` (``FleetTable.dispatch`` for many) the status and objective;
``add_entry``, ``process_arrivals`` and ``replan`` the orders, their
``drop_cum`` and the capacity counted from them. Locations are on the grid:
the table checks each one when it is built, and a vehicle moves only toward
a stop or a dispatch target. So the engine picks vehicles by mask,
``project_supply`` counts the available ones with one ``np.bincount``,
matching and the state encoder read zones and free capacity as arrays, and
``move`` and ``late_orders`` pass once over the fleet and its onboard orders.

A dispatch resolves at its target, and an order at its destination once
onboard and at its origin before that. ``move`` leaves in
``FleetTable.arriving`` the moved vehicles that stand where one of theirs
resolves, and the engine calls ``process_arrivals`` for those alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import GOODS, PASSENGER, URGENCY
from .geo import GridWorld, ZoneId

IDLE = "idle"
DISPATCHING = "dispatching"
DISPATCHED = "dispatched"
SERVING = "serving"

VEHICLE_STATUSES = (IDLE, DISPATCHING, DISPATCHED, SERVING)
STATUS_CODE = {status: code for code, status in enumerate(VEHICLE_STATUSES)}

ALLOWED_TRANSITIONS = {
    (IDLE, DISPATCHING),
    (DISPATCHING, DISPATCHED),
    (DISPATCHED, SERVING),
    (SERVING, IDLE),
}

class VehicleStateError(RuntimeError):
    """Internal consistency violation in a vehicle's lifecycle."""


# an order's fields, one int each: its request, its kind (an index in
# KINDS), the flat origin and destination zones of the leg it carries,
# onboard (0 or 1) and its drop_cum
ORDER_FIELDS = ("request", "kind", "origin", "destination", "onboard", "drop_cum")
REQUEST, KIND, ORIGIN, DESTINATION, ONBOARD, DROP_CUM = range(6)
KINDS = (PASSENGER, GOODS)
_URGENCY = np.array([URGENCY[kind] for kind in KINDS])  # by kind index
NO_ORDERS = ((),) * len(ORDER_FIELDS)  # an empty vehicle's rows, as ``rows`` reads them
_DISPATCHING, _SERVING = STATUS_CODE[DISPATCHING], STATUS_CODE[SERVING]


class VehicleState:
    """One vehicle, row ``id`` of the table that builds it (``FleetTable``):
    its status, position, odometer, objective, capacity and orders are its
    rows there, and it holds only its stored stop plan."""

    def __init__(self, id: int, fleet: FleetTable):
        self.id = id
        self.fleet = fleet
        self.stops = []  # planned_stops() where it was built

    # ---- the vehicle's row ------------------------------------------------

    @property
    def status(self) -> str:
        return VEHICLE_STATUSES[self.fleet.status.item(self.id)]

    @property
    def location(self) -> ZoneId:
        return ZoneId._make(divmod(self.fleet.zone.item(self.id), self.fleet.grid.width))

    def aim(self):
        """Write the objective, the flat zone the vehicle drives toward, into
        its row of the table: its plan's first stop, -1 with an empty plan."""
        self.fleet.target[self.id] = self.stops[0][0] if self.stops else -1

    # ---- orders ---------------------------------------------------------

    def rows(self) -> list:
        """The vehicle's orders in manifest order, read once from the order
        table: one list per field of ``ORDER_FIELDS``."""
        fleet, vid = self.fleet, self.id
        held = fleet.onboard.item(vid) + fleet.pending.item(vid)
        return fleet.orders[:, vid, :held].tolist() if held else NO_ORDERS

    # ---- lifecycle ------------------------------------------------------

    def set_status(self, new: str):
        old = self.status
        if (old, new) not in ALLOWED_TRANSITIONS:
            raise VehicleStateError(f"vehicle {self.id}: illegal transition {old} -> {new}")
        self.fleet.status[self.id] = STATUS_CODE[new]
        self.aim()

    def add_entry(self, request, leg: int):
        """Take on leg ``leg`` of ``request`` (a ``demand.Request``) as the
        last order, a pending pickup."""
        fleet, vid, width = self.fleet, self.id, self.fleet.grid.width
        kind = KINDS.index(request.kind)
        if (fleet.seats_free, fleet.trunk_free)[kind].item(vid) <= 0:
            raise VehicleStateError(f"vehicle {vid}: no {('seat', 'trunk slot')[kind]} "
                                    f"for request {request.id}")
        slot = fleet.onboard.item(vid) + fleet.pending.item(vid)
        origin, destination = request.legs[leg]
        fleet.orders[:, vid, slot] = (request.id, kind, origin[0] * width + origin[1],
                                      destination[0] * width + destination[1], 0, -1)
        self.replan(fleet.orders[:, vid, : slot + 1].tolist())

    def replan(self, cols: list | None = None):
        """Rebuild the stop plan after the orders change, reset the odometer
        and ``index``; ``cols`` are the stored orders as ``rows`` reads them,
        when in hand."""
        cols = self.rows() if cols is None else cols
        self.stops = self.planned_stops(cols)
        self.fleet.driven[self.id] = 0
        self.index(cols)

    def index(self, cols: list, changed: int | None = None):
        """Bring the vehicle's rows up to its plan and its orders ``cols`` (as
        ``rows`` reads them): each order's ``drop_cum`` (when the plan changed
        at the one zone ``changed`` alone, only an order bound there has a
        new one), the capacity columns and, through ``aim``, the objective."""
        fleet, vid = self.fleet, self.id
        count, onboard, kinds = len(cols[REQUEST]), sum(cols[ONBOARD]), cols[KIND]
        if changed is None or changed in cols[DESTINATION]:
            index = stop_index(self.stops)
            fleet.orders[DROP_CUM, vid, :count] = list(map(index.__getitem__, cols[DESTINATION]))
        fleet.seats_free[vid] = fleet.seats_total.item(vid) - kinds.count(0)
        fleet.trunk_free[vid] = fleet.trunk_total.item(vid) - kinds.count(1)
        fleet.onboard[vid] = onboard
        fleet.pending[vid] = count - onboard
        self.aim()

    # ---- routing --------------------------------------------------------

    def planned_stops(self, cols: list | None = None) -> list:
        """Greedy stop order from the current location: pickups, then drops.

        Returns [(flat zone, cumulative_distance)], merging co-located
        events. The next stop is the nearest pending pickup, or once none is
        left the nearest drop; equal distances go to the smaller flat zone,
        which orders zones as (row, col) does. ``cols`` are the orders as
        ``rows`` reads them, when in hand.
        """
        cols = self.rows() if cols is None else cols
        if not cols[REQUEST]:
            return []
        width = self.fleet.grid.width
        pickups: dict = {}  # flat origin -> the destinations its pickups carry
        drops = set()
        for o, d, on in zip(cols[ORIGIN], cols[DESTINATION], cols[ONBOARD]):
            if on:
                drops.add(d)
            elif o in pickups:
                pickups[o].append(d)
            else:
                pickups[o] = [d]
        row, col = divmod(self.fleet.zone.item(self.id), width)
        cum = 0
        stops = []
        while pickups or drops:
            zone, dist = -1, math.inf
            for z in pickups or drops:
                # manhattan(), inlined: a call per candidate costs more than the rest
                d = abs(z // width - row) + abs(z % width - col)
                if d < dist or (d == dist and z < zone):
                    zone, dist = z, d
            cum += dist
            row, col = divmod(zone, width)
            stops.append((zone, cum))
            # everything co-located resolves at this stop
            if zone in pickups:
                drops.update(pickups.pop(zone))
            drops.discard(zone)
        return stops

    def remaining_stops(self) -> list:
        """The stored plan as seen from the vehicle: [(zone, distance left)]."""
        if not self.stops:
            return []
        driven = self.fleet.driven.item(self.id)
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


def process_arrivals(v: VehicleState) -> tuple:
    """Resolve everything co-located with the vehicle: dispatch arrival,
    drops of onboard orders (so nothing is delivered before its pickup),
    then pickups. Returns (the dropped requests, the picked-up requests),
    each in manifest order."""
    fleet, vid = v.fleet, v.id
    code = fleet.status.item(vid)
    if code == _DISPATCHING and fleet.zone[vid] == fleet.target[vid]:
        v.set_status(DISPATCHED)
    if code != _SERVING:
        return [], []
    location = fleet.zone.item(vid)
    cols = v.rows()
    requests, onboard = cols[REQUEST], cols[ONBOARD]
    dropped, picked = [], []
    for i, (origin, destination, on) in enumerate(zip(cols[ORIGIN], cols[DESTINATION], onboard)):
        if on:
            if destination == location:
                dropped.append(i)
        elif origin == location:
            picked.append(i)
    drops, pickups = [requests[i] for i in dropped], [requests[i] for i in picked]
    if dropped or picked:
        for i in picked:
            onboard[i] = fleet.orders[ONBOARD, vid, i] = 1
        if dropped:
            held = len(requests)
            for i in reversed(dropped):
                if i < held - 1:  # the orders after it move down a slot
                    fleet.orders[:, vid, i : held - 1] = fleet.orders[:, vid, i + 1 : held]
                for col in cols:
                    del col[i]
            fleet.orders[:, vid, held - len(dropped) : held] = -1
        if v.stops[0][0] == location:
            # the plan's first stop, reached after driving its cumulative
            # distance: the greedy from here is the rest of the plan, and
            # it resolves here what was just resolved
            del v.stops[0]
            v.index(cols, location)
        else:
            v.replan(cols)  # a drop on the way to another stop
    if not requests:
        v.set_status(IDLE)
    return drops, pickups


def move(fleet: FleetTable, grid: GridWorld) -> tuple:
    """Advance each vehicle that is not parked min(vehicle_speed, distance)
    lattice steps toward its objective, row steps first, then column steps,
    in one array pass.

    Dispatching vehicles head for their dispatch target; serving vehicles
    head for their next planned stop and add the steps to their odometer;
    idle and dispatched vehicles hold position. Leaves in ``fleet.arriving``
    the moved vehicles where something resolves (see the module docstring).
    Returns (steps moved in total, steps moved by serving vehicles).
    """
    ids = np.flatnonzero(fleet.mask(DISPATCHING, SERVING))
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
    dispatching = status == _DISPATCHING
    served = steps * ~dispatching
    fleet.driven[ids] += served
    orders = fleet.orders  # each order's resolve zone; the -1 padding matches none
    resolve = np.where(orders[ONBOARD] == 1, orders[DESTINATION], orders[ORIGIN])[ids]
    arriving = (dispatching & (zone == target)) | (resolve == zone[:, None]).any(axis=1)
    fleet.arriving = ids[arriving].tolist()
    return int(steps.sum()), int(served.sum())


# the table's columns: the only copies of status and zone, then those fleet_columns counts
COLUMNS = ("status", "zone", "target", "seats_free", "trunk_free", "onboard", "pending")


def fleet_columns(fleet: FleetTable) -> dict:
    """The columns of a fleet table that have a second source, counted
    afresh: the objective from the status column and the vehicles' plans (a
    dispatching vehicle's target is its own), the capacity columns as row
    sums of the order table. A zone off the grid raises InvalidZoneError."""
    grid = fleet.grid
    off = (fleet.zone < 0) | (fleet.zone >= grid.height * grid.width)
    if off.any():
        grid.require(divmod(int(fleet.zone[np.argmax(off)]), grid.width))
    # the first stop of each serving vehicle's plan, -1 for any other
    first = np.full(len(fleet.vehicles), -1, dtype=np.int64)
    busy = np.flatnonzero(fleet.status == _SERVING).tolist()
    first[busy] = [stops[0][0] if (stops := fleet.vehicles[vid].stops) else -1 for vid in busy]
    kind, onboard = fleet.orders[KIND], fleet.orders[ONBOARD]
    return {
        "target": np.where(fleet.status == _DISPATCHING, fleet.target, first),
        "seats_free": fleet.seats_total - np.count_nonzero(kind == KINDS.index(PASSENGER), axis=1),
        "trunk_free": fleet.trunk_total - np.count_nonzero(kind == KINDS.index(GOODS), axis=1),
        "onboard": np.count_nonzero(onboard == 1, axis=1),
        "pending": np.count_nonzero(onboard == 0, axis=1),
    }


def late_orders(fleet: FleetTable, tick: int, speed: int, since: np.ndarray,
                leg: np.ndarray) -> tuple:
    """The onboard orders late at ``tick`` against a direct trip, by vehicle
    and then manifest position: their vehicles, urgencies (by kind) and
    extra ticks, each ETA by the ``ticks_to`` rule at its ``drop_cum``; and
    each vehicle's largest leg index onboard, 0 with none. The request
    table's ``since`` and ``leg`` columns give each leg's queue tick and
    index: a held request's row does not change."""
    orders = fleet.orders
    flat = np.flatnonzero(orders[ONBOARD] == 1)  # row-major: by vehicle, then slot
    vid = flat // orders.shape[2]
    onboard = orders.reshape(len(ORDER_FIELDS), -1)[:, flat]
    rids, width = onboard[REQUEST], fleet.grid.width
    (o_row, d_row), (o_col, d_col) = np.divmod(onboard[ORIGIN : DESTINATION + 1], width)
    length = np.abs(d_row - o_row) + np.abs(d_col - o_col)  # of the leg
    # less the direct trip, ceil(length / speed) = -((-length) // speed), plus
    # the ETA, ceil((drop_cum - driven) / speed) = -((driven - drop_cum) // speed)
    delay = (tick - since[rids] + (-length) // speed
             - (fleet.driven[vid] - onboard[DROP_CUM]) // speed)
    late = np.flatnonzero(delay > 0)
    # in leg's dtype: ufunc.at is several times slower when it must cast
    max_hops = np.zeros(len(fleet.vehicles), dtype=leg.dtype)
    np.maximum.at(max_hops, vid, leg[rids])
    return vid[late], _URGENCY[onboard[KIND, late]], delay[late], max_hops


class FleetTable:
    """The vehicles of one grid, vehicle ``i`` (``vehicles[i]``, built here
    as the table's row ``i``) idle at ``locations[i]`` with
    ``seats_total[i]`` seats and ``trunk_total[i]`` trunk slots; their
    columns (``COLUMNS``, the odometer ``driven`` and the two totals, which
    nothing writes), written by the vehicles, ``dispatch`` and ``move``; and
    their orders, as many slots each as the largest vehicle holds, -1 past a
    vehicle's orders. A location off the grid raises InvalidZoneError."""

    def __init__(self, grid: GridWorld, seats_total, trunk_total, locations: list):
        n = len(locations)
        self.seats_total = np.array(seats_total, dtype=np.int64)
        self.trunk_total = np.array(trunk_total, dtype=np.int64)
        if self.seats_total.shape != (n,) or self.trunk_total.shape != (n,):
            raise ValueError("a fleet table holds one location and one of each total per vehicle")
        self.grid = grid
        zones = grid.require_all(locations)
        self.zone = zones[:, 0] * grid.width + zones[:, 1]
        self.status = np.full(n, STATUS_CODE[IDLE], dtype=np.int64)
        self.driven = np.zeros(n, dtype=np.int64)
        self.target = np.full(n, -1, dtype=np.int64)  # idle: parked
        self.arriving = []  # the vehicles the last move left where something resolves
        slots = int((self.seats_total + self.trunk_total).max(initial=0))
        self.orders = np.full((len(ORDER_FIELDS), n, slots), -1, dtype=np.int64)
        self.vehicles = [VehicleState(vid, self) for vid in range(n)]
        for name, column in fleet_columns(self).items():
            setattr(self, name, column)

    def mask(self, *statuses: str) -> np.ndarray:
        """The vehicles in any of ``statuses``; a status not in
        ``VEHICLE_STATUSES`` raises ValueError."""
        unknown = set(statuses).difference(VEHICLE_STATUSES)
        if unknown:
            raise ValueError(f"no vehicle status {sorted(unknown)}")
        return np.array([s in statuses for s in VEHICLE_STATUSES])[self.status]

    def dispatch(self, vids: np.ndarray, targets: np.ndarray):
        """``set_status(DISPATCHING)`` of ``vids`` as column writes, aimed at ``targets``."""
        for vid in vids[self.status[vids] != STATUS_CODE[IDLE]].tolist():
            self.vehicles[vid].set_status(DISPATCHING)  # an illegal transition: raises
        self.status[vids], self.target[vids] = _DISPATCHING, targets

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
            freeing.append((v.route_eta(grid.vehicle_speed), *divmod(v.stops[-1][0], grid.width)))
    return FleetSnapshot(available, np.array(freeing, dtype=np.int64).reshape(-1, 3))
