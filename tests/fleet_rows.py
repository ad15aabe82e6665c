"""Vehicles built as the rows of one fleet table, as the engine builds its fleet."""

from types import SimpleNamespace
from typing import NamedTuple

from hopfleet.fleet import (
    DISPATCHED,
    DISPATCHING,
    IDLE,
    KINDS,
    ONBOARD,
    ORDER_FIELDS,
    REQUEST,
    SERVING,
    STATUS_CODE,
    FleetTable,
    stop_index,
)
from hopfleet.geo import ZoneId

from desk_config import desk_config

_DESK = desk_config().sim


def vehicles_in_table(grid, locations, status=IDLE, seats_total=_DESK.seats,
                      trunk_total=_DESK.trunk) -> list:
    """Vehicles 0..n-1 at ``locations`` ((row, col) pairs), the rows of one
    FleetTable on ``grid``. ``status``, ``seats_total`` and ``trunk_total``
    are one value for every vehicle or a list of one value per vehicle; the
    totals default to the desk car's. The status is written into the
    table's status column, the one stored copy, and each vehicle then aims
    at its objective."""
    seats, trunk, statuses = (value if isinstance(value, list) else [value] * len(locations)
                              for value in (seats_total, trunk_total, status))
    fleet = FleetTable(grid, seats, trunk, [ZoneId(*loc) for loc in locations])
    fleet.status[:] = [STATUS_CODE[s] for s in statuses]
    for v in fleet.vehicles:
        v.aim()
    return fleet.vehicles


def put(v, zone):
    """Set vehicle ``v`` down at ``zone`` ((row, col)) by writing its table
    row, the one stored copy of its location; plan and objective stay."""
    v.fleet.zone[v.id] = zone[0] * v.fleet.grid.width + zone[1]


def aim_at(v, zone):
    """Give dispatching vehicle ``v`` the target ``zone`` ((row, col)) by
    writing its objective entry, as the engine's dispatch does."""
    v.fleet.target[v.id] = flat(v, zone)


def odometer(v) -> int:
    """The steps vehicle ``v`` moved since its plan was built, as its table row holds them."""
    return v.fleet.driven.item(v.id)


def free_capacity(v) -> tuple:
    """(free seats, free trunk slots) of a vehicle, as its table row holds them."""
    return int(v.fleet.seats_free[v.id]), int(v.fleet.trunk_free[v.id])


def flat(v, zone) -> int:
    """``zone`` ((row, col)) as the flat zone vehicle ``v``'s table keeps."""
    return zone[0] * v.fleet.grid.width + zone[1]


def zoned(v, stops) -> list:
    """A stop plan or index of vehicle ``v`` ((flat zone, distance) pairs)
    with each zone a ZoneId."""
    return [(ZoneId._make(divmod(zone, v.fleet.grid.width)), cum) for zone, cum in stops]


class ManifestEntry(NamedTuple):
    """An order as a test gives it to a vehicle (``add``) and reads it back
    (``manifest``), but for its ``drop_cum``."""

    request_id: int
    kind: str  # passenger | goods
    origin: ZoneId
    destination: ZoneId
    onboard: bool = False


def add(v, e: ManifestEntry):
    """Vehicle ``v`` takes on order ``e`` as matching assigns one; an
    onboard ``e`` is then marked picked up, and the plan rebuilt."""
    request = SimpleNamespace(id=e.request_id, kind=e.kind, legs=((e.origin, e.destination),))
    v.add_entry(request, 0)
    if e.onboard:
        v.fleet.orders[ONBOARD, v.id, len(v.rows()[REQUEST]) - 1] = 1
        v.replan()


def manifest(v) -> list:
    """Vehicle ``v``'s orders in manifest order, as ManifestEntry records."""
    width = v.fleet.grid.width
    return [ManifestEntry(rid, KINDS[kind], ZoneId._make(divmod(o, width)),
                          ZoneId._make(divmod(d, width)), bool(on))
            for rid, kind, o, d, on, _ in zip(*v.rows())]


def set_manifest(v, entries):
    """Replace vehicle ``v``'s orders with ``entries`` (ManifestEntry
    records, in manifest order) and replan, as a reference that edits a
    manifest in place and then replans does."""
    v.fleet.orders[:, v.id] = -1
    v.replan([[] for _ in ORDER_FIELDS])
    for e in entries:
        add(v, e)


def reference_process_arrivals(v):
    """process_arrivals as it was before it read the stored plan: a scan of
    the whole manifest for every serving vehicle, and every resolution
    rebuilds the stop plan with replan(). Returns (the dropped requests,
    the picked-up requests)."""
    drops, pickups = [], []
    if v.status == DISPATCHING and flat(v, v.location) == v.fleet.target[v.id]:
        v.set_status(DISPATCHED)
    if v.status == SERVING:
        entries = manifest(v)
        for e in [e for e in entries if e.onboard and e.destination == v.location]:
            entries.remove(e)
            drops.append(e.request_id)
        for i, e in enumerate(entries):
            if not e.onboard and e.origin == v.location:
                entries[i] = e._replace(onboard=True)
                pickups.append(e.request_id)
        if drops or pickups:
            set_manifest(v, entries)
        if not manifest(v):
            v.set_status(IDLE)
    return drops, pickups


def route_state(v):
    """What a vehicle's route is, whichever distance the stored plan is
    measured from: its status, location and manifest, the plan and its
    zone index as seen from the vehicle, and its table row but for the
    odometer (the objective holds the dispatch target)."""
    index = {zone: cum - odometer(v) for zone, cum in stop_index(v.stops).items()}
    row = {name: value for name, value in v.fleet.row(v.id).items() if name != "driven"}
    return (v.status, v.location, manifest(v), v.remaining_stops(), index, row)
