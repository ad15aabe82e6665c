"""Vehicles built as the rows of one fleet table, as the engine builds its fleet."""

from types import SimpleNamespace
from typing import NamedTuple

from hopfleet.fleet import (
    IDLE,
    KINDS,
    ONBOARD,
    ORDER_FIELDS,
    REQUEST,
    STATUS_CODE,
    FleetTable,
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
    (``manifest``); ``add_entry`` sets the direct ticks itself."""

    request_id: int
    kind: str  # passenger | goods
    origin: ZoneId
    destination: ZoneId
    onboard: bool = False
    direct_ticks: int = 0
    created_tick: int = 0
    urgency: float = 1.0
    hops: int = 0  # the index of the leg in its request's relay chain


def add(v, e: ManifestEntry):
    """Vehicle ``v`` takes on order ``e``, leg ``e.hops`` of its request,
    as matching assigns one; an onboard ``e`` is then marked picked up,
    and the plan rebuilt."""
    request = SimpleNamespace(id=e.request_id, kind=e.kind, urgency=e.urgency,
                              legs={e.hops: (e.origin, e.destination)})
    v.add_entry(request, e.hops, e.created_tick)
    if e.onboard:
        v.fleet.orders[ONBOARD, v.id, len(v.rows()[REQUEST]) - 1] = 1
        v.replan()


def manifest(v) -> list:
    """Vehicle ``v``'s orders in manifest order, as ManifestEntry records."""
    cols, width = v.rows(), v.fleet.grid.width
    urgency = v.fleet.urgency[v.id, : len(cols[REQUEST])].tolist()
    return [ManifestEntry(rid, KINDS[kind], ZoneId._make(divmod(o, width)),
                          ZoneId._make(divmod(d, width)), bool(on), direct, created, u, hops)
            for rid, kind, o, d, on, direct, created, hops, _, u in zip(*cols, urgency)]


def set_manifest(v, entries):
    """Replace vehicle ``v``'s orders with ``entries`` (ManifestEntry
    records, in manifest order) and replan, as a reference that edits a
    manifest in place and then replans does."""
    v.fleet.orders[:, v.id] = -1
    v.replan([[] for _ in ORDER_FIELDS])
    for e in entries:
        add(v, e)
