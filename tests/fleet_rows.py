"""Vehicles built as the rows of one fleet table, as the engine builds its fleet."""

from hopfleet.fleet import IDLE, STATUS_CODE, FleetTable, VehicleState
from hopfleet.geo import ZoneId

from desk_config import desk_config

_DESK = desk_config().sim


def vehicles_in_table(grid, locations, status=IDLE, **fields) -> list:
    """Vehicles 0..n-1 at ``locations`` ((row, col) pairs), the rows of one
    FleetTable on ``grid``. ``status`` and each of ``fields``, a
    VehicleState field, are one value for every vehicle or a list of one
    value per vehicle; ``seats_total`` and ``trunk_total`` default to the
    desk car's. The status is written into the table's status column, the
    one stored copy, and each vehicle then aims at its objective."""
    fields = {"status": status, "seats_total": _DESK.seats, "trunk_total": _DESK.trunk, **fields}
    per_vehicle = {name: value if isinstance(value, list) else [value] * len(locations)
                   for name, value in fields.items()}
    statuses = per_vehicle.pop("status")
    vehicles = [VehicleState(id=vid, **{name: values[vid] for name, values in per_vehicle.items()})
                for vid in range(len(locations))]
    fleet = FleetTable(vehicles, grid, [ZoneId(*loc) for loc in locations])
    fleet.status[:] = [STATUS_CODE[s] for s in statuses]
    for v in vehicles:
        v.aim()
    return vehicles


def put(v, zone):
    """Set vehicle ``v`` down at ``zone`` ((row, col)) by writing its table
    row, the one stored copy of its location; plan and objective stay."""
    v.fleet.zone[v.id] = zone[0] * v.fleet.grid.width + zone[1]


def free_capacity(v) -> tuple:
    """(free seats, free trunk slots) of a vehicle, as its table row holds them."""
    return int(v.fleet.seats_free[v.id]), int(v.fleet.trunk_free[v.id])
