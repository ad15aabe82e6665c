"""Vehicles built as the rows of one fleet table, as the engine builds its fleet."""

from hopfleet.fleet import FleetTable, VehicleState
from hopfleet.geo import ZoneId

from desk_config import desk_config

_DESK = desk_config().sim


def vehicles_in_table(grid, locations, **fields) -> list:
    """Vehicles 0..n-1 at ``locations`` ((row, col) pairs), the rows of one
    FleetTable on ``grid``. Each of ``fields`` is a VehicleState field, one
    value for every vehicle or a list of one value per vehicle;
    ``seats_total`` and ``trunk_total`` default to the desk car's."""
    fields = {"seats_total": _DESK.seats, "trunk_total": _DESK.trunk, **fields}
    per_vehicle = {name: value if isinstance(value, list) else [value] * len(locations)
                   for name, value in fields.items()}
    vehicles = [VehicleState(id=vid, location=ZoneId(*loc),
                             **{name: values[vid] for name, values in per_vehicle.items()})
                for vid, loc in enumerate(locations)]
    FleetTable(vehicles, grid)
    return vehicles


def free_capacity(v) -> tuple:
    """(free seats, free trunk slots) of a vehicle, as its table row holds them."""
    return int(v.fleet.seats_free[v.id]), int(v.fleet.trunk_free[v.id])
