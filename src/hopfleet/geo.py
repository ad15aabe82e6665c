"""Zone lattice, Manhattan routing, constant-speed ETA, and hop-zone designation.

All locations in the simulator are zones of a rectangular grid. Distances are
Manhattan in zone-units; meters are zone-units times ``zone_edge_m``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np


class InvalidZoneError(ValueError):
    """A zone lies outside the configured grid."""


class ZoneId(NamedTuple):
    row: int
    col: int


class TravelEstimate(NamedTuple):
    ticks: int
    distance: int


def travel_ticks(distance, speed: int):
    """Ticks to cover ``distance`` zone-units at ``speed`` zones per tick,
    ceil(distance / speed) in integers; ints and int arrays alike."""
    return -(-distance // speed)


def manhattan(a: ZoneId, b: ZoneId) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass
class GridWorld:
    """Rectangular city grid with a designated set of hop-zones.

    ``vehicle_speed`` is in zones per tick. Immutable in spirit: only
    ``hop_zones`` is reassigned, by :func:`designate_hop_zones`.
    """

    width: int
    height: int
    zone_edge_m: float = 150.0
    vehicle_speed: int = 1
    hop_zones: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must be at least 1x1")
        if self.vehicle_speed < 1:
            raise ValueError("vehicle_speed must be a positive integer")
        self.hop_zones = frozenset(ZoneId(*z) for z in self.hop_zones)
        for z in self.hop_zones:
            self.require(z)

    def contains(self, zone) -> bool:
        row, col = zone
        return 0 <= row < self.height and 0 <= col < self.width

    def require(self, zone) -> ZoneId:
        if not self.contains(zone):
            raise InvalidZoneError(f"zone {tuple(zone)} outside {self.height}x{self.width} grid")
        return ZoneId(*zone)

    def require_all(self, zones: list) -> np.ndarray:
        """The zones as an (n, 2) int array of (row, col); the first one
        outside the grid raises as ``require`` does."""
        arr = np.fromiter(chain.from_iterable(zones), dtype=np.int64,
                          count=2 * len(zones)).reshape(-1, 2)
        rows, cols = arr[:, 0], arr[:, 1]
        outside = (rows < 0) | (rows >= self.height) | (cols < 0) | (cols >= self.width)
        if outside.any():
            self.require(tuple(arr[int(np.argmax(outside))].tolist()))
        return arr

    def distance(self, a, b) -> int:
        """Manhattan distance in zone-units; a metric, zero iff a == b."""
        return manhattan(self.require(a), self.require(b))

    def eta(self, a, b) -> TravelEstimate:
        """Constant-speed travel estimate: ``travel_ticks`` of the distance."""
        d = self.distance(a, b)
        return TravelEstimate(travel_ticks(d, self.vehicle_speed), d)

    def zones_within(self, center, radius: int) -> list[ZoneId]:
        """All zones at distance 1..radius of ``center``, lexicographic order."""
        center = self.require(center)
        out = []
        for row in range(max(0, center.row - radius), min(self.height, center.row + radius + 1)):
            rem = radius - abs(row - center.row)
            for col in range(max(0, center.col - rem), min(self.width, center.col + rem + 1)):
                if (row, col) != center:
                    out.append(ZoneId(row, col))
        return out


def hub_lattice(grid: GridWorld, stride: int) -> list[ZoneId]:
    """Relay-hub candidates in row-major order: the zones whose row and col
    are both multiples of ``stride``."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return [ZoneId(row, col)
            for row in range(0, grid.height, stride)
            for col in range(0, grid.width, stride)]


def nearest_zone(zones: np.ndarray, target) -> ZoneId:
    """The first of ``zones``, an (n, 2) array of (row, col), at the least
    Manhattan distance from ``target``: ``argmin`` takes the first minimum,
    as ``min(zones, key=distance)`` does."""
    distance = np.abs(zones - target).sum(axis=1)
    return ZoneId(*zones[int(np.argmin(distance))].tolist())


def designate_hop_zones(grid: GridWorld, stride: int, counts: np.ndarray, radius: int,
                        min_pickups: int) -> frozenset:
    """Pick hop-zones on a stride lattice, keeping only zones where demand is.

    Candidates are the :func:`hub_lattice` zones; a candidate survives when
    its count plus those of the zones within ``radius`` of it
    (:meth:`GridWorld.zones_within`) reach ``min_pickups``. ``counts`` is a
    (height, width) array, shifted by every offset of the Manhattan diamond
    and summed, with zeros beyond the grid's edges. The result is stored on
    ``grid.hop_zones`` and returned.
    """
    if stride < 1 or min_pickups < 0:
        raise ValueError(f"stride must be >= 1 and min_pickups >= 0, got {stride} and {min_pickups}")
    height, width = grid.height, grid.width
    padded = np.zeros((height + 2 * radius, width + 2 * radius))
    padded[radius : radius + height, radius : radius + width] = counts
    sums = np.zeros((height, width))
    for row in range(2 * radius + 1):
        rem = radius - abs(row - radius)
        for col in range(radius - rem, radius + rem + 1):
            sums += padded[row : row + height, col : col + width]
    rows, cols = np.nonzero(sums[::stride, ::stride] >= min_pickups)
    grid.hop_zones = frozenset(map(ZoneId, (rows * stride).tolist(), (cols * stride).tolist()))
    return grid.hop_zones
