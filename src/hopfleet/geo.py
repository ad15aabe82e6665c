"""Zone lattice, Manhattan routing, constant-speed ETA, and hop-zone designation.

All locations in the simulator are zones of a rectangular grid. Distances are
Manhattan in zone-units; meters are zone-units times ``zone_edge_m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterator, Mapping, NamedTuple

import numpy as np


class InvalidZoneError(ValueError):
    """A zone lies outside the configured grid."""


class ZoneId(NamedTuple):
    row: int
    col: int


class TravelEstimate(NamedTuple):
    ticks: int
    distance: int


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

    def clamp(self, row: int, col: int) -> ZoneId:
        return ZoneId(min(max(row, 0), self.height - 1), min(max(col, 0), self.width - 1))

    def all_zones(self) -> Iterator[ZoneId]:
        """Every zone, in row-major order."""
        return map(ZoneId._make, product(range(self.height), range(self.width)))

    def distance(self, a, b) -> int:
        """Manhattan distance in zone-units; a metric, zero iff a == b."""
        return manhattan(self.require(a), self.require(b))

    def eta(self, a, b) -> TravelEstimate:
        """Constant-speed travel estimate: ticks = ceil(distance / speed)."""
        d = self.distance(a, b)
        return TravelEstimate(math.ceil(d / self.vehicle_speed), d)

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


def neighborhood_counts(grid: GridWorld, stride: int, counts: np.ndarray,
                        radius: int) -> dict:
    """Each :func:`hub_lattice` zone with its count plus those of the zones
    within ``radius`` of it (:meth:`GridWorld.zones_within`), from a
    (height, width) array of counts: the array shifted by every offset of
    the Manhattan diamond and summed, with zeros beyond the grid's edges."""
    padded = np.zeros((grid.height + 2 * radius, grid.width + 2 * radius), dtype=counts.dtype)
    padded[radius : radius + grid.height, radius : radius + grid.width] = counts
    sums = np.zeros_like(counts)
    for row in range(2 * radius + 1):
        rem = radius - abs(row - radius)
        for col in range(radius - rem, radius + rem + 1):
            sums += padded[row : row + grid.height, col : col + grid.width]
    return dict(zip(hub_lattice(grid, stride), sums[::stride, ::stride].ravel().tolist()))


def designate_hop_zones(grid: GridWorld, stride: int, pickup_counts: Mapping,
                        min_pickups: int) -> frozenset:
    """Pick hop-zones on a stride lattice, keeping only busy-enough zones.

    Candidates are the :func:`hub_lattice` zones; a candidate survives when
    its pickup count is at least ``min_pickups``. The result is stored on
    ``grid.hop_zones`` and returned.
    """
    if min_pickups < 0:
        raise ValueError("min_pickups must be >= 0")
    counts = {ZoneId(*z): c for z, c in pickup_counts.items()}
    grid.hop_zones = frozenset(z for z in hub_lattice(grid, stride)
                               if counts.get(z, 0) >= min_pickups)
    return grid.hop_zones
