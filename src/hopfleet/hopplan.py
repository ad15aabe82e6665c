"""Recursive relay planning for goods: split a delivery into hop-trip legs.

Each leg (o, d) is split at the nearest eligible hop-zone h and the two
sub-legs are split again, until no eligible hop-zone remains or the depth cap
is hit. Eligibility for h on leg (o, d):

  * h is not o or d,
  * dist(o, h) + dist(h, d) <= 2 * dist(o, d),
  * both sub-legs are strictly shorter than the leg.

The strict-decrease condition guarantees termination; the 2x bound caps the
extra travel added by any single split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .demand import GOODS, Request
from .geo import GridWorld, ZoneId, manhattan


@dataclass(frozen=True)
class HopTrip:
    """Ordered chain of legs from the request origin to its destination."""

    request_id: int
    legs: tuple  # of (origin: ZoneId, destination: ZoneId)

    def __post_init__(self):
        for (o1, d1), (o2, _) in zip(self.legs, self.legs[1:]):
            if d1 != o2:
                raise ValueError("legs must chain: each destination starts the next leg")

    def total_distance(self) -> int:
        return sum(manhattan(o, d) for o, d in self.legs)


def eligible_hop_zone(grid: GridWorld, origin: ZoneId, dest: ZoneId) -> ZoneId | None:
    """Nearest hop-zone to ``origin`` that splits (origin, dest) acceptably."""
    direct = manhattan(origin, dest)
    best = None
    for hz in sorted(grid.hop_zones):
        if hz == origin or hz == dest:
            continue
        first = manhattan(origin, hz)
        second = manhattan(hz, dest)
        if first >= direct or second >= direct:
            continue
        if first + second > 2 * direct:
            continue
        if best is None or first < best[0]:
            best = (first, hz)
    return best[1] if best else None


def _split(grid: GridWorld, origin: ZoneId, dest: ZoneId, depth: int) -> list:
    if depth <= 0:
        return [(origin, dest)]
    hz = eligible_hop_zone(grid, origin, dest)
    if hz is None:
        return [(origin, dest)]
    return _split(grid, origin, hz, depth - 1) + _split(grid, hz, dest, depth - 1)


def assign_hop_zones(req: Request, grid: GridWorld, max_depth: int) -> HopTrip:
    """Plan the relay chain for a goods request. Passengers are never split."""
    if req.kind != GOODS:
        raise ValueError(f"request {req.id} is not goods; only goods take hop-trips")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    origin = grid.require(req.origin)
    dest = grid.require(req.destination)
    return HopTrip(request_id=req.id, legs=tuple(_split(grid, origin, dest, max_depth)))
