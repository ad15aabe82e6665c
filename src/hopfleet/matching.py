"""Greedy request-to-vehicle assignment, nearest first.

Candidate (request, vehicle) pairs are those whose pickup ETA fits inside
the reject radius and whose slot type (seat for passengers, trunk for goods)
has free capacity. They come from one requests x vehicles matrix of
Manhattan distances, turned into ETAs by ceiling division by the vehicle
speed, so no per-pair Python runs. Pairs are consumed in ascending
(ETA, request id, vehicle id) order; when several vehicles tie at a
request's best ETA, one of them is drawn uniformly at random. Capacity is
decremented as assignments accrue, so a single call can never overbook a
vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import GOODS, PASSENGER, Request
from .fleet import VehicleState
from .geo import GridWorld

SEAT = "seat"
TRUNK = "trunk"


@dataclass(frozen=True)
class Assignment:
    request_id: int
    vehicle_id: int
    slot: str  # seat | trunk
    eta_ticks: int


def reject_radius_ticks(grid: GridWorld, reject_radius: float) -> int:
    """The pickup-ETA bound implied by a reject radius in zone-units."""
    return math.ceil(reject_radius / grid.vehicle_speed)


def match(
    requests: Sequence[Request],
    vehicles: Sequence[VehicleState],
    grid: GridWorld,
    reject_radius: float,
    rng: np.random.Generator,
) -> list[Assignment]:
    """Assign queued requests to vehicles, minimizing pickup ETA greedily.

    Unassignable requests are simply left out; expiring them is the engine's
    job. Output order follows assignment order and is deterministic for a
    fixed rng state.
    """
    bound = reject_radius_ticks(grid, reject_radius)
    if not requests or not vehicles:
        return []
    seats_free = {v.id: v.seats_free for v in vehicles}
    trunk_free = {v.id: v.trunk_free for v in vehicles}

    origins = np.array([grid.require(r.origin) for r in requests])
    locations = np.array([grid.require(v.location) for v in vehicles])
    dist = np.abs(origins[:, None, :] - locations[None, :, :]).sum(axis=2)
    eta = -(-dist // grid.vehicle_speed)
    is_passenger = np.array([r.kind == PASSENGER for r in requests])
    has_seat = np.array([seats_free[v.id] > 0 for v in vehicles])
    has_trunk = np.array([trunk_free[v.id] > 0 for v in vehicles])
    fits = np.where(is_passenger[:, None], has_seat[None, :], has_trunk[None, :])
    ri, vi = np.nonzero(fits & (eta <= bound))
    etas = eta[ri, vi]
    rids = np.array([r.id for r in requests])[ri]
    vids = np.array([v.id for v in vehicles])[vi]
    order = np.lexsort((vids, rids, etas))
    candidates = list(zip(etas[order].tolist(), rids[order].tolist(), vids[order].tolist()))

    req_by_id = {r.id: r for r in requests}
    assigned: dict[int, Assignment] = {}
    out: list[Assignment] = []
    i = 0
    while i < len(candidates):
        eta, rid, _ = candidates[i]
        # gather this request's vehicles tied at this ETA
        j = i
        tied = []
        while j < len(candidates) and candidates[j][0] == eta and candidates[j][1] == rid:
            tied.append(candidates[j][2])
            j += 1
        i = j
        if rid in assigned:
            continue
        kind = req_by_id[rid].kind
        free = seats_free if kind == PASSENGER else trunk_free
        tied = [vid for vid in tied if free[vid] > 0]
        if not tied:
            continue
        vid = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        free[vid] -= 1
        a = Assignment(rid, vid, SEAT if kind == PASSENGER else TRUNK, eta)
        assigned[rid] = a
        out.append(a)
    return out
