"""Service metrics computed post-hoc from an episode log.

Each request counts once, however many relay legs it travels: acceptance
and wait count its first leg's pickup, and delivery its last leg's drop. Fuel is
charged per non-idle vehicle-hour at a flat gallons-per-hour burn rate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .geo import manhattan

COST_PER_GALLON = 2.0
GALLONS_PER_DRIVING_HOUR = 0.5


@dataclass(frozen=True)
class LogIndex:
    """What the metrics read from one episode log, gathered by :func:`index_log`."""

    requests: dict  # request id -> record
    stats: list  # tick_stats events in tick order
    hop_transfers: int
    n_vehicles: int
    dt_minutes: float
    ticks_per_day: int


def index_log(log) -> LogIndex:
    """Index the requests, the tick stats and the hop drops of ``log`` in
    one pass over its events; a pickup with a ``parent`` is a later leg's.
    Events are in log order, so a request's record exists before its pickup
    or delivery is read."""
    requests, stats, hops = {}, [], 0
    for e in log.events:
        kind = e["kind"]
        if kind == "tick_stats":
            stats.append(e)
        elif kind == "hop_drop":
            hops += 1
        elif kind == "request":
            requests[e["request"]] = {
                "kind": e["req_kind"],
                "origin": tuple(e["origin"]),
                "destination": tuple(e["destination"]),
                "created": e["tick"],
                "picked": None,
                "delivered": None,
            }
        elif kind == "pickup" and e.get("parent") is None and e["request"] in requests:
            requests[e["request"]]["picked"] = e["tick"]
        elif kind == "deliver" and e["request"] in requests:
            requests[e["request"]]["delivered"] = e["tick"]
    return LogIndex(requests, stats, hops, log.n_vehicles, log.dt_minutes, log.ticks_per_day)


def accept_rate(index: LogIndex, kind: str | None = None) -> float | None:
    """Picked-up fraction of generated requests; None when none were generated."""
    reqs = [r for r in index.requests.values() if kind is None or r["kind"] == kind]
    if not reqs:
        return None
    return sum(1 for r in reqs if r["picked"] is not None) / len(reqs)


def vehicle_hours_active(index: LogIndex) -> float:
    ticks_active = sum(e["active"] for e in index.stats)
    return ticks_active * index.dt_minutes / 60.0


def fuel_cost_per_delivery(index: LogIndex, cost_per_gallon: float = COST_PER_GALLON,
                           gallons_per_hour: float = GALLONS_PER_DRIVING_HOUR) -> float | None:
    """Dollars of fuel per delivered request; None when nothing was delivered."""
    delivered = sum(1 for r in index.requests.values() if r["delivered"] is not None)
    if delivered == 0:
        return None
    return vehicle_hours_active(index) * gallons_per_hour * cost_per_gallon / delivered


def active_vehicle_ratio(index: LogIndex) -> float | None:
    if not index.stats:
        return None
    return sum(e["active"] / index.n_vehicles for e in index.stats) / len(index.stats)


def mean_wait(index: LogIndex) -> float | None:
    """Mean ticks from request creation to pickup, picked-up requests only."""
    waits = [r["picked"] - r["created"] for r in index.requests.values()
             if r["picked"] is not None]
    if not waits:
        return None
    return sum(waits) / len(waits)


def effective_distance_ratio(index: LogIndex, include_dispatch: bool = True) -> float | None:
    """Direct origin-destination distance of delivered requests over fleet
    distance actually driven. Above 1 means rides and relays packed well."""
    direct = sum(
        manhattan(r["origin"], r["destination"])
        for r in index.requests.values()
        if r["delivered"] is not None
    )
    key = "moved_total" if include_dispatch else "moved_serving"
    driven = sum(e[key] for e in index.stats)
    if driven == 0:
        return None
    return direct / driven


@dataclass
class MetricsReport:
    baseline: str
    seed: int
    ticks: int
    n_vehicles: int
    generated: dict = field(default_factory=dict)
    accept_rate_overall: float | None = None
    accept_rate_passenger: float | None = None
    accept_rate_goods: float | None = None
    fuel_cost_per_delivery: float | None = None
    active_vehicle_ratio: float | None = None
    mean_wait_ticks: float | None = None
    mean_wait_minutes: float | None = None
    effective_distance_ratio: float | None = None
    hop_transfers: int = 0
    delivered: int = 0
    per_day: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2)


def per_day_series(index: LogIndex) -> list:
    """Accept rate, wait, and activity bucketed by simulated day."""
    tpd = index.ticks_per_day
    stats = index.stats
    if not stats:
        return []
    days = range(0, (max(e["tick"] for e in stats) // tpd) + 1)
    series = []
    for day in days:
        lo, hi = day * tpd, (day + 1) * tpd
        day_index = replace(
            index,
            requests={rid: r for rid, r in index.requests.items() if lo <= r["created"] < hi},
            stats=[e for e in stats if lo <= e["tick"] < hi],
        )
        series.append({
            "day": day,
            "generated": len(day_index.requests),
            "accept_rate": accept_rate(day_index),
            "mean_wait_ticks": mean_wait(day_index),
            "active_vehicle_ratio": active_vehicle_ratio(day_index),
        })
    return series


def build_report(log, include_dispatch_distance: bool = True) -> MetricsReport:
    index = index_log(log)
    reqs = index.requests.values()
    generated = {
        "passenger": sum(1 for r in reqs if r["kind"] == "passenger"),
        "goods": sum(1 for r in reqs if r["kind"] == "goods"),
    }
    wait = mean_wait(index)
    return MetricsReport(
        baseline=log.baseline,
        seed=log.seed,
        ticks=log.ticks,
        n_vehicles=log.n_vehicles,
        generated=generated,
        accept_rate_overall=accept_rate(index),
        accept_rate_passenger=accept_rate(index, "passenger"),
        accept_rate_goods=accept_rate(index, "goods"),
        fuel_cost_per_delivery=fuel_cost_per_delivery(index),
        active_vehicle_ratio=active_vehicle_ratio(index),
        mean_wait_ticks=wait,
        mean_wait_minutes=None if wait is None else wait * index.dt_minutes,
        effective_distance_ratio=effective_distance_ratio(index, include_dispatch_distance),
        hop_transfers=index.hop_transfers,
        delivered=sum(1 for r in reqs if r["delivered"] is not None),
        per_day=per_day_series(index),
    )
