"""Passenger and goods request workload: generation, ingestion, forecasting,
and the request table that holds each request's status.

Generation takes two steps: :func:`demand_sources` lays the sources out once
(validated origins with their cumulative rates, and each goods site's
reachable destinations), then :func:`generate_tick_requests` draws one tick
from them. Independent Poisson counts per passenger zone are the same process
as one Poisson total over all zones, each request's origin drawn in
proportion to the zones' rates, so a tick draws one total and one uniform per
request rather than one per zone; each goods site draws its own count. Every
count comes from numpy's ``Generator.poisson``, and identical seeds give
identical request streams.
Demand is stationary, so the demand forecaster is the flat per-zone mean of
the counts seen so far, behind a plain ``forecast()`` call so other
predictors can be swapped in. A request is queued, held (in one vehicle's
order, whose flag alone says if it is onboard), delivered or rejected, and
its urgency is its kind's (``URGENCY``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geo import GridWorld, ZoneId

PASSENGER = "passenger"
GOODS = "goods"

QUEUED = "queued"
HELD = "held"
DELIVERED = "delivered"
REJECTED = "rejected"

REQUEST_TRANSITIONS = {
    QUEUED: {HELD, REJECTED},
    HELD: {DELIVERED},
    DELIVERED: set(),
    REJECTED: set(),
}
# a request's status is stored as its index here (``RequestTable.status``)
REQUEST_STATUSES = (QUEUED, HELD, DELIVERED, REJECTED)
REQUEST_STATUS_CODE = {status: code for code, status in enumerate(REQUEST_STATUSES)}
_CODE_TRANSITIONS = {(REQUEST_STATUS_CODE[old], REQUEST_STATUS_CODE[new])
                     for old, news in REQUEST_TRANSITIONS.items() for new in news}

# the weight of a late order's extra ticks in its vehicle's reward, by kind
URGENCY = {PASSENGER: 1.0, GOODS: 0.5}

TRIP_RECORD_HEADER = ["pickup_tick", "kind", "origin_row", "origin_col", "dest_row", "dest_col"]


class TripRecordError(ValueError):
    """Malformed or invalid row in a trip-record CSV."""


@dataclass
class Request:
    """One package or passenger: a goods trunk slot or a passenger seat.

    ``legs`` is the chain of (origin, destination) legs it travels, planned
    at intake: a relayed package is handed off at a hub after each leg but
    its last; anything else travels one direct leg. The request holds only
    these facts; the ``RequestTable`` it joins keeps its status and leg.
    """

    id: int
    kind: str
    origin: ZoneId
    destination: ZoneId
    created_tick: int
    legs: tuple = ()  # empty: the one direct leg

    def __post_init__(self):
        if self.kind not in (PASSENGER, GOODS):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.origin == self.destination:
            raise ValueError(f"request {self.id}: origin equals destination")
        if not self.legs:
            self.legs = ((self.origin, self.destination),)


class RequestTable:
    """The requests of one episode, request ``i`` at row ``i`` for its whole
    life: its facts (``requests``) and the one stored copy of its status as
    a code of ``REQUEST_STATUSES`` (``status``), its current leg as an index
    into its ``legs`` (``leg``), the tick that leg joined the queue
    (``since``) and its rank among the queue entries (``rank``). Requests
    join queued on their first leg; ``set_status`` refuses what
    ``REQUEST_TRANSITIONS`` refuses, and ``hand_off`` queues a relayed
    package again at a hub. The queue is the queued rows in order of entry
    (``queued``), and the next request takes the id ``len(table)``."""

    COLUMNS = (("status", np.int8), ("leg", np.int32), ("since", np.int64), ("rank", np.int64))

    def __init__(self):
        self.requests: list[Request] = []
        self.entries = 0  # queue entries so far: the next rank
        # buffers that double when full; each column views its first len(self)
        self._buffers = {name: np.zeros(256, dtype=dtype) for name, dtype in self.COLUMNS}
        self._view(0)

    def _view(self, n: int):
        for name, buffer in self._buffers.items():
            setattr(self, name, buffer[:n])

    def __len__(self) -> int:
        return len(self.requests)

    def __getitem__(self, rid: int) -> Request:
        return self.requests[rid]

    def add(self, requests: Sequence[Request]):
        """Register ``requests``, queued on their first leg in the order
        given; their ids must be the next ones, in order."""
        start, end = len(self.requests), len(self.requests) + len(requests)
        if [r.id for r in requests] != list(range(start, end)):
            raise ValueError(f"requests join the table under the next ids, from {start}")
        buffers = self._buffers
        if end > len(buffers["status"]):
            for name, buffer in buffers.items():
                buffers[name] = np.resize(buffer, max(2 * len(buffer), end))
        self.requests.extend(requests)
        self._view(end)
        self.status[start:], self.leg[start:] = REQUEST_STATUS_CODE[QUEUED], 0
        self.since[start:] = [r.created_tick for r in requests]
        self.rank[start:] = range(self.entries, self.entries + len(requests))
        self.entries += len(requests)

    def queued(self) -> np.ndarray:
        """The ids of the queued requests in the order they joined the queue."""
        rids = np.flatnonzero(self.status == REQUEST_STATUS_CODE[QUEUED])
        return rids[np.argsort(self.rank[rids])]

    def status_of(self, rid: int) -> str:
        return REQUEST_STATUSES[self.status.item(rid)]

    def set_status(self, rid: int, new: str):
        old, code = self.status.item(rid), REQUEST_STATUS_CODE.get(new)
        if (old, code) not in _CODE_TRANSITIONS:
            raise ValueError(f"request {rid}: illegal transition {REQUEST_STATUSES[old]} -> {new}")
        self.status[rid] = code

    def hand_off(self, rid: int, tick: int):
        """Queue package ``rid``, dropped at a hub at ``tick``, for its next
        leg: held -> queued, the leg cursor advanced, queued since
        ``tick`` and ranked behind every earlier queue entry. Refuses a
        passenger, a package on its last leg and a row not held (its order,
        which reads its leg and ``since``, is dropped first)."""
        req, leg = self.requests[rid], self.leg.item(rid) + 1
        if req.kind != GOODS or leg >= len(req.legs) or self.status_of(rid) != HELD:
            raise ValueError(f"request {rid}: no hand-off for a {self.status_of(rid)} {req.kind} "
                             f"request on leg {leg} of {len(req.legs)}")
        self.status[rid] = REQUEST_STATUS_CODE[QUEUED]
        self.leg[rid], self.since[rid], self.rank[rid] = leg, tick, self.entries
        self.entries += 1


@dataclass(frozen=True)
class ServiceLocation:
    zone: ZoneId
    kind: str  # postal | meal | supermarket
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be >= 0")


def poisson_pmf(x: int, lam: float) -> float:
    """P(X = x) for X ~ Poisson(lam): e^-lam * lam^x / x!."""
    if x < 0 or int(x) != x:
        raise ValueError("x must be a nonnegative integer")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    x = int(x)
    if lam == 0:
        return 1.0 if x == 0 else 0.0
    return math.exp(x * math.log(lam) - lam - math.lgamma(x + 1))


@dataclass
class TripDistribution:
    """Passenger destination model: city-wide trips with optional hot zones.

    With probability ``hot_weight`` the destination is drawn uniformly from
    ``hot_zones`` (skipping the origin), otherwise uniformly over the grid.
    """

    hot_zones: tuple = ()
    hot_weight: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.hot_weight <= 1.0):
            raise ValueError("hot_weight must be in [0, 1]")
        self.hot_zones = tuple(ZoneId(*z) for z in self.hot_zones)

    def sample_destination(self, grid: GridWorld, origin: ZoneId, rng: np.random.Generator) -> ZoneId:
        hot = [z for z in self.hot_zones if z != origin]
        if hot and rng.random() < self.hot_weight:
            return hot[int(rng.integers(len(hot)))]
        while True:
            z = ZoneId(int(rng.integers(grid.height)), int(rng.integers(grid.width)))
            if z != origin:
                return z


@dataclass(frozen=True)
class DemandSources:
    """Where demand arises, laid out once for a world by :func:`demand_sources`.

    ``passenger`` holds ``(origin, rate)`` in ascending zone order for each
    zone with a positive rate; ``passenger_total`` is the sum of those rates
    and ``passenger_cum`` their running sums over it, whose last entry is
    exactly 1.0. ``goods`` holds ``(origin, candidates)`` per goods site in
    site order, ``candidates`` being the zones within the goods radius of
    the site, and ``goods_rates`` their rates; a site with no zone in reach
    is left out, as it can emit nothing.
    """

    grid: GridWorld
    passenger: tuple
    passenger_total: float
    passenger_cum: np.ndarray
    goods: tuple
    goods_rates: np.ndarray


def demand_sources(
    grid: GridWorld,
    locations: Sequence[ServiceLocation],
    passenger_rates: Mapping,
    goods_radius: int,
) -> DemandSources:
    """Validate the demand sources against the grid and lay them out for drawing."""
    if goods_radius <= 0:
        raise ValueError("goods_radius must be > 0")
    origins = [z if type(z) is ZoneId else ZoneId(*z) for z in passenger_rates]
    zones = grid.require_all(origins)
    lams = np.fromiter(passenger_rates.values(), dtype=float, count=len(origins))
    if (lams < 0).any():
        raise ValueError("passenger rates must be >= 0")
    order = np.argsort(zones[:, 0] * grid.width + zones[:, 1])
    order = order[lams[order] > 0]
    cum = np.cumsum(lams[order])
    total = float(cum[-1]) if len(cum) else 0.0
    # divided by the last entry, which becomes 1.0: a uniform below it
    # never indexes past the end, as one scaled by the total might
    cum /= total or 1.0
    passenger = tuple(zip(map(origins.__getitem__, order.tolist()), lams[order].tolist()))
    goods, rates, reach = [], [], {}  # reach: the candidates of each site zone
    for loc in locations:
        origin = grid.require(loc.zone)
        if origin not in reach:
            reach[origin] = tuple(grid.zones_within(origin, goods_radius))
        if reach[origin]:
            goods.append((origin, reach[origin]))
            rates.append(loc.rate)
    return DemandSources(grid, passenger, total, cum, tuple(goods), np.array(rates, dtype=float))


def generate_tick_requests(
    sources: DemandSources,
    tick: int,
    rng: np.random.Generator,
    id_start: int = 0,
    trip_distribution: TripDistribution | None = None,
) -> list[Request]:
    """Draw one tick of demand, numbered from ``id_start``: a Poisson total
    of passenger requests, each origin found by its uniform in the
    cumulative rates and each destination drawn by ``trip_distribution``,
    then a Poisson count per goods site, each destination uniform over the
    site's candidates."""
    grid, passenger = sources.grid, sources.passenger
    trip_distribution = trip_distribution or TripDistribution()
    out: list[Request] = []
    uniforms = rng.random(rng.poisson(sources.passenger_total))
    for i in np.searchsorted(sources.passenger_cum, uniforms, side="right").tolist():
        origin = passenger[i][0]
        dest = trip_distribution.sample_destination(grid, origin, rng)
        out.append(Request(id_start + len(out), PASSENGER, origin, dest, tick))
    counts = rng.poisson(sources.goods_rates)
    for k in np.flatnonzero(counts).tolist():
        origin, candidates = sources.goods[k]
        for j in rng.integers(len(candidates), size=counts[k]).tolist():
            out.append(Request(id_start + len(out), GOODS, origin, candidates[j], tick))
    return out


def ingest_trip_records(path, grid: GridWorld) -> list[Request]:
    """Load requests from a CSV with header pickup_tick,kind,origin_row,origin_col,dest_row,dest_col."""
    out: list[Request] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRIP_RECORD_HEADER:
            raise TripRecordError(f"{path}: expected header {','.join(TRIP_RECORD_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise TripRecordError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:
                tick = int(row[0])
                kind = row[1].strip()
                origin = ZoneId(int(row[2]), int(row[3]))
                dest = ZoneId(int(row[4]), int(row[5]))
            except ValueError as exc:
                raise TripRecordError(f"{path}:{lineno}: {exc}") from exc
            if kind not in (PASSENGER, GOODS):
                raise TripRecordError(f"{path}:{lineno}: unknown kind {kind!r}")
            if not grid.contains(origin) or not grid.contains(dest):
                raise TripRecordError(f"{path}:{lineno}: zone outside grid")
            if origin == dest:
                raise TripRecordError(f"{path}:{lineno}: origin equals destination")
            out.append(Request(len(out), kind, origin, dest, tick))
    return out


def write_trip_records(path, requests: Iterable[Request]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIP_RECORD_HEADER)
        for r in requests:
            writer.writerow([r.created_tick, r.kind, r.origin.row, r.origin.col, r.destination.row, r.destination.col])


class HistoricalAverageForecaster:
    """Flat historical average of per-zone request counts: the mean count of
    each zone over the ticks recorded so far, zero with no history. Demand
    is stationary, so the mean serves every step ahead."""

    def __init__(self, grid: GridWorld):
        self.grid = grid
        self._total = np.zeros((grid.height, grid.width))
        self._n = 0

    def record(self, counts: np.ndarray):
        self._total += counts
        self._n += 1

    def record_requests(self, requests: Sequence[Request]):
        counts = np.zeros((self.grid.height, self.grid.width))
        for r in requests:
            counts[r.origin.row, r.origin.col] += 1
        self.record(counts)

    def forecast(self) -> np.ndarray:
        """Expected request counts per zone in any one tick, shape (height, width)."""
        return self._total / max(self._n, 1)
