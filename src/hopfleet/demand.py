"""Passenger and goods request workload: generation, ingestion, forecasting,
and the request table that holds each request's status.

Request counts per source follow a Poisson law sampled by CDF inversion from a
seeded uniform stream, so identical seeds give bit-identical request streams.
Generation takes two steps: :func:`demand_sources` lays the sources out once
(validated origins in draw order, and each goods site's reachable
destinations), then :func:`generate_tick_requests` draws one tick from them.
A passenger zone emits nothing iff its uniform is at most exp(-rate), as most
do, so the passenger uniforms are drawn in blocks of DRAW_BLOCK to find the
next zone that emits; its count comes from its own uniform. The generator's
state is read before each block, and at an emitting zone it is written back
and the block redrawn up to that zone, which keeps the stream of the
zone-by-zone draw with no rewind, so a bit generator without ``advance``,
such as SFC64, serves too.
Thresholds are ``math.exp`` values, as in :func:`poisson_count`: an
``np.exp`` one bit off would change the stream.
The demand forecaster is a trailing tick-of-day historical average; it sits
behind a plain ``forecast(now, steps)`` call so other predictors can be
swapped in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geo import GridWorld, ZoneId, manhattan

PASSENGER = "passenger"
GOODS = "goods"

QUEUED = "queued"
ASSIGNED = "assigned"
PICKED_UP = "picked_up"
DELIVERED = "delivered"
REJECTED = "rejected"

REQUEST_TRANSITIONS = {
    QUEUED: {ASSIGNED, REJECTED},
    ASSIGNED: {PICKED_UP},
    PICKED_UP: {DELIVERED},
    DELIVERED: set(),
    REJECTED: set(),
}
# a request's status is stored as its index here (``RequestTable.status``)
REQUEST_STATUSES = (QUEUED, ASSIGNED, PICKED_UP, DELIVERED, REJECTED)
REQUEST_STATUS_CODE = {status: code for code, status in enumerate(REQUEST_STATUSES)}
_CODE_TRANSITIONS = {(REQUEST_STATUS_CODE[old], REQUEST_STATUS_CODE[new])
                     for old, news in REQUEST_TRANSITIONS.items() for new in news}

DEFAULT_URGENCY = {PASSENGER: 1.0, GOODS: 0.5}

TRIP_RECORD_HEADER = ["pickup_tick", "kind", "origin_row", "origin_col", "dest_row", "dest_col"]

# passenger uniforms drawn per block by generate_tick_requests
DRAW_BLOCK = 512


class TripRecordError(ValueError):
    """Malformed or invalid row in a trip-record CSV."""


@dataclass
class Request:
    """One pickup demand: a passenger seat or a goods trunk slot.

    Hop-trip legs created mid-journey reference the original goods request
    through ``parent_id``; only original requests (parent_id None) count in
    service metrics. A leg request's ``hops_completed`` is its index in its
    relay chain: the original request is leg 0 and each handoff at a hub
    creates the next leg with the index after the one dropped. A request
    holds only these facts; its status is kept by the ``RequestTable`` it
    is registered in.
    """

    id: int
    kind: str
    origin: ZoneId
    destination: ZoneId
    created_tick: int
    urgency: float
    hops_completed: int = 0
    parent_id: int | None = None

    def __post_init__(self):
        if self.kind not in (PASSENGER, GOODS):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.origin == self.destination:
            raise ValueError(f"request {self.id}: origin equals destination")
        if not (0.0 < self.urgency <= 1.0):
            raise ValueError(f"request {self.id}: urgency must be in (0, 1]")
        if self.kind == PASSENGER and self.hops_completed:
            raise ValueError("passengers never hop")

    @property
    def chain_id(self) -> int:
        """The primary request of the relay chain this request is a leg of
        (its own id for a primary)."""
        return self.id if self.parent_id is None else self.parent_id


class RequestTable:
    """The requests of one episode, request ``i`` at index ``i``: each one's
    facts (``requests``), the one stored copy of its status as a code of
    ``REQUEST_STATUSES`` (the ``status`` column) and its ``chain_id`` (the
    ``chain`` column). Requests join queued, and every status change goes
    through ``set_status``, which refuses what ``REQUEST_TRANSITIONS`` refuses.
    The queue is the queued rows (``queued``), and the next request takes
    the id ``len(table)``."""

    def __init__(self):
        self.requests: list[Request] = []
        # buffers that double when full; status and chain view their first len(self)
        self._status = np.zeros(256, dtype=np.int8)
        self._chain = np.zeros(256, dtype=np.int32)
        self.status, self.chain = self._status[:0], self._chain[:0]

    def __len__(self) -> int:
        return len(self.requests)

    def __getitem__(self, rid: int) -> Request:
        return self.requests[rid]

    def add(self, requests: Sequence[Request]):
        """Register ``requests``, queued; their ids must be the next ones, in order."""
        start, end = len(self.requests), len(self.requests) + len(requests)
        if [r.id for r in requests] != list(range(start, end)):
            raise ValueError(f"requests join the table under the next ids, from {start}")
        if end > len(self._status):
            size = max(2 * len(self._status), end)
            self._status = np.resize(self._status, size)
            self._chain = np.resize(self._chain, size)
        self._status[start:end] = REQUEST_STATUS_CODE[QUEUED]
        self._chain[start:end] = [r.chain_id for r in requests]
        self.requests.extend(requests)
        self.status, self.chain = self._status[:end], self._chain[:end]

    def queued(self) -> np.ndarray:
        """The ids of the queued requests, ascending: the queue."""
        return np.flatnonzero(self.status == REQUEST_STATUS_CODE[QUEUED])

    def status_of(self, rid: int) -> str:
        return REQUEST_STATUSES[self.status.item(rid)]

    def set_status(self, rid: int, new: str):
        old, code = self.status.item(rid), REQUEST_STATUS_CODE.get(new)
        if (old, code) not in _CODE_TRANSITIONS:
            raise ValueError(f"request {rid}: illegal transition {REQUEST_STATUSES[old]} -> {new}")
        self.status[rid] = code


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


def poisson_count(lam: float, u: float, max_count: int = 10_000) -> int:
    """The Poisson(lam) count at the uniform ``u``: the least k whose CDF
    reaches ``u``, capped at ``max_count``. Zero iff ``u <= exp(-lam)``."""
    k = 0
    p = math.exp(-lam)
    cum = p
    while u > cum and k < max_count:
        k += 1
        p *= lam / k
        cum += p
    return k


def poisson_sample(lam: float, rng: np.random.Generator, max_count: int = 10_000) -> int:
    """Draw one Poisson count by inverting the CDF on a uniform draw."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        return 0
    return poisson_count(lam, rng.random(), max_count)


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

    ``passenger`` holds ``(origin, rate)`` in ascending zone order, the order
    of the per-zone draws, for each zone with a positive rate (a zero rate
    draws no uniform); ``passenger_p0`` holds their thresholds exp(-rate).
    ``goods`` holds ``(origin, rate, candidates)`` per goods site in site
    order, ``candidates`` being the zones within ``goods_radius`` of the
    site; a site with no zone in reach is left out, as it can emit nothing.
    """

    grid: GridWorld
    passenger: tuple
    passenger_p0: np.ndarray
    goods: tuple
    goods_radius: int


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
    lams = lams[order]
    # math.exp once per distinct rate: most zones share the base rate
    rates, inverse = np.unique(lams, return_inverse=True)
    p0 = np.array([math.exp(-lam) for lam in rates.tolist()])[inverse]
    passenger = tuple(zip(map(origins.__getitem__, order.tolist()), lams.tolist()))
    goods, reach = [], {}  # reach: the candidates of each site zone
    for loc in locations:
        origin = grid.require(loc.zone)
        if origin not in reach:
            reach[origin] = tuple(grid.zones_within(origin, goods_radius))
        if reach[origin]:
            goods.append((origin, loc.rate, reach[origin]))
    return DemandSources(grid, passenger, p0, tuple(goods), goods_radius)


def generate_tick_requests(
    sources: DemandSources,
    tick: int,
    rng: np.random.Generator,
    id_start: int = 0,
    trip_distribution: TripDistribution | None = None,
    goods_dest_hot: Sequence = (),
    goods_dest_hot_weight: float = 0.0,
) -> list[Request]:
    """Draw one tick of demand. Goods destinations stay within the sources'
    goods radius; optionally a share of them lands next to busy zones inside
    that radius.

    The passenger zones take one uniform each, in order, and a zone's
    destinations follow its uniform in the stream. The uniforms come in
    blocks of DRAW_BLOCK, the generator's state read before each: a block
    in which no zone emits is consumed whole; at a block's first emitting
    zone ``h`` the count comes from that zone's uniform, and the state is
    written back and ``h + 1`` uniforms redrawn, so the next block starts
    after the destinations. Doubles leave the 32-bit half a previous
    ``rng.integers`` buffered alone, so the redraw leaves the generator as
    the zone-by-zone draw would, with no rewind and no ``advance``. The
    work is zones + hits x DRAW_BLOCK uniforms rather than zones x hits."""
    grid, goods_radius = sources.grid, sources.goods_radius
    trip_distribution = trip_distribution or TripDistribution()
    goods_dest_hot = [ZoneId(*z) for z in goods_dest_hot]
    out: list[Request] = []
    next_id = id_start

    bitgen, zones, p0 = rng.bit_generator, sources.passenger, sources.passenger_p0
    i = 0
    while i < len(zones):
        before = bitgen.state
        block = rng.random(min(DRAW_BLOCK, len(zones) - i))
        emits = block > p0[i : i + len(block)]
        h = int(emits.argmax())  # the first zone that emits, or 0 if none does
        if not emits[h]:
            i += len(block)
            continue
        bitgen.state = before
        rng.random(h + 1)
        origin, lam = zones[i + h]
        for _ in range(poisson_count(lam, float(block[h]))):
            dest = trip_distribution.sample_destination(grid, origin, rng)
            out.append(Request(next_id, PASSENGER, origin, dest, tick, DEFAULT_URGENCY[PASSENGER]))
            next_id += 1
        i += h + 1

    for origin, rate, candidates in sources.goods:
        hot_nearby = [z for z in goods_dest_hot
                      if z != origin and manhattan(origin, z) <= goods_radius]
        for _ in range(poisson_sample(rate, rng)):
            if hot_nearby and rng.random() < goods_dest_hot_weight:
                around = hot_nearby[int(rng.integers(len(hot_nearby)))]
                near = [z for z in grid.zones_within(around, 2) + [around]
                        if z != origin and manhattan(origin, z) <= goods_radius]
                dest = near[int(rng.integers(len(near)))] if near else \
                    candidates[int(rng.integers(len(candidates)))]
            else:
                dest = candidates[int(rng.integers(len(candidates)))]
            out.append(Request(next_id, GOODS, origin, dest, tick, DEFAULT_URGENCY[GOODS]))
            next_id += 1
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
            out.append(Request(len(out), kind, origin, dest, tick, DEFAULT_URGENCY[kind]))
    return out


def write_trip_records(path, requests: Iterable[Request]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIP_RECORD_HEADER)
        for r in requests:
            writer.writerow([r.created_tick, r.kind, r.origin.row, r.origin.col, r.destination.row, r.destination.col])


class HistoricalAverageForecaster:
    """Trailing tick-of-day average of per-zone request counts.

    For each step ahead the forecast is the mean count observed in past
    ticks sharing the same tick-of-day; when a tick-of-day has no history yet
    the overall per-zone mean is used, and with no history at all the
    forecast is zero.
    """

    def __init__(self, grid: GridWorld, ticks_per_day: int):
        if ticks_per_day < 1:
            raise ValueError("ticks_per_day must be >= 1")
        self.grid = grid
        self.ticks_per_day = ticks_per_day
        shape = (grid.height, grid.width)
        self._tod_sum = {}
        self._tod_n = {}
        self._total = np.zeros(shape)
        self._n = 0

    def record(self, tick: int, counts: np.ndarray):
        tod = tick % self.ticks_per_day
        if tod not in self._tod_sum:
            self._tod_sum[tod] = np.zeros_like(self._total)
            self._tod_n[tod] = 0
        self._tod_sum[tod] += counts
        self._tod_n[tod] += 1
        self._total += counts
        self._n += 1

    def record_requests(self, tick: int, requests: Sequence[Request]):
        counts = np.zeros((self.grid.height, self.grid.width))
        for r in requests:
            counts[r.origin.row, r.origin.col] += 1
        self.record(tick, counts)

    def forecast(self, now: int, steps: int) -> np.ndarray:
        """Expected request counts per zone for ticks now..now+steps,
        shape (steps + 1, height, width)."""
        out = []
        overall = self._total / self._n if self._n else np.zeros_like(self._total)
        for k in range(steps + 1):
            tod = (now + k) % self.ticks_per_day
            if self._tod_n.get(tod):
                out.append(self._tod_sum[tod] / self._tod_n[tod])
            else:
                out.append(overall)
        return np.stack(out)
