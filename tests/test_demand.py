import math

import numpy as np
import pytest

from hopfleet.demand import (
    GOODS,
    PASSENGER,
    URGENCY,
    HistoricalAverageForecaster,
    REQUEST_STATUS_CODE,
    REQUEST_STATUSES,
    REQUEST_TRANSITIONS,
    Request,
    RequestTable,
    ServiceLocation,
    TripDistribution,
    TripRecordError,
    demand_sources,
    generate_tick_requests,
    ingest_trip_records,
    poisson_pmf,
    write_trip_records,
)
from hopfleet.geo import GridWorld, InvalidZoneError, ZoneId


@pytest.fixture
def grid():
    return GridWorld(width=10, height=10)


def test_poisson_pmf_examples():
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(1, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)
    assert poisson_pmf(2, 3.0) == pytest.approx(math.exp(-3) * 9 / 2, abs=1e-12)


def test_poisson_pmf_domain_errors():
    with pytest.raises(ValueError):
        poisson_pmf(-1, 1.0)
    with pytest.raises(ValueError):
        poisson_pmf(0, -0.5)


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0, 12.5, 30.0])
def test_poisson_pmf_sums_to_one(lam):
    total = sum(poisson_pmf(x, lam) for x in range(0, 400))
    assert abs(total - 1.0) < 1e-9


def test_generate_zero_rates_empty(grid):
    rng = np.random.default_rng(0)
    reqs = generate_tick_requests(demand_sources(grid, [], {ZoneId(0, 0): 0.0}, 2), 0, rng)
    assert reqs == []


def test_generate_goods_radius_respected(grid):
    rng = np.random.default_rng(1)
    locs = [ServiceLocation(ZoneId(5, 5), "meal", 4.0), ServiceLocation(ZoneId(0, 0), "postal", 4.0)]
    sources = demand_sources(grid, locs, {}, goods_radius=2)
    for tick in range(50):
        for r in generate_tick_requests(sources, tick, rng):
            assert r.kind == GOODS
            assert 0 < grid.distance(r.origin, r.destination) <= 2


def test_generate_ids_unique_increasing(grid):
    rng = np.random.default_rng(2)
    rates = {z: 0.2 for z in grid.all_zones()}
    locs = [ServiceLocation(ZoneId(3, 3), "supermarket", 1.0)]
    sources = demand_sources(grid, locs, rates, goods_radius=5)
    seen = []
    next_id = 0
    for tick in range(20):
        batch = generate_tick_requests(sources, tick, rng, id_start=next_id)
        seen.extend(r.id for r in batch)
        next_id = seen[-1] + 1 if seen else 0
    assert seen == sorted(set(seen))


def test_generate_seed_determinism(grid):
    rates = {z: 0.3 for z in grid.all_zones()}
    locs = [ServiceLocation(ZoneId(2, 7), "meal", 2.0)]
    sources = demand_sources(grid, locs, rates, goods_radius=4)

    def stream(seed):
        rng = np.random.default_rng(seed)
        out = []
        for tick in range(30):
            out.extend(
                (r.id, r.kind, tuple(r.origin), tuple(r.destination), r.created_tick)
                for r in generate_tick_requests(sources, tick, rng, id_start=len(out))
            )
        return out

    assert stream(99) == stream(99)
    assert stream(99) != stream(100)


def test_generate_default_urgency(grid):
    rng = np.random.default_rng(5)
    rates = {ZoneId(1, 1): 3.0}
    locs = [ServiceLocation(ZoneId(8, 8), "postal", 3.0)]
    reqs = generate_tick_requests(demand_sources(grid, locs, rates, goods_radius=3), 0, rng)
    # urgency is a fact of the kind: a request carries none of its own
    assert URGENCY == {PASSENGER: 1.0, GOODS: 0.5}
    assert {r.kind for r in reqs} == {PASSENGER, GOODS}
    assert not any(hasattr(r, "urgency") for r in reqs)


def test_generate_mean_rate_statistics(grid):
    rng = np.random.default_rng(11)
    locs = [ServiceLocation(ZoneId(4, 4), "meal", 5.0)]
    sources = demand_sources(grid, locs, {}, goods_radius=3)
    total = 0
    ticks = 10_000
    for tick in range(ticks):
        total += len(generate_tick_requests(sources, tick, rng))
    assert 4.8 <= total / ticks <= 5.2


def test_tick_counts_match_their_rates():
    # one Poisson total per tick with origins drawn by rate is the process of
    # independent per-zone counts: over T ticks a zone of rate lam emits
    # lam * T on average with standard deviation sqrt(lam * T), and each
    # zone's total must lie within 5 of those of it; zero-rate zones and
    # zones left out of the rates never emit
    grid = GridWorld(width=6, height=5)
    rng = np.random.default_rng(26)
    levels = (0.0, 0.002, 0.05, 0.3, 1.0, 2.5)
    rates = {z: levels[i % len(levels)] for i, z in enumerate(grid.all_zones()) if i != 7}
    sources = demand_sources(grid, [], rates, goods_radius=2)
    dist = TripDistribution(hot_zones=((0, 0), (4, 5)), hot_weight=0.5)
    ticks = 4000
    counts = np.zeros((grid.height, grid.width))
    for tick in range(ticks):
        for r in generate_tick_requests(sources, tick, rng, trip_distribution=dist):
            assert r.kind == PASSENGER and r.created_tick == tick and r.destination != r.origin
            counts[r.origin] += 1
    want = np.zeros_like(counts)
    for z, lam in rates.items():
        want[z] = lam * ticks
    assert counts[want == 0].sum() == 0
    assert np.all(np.abs(counts - want) <= 5 * np.sqrt(want)), (counts, want)


def test_large_totals_keep_their_mean():
    # the passenger total and the goods counts are numpy Poisson draws, right
    # for any rate: an inverse-CDF draw from exp(-lam) would read a CDF of 0
    # past lam of about 745 and return its cap. A 40 x 50 world of total
    # rate 2,000, and a goods site of rate 1,000, each average their rate
    # within 2% over 50 ticks, more than 6 standard deviations of the mean
    grid = GridWorld(width=50, height=40)
    rng = np.random.default_rng(9)
    passengers = demand_sources(grid, [], dict.fromkeys(grid.all_zones(), 1.0), goods_radius=2)
    assert passengers.passenger_total == pytest.approx(2000.0)
    site = demand_sources(grid, [ServiceLocation(ZoneId(20, 25), "postal", 1000.0)], {},
                          goods_radius=3)
    for sources, rate in ((passengers, 2000.0), (site, 1000.0)):
        sizes = [len(generate_tick_requests(sources, tick, rng)) for tick in range(50)]
        assert abs(np.mean(sizes) - rate) <= 0.02 * rate, (rate, np.mean(sizes))


def test_sources_reject_off_grid_zones(grid):
    with pytest.raises(InvalidZoneError):
        demand_sources(grid, [], {ZoneId(0, 0): 0.1, ZoneId(10, 3): 0.1}, goods_radius=2)
    with pytest.raises(InvalidZoneError):
        demand_sources(grid, [ServiceLocation(ZoneId(3, -1), "meal", 1.0)], {}, goods_radius=2)


@pytest.mark.parametrize("radius", [0, -1])
def test_sources_reject_nonpositive_goods_radius(grid, radius):
    with pytest.raises(ValueError, match="goods_radius"):
        demand_sources(grid, [ServiceLocation(ZoneId(3, 3), "meal", 1.0)], {}, goods_radius=radius)


def test_sources_laid_out_in_draw_order(grid):
    rates = {ZoneId(4, 1): 0.5, ZoneId(0, 9): 0.2, (0, 3): 0.1, ZoneId(2, 2): 0.0}
    locs = [ServiceLocation(ZoneId(9, 9), "meal", 2.0), ServiceLocation(ZoneId(0, 0), "postal", 1.0)]
    sources = demand_sources(grid, locs, rates, goods_radius=2)
    # a zero rate can draw no origin, so its zone is left out
    assert sources.passenger == ((ZoneId(0, 3), 0.1), (ZoneId(0, 9), 0.2), (ZoneId(4, 1), 0.5))
    assert sources.passenger_total == 0.1 + 0.2 + 0.5
    assert sources.passenger_cum.tolist() == [0.1 / 0.8, (0.1 + 0.2) / 0.8, 1.0]
    with pytest.raises(ValueError, match="passenger rates must be >= 0"):
        demand_sources(grid, [], {ZoneId(1, 1): -0.1}, goods_radius=2)
    assert [o for o, _ in sources.goods] == [ZoneId(9, 9), ZoneId(0, 0)]
    assert sources.goods_rates.tolist() == [2.0, 1.0]
    assert sources.goods[1][1] == tuple(grid.zones_within(ZoneId(0, 0), 2))
    # on a 1x1 grid a goods site reaches no zone and emits nothing
    lone = GridWorld(width=1, height=1)
    assert demand_sources(lone, [ServiceLocation(ZoneId(0, 0), "meal", 5.0)], {}, 1).goods == ()
    # with no positive rate there is nothing to draw from
    quiet = demand_sources(grid, [], {ZoneId(1, 1): 0.0}, goods_radius=2)
    assert (quiet.passenger, quiet.passenger_total, quiet.passenger_cum.tolist()) == ((), 0.0, [])


def test_layout_equals_the_per_zone_layout():
    # rates in random insertion order, keyed by ZoneId or plain tuples, zero
    # rates and rates shared by many zones, against the per-zone layout
    for seed in range(100):
        rng = np.random.default_rng(seed)
        grid = GridWorld(width=int(rng.integers(1, 12)), height=int(rng.integers(1, 12)))
        zones = list(grid.all_zones())
        shared = rng.uniform(0.0, 3.0, size=3).tolist()
        rates = {}
        for i in rng.permutation(len(zones))[: int(rng.integers(0, len(zones) + 1))]:
            key = tuple(zones[i]) if rng.random() < 0.3 else zones[i]
            rates[key] = float(rng.choice([0.0, *shared, rng.uniform(0.0, 3.0)]))
        sources = demand_sources(grid, [], rates, goods_radius=2)
        want = [(grid.require(z), lam) for z, lam in sorted(rates.items()) if lam > 0]
        assert sources.passenger == tuple(want), seed
        assert all(type(z) is ZoneId for z, _ in sources.passenger)
        if not want:
            assert (sources.passenger_total, len(sources.passenger_cum)) == (0.0, 0), seed
            continue
        cum = np.cumsum([lam for _, lam in want])
        assert sources.passenger_total == cum[-1], seed
        # the last running sum is exactly 1.0, so no uniform indexes past it
        assert sources.passenger_cum.tolist() == (cum / cum[-1]).tolist(), seed
        assert sources.passenger_cum[-1] == 1.0


def test_hot_zone_trip_distribution(grid):
    rng = np.random.default_rng(3)
    dist = TripDistribution(hot_zones=((9, 9),), hot_weight=1.0)
    for _ in range(20):
        assert dist.sample_destination(grid, ZoneId(0, 0), rng) == ZoneId(9, 9)


def test_trip_records_round_trip(tmp_path, grid):
    reqs = [
        Request(0, PASSENGER, ZoneId(0, 0), ZoneId(3, 4), 5),
        Request(1, GOODS, ZoneId(2, 2), ZoneId(4, 2), 6),
        Request(2, PASSENGER, ZoneId(9, 9), ZoneId(0, 1), 7),
    ]
    path = tmp_path / "trips.csv"
    write_trip_records(path, reqs)
    back = ingest_trip_records(path, grid)
    assert len(back) == 3
    for a, b in zip(reqs, back):
        assert (a.kind, a.origin, a.destination, a.created_tick) == (b.kind, b.origin, b.destination, b.created_tick)


def test_trip_records_header_only(tmp_path, grid):
    path = tmp_path / "empty.csv"
    path.write_text("pickup_tick,kind,origin_row,origin_col,dest_row,dest_col\n")
    assert ingest_trip_records(path, grid) == []


@pytest.mark.parametrize(
    "row,msg",
    [
        pytest.param("5,passenger,0,0,0", "expected 6 fields", id="five-fields"),
        ("x,passenger,0,0,1,1", ":2:"),
        pytest.param("5,bike,0,0,1,1", "unknown kind", id="unknown-kind"),
        pytest.param("5,passenger,0,0,10,10", "outside grid", id="outside-grid"),
        pytest.param("5,passenger,2,2,2,2", "origin equals destination", id="same-zone"),
    ],
)
def test_trip_records_bad_rows(tmp_path, grid, row, msg):
    path = tmp_path / "bad.csv"
    path.write_text("pickup_tick,kind,origin_row,origin_col,dest_row,dest_col\n" + row + "\n")
    with pytest.raises(TripRecordError, match=msg):
        ingest_trip_records(path, grid)


def test_forecast_empty_history(grid):
    fc = HistoricalAverageForecaster(grid).forecast()
    assert fc.shape == (10, 10)
    assert np.all(fc == 0)


def test_forecast_constant_rate(grid):
    f = HistoricalAverageForecaster(grid)
    for t in range(48):
        arr = np.zeros((10, 10))
        arr[3, 3] = 2.0
        f.record(arr)
    assert f.forecast()[3, 3] == 2.0
    assert f.forecast().sum() == 2.0


def test_forecast_is_the_mean_over_all_recorded_ticks(grid):
    # zone (1, 1) saw 1, 3 and 8 requests and zone (0, 2) one request, in
    # three ticks; the forecast is each zone's mean, whatever the tick
    f = HistoricalAverageForecaster(grid)
    for count in (1.0, 3.0, 8.0):
        arr = np.zeros((10, 10))
        arr[1, 1] = count
        f.record(arr)
    f.record_requests([])
    f.record_requests([Request(0, PASSENGER, ZoneId(0, 2), ZoneId(5, 5), 0)])
    fc = f.forecast()
    assert fc[1, 1] == pytest.approx(12.0 / 5) and fc[0, 2] == pytest.approx(1.0 / 5)
    assert fc.sum() == pytest.approx(13.0 / 5)


def test_forecast_nonnegative(grid):
    f = HistoricalAverageForecaster(grid)
    rng = np.random.default_rng(8)
    for t in range(100):
        f.record(rng.poisson(1.0, size=(10, 10)).astype(float))
    assert np.all(f.forecast() >= 0)


def test_request_lifecycle_guards():
    table = RequestTable()
    r = Request(0, GOODS, ZoneId(0, 0), ZoneId(1, 1), 0)
    table.add([r])
    table.set_status(0, "held")
    with pytest.raises(ValueError):
        table.set_status(0, "rejected")
    table.set_status(0, "delivered")
    assert table.status_of(0) == "delivered"
    assert not hasattr(r, "status")
    with pytest.raises(ValueError):
        Request(1, PASSENGER, ZoneId(0, 0), ZoneId(0, 0), 0)
    # a request travels one direct leg unless a relay chain is planned for it
    assert r.legs == ((ZoneId(0, 0), ZoneId(1, 1)),)


# a legal path from queued to each status
PATH_TO = {"queued": [], "held": ["held"], "delivered": ["held", "delivered"],
           "rejected": ["rejected"]}


def test_request_statuses_are_queued_held_delivered_rejected():
    # whether a held request is onboard is its order's flag, not a status
    assert REQUEST_STATUSES == ("queued", "held", "delivered", "rejected")
    assert REQUEST_TRANSITIONS == {"queued": {"held", "rejected"}, "held": {"delivered"},
                                   "delivered": set(), "rejected": set()}


@pytest.mark.parametrize("old", REQUEST_STATUSES)
@pytest.mark.parametrize("new", [*REQUEST_STATUSES, "lost", "assigned", "picked_up"])
def test_request_table_refuses_what_the_transitions_refuse(old, new):
    # the table is the one copy of each status; it takes every transition
    # REQUEST_TRANSITIONS allows and refuses every other, the status
    # unchanged, and the retired names "assigned" and "picked_up" as it
    # refuses any name that is no status
    table = RequestTable()
    table.add([Request(0, PASSENGER, ZoneId(0, 0), ZoneId(1, 1), 0),
               Request(1, GOODS, ZoneId(0, 0), ZoneId(1, 1), 0)])
    for status in PATH_TO[old]:
        table.set_status(1, status)
    assert table.status_of(1) == old and table.status_of(0) == "queued"
    if new in REQUEST_TRANSITIONS[old]:
        table.set_status(1, new)
        assert table.status.tolist() == [REQUEST_STATUS_CODE["queued"], REQUEST_STATUS_CODE[new]]
        return
    with pytest.raises(ValueError, match=f"^request 1: illegal transition {old} -> {new}$"):
        table.set_status(1, new)
    assert table.status_of(1) == old


def test_request_table_columns_grow_with_the_requests():
    # requests join queued on their first leg under the next ids, queued
    # since their created tick and ranked in the order they joined
    table = RequestTable()
    with pytest.raises(ValueError, match="next ids, from 0"):
        table.add([Request(1, PASSENGER, ZoneId(0, 0), ZoneId(1, 1), 0)])
    for start in range(0, 600, 3):  # past the first buffer, three a tick
        table.add([Request(rid, GOODS, ZoneId(0, 0), ZoneId(1, 1), start // 3)
                   for rid in range(start, start + 3)])
        if start % 7 == 0:
            table.set_status(start, "rejected")
    columns = (table.status, table.leg, table.since, table.rank)
    assert len(table) == 600 and [len(c) for c in columns] == [600] * 4
    assert [table.status_of(rid) for rid in range(600)] == [
        "rejected" if rid % 21 == 0 else "queued" for rid in range(600)]
    assert table.leg.tolist() == [0] * 600
    assert table.since.tolist() == [rid // 3 for rid in range(600)]
    assert table.rank.tolist() == list(range(600)) and table.entries == 600
    assert [table[rid].id for rid in range(600)] == list(range(600))
    assert [c.dtype.itemsize for c in columns] == [1, 4, 8, 8]
    # the buffers hold more entries than the table: an id past its end is refused
    for read in (table.status_of, lambda rid: table.set_status(rid, "held")):
        with pytest.raises(IndexError):
            read(600)


def relay_table():
    """A held passenger, a held direct package and a two-leg package on its
    first leg, created at tick 2, and a request queued at tick 5 behind
    them."""
    hub, dest = ZoneId(0, 3), ZoneId(0, 6)
    table = RequestTable()
    table.add([Request(0, PASSENGER, ZoneId(0, 0), dest, 2),
               Request(1, GOODS, ZoneId(0, 0), dest, 2),
               Request(2, GOODS, ZoneId(0, 0), dest, 2,
                       legs=((ZoneId(0, 0), hub), (hub, dest)))])
    table.add([Request(3, GOODS, ZoneId(1, 1), dest, 5)])
    for rid in (0, 1):
        table.set_status(rid, "held")
    return table


def table_rows(table):
    return [table.status.tolist(), table.leg.tolist(), table.since.tolist(),
            table.rank.tolist(), table.entries]


def test_hand_off_queues_the_package_for_its_next_leg():
    # held -> queued, the cursor on the next leg, queued since the handoff
    # tick and ranked behind every earlier entry, request 3 included
    table = relay_table()
    table.set_status(2, "held")
    table.hand_off(2, tick=7)
    assert table_rows(table) == [[1, 1, 0, 0], [0, 0, 1, 0], [2, 2, 7, 5], [0, 1, 4, 3], 5]
    assert table.queued().tolist() == [3, 2]
    assert table.status_of(2) == "queued" and "queued" not in REQUEST_TRANSITIONS["held"]
    # the next entry ranks behind the handoff
    table.add([Request(4, GOODS, ZoneId(1, 1), ZoneId(0, 6), 8)])
    assert table.queued().tolist() == [3, 2, 4] and table.rank[4] == 5


@pytest.mark.parametrize("case", ["passenger", "direct", "last-leg", "queued", "delivered"])
def test_hand_off_refuses_a_passenger_a_last_leg_and_a_row_not_picked_up(case):
    # a row not held is queued or closed
    table = relay_table()
    rid = {"passenger": 0, "direct": 1}.get(case, 2)
    path = {"last-leg": ["held"], "delivered": ["held", "delivered"]}.get(case, [])
    for status in path:
        table.set_status(rid, status)
    if case == "last-leg":
        table.hand_off(rid, tick=6)
        table.set_status(rid, "held")
    before = table_rows(table)
    with pytest.raises(ValueError, match=f"^request {rid}: no hand-off for a "):
        table.hand_off(rid, tick=9)
    assert table_rows(table) == before
