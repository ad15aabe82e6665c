import math

import numpy as np
import pytest

from hopfleet.demand import (
    DRAW_BLOCK,
    GOODS,
    PASSENGER,
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
    poisson_sample,
    write_trip_records,
)
from hopfleet.geo import GridWorld, InvalidZoneError, ZoneId, manhattan


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


def test_poisson_sample_matches_rate():
    rng = np.random.default_rng(42)
    n = 10_000
    mean = sum(poisson_sample(5.0, rng) for _ in range(n)) / n
    assert 4.8 <= mean <= 5.2


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
                (r.id, r.kind, tuple(r.origin), tuple(r.destination), r.created_tick, r.urgency)
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
    for r in reqs:
        assert r.urgency == (1.0 if r.kind == PASSENGER else 0.5)


def test_generate_mean_rate_statistics(grid):
    rng = np.random.default_rng(11)
    locs = [ServiceLocation(ZoneId(4, 4), "meal", 5.0)]
    sources = demand_sources(grid, locs, {}, goods_radius=3)
    total = 0
    ticks = 10_000
    for tick in range(ticks):
        total += len(generate_tick_requests(sources, tick, rng))
    assert 4.8 <= total / ticks <= 5.2


def reference_generate(grid, passenger_rates, sources, tick, rng, trip_distribution,
                       goods_dest_hot, goods_dest_hot_weight, trace=None):
    """The per-zone draw that the block draw of generate_tick_requests
    replaced: one poisson_sample per passenger zone in ascending zone order,
    zero-rate zones included, then the goods sites. ``trace`` receives, for
    each zone that draws a uniform, whether a 32-bit half was buffered
    before the draw and whether the zone emitted."""
    out = []
    for origin, lam in sorted(passenger_rates.items()):
        half = rng.bit_generator.state["has_uint32"] if trace is not None and lam > 0 else None
        count = poisson_sample(lam, rng)
        if half is not None:
            trace.append((half, count > 0))
        for _ in range(count):
            dest = trip_distribution.sample_destination(grid, origin, rng)
            out.append(Request(len(out), PASSENGER, origin, dest, tick, 1.0))
    for origin, rate, candidates in sources.goods:
        hot_nearby = [z for z in goods_dest_hot
                      if z != origin and manhattan(origin, z) <= sources.goods_radius]
        for _ in range(poisson_sample(rate, rng)):
            if hot_nearby and rng.random() < goods_dest_hot_weight:
                around = hot_nearby[int(rng.integers(len(hot_nearby)))]
                near = [z for z in grid.zones_within(around, 2) + [around]
                        if z != origin and manhattan(origin, z) <= sources.goods_radius]
                dest = near[int(rng.integers(len(near)))] if near else \
                    candidates[int(rng.integers(len(candidates)))]
            else:
                dest = candidates[int(rng.integers(len(candidates)))]
            out.append(Request(len(out), GOODS, origin, dest, tick, 0.5))
    return out


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def generator_drawing_first(u: float, seed) -> np.random.Generator:
    """``default_rng(seed)`` moved to the state from which the next
    ``rng.random()`` returns ``u``, a float in [0.5, 1)."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    # random() keeps the top 53 bits of the next 64-bit output. PCG64 steps
    # its 128-bit LCG state, then outputs high ^ low word rotated right by
    # the top 6 bits, so a stepped state with high word 0 outputs its low word.
    stepped = int(u * 2**53) << 11
    state["state"]["state"] = ((stepped - state["state"]["inc"])
                               * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128)
    rng.bit_generator.state = state
    return rng


def random_world(rng, first_rate=None):
    """A small world: zero-rate, quiet and busy passenger zones, hot zones
    (their destination draws leave a 32-bit half buffered in the generator),
    goods sites and goods hot spots. ``first_rate`` overrides zone (0, 0)."""
    grid = GridWorld(width=int(rng.integers(1, 9)), height=int(rng.integers(2, 9)))
    zones = list(grid.all_zones())
    levels = rng.choice(3, size=len(zones), p=rng.dirichlet(np.ones(3)))
    rates = {z: (0.0, float(rng.uniform(1e-3, 0.3)), float(rng.uniform(0.5, 3.0)))[k]
             for z, k in zip(zones, levels)}
    if first_rate is not None:
        rates[ZoneId(0, 0)] = first_rate
    hot = [zones[int(i)] for i in rng.choice(len(zones), size=int(rng.integers(0, 4)))]
    locs = [ServiceLocation(zones[int(rng.integers(len(zones)))], "meal", float(rng.uniform(0, 2)))
            for _ in range(int(rng.integers(0, 4)))]
    sources = demand_sources(grid, locs, rates, goods_radius=int(rng.integers(1, 5)))
    draw = dict(trip_distribution=TripDistribution(hot_zones=tuple(hot),
                                                   hot_weight=float(rng.choice([rng.random(), 1.0]))),
                goods_dest_hot=hot, goods_dest_hot_weight=float(rng.random()))
    return grid, rates, sources, draw


def block_world(rng):
    """A world of two to four blocks of passenger zones, nearly all quiet.
    The zones that end the first block and start the second are busy, as
    are a few others, and every passenger trip heads for one of two or three
    hot zones, which leaves a 32-bit half buffered after an odd count."""
    grid = GridWorld(width=32, height=int(rng.integers(2 * DRAW_BLOCK // 32 + 1, 4 * DRAW_BLOCK // 32)))
    zones = list(grid.all_zones())
    rates = {z: 1e-6 for z in zones}
    busy = [DRAW_BLOCK - 1, DRAW_BLOCK, *rng.integers(len(zones), size=int(rng.integers(0, 6)))]
    for i in busy:
        rates[zones[int(i)]] = float(rng.uniform(0.5, 3.0))
    hot = [zones[int(i)] for i in rng.choice(len(zones), size=int(rng.integers(2, 4)), replace=False)]
    locs = [ServiceLocation(zones[int(rng.integers(len(zones)))], "meal", float(rng.uniform(0, 2)))
            for _ in range(int(rng.integers(0, 3)))]
    sources = demand_sources(grid, locs, rates, goods_radius=int(rng.integers(1, 5)))
    draw = dict(trip_distribution=TripDistribution(hot_zones=tuple(hot), hot_weight=1.0),
                goods_dest_hot=hot, goods_dest_hot_weight=float(rng.random()))
    return grid, rates, sources, draw


def drawn_blocks(trace, block):
    """The blocks a tick's block draw takes, rebuilt from the reference's
    per-zone trace: (size, offset of the first emitting zone or None,
    32-bit half buffered when the block is drawn) for each."""
    out, i = [], 0
    while i < len(trace):
        size = min(block, len(trace) - i)
        hit = next((k for k in range(size) if trace[i + k][1]), None)
        out.append((size, hit, trace[i][0]))
        i += size if hit is None else hit + 1
    return out


def plain_state(rng):
    """The bit generator's state with its words as lists (SFC64 keeps an
    array), so that two states compare with ==."""
    state = rng.bit_generator.state
    return {**state, "state": {k: np.asarray(v).tolist() for k, v in state["state"].items()}}


def test_block_draw_keeps_the_per_zone_stream():
    key = lambda reqs: [(r.kind, r.origin, r.destination, r.created_tick) for r in reqs]
    seen = dict(empty_ticks=0, buffered_half=0, zero_rate_zones=0, goods=0, boundary=0,
                empty_block=0, hit_on_last_zone=0, then_on_first_zone=0, half_across_block=0,
                sfc64_hits=0)
    pcg64, sfc64 = np.random.PCG64, np.random.SFC64
    cases = [(seed, None, 6, random_world, pcg64) for seed in range(200)]
    # boundary cases: zone (0, 0) comes first and its uniform is the float
    # just above its zero-count threshold, so it must emit
    for seed, lam in enumerate(np.random.default_rng(7).uniform(0.0, math.log(2), 200), 200):
        cases.append((seed, float(lam), 3, random_world, pcg64))
    # worlds larger than one block, with busy zones on a block boundary
    cases.extend((seed, None, 3, block_world, pcg64) for seed in range(400, 460))
    # a bit generator without advance
    cases.extend((seed, None, 6, random_world, sfc64) for seed in range(500, 560))
    cases.extend((seed, None, 3, block_world, sfc64) for seed in range(560, 580))
    for seed, first_rate, ticks, world, bit_generator in cases:
        if world is random_world:
            grid, rates, sources, draw = random_world(np.random.default_rng(seed), first_rate)
        else:
            grid, rates, sources, draw = block_world(np.random.default_rng(seed))
        if first_rate is None:
            ours, ref = (np.random.Generator(bit_generator([seed, 1])) for _ in range(2))
        else:
            u = math.nextafter(math.exp(-first_rate), 1.0)
            ours, ref = generator_drawing_first(u, seed), generator_drawing_first(u, seed)
        seen["zero_rate_zones"] += 0.0 in rates.values()
        for tick in range(ticks):
            seen["buffered_half"] += ours.bit_generator.state["has_uint32"]
            got = generate_tick_requests(sources, tick, ours, **draw)
            trace = []
            want = reference_generate(grid, rates, sources, tick, ref, **draw, trace=trace)
            assert key(got) == key(want), (seed, tick)
            assert plain_state(ours) == plain_state(ref), (seed, tick)
            seen["empty_ticks"] += not want
            seen["goods"] += sum(r.kind == GOODS for r in want)
            if first_rate is not None and tick == 0:
                assert want[0].origin == ZoneId(0, 0), seed
                seen["boundary"] += 1
            blocks = drawn_blocks(trace, DRAW_BLOCK)
            if bit_generator is sfc64:
                seen["sfc64_hits"] += sum(hit is not None for _, hit, _ in blocks)
            seen["empty_block"] += sum(hit is None and size == DRAW_BLOCK for size, hit, _ in blocks)
            # a half buffered before a block in which no zone emits, still
            # there when the next block rewinds
            seen["half_across_block"] += sum(
                size == DRAW_BLOCK and hit is None and half and next_hit is not None
                for (size, hit, half), (_, next_hit, _) in zip(blocks, blocks[1:]))
            for (_, hit, _), (_, next_hit, _) in zip(blocks, blocks[1:] + [(0, None, 0)]):
                seen["hit_on_last_zone"] += hit == DRAW_BLOCK - 1
                seen["then_on_first_zone"] += hit == DRAW_BLOCK - 1 and next_hit == 0
    assert min(seen.values()) >= 20, seen


def test_block_draw_emits_just_above_the_threshold():
    # math.exp and numpy's vectorised exp differ in the last bit for some
    # rates on some hosts; a threshold one bit above poisson_sample's would
    # skip a zone whose uniform lies just above the true threshold
    grid = GridWorld(width=2, height=1)
    for lam in np.random.default_rng(8).uniform(0.0, math.log(2), 20_000):
        sources = demand_sources(grid, [], {ZoneId(0, 0): float(lam)}, goods_radius=1)
        rng = generator_drawing_first(math.nextafter(math.exp(-lam), 1.0), 0)
        assert generate_tick_requests(sources, 0, rng), lam


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
    # a zero rate draws no uniform, so its zone is left out
    assert sources.passenger == ((ZoneId(0, 3), 0.1), (ZoneId(0, 9), 0.2), (ZoneId(4, 1), 0.5))
    assert sources.passenger_p0.tolist() == [math.exp(-0.1), math.exp(-0.2), math.exp(-0.5)]
    with pytest.raises(ValueError, match="passenger rates must be >= 0"):
        demand_sources(grid, [], {ZoneId(1, 1): -0.1}, goods_radius=2)
    assert [(o, rate) for o, rate, _ in sources.goods] == [(ZoneId(9, 9), 2.0), (ZoneId(0, 0), 1.0)]
    assert sources.goods[1][2] == tuple(grid.zones_within(ZoneId(0, 0), 2))
    # on a 1x1 grid a goods site reaches no zone and emits nothing
    lone = GridWorld(width=1, height=1)
    assert demand_sources(lone, [ServiceLocation(ZoneId(0, 0), "meal", 5.0)], {}, 1).goods == ()


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
        p0 = np.array([math.exp(-lam) for _, lam in want], dtype=float)
        assert sources.passenger_p0.tobytes() == p0.tobytes(), seed


def test_hot_zone_trip_distribution(grid):
    rng = np.random.default_rng(3)
    dist = TripDistribution(hot_zones=((9, 9),), hot_weight=1.0)
    for _ in range(20):
        assert dist.sample_destination(grid, ZoneId(0, 0), rng) == ZoneId(9, 9)


def test_trip_records_round_trip(tmp_path, grid):
    reqs = [
        Request(0, PASSENGER, ZoneId(0, 0), ZoneId(3, 4), 5, 1.0),
        Request(1, GOODS, ZoneId(2, 2), ZoneId(4, 2), 6, 0.5),
        Request(2, PASSENGER, ZoneId(9, 9), ZoneId(0, 1), 7, 1.0),
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
    fc = HistoricalAverageForecaster(grid, ticks_per_day=24).forecast(now=0, steps=5)
    assert fc.shape == (6, 10, 10)
    assert np.all(fc == 0)


def test_forecast_constant_rate(grid):
    f = HistoricalAverageForecaster(grid, ticks_per_day=24)
    for t in range(48):
        arr = np.zeros((10, 10))
        arr[3, 3] = 2.0
        f.record(t, arr)
    fc = f.forecast(now=48, steps=4)
    assert np.allclose(fc[:, 3, 3], 2.0)


def test_forecast_tick_of_day_average(grid):
    # zone (1, 1) saw 1 then 3 requests at the same tick-of-day on two days
    f = HistoricalAverageForecaster(grid, ticks_per_day=24)
    for day in range(2):
        arr = np.zeros((10, 10))
        arr[1, 1] = 1.0 + 2.0 * day
        f.record(5 + 24 * day, arr)
    fc = f.forecast(now=5 + 48, steps=0)
    assert fc[0, 1, 1] == pytest.approx(2.0)


def test_forecaster_cold_tod_falls_back_to_overall_mean(grid):
    f = HistoricalAverageForecaster(grid, ticks_per_day=24)
    arr = np.zeros((10, 10))
    arr[2, 2] = 4.0
    f.record(0, arr)
    fc = f.forecast(now=7, steps=0)  # tick-of-day 7 unseen
    assert fc[0, 2, 2] == pytest.approx(4.0)


def test_forecast_nonnegative_and_horizon_length(grid):
    f = HistoricalAverageForecaster(grid, ticks_per_day=24)
    rng = np.random.default_rng(8)
    for t in range(100):
        f.record(t, rng.poisson(1.0, size=(10, 10)).astype(float))
    fc = f.forecast(now=100, steps=30)
    assert fc.shape == (31, 10, 10)
    assert np.all(fc >= 0)


def test_request_lifecycle_guards():
    table = RequestTable()
    r = Request(0, GOODS, ZoneId(0, 0), ZoneId(1, 1), 0, 0.5)
    table.add([r])
    table.set_status(0, "assigned")
    table.set_status(0, "picked_up")
    with pytest.raises(ValueError):
        table.set_status(0, "rejected")
    table.set_status(0, "delivered")
    assert table.status_of(0) == "delivered"
    assert not hasattr(r, "status")
    with pytest.raises(ValueError):
        Request(1, PASSENGER, ZoneId(0, 0), ZoneId(0, 0), 0, 1.0)
    with pytest.raises(ValueError):
        Request(2, PASSENGER, ZoneId(0, 0), ZoneId(1, 1), 0, 1.0, hops_completed=2)


# a legal path from queued to each status
PATH_TO = {"queued": [], "assigned": ["assigned"], "picked_up": ["assigned", "picked_up"],
           "delivered": ["assigned", "picked_up", "delivered"], "rejected": ["rejected"]}


@pytest.mark.parametrize("old", REQUEST_STATUSES)
@pytest.mark.parametrize("new", [*REQUEST_STATUSES, "lost"])
def test_request_table_refuses_what_the_transitions_refuse(old, new):
    # the table is the one copy of each status; it takes every transition
    # REQUEST_TRANSITIONS allows and refuses every other, the status unchanged
    table = RequestTable()
    table.add([Request(0, PASSENGER, ZoneId(0, 0), ZoneId(1, 1), 0, 1.0),
               Request(1, GOODS, ZoneId(0, 0), ZoneId(1, 1), 0, 0.5)])
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
    # requests join queued under the next ids; the chain column holds each
    # one's own id, or its parent's for a relay leg
    table = RequestTable()
    with pytest.raises(ValueError, match="next ids, from 0"):
        table.add([Request(1, PASSENGER, ZoneId(0, 0), ZoneId(1, 1), 0, 1.0)])
    chains = []
    for rid in range(600):  # past the first buffer
        parent = rid - 1 if rid % 3 == 2 else None
        table.add([Request(rid, GOODS, ZoneId(0, 0), ZoneId(1, 1), 0, 0.5,
                           hops_completed=int(parent is not None), parent_id=parent)])
        chains.append(rid if parent is None else parent)
        if rid % 7 == 0:
            table.set_status(rid, "rejected")
    assert len(table) == len(table.status) == len(table.chain) == 600
    assert table.chain.tolist() == chains
    assert [table.status_of(rid) for rid in range(600)] == [
        "rejected" if rid % 7 == 0 else "queued" for rid in range(600)]
    assert [table[rid].id for rid in range(600)] == list(range(600))
    assert table.status.dtype.itemsize == 1 and table.chain.dtype.itemsize == 4
    assert [table[rid].chain_id for rid in (0, 2, 599)] == [0, 1, 598]
    # the buffers hold more entries than the table: an id past its end is refused
    for read in (table.status_of, lambda rid: table.set_status(rid, "assigned")):
        with pytest.raises(IndexError):
            read(600)
