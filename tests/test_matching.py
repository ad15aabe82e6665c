import math
from dataclasses import replace

import numpy as np
import pytest

from hopfleet.demand import GOODS, PASSENGER, Request
from hopfleet.fleet import IDLE, KINDS, SERVING, FleetTable, process_arrivals
from hopfleet.geo import GridWorld, InvalidZoneError, ZoneId
from hopfleet.matching import match

from desk_config import desk_config
from fleet_rows import ManifestEntry, add, free_capacity, put, vehicles_in_table


def make_grid(speed=1):
    return GridWorld(width=12, height=12, vehicle_speed=speed)


def passenger(rid, origin, dest=(11, 11)):
    return Request(rid, PASSENGER, ZoneId(*origin), ZoneId(*dest), 0)


def goods(rid, origin, dest=(11, 11)):
    return Request(rid, GOODS, ZoneId(*origin), ZoneId(*dest), 0)


def origins(requests):
    """Each request's pickup zone: its origin, as none of these is relayed."""
    return [r.origin for r in requests]


def kinds(requests):
    """Each request's kind code, its index in ``fleet.KINDS``."""
    return [KINDS.index(r.kind) for r in requests]


def bound_ticks(grid, reject_radius):
    """The pickup-ETA bound of a reject radius in zones at the grid's speed."""
    return math.ceil(reject_radius / grid.vehicle_speed)


def match_all(requests, vehicles, grid, bound, rng):
    """match of ``requests`` at their origins over a pool of every vehicle
    of one table, within ``bound`` ticks."""
    fleet = vehicles[0].fleet if vehicles else FleetTable(grid, [], [], [])
    return match(origins(requests), np.arange(len(vehicles)), fleet, kinds(requests), bound, rng)


def slot_of(requests, row):
    """The capacity column, 0 for seats and 1 for trunk slots, that an
    assignment row's request takes."""
    return KINDS.index(requests[row[0]].kind)


def occupy(v, n_pass=0, n_goods=0):
    for i in range(n_pass):
        add(v, ManifestEntry(1000 + v.id * 10 + i, PASSENGER, ZoneId(0, 0), ZoneId(1, 1), onboard=True))
    for i in range(n_goods):
        add(v, ManifestEntry(2000 + v.id * 10 + i, GOODS, ZoneId(0, 0), ZoneId(1, 1), onboard=True))
    return v


def test_no_requests_returns_empty():
    rng = np.random.default_rng(0)
    grid = make_grid()
    assert match_all([], vehicles_in_table(grid, [(0, 0)]), grid, 5, rng) == []


def test_off_grid_vehicle_raises():
    # vehicle locations are checked when their table is built
    # (test_fleet::test_fleet_table_marks_off_grid_zones), so a pool with an
    # off-grid vehicle cannot be made; match checks request origins
    grid = make_grid()
    with pytest.raises(InvalidZoneError, match=r"zone \(12, 3\) outside 12x12 grid"):
        vehicles_in_table(grid, [(0, 0), (12, 3), (-1, 0)])
    vs = vehicles_in_table(grid, [(0, 0), (11, 3)])
    with pytest.raises(InvalidZoneError, match=r"zone \(4, 12\) outside 12x12 grid"):
        match_all([passenger(0, (0, 1)), passenger(1, (4, 12))], vs, grid, 5,
                  np.random.default_rng(0))


def test_passenger_goes_to_nearest_vehicle():
    rng = np.random.default_rng(0)
    grid = make_grid()
    vs = vehicles_in_table(grid, [(0, 2), (0, 5)])
    got = match_all([passenger(0, (0, 0))], vs, grid, 10, rng)
    assert got == [(0, 0, 2)]


def test_capacity_exhaustion_leaves_farthest_queued():
    rng = np.random.default_rng(0)
    grid = make_grid()
    v = vehicles_in_table(grid, [(0, 0)], seats_total=2)[0]
    reqs = [passenger(0, (0, 1)), passenger(1, (0, 2)), passenger(2, (0, 3))]
    got = match_all(reqs, [v], grid, 10, rng)
    assert {pos for pos, _, _ in got} == {0, 1}
    assert all(row[1] == 0 and slot_of(reqs, row) == 0 for row in got)


def test_goods_need_trunk_passengers_need_seats():
    rng = np.random.default_rng(0)
    grid = make_grid()
    seat_only, trunk_only = vehicles_in_table(grid, [(0, 1), (0, 2)])
    occupy(seat_only, n_goods=5)  # trunk full
    occupy(trunk_only, n_pass=4)  # seats full
    reqs = [passenger(0, (0, 0)), goods(1, (0, 0))]
    got = match_all(reqs, [seat_only, trunk_only], grid, 10, rng)
    by_pos = {row[0]: row for row in got}
    assert by_pos[0][1] == 0 and slot_of(reqs, by_pos[0]) == 0
    assert by_pos[1][1] == 1 and slot_of(reqs, by_pos[1]) == 1


def test_only_the_pool_is_matched():
    # vehicle 1 is nearest but outside the pool
    grid = make_grid()
    fleet = vehicles_in_table(grid, [(0, 5), (0, 1), (0, 4)])[0].fleet
    reqs = [passenger(0, (0, 0))]
    got = match(origins(reqs), np.array([0, 2]), fleet, kinds(reqs), 10,
                np.random.default_rng(0))
    assert got == [(0, 2, 4)]


def test_free_capacity_is_read_from_the_table():
    # the table follows the manifest: a vehicle filled after the table was
    # built takes no more passengers, and takes them again once it has dropped
    # its passenger
    grid = make_grid()
    near, far = vehicles_in_table(grid, [(0, 1), (0, 3)], status=[SERVING, IDLE],
                                  seats_total=[1, 4])
    fleet = near.fleet
    add(near, ManifestEntry(50, PASSENGER, ZoneId(0, 1), ZoneId(0, 2), onboard=True))
    pool, reqs = np.arange(2), [passenger(0, (0, 0))]
    assert match(origins(reqs), pool, fleet, kinds(reqs), 10,
                 np.random.default_rng(0)) == [(0, 1, 3)]
    put(near, (0, 2))
    assert process_arrivals(near) == ([50], [])
    put(near, (0, 1))
    assert match(origins(reqs), pool, fleet, kinds(reqs), 10,
                 np.random.default_rng(0)) == [(0, 0, 1)]


def test_out_of_radius_requests_skipped():
    rng = np.random.default_rng(0)
    grid = make_grid()
    got = match_all([passenger(0, (0, 0))], vehicles_in_table(grid, [(11, 11)]), grid,
                    bound=5, rng=rng)
    assert got == []


def test_radius_bound_uses_eta():
    cfg = desk_config().sim
    cfg = replace(cfg, reject_radius_m=5 * cfg.grid.zone_edge_m,
                  grid=replace(cfg.grid, vehicle_speed=2))
    assert cfg.reject_ticks == 3  # a 5-zone radius at 2 zones a tick
    grid = make_grid(speed=2)
    rng = np.random.default_rng(0)
    # distance 6, eta 3 ticks: inside the 5-zone radius expressed as ETA
    got = match_all([passenger(0, (0, 6))], vehicles_in_table(grid, [(0, 0)]), grid,
                    cfg.reject_ticks, rng)
    assert got and got[0][2] == 3
    assert match_all([passenger(0, (0, 7))], vehicles_in_table(grid, [(0, 0)]), grid,
                     cfg.reject_ticks, rng) == []  # eta 4


def test_tie_break_is_uniform_over_tied_vehicles():
    grid = make_grid()
    reqs = [passenger(0, (5, 5))]
    vs = vehicles_in_table(grid, [(5, 3), (5, 7), (3, 5)])
    counts = {0: 0, 1: 0, 2: 0}
    n = 3000
    rng = np.random.default_rng(123)
    for _ in range(n):
        ((_, vid, _),) = match_all(reqs, vs, grid, 10, rng)
        counts[vid] += 1
    for vid in counts:
        assert abs(counts[vid] / n - 1 / 3) < 0.05


def test_deterministic_given_seed():
    grid = make_grid()
    reqs = [passenger(i, (i, 0)) for i in range(4)] + [goods(9, (2, 2))]
    vs = vehicles_in_table(grid, [(0, 0), (2, 0), (2, 2)])

    def run(seed):
        return match_all(reqs, vs, grid, 20, np.random.default_rng(seed))

    assert run(5) == run(5)


def brute_force_check(reqs, vehicles, grid, bound, assignments):
    assigned = {pos for pos, _, _ in assignments}
    # per-vehicle remaining capacity after the run
    seats = {v.id: free_capacity(v)[0] for v in vehicles}
    trunks = {v.id: free_capacity(v)[1] for v in vehicles}
    for pos, vid, eta in assignments:
        if reqs[pos].kind == PASSENGER:
            seats[vid] -= 1
        else:
            trunks[vid] -= 1
        assert eta == math.ceil(grid.distance(vehicles[vid].location, reqs[pos].origin)
                                / grid.vehicle_speed)
        assert eta <= bound
    assert all(c >= 0 for c in seats.values()) and all(c >= 0 for c in trunks.values())
    assert len(assigned) == len(assignments)  # one assignment per request
    # greedy dominance: no unassigned feasible pair beats any made assignment
    if assignments:
        worst = max(eta for _, _, eta in assignments)
        for pos, r in enumerate(reqs):
            if pos in assigned:
                continue
            for v in vehicles:
                free = seats[v.id] if r.kind == PASSENGER else trunks[v.id]
                eta = grid.eta(v.location, r.origin).ticks
                if free > 0 and eta <= bound:
                    assert eta >= worst


@pytest.mark.parametrize("seed", range(30))
def test_random_instances_satisfy_dominance(seed):
    rng = np.random.default_rng(seed)
    grid = GridWorld(width=8, height=8, vehicle_speed=1)
    n_req = int(rng.integers(1, 7))
    n_veh = int(rng.integers(1, 5))
    reqs = []
    for i in range(n_req):
        kind = PASSENGER if rng.random() < 0.5 else GOODS
        o = ZoneId(int(rng.integers(8)), int(rng.integers(8)))
        d = ZoneId(int(rng.integers(8)), int(rng.integers(8)))
        if o == d:
            d = ZoneId((o.row + 1) % 8, o.col)
        reqs.append(Request(i, kind, o, d, 0))
    specs = [((int(rng.integers(8)), int(rng.integers(8))), int(rng.integers(0, 3)),
              int(rng.integers(0, 3))) for _ in range(n_veh)]
    vehicles = vehicles_in_table(grid, [loc for loc, _, _ in specs],
                                 seats_total=[seats for _, seats, _ in specs],
                                 trunk_total=[trunk for _, _, trunk in specs])
    bound = bound_ticks(grid, int(rng.integers(2, 12)))
    got = match_all(reqs, vehicles, grid, bound, np.random.default_rng(seed + 1))
    brute_force_check(reqs, vehicles, grid, bound, got)


def reference_match(requests, vehicles, grid, bound, rng):
    """The scalar request x vehicle loop: one ETA, ceil(distance / speed),
    per pair, ties on ETA broken by the request's position in the list (its
    place in the queue), then by vehicle id; (position, vehicle id, ETA)
    rows."""
    seats_free = {v.id: free_capacity(v)[0] for v in vehicles}
    trunk_free = {v.id: free_capacity(v)[1] for v in vehicles}

    candidates = []  # (eta, position in requests, vehicle_id)
    for pos, r in enumerate(requests):
        free = seats_free if r.kind == PASSENGER else trunk_free
        for v in vehicles:
            if free[v.id] <= 0:
                continue
            eta = math.ceil(grid.distance(v.location, r.origin) / grid.vehicle_speed)
            if eta <= bound:
                candidates.append((eta, pos, v.id))
    candidates.sort()

    assigned = {}
    out = []
    i = 0
    while i < len(candidates):
        eta, pos, _ = candidates[i]
        j = i
        tied = []
        while j < len(candidates) and candidates[j][0] == eta and candidates[j][1] == pos:
            tied.append(candidates[j][2])
            j += 1
        i = j
        if pos in assigned:
            continue
        kind = requests[pos].kind
        free = seats_free if kind == PASSENGER else trunk_free
        tied = [vid for vid in tied if free[vid] > 0]
        if not tied:
            continue
        vid = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        free[vid] -= 1
        assigned[pos] = vid
        out.append((pos, vid, eta))
    return out


def random_instance(rng):
    """Requests and vehicles on a small grid, with shared zones, full slots
    and shuffled ids so that ETA ties occur and the queue position of a
    request and its id order disagree."""
    side = int(rng.integers(3, 9))
    grid = GridWorld(width=side, height=side, vehicle_speed=int(rng.integers(1, 3)))
    spots = [ZoneId(int(rng.integers(side)), int(rng.integers(side))) for _ in range(3)]

    def zone():
        if rng.random() < 0.5:
            return spots[int(rng.integers(len(spots)))]
        return ZoneId(int(rng.integers(side)), int(rng.integers(side)))

    reqs = []
    for rid in rng.permutation(int(rng.integers(0, 12))).tolist():
        kind = PASSENGER if rng.random() < 0.5 else GOODS
        o = zone()
        d = ZoneId((o.row + 1) % side, o.col)
        reqs.append(Request(100 + rid, kind, o, d, 0))
    # drawn vehicle by vehicle in a shuffled id order: capacity, zone, and the
    # seats and trunk slots to fill once the table holds them in id order
    specs = {}
    for vid in rng.permutation(int(rng.integers(0, 10))).tolist():
        seats, trunk = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        loc = zone()
        filled = (seats if seats and rng.random() < 0.3 else 0,
                  trunk if trunk and rng.random() < 0.3 else 0)
        specs[vid] = (loc, seats, trunk, filled)
    order = sorted(specs)
    vehicles = vehicles_in_table(grid, [specs[vid][0] for vid in order],
                                 seats_total=[specs[vid][1] for vid in order],
                                 trunk_total=[specs[vid][2] for vid in order])
    for vid, (*_, (n_pass, n_goods)) in specs.items():
        occupy(vehicles[vid], n_pass, n_goods)
    return reqs, vehicles, grid, float(rng.integers(0, 2 * side))


@pytest.mark.parametrize("seed", range(250))
def test_matches_reference_loop(seed):
    reqs, vehicles, grid, radius = random_instance(np.random.default_rng(seed))
    bound = bound_ticks(grid, radius)
    rng_new, rng_ref = np.random.default_rng(seed + 7), np.random.default_rng(seed + 7)
    assert match_all(reqs, vehicles, grid, bound, rng_new) == \
        reference_match(reqs, vehicles, grid, bound, rng_ref)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
