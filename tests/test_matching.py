import numpy as np
import pytest

from hopfleet.demand import GOODS, PASSENGER, Request
from hopfleet.fleet import FleetTable, ManifestEntry
from hopfleet.geo import GridWorld, InvalidZoneError, ZoneId
from hopfleet.matching import SEAT, TRUNK, Assignment, match, reject_radius_ticks

from fleet_rows import free_capacity, vehicles_in_table


def make_grid(speed=1):
    return GridWorld(width=12, height=12, vehicle_speed=speed)


def passenger(rid, origin, dest=(11, 11)):
    return Request(rid, PASSENGER, ZoneId(*origin), ZoneId(*dest), 0, 1.0)


def goods(rid, origin, dest=(11, 11)):
    return Request(rid, GOODS, ZoneId(*origin), ZoneId(*dest), 0, 0.5)


def match_all(requests, vehicles, grid, reject_radius, rng):
    """match over a pool of every vehicle of one table."""
    fleet = vehicles[0].fleet if vehicles else FleetTable([], grid)
    return match(requests, np.arange(len(vehicles)), fleet, grid, reject_radius, rng)


def occupy(v, n_pass=0, n_goods=0):
    for i in range(n_pass):
        v.add_entry(ManifestEntry(1000 + v.id * 10 + i, PASSENGER, ZoneId(0, 0), ZoneId(1, 1), onboard=True))
    for i in range(n_goods):
        v.add_entry(ManifestEntry(2000 + v.id * 10 + i, GOODS, ZoneId(0, 0), ZoneId(1, 1), onboard=True))
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
    assert got == [Assignment(0, 0, SEAT, 2)]


def test_capacity_exhaustion_leaves_farthest_queued():
    rng = np.random.default_rng(0)
    grid = make_grid()
    v = vehicles_in_table(grid, [(0, 0)], seats_total=2)[0]
    reqs = [passenger(0, (0, 1)), passenger(1, (0, 2)), passenger(2, (0, 3))]
    got = match_all(reqs, [v], grid, 10, rng)
    assert {a.request_id for a in got} == {0, 1}
    assert all(a.vehicle_id == 0 and a.slot == SEAT for a in got)


def test_goods_need_trunk_passengers_need_seats():
    rng = np.random.default_rng(0)
    grid = make_grid()
    seat_only, trunk_only = vehicles_in_table(grid, [(0, 1), (0, 2)])
    occupy(seat_only, n_goods=5)  # trunk full
    occupy(trunk_only, n_pass=4)  # seats full
    got = match_all([passenger(0, (0, 0)), goods(1, (0, 0))], [seat_only, trunk_only], grid, 10,
                    rng)
    by_req = {a.request_id: a for a in got}
    assert by_req[0].vehicle_id == 0 and by_req[0].slot == SEAT
    assert by_req[1].vehicle_id == 1 and by_req[1].slot == TRUNK


def test_only_the_pool_is_matched():
    # vehicle 1 is nearest but outside the pool
    grid = make_grid()
    fleet = vehicles_in_table(grid, [(0, 5), (0, 1), (0, 4)])[0].fleet
    got = match([passenger(0, (0, 0))], np.array([0, 2]), fleet, grid, 10,
                np.random.default_rng(0))
    assert got == [Assignment(0, 2, SEAT, 4)]


def test_free_capacity_is_read_from_the_table():
    # the table follows the manifest: a vehicle filled after the table was
    # built takes no more passengers, and takes them again once recounted empty
    grid = make_grid()
    near, far = vehicles_in_table(grid, [(0, 1), (0, 3)], seats_total=[1, 4])
    fleet = near.fleet
    near.add_entry(ManifestEntry(50, PASSENGER, ZoneId(0, 1), ZoneId(0, 2), onboard=True))
    pool = np.arange(2)
    assert match([passenger(0, (0, 0))], pool, fleet, grid, 10,
                 np.random.default_rng(0)) == [Assignment(0, 1, SEAT, 3)]
    near.manifest.clear()
    near.recount()
    assert match([passenger(0, (0, 0))], pool, fleet, grid, 10,
                 np.random.default_rng(0)) == [Assignment(0, 0, SEAT, 1)]


def test_out_of_radius_requests_skipped():
    rng = np.random.default_rng(0)
    grid = make_grid()
    got = match_all([passenger(0, (0, 0))], vehicles_in_table(grid, [(11, 11)]), grid,
                    reject_radius=5, rng=rng)
    assert got == []


def test_radius_bound_uses_eta():
    grid = make_grid(speed=2)
    assert reject_radius_ticks(grid, 5) == 3
    rng = np.random.default_rng(0)
    # distance 6, eta 3 ticks: inside the 5-zone radius expressed as ETA
    got = match_all([passenger(0, (0, 6))], vehicles_in_table(grid, [(0, 0)]), grid, 5, rng)
    assert got and got[0].eta_ticks == 3


def test_tie_break_is_uniform_over_tied_vehicles():
    grid = make_grid()
    reqs = [passenger(0, (5, 5))]
    vs = vehicles_in_table(grid, [(5, 3), (5, 7), (3, 5)])
    counts = {0: 0, 1: 0, 2: 0}
    n = 3000
    rng = np.random.default_rng(123)
    for _ in range(n):
        (a,) = match_all(reqs, vs, grid, 10, rng)
        counts[a.vehicle_id] += 1
    for vid in counts:
        assert abs(counts[vid] / n - 1 / 3) < 0.05


def test_deterministic_given_seed():
    grid = make_grid()
    reqs = [passenger(i, (i, 0)) for i in range(4)] + [goods(9, (2, 2))]
    vs = vehicles_in_table(grid, [(0, 0), (2, 0), (2, 2)])

    def run(seed):
        return match_all(reqs, vs, grid, 20, np.random.default_rng(seed))

    assert run(5) == run(5)


def brute_force_check(reqs, vehicles, grid, radius, assignments):
    bound = reject_radius_ticks(grid, radius)
    assigned_ids = {a.request_id for a in assignments}
    # per-vehicle remaining capacity after the run
    seats = {v.id: free_capacity(v)[0] for v in vehicles}
    trunks = {v.id: free_capacity(v)[1] for v in vehicles}
    for a in assignments:
        if a.slot == SEAT:
            seats[a.vehicle_id] -= 1
        else:
            trunks[a.vehicle_id] -= 1
    assert all(c >= 0 for c in seats.values()) and all(c >= 0 for c in trunks.values())
    assert len(assigned_ids) == len(assignments)  # one assignment per request
    for a in assignments:
        r = next(r for r in reqs if r.id == a.request_id)
        assert a.slot == (SEAT if r.kind == PASSENGER else TRUNK)
        assert a.eta_ticks <= bound
    # greedy dominance: no unassigned feasible pair beats any made assignment
    if assignments:
        worst = max(a.eta_ticks for a in assignments)
        for r in reqs:
            if r.id in assigned_ids:
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
        reqs.append(Request(i, kind, o, d, 0, 1.0 if kind == PASSENGER else 0.5))
    specs = [((int(rng.integers(8)), int(rng.integers(8))), int(rng.integers(0, 3)),
              int(rng.integers(0, 3))) for _ in range(n_veh)]
    vehicles = vehicles_in_table(grid, [loc for loc, _, _ in specs],
                                 seats_total=[seats for _, seats, _ in specs],
                                 trunk_total=[trunk for _, _, trunk in specs])
    radius = int(rng.integers(2, 12))
    got = match_all(reqs, vehicles, grid, radius, np.random.default_rng(seed + 1))
    brute_force_check(reqs, vehicles, grid, radius, got)


def reference_match(requests, vehicles, grid, reject_radius, rng):
    """The scalar request x vehicle loop: one ``grid.eta`` per pair."""
    bound = reject_radius_ticks(grid, reject_radius)
    seats_free = {v.id: free_capacity(v)[0] for v in vehicles}
    trunk_free = {v.id: free_capacity(v)[1] for v in vehicles}

    candidates = []  # (eta, request_id, vehicle_id)
    for r in requests:
        free = seats_free if r.kind == PASSENGER else trunk_free
        for v in vehicles:
            if free[v.id] <= 0:
                continue
            eta = grid.eta(v.location, r.origin).ticks
            if eta <= bound:
                candidates.append((eta, r.id, v.id))
    candidates.sort()

    req_by_id = {r.id: r for r in requests}
    assigned = {}
    out = []
    i = 0
    while i < len(candidates):
        eta, rid, _ = candidates[i]
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


def random_instance(rng):
    """Requests and vehicles on a small grid, with shared zones, full slots
    and shuffled ids so that ETA ties and the id tie-breaks all occur."""
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
        reqs.append(Request(100 + rid, kind, o, d, 0, 1.0 if kind == PASSENGER else 0.5))
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
    rng_new, rng_ref = np.random.default_rng(seed + 7), np.random.default_rng(seed + 7)
    assert match_all(reqs, vehicles, grid, radius, rng_new) == \
        reference_match(reqs, vehicles, grid, radius, rng_ref)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
