import math

import numpy as np
import pytest

from hopfleet.demand import GOODS, PASSENGER
from hopfleet.fleet import (
    DISPATCHED,
    DISPATCHING,
    IDLE,
    MATCHED,
    SERVING,
    STATUS_CODE,
    DropEvent,
    FleetSnapshot,
    FleetTable,
    ManifestEntry,
    PickupEvent,
    VehicleState,
    VehicleStateError,
    move,
    process_arrivals,
    project_supply,
    stop_index,
)
from hopfleet.geo import GridWorld, InvalidZoneError, ZoneId, manhattan

from fleet_rows import free_capacity, put, vehicles_in_table


def make_vehicle(loc=(0, 0), grid=GridWorld(width=10, height=10), **kw):
    """Vehicle 0 of a table of its own on ``grid``."""
    return vehicles_in_table(grid, [loc], **kw)[0]


def move_one(v, grid):
    """The steps vehicle ``v`` moves in a column pass over its id alone."""
    return move(v.fleet, [v.id], grid)[0]


def entry(rid, kind, origin, dest, onboard=False):
    e = ManifestEntry(rid, kind, ZoneId(*origin), ZoneId(*dest))
    e.onboard = onboard
    return e


def test_availability_examples():
    v, full, partial = vehicles_in_table(GridWorld(width=4, height=4), [(0, 0)] * 3)
    fleet = v.fleet
    assert free_capacity(v) == (4, 5)

    for i in range(4):
        full.add_entry(entry(i, PASSENGER, (1, 1), (2, 2), onboard=True))
    for i in range(5):
        full.add_entry(entry(10 + i, GOODS, (1, 1), (2, 2), onboard=True))
    assert free_capacity(full) == (0, 0)

    partial.add_entry(entry(0, PASSENGER, (1, 1), (2, 2), onboard=True))
    partial.add_entry(entry(1, PASSENGER, (1, 1), (3, 3), onboard=True))
    assert free_capacity(partial) == (2, 5)
    assert fleet.available().tolist() == [True, False, True]
    assert (fleet.seats_free.tolist(), fleet.trunk_free.tolist()) == ([4, 0, 2], [5, 0, 5])


def test_capacity_guard_on_add():
    v = make_vehicle(seats_total=1, trunk_total=0)
    v.add_entry(entry(0, PASSENGER, (1, 1), (2, 2)))
    with pytest.raises(VehicleStateError):
        v.add_entry(entry(1, PASSENGER, (1, 1), (2, 2)))
    with pytest.raises(VehicleStateError):
        v.add_entry(entry(2, GOODS, (1, 1), (2, 2)))


def test_status_transition_graph_enforced():
    v = make_vehicle()
    for bad in (DISPATCHED, MATCHED, SERVING):
        with pytest.raises(VehicleStateError):
            make_vehicle(status=IDLE).set_status(bad)
    v.set_status(DISPATCHING)
    v.set_status(DISPATCHED)
    v.set_status(MATCHED)
    v.set_status(SERVING)
    v.set_status(MATCHED)  # accepted new work mid-service
    v.set_status(SERVING)
    v.set_status(IDLE)


def test_status_is_the_table_column_alone():
    # set_status writes the vehicle's status entry and nothing else, and
    # the vehicle reads its status from there and holds none of its own
    v, other = vehicles_in_table(GridWorld(width=4, height=4), [(1, 1)] * 2)
    fleet, fields = v.fleet, dict(vars(v))
    rows = [fleet.row(u.id) for u in (v, other)]
    v.set_status(DISPATCHING)
    assert vars(v) == fields and "status" not in fields
    assert fleet.row(v.id) == {**rows[0], "status": STATUS_CODE[DISPATCHING]}
    assert fleet.row(other.id) == rows[1]
    fleet.status[v.id] = STATUS_CODE[MATCHED]
    assert v.status == MATCHED and type(v.status) is str
    with pytest.raises(TypeError, match="status"):
        VehicleState(id=0, seats_total=4, trunk_total=5, status=IDLE)


def test_dispatching_arrival_becomes_dispatched():
    v = make_vehicle(loc=(2, 2), status=DISPATCHING)
    v.dispatch_target = ZoneId(2, 2)
    events = process_arrivals(v, tick=5)
    assert v.status == DISPATCHED
    assert v.dispatch_target is None
    assert events == []


def test_serving_last_delivery_goes_idle():
    v = make_vehicle(loc=(3, 3), status=SERVING)
    v.add_entry(entry(7, PASSENGER, (1, 1), (3, 3), onboard=True))
    events = process_arrivals(v, tick=9)
    assert v.status == IDLE
    assert v.manifest == []
    assert events == [DropEvent(7, 0, ZoneId(3, 3), 9)]


def test_idle_vehicle_unchanged_by_advance():
    grid = GridWorld(width=10, height=10)
    v = make_vehicle(loc=(4, 4), grid=grid)
    events = process_arrivals(v, tick=0)
    moved = move(v.fleet, [v.id], grid)
    assert (v.status, v.location, events, moved) == (IDLE, ZoneId(4, 4), [], (0, 0))
    assert v.fleet.arriving == []


def test_matched_arrival_at_pickup_becomes_serving():
    v = make_vehicle(loc=(1, 1), status=MATCHED)
    v.add_entry(entry(3, GOODS, (1, 1), (5, 5)))
    events = process_arrivals(v, tick=2)
    assert v.status == SERVING
    assert v.manifest[0].onboard
    assert events == [PickupEvent(3, 0, ZoneId(1, 1), 2)]


def test_move_respects_speed_and_row_first():
    grid = GridWorld(width=10, height=10, vehicle_speed=2)
    v = make_vehicle(loc=(0, 0), grid=grid, status=DISPATCHING)
    v.dispatch_target = ZoneId(3, 1)
    assert move(v.fleet, [v.id], grid) == (2, 0)  # a dispatch drive is not service
    assert (v.location, v.driven, v.fleet.arriving) == (ZoneId(2, 0), 0, [])
    assert move(v.fleet, [v.id], grid) == (2, 0)
    assert (v.location, v.fleet.arriving) == (ZoneId(3, 1), [v.id])


def reference_move(v, grid):
    """move as it was before it reached its position in one step: one
    vehicle, one lattice step at a time, row coordinate first; it subtracts
    the steps moved from the stored plan's distances instead of keeping an
    odometer."""
    if v.status not in (DISPATCHING, MATCHED, SERVING):
        return 0
    target = v.dispatch_target if v.status == DISPATCHING else v.stops[0][0]
    moved = 0
    while moved < grid.vehicle_speed and v.location != target:
        (row, col), (t_row, t_col) = v.location, target
        if row != t_row:
            put(v, (row + (1 if t_row > row else -1), col))
        else:
            put(v, (row, col + (1 if t_col > col else -1)))
        moved += 1
    if moved and v.status != DISPATCHING:
        v.stops = [(zone, cum - moved) for zone, cum in v.stops]
    return moved


def test_move_matches_stepwise_reference():
    # one column pass over a table of vehicles in every status, against
    # the stepwise reference on a twin of each
    rng = np.random.default_rng(3)

    def zone(height, width):
        return ZoneId(int(rng.integers(height)), int(rng.integers(width)))

    for trial in range(400):
        height, width = (int(n) for n in rng.integers(1, 12, size=2))
        grid = GridWorld(width=width, height=height, vehicle_speed=int(rng.integers(1, 6)))
        n = int(rng.integers(1, 6))
        statuses = [[IDLE, DISPATCHING, DISPATCHED, MATCHED, SERVING][int(s)]
                    for s in rng.integers(5, size=n)]
        starts = [zone(height, width) for _ in range(n)]
        got, want = (vehicles_in_table(grid, starts, status=statuses) for _ in range(2))
        for vid, status in enumerate(statuses):
            target = zone(height, width)
            entries = [(int(rng.integers(2)), zone(height, width), zone(height, width))
                       for _ in range(int(rng.integers(1, 4)))]
            for v in (got[vid], want[vid]):
                if status == DISPATCHING:
                    v.dispatch_target = target
                elif status in (MATCHED, SERVING):
                    for rid, (onboard, origin, dest) in enumerate(entries):
                        v.add_entry(entry(rid, PASSENGER, origin, dest, onboard=bool(onboard)))
        fleet = got[0].fleet
        for _ in range(3):  # consecutive moves, up to and past the targets
            steps = [reference_move(v, grid) for v in want]
            busy = [s for s, status in zip(steps, statuses) if status in (MATCHED, SERVING)]
            assert move(fleet, np.arange(n), grid) == (sum(steps), sum(busy)), trial
            for g, w in zip(got, want):
                assert (g.location, g.remaining_stops()) == (w.location, w.stops), trial
                assert type(g.location) is ZoneId
            assert fleet.first_stale() is None, trial


def test_location_changes_at_most_speed_per_tick():
    grid = GridWorld(width=20, height=20, vehicle_speed=3)
    rng = np.random.default_rng(0)
    v = make_vehicle(loc=(10, 10), grid=grid, status=DISPATCHING)
    for _ in range(30):
        v.dispatch_target = ZoneId(int(rng.integers(20)), int(rng.integers(20)))  # roam on
        before = v.location
        moved, _ = move(v.fleet, [v.id], grid)
        assert moved <= 3
        assert grid.distance(before, v.location) == moved


def test_move_leaves_only_vehicles_that_can_resolve():
    # on the way to a pickup at (0, 3), both twins stand on (0, 1), a zone of
    # their plans: the drop zone of the order still to be picked up, where
    # nothing resolves, and for the loaded twin also of an onboard order
    grid = GridWorld(width=6, height=1)
    empty, loaded = vehicles_in_table(grid, [(0, 0)] * 2, status=MATCHED)
    for v in (empty, loaded):
        v.add_entry(entry(1, PASSENGER, (0, 3), (0, 1)))
    loaded.add_entry(entry(2, PASSENGER, (0, 0), (0, 1), onboard=True))
    move(empty.fleet, [empty.id, loaded.id], grid)
    assert empty.location == loaded.location == ZoneId(0, 1)
    assert ZoneId(0, 1) in empty.zone_index and ZoneId(0, 1) in loaded.zone_index
    assert empty.fleet.arriving == [loaded.id]
    assert process_arrivals(empty, tick=1) == []
    assert process_arrivals(loaded, tick=1) == [DropEvent(2, loaded.id, ZoneId(0, 1), 1)]


def test_goods_drop_at_hub_reports_drop_event():
    # the fleet reports a drop the same way for every leg; the engine decides
    # from its leg table whether the package is delivered or handed off
    v = make_vehicle(loc=(0, 4), status=SERVING)
    v.add_entry(entry(5, GOODS, (0, 0), (0, 4), onboard=True))
    events = process_arrivals(v, tick=4)
    assert events == [DropEvent(5, 0, ZoneId(0, 4), 4)]
    assert v.status == IDLE


def test_planned_stops_pickups_before_deliveries():
    v = make_vehicle(loc=(0, 0), status=MATCHED)
    v.add_entry(entry(1, PASSENGER, (0, 5), (0, 9), onboard=False))
    v.add_entry(entry(2, PASSENGER, (0, 2), (0, 1), onboard=False))
    zones = [z for z, _ in v.planned_stops()]
    assert zones[0] == ZoneId(0, 2)  # nearest pickup first
    assert zones[1] == ZoneId(0, 5)
    assert set(zones[2:]) == {ZoneId(0, 9), ZoneId(0, 1)}
    assert v.stops == v.planned_stops()


def onboard_etas(v, speed):
    """Each onboard order's ETA as the engine settles it: the first planned
    stop at its destination, through the odometer."""
    return {e.request_id: v.ticks_to(v.zone_index[e.destination], speed)
            for e in v.manifest if e.onboard}


def test_onboard_etas_follow_stop_plan():
    grid = GridWorld(width=7, height=1)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING)
    v.add_entry(entry(1, PASSENGER, (0, 0), (0, 4), onboard=True))
    v.add_entry(entry(2, PASSENGER, (0, 0), (0, 6), onboard=True))
    assert onboard_etas(v, speed=1) == {1: 4, 2: 6}
    assert v.route_eta(speed=1) == 6
    assert v.route_eta(speed=2) == 3
    move_one(v, grid)
    assert v.driven == 1 and v.stops == [(ZoneId(0, 4), 4), (ZoneId(0, 6), 6)]
    assert onboard_etas(v, speed=1) == {1: 3, 2: 5}
    assert onboard_etas(v, speed=2) == {1: 2, 2: 3}
    assert v.route_eta(speed=1) == 5


def test_onboard_etas_take_the_first_stop_at_a_zone():
    # (0, 1) is planned twice: first to pick up 3 and drop the onboard 1,
    # then to drop 2, picked up at (0, 3)
    v = make_vehicle(loc=(0, 0), status=SERVING)
    v.add_entry(entry(1, PASSENGER, (0, 0), (0, 1), onboard=True))
    v.add_entry(entry(2, PASSENGER, (0, 3), (0, 1)))
    v.add_entry(entry(3, GOODS, (0, 1), (0, 5)))
    assert v.stops == [(ZoneId(0, 1), 1), (ZoneId(0, 3), 3), (ZoneId(0, 1), 5), (ZoneId(0, 5), 9)]
    assert v.zone_index == {ZoneId(0, 1): 1, ZoneId(0, 3): 3, ZoneId(0, 5): 9}
    assert onboard_etas(v, speed=1) == {1: 1}
    assert onboard_etas(v, speed=2) == {1: 1}


def test_serving_without_manifest_goes_idle_on_arrival():
    v, ref = (make_vehicle(loc=(3, 3), status=SERVING) for _ in range(2))
    assert process_arrivals(v, tick=1) == reference_process_arrivals(ref, 1) == []
    assert v.status == IDLE and route_state(v) == route_state(ref)


def test_arrival_away_from_every_stop_changes_nothing():
    v = make_vehicle(loc=(0, 0), status=MATCHED)
    v.add_entry(entry(1, PASSENGER, (0, 2), (0, 4)))
    put(v, (0, 1))
    v.replan()
    assert process_arrivals(v, tick=1) == []
    assert v.status == MATCHED and not v.manifest[0].onboard


def test_serving_with_empty_plan_raises():
    grid = GridWorld(width=5, height=5)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING)
    with pytest.raises(VehicleStateError, match="vehicle 0: serving with an empty stop plan"):
        move(v.fleet, [v.id], grid)
    # a dispatching vehicle without a target, named among vehicles that can move
    vehicles = vehicles_in_table(grid, [(0, 0)] * 3, status=DISPATCHING)
    vehicles[0].dispatch_target = ZoneId(1, 1)
    with pytest.raises(VehicleStateError, match="vehicle 1: dispatching without a target"):
        move(vehicles[0].fleet, [0, 1, 2], grid)


def test_project_supply_all_idle():
    grid = GridWorld(width=6, height=6)
    fleet = vehicles_in_table(grid, [(2, 3)] * 7)[0].fleet
    snap = project_supply(fleet, grid)
    assert snap.available[2, 3] == 7
    assert snap.available.sum() == 7
    assert snap.available.dtype == np.float64
    assert snap.freeing.shape == (0, 3)


def test_project_supply_busy_vehicle_eta():
    grid = GridWorld(width=10, height=10)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING, seats_total=1, trunk_total=0)
    fleet = v.fleet
    v.add_entry(entry(1, PASSENGER, (0, 0), (0, 3), onboard=True))
    snap = project_supply(fleet, grid)
    assert snap.available.sum() == 0  # full vehicle
    assert snap.freeing.tolist() == [[3, 0, 3]]  # free in 3 ticks at (0, 3)
    move_one(v, grid)
    assert project_supply(fleet, grid).freeing.tolist() == [[2, 0, 3]]


def test_project_supply_counts_vehicles_by_zone_from_the_table():
    # vehicles move and fill up after the table is built; the counts follow
    grid = GridWorld(width=4, height=3)
    vehicles = vehicles_in_table(grid, [(0, 0), (0, 0), (2, 3), (1, 2)], status=DISPATCHING,
                                 seats_total=1, trunk_total=0)
    fleet = vehicles[0].fleet
    vehicles[0].dispatch_target = ZoneId(0, 1)
    move_one(vehicles[0], grid)
    vehicles[2].add_entry(entry(1, PASSENGER, (2, 3), (2, 1), onboard=True))
    want = np.zeros((3, 4))
    for v in vehicles:
        if any(c > 0 for c in free_capacity(v)):
            want[v.location] += 1
    got = project_supply(fleet, grid).available
    assert got.tolist() == want.tolist()
    assert got.tolist() == [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]


def table_as_counted(vehicles, grid):
    """Each fleet table column as the vehicles' own fields and manifests
    give it."""
    def count(v, kind=None, onboard=False):
        return sum((kind is None or e.kind == kind) and (e.onboard or not onboard)
                   for e in v.manifest)

    return {
        "status": [STATUS_CODE[v.status] for v in vehicles],
        "zone": [v.location.row * grid.width + v.location.col for v in vehicles],
        "seats_free": [v.seats_total - count(v, PASSENGER) for v in vehicles],
        "trunk_free": [v.trunk_total - count(v, GOODS) for v in vehicles],
        "onboard": [count(v, onboard=True) for v in vehicles],
    }


def table_as_stored(fleet):
    return {name: getattr(fleet, name).tolist()
            for name in ("status", "zone", "seats_free", "trunk_free", "onboard")}


@pytest.mark.parametrize("speed", [1, 2, 3])
def test_fleet_table_follows_random_operations(speed):
    # status changes, added entries, moves and arrivals in random order on a
    # 5 x 5 grid; after each one every column equals what the vehicles say
    rng = np.random.default_rng(70 + speed)
    grid = GridWorld(width=5, height=5, vehicle_speed=speed)

    def zone():
        return ZoneId(int(rng.integers(5)), int(rng.integers(5)))

    specs = [(zone(), int(rng.integers(0, 3)), int(rng.integers(0, 3))) for _ in range(8)]
    vehicles = vehicles_in_table(grid, [loc for loc, _, _ in specs],
                                 seats_total=[seats for _, seats, _ in specs],
                                 trunk_total=[trunk for _, _, trunk in specs])
    fleet = vehicles[0].fleet
    assert table_as_stored(fleet) == table_as_counted(vehicles, grid)
    next_status = {IDLE: DISPATCHING, DISPATCHING: DISPATCHED, DISPATCHED: MATCHED,
                   MATCHED: SERVING, SERVING: IDLE}
    seen = set()
    for step in range(3000):
        v = vehicles[int(rng.integers(len(vehicles)))]
        op = int(rng.integers(4))
        if op == 0 and (v.status != SERVING or not v.manifest):
            if v.status == IDLE:
                v.dispatch_target = zone()
            v.set_status(next_status[v.status])
        elif op == 1 and v.status in (DISPATCHED, MATCHED, SERVING):
            kind = PASSENGER if rng.random() < 0.5 else GOODS
            if free_capacity(v)[kind == GOODS] > 0:
                origin, dest = zone(), zone()
                while dest == origin:
                    dest = zone()
                v.add_entry(ManifestEntry(step, kind, origin, dest))
                if v.status != MATCHED:
                    v.set_status(MATCHED)
        elif op == 2 and v.status in (DISPATCHING, MATCHED, SERVING):
            if v.status == DISPATCHING or v.stops:
                move_one(v, grid)
        elif op == 3:
            process_arrivals(v, step)
        else:
            continue
        seen.add((op, v.status))
        assert table_as_stored(fleet) == table_as_counted(vehicles, grid), step
        assert fleet.first_stale() is None, step
    # every operation ran, and vehicles passed through every status
    assert {op for op, _ in seen} == {0, 1, 2, 3}
    assert {status for _, status in seen} == {IDLE, DISPATCHING, DISPATCHED, MATCHED, SERVING}


def test_fleet_table_masks_and_rows():
    grid = GridWorld(width=4, height=4)
    statuses = [IDLE, DISPATCHING, DISPATCHED, MATCHED, SERVING, IDLE]
    vehicles = vehicles_in_table(grid, [(vid % 4, 1) for vid in range(6)], status=statuses)
    fleet = vehicles[0].fleet
    assert fleet.vehicles is vehicles
    assert np.flatnonzero(fleet.mask(IDLE)).tolist() == [0, 5]
    assert np.flatnonzero(fleet.mask(DISPATCHING, MATCHED, SERVING)).tolist() == [1, 3, 4]
    assert fleet.row(4) == {"status": STATUS_CODE[SERVING], "zone": 0 * 4 + 1, "target": -1,
                            "seats_free": 4, "trunk_free": 5, "onboard": 0, "pending": 0,
                            "driven": 0}
    assert all(v.fleet is fleet for v in vehicles)


def test_fleet_table_holds_vehicles_in_id_order():
    grid = GridWorld(width=4, height=4)

    def bare(vid):
        return VehicleState(id=vid, seats_total=4, trunk_total=5)

    with pytest.raises(ValueError, match="vehicles 0..n-1 in id order"):
        FleetTable([bare(1), bare(0)], grid, [ZoneId(0, 0)] * 2)
    with pytest.raises(ValueError, match="vehicles 0..n-1 in id order"):
        FleetTable([bare(0), bare(2)], grid, [ZoneId(0, 0)] * 2)
    with pytest.raises(ValueError, match="one location per vehicle"):
        FleetTable([bare(0), bare(1)], grid, [ZoneId(0, 0)])


def test_fleet_table_marks_off_grid_zones():
    # the zone column holds only zones of the grid (row * width + col): a
    # location is checked once, when the table is built, and an off-grid one
    # is refused there; the engine moves a vehicle only toward a stop or a
    # dispatch target, zones of the grid
    grid = GridWorld(width=4, height=3)
    vs = vehicles_in_table(grid, [(0, 0), (2, 3), (1, 0)])
    assert vs[0].fleet.zone.tolist() == [0, 11, 4]
    v = vs[2]
    v.set_status(DISPATCHING)
    v.dispatch_target = ZoneId(2, 3)
    move_one(v, grid)
    assert (v.location, v.fleet.zone[2]) == (ZoneId(2, 0), 8)
    for row, col in [(3, 0), (0, 4), (-1, 2), (1, -1), (12, 3)]:
        with pytest.raises(InvalidZoneError, match=rf"zone \({row}, {col}\) outside 3x4 grid"):
            vehicles_in_table(grid, [(0, 0), (2, 3), (row, col)])


def capacity_row(v):
    """A vehicle's capacity columns in its table row, in ``tallies`` order."""
    row = v.fleet.row(v.id)
    return row["seats_free"], row["trunk_free"], row["onboard"], row["pending"]


def test_tallies_recounted_with_the_stop_plan():
    grid = GridWorld(width=5, height=5)
    v = make_vehicle(loc=(0, 0), grid=grid, status=MATCHED)
    assert capacity_row(v) == v.tallies() == (4, 5, 0, 0)
    v.add_entry(entry(1, PASSENGER, (0, 0), (0, 2)))
    v.add_entry(entry(2, GOODS, (0, 0), (0, 1)))
    v.add_entry(entry(3, PASSENGER, (0, 1), (0, 3)))
    assert capacity_row(v) == v.tallies() == (2, 4, 0, 3)
    seen = []
    for tick in range(5):
        process_arrivals(v, tick)
        seen.append(capacity_row(v))
        assert seen[-1] == v.tallies()
        move_one(v, grid)
    # picked up 1 and 2 at (0, 0); dropped 2 and picked up 3 at (0, 1);
    # dropped 1 at (0, 2) and 3 at (0, 3)
    assert seen[:4] == [(2, 4, 2, 1), (2, 5, 2, 0), (3, 5, 1, 0), (4, 5, 0, 0)]
    assert v.status == IDLE


def reference_planned_stops(v):
    """planned_stops as it was before it kept plain lists of zones: each
    candidate a (distance, zone, request id) tuple, pickups and drops dicts
    rebuilt at every stop. Also returns how many stops broke a distance tie
    between distinct zones."""
    pos = v.location
    cum = 0
    ties = 0
    pickups = {e.request_id: e for e in v.manifest if not e.onboard}
    drops = {e.request_id: e for e in v.manifest if e.onboard}
    stops = []
    while pickups or drops:
        if pickups:
            cands = [(manhattan(pos, e.origin), e.origin, rid) for rid, e in pickups.items()]
        else:
            cands = [(manhattan(pos, e.destination), e.destination, rid)
                     for rid, e in drops.items()]
        dist, zone, _ = min(cands)
        ties += any(d == dist and z != zone for d, z, _ in cands)
        cum += manhattan(pos, zone)
        pos = zone
        stops.append((zone, cum))
        for rid in [rid for rid, e in pickups.items() if e.origin == zone]:
            drops[rid] = pickups.pop(rid)
        for rid in [rid for rid, e in drops.items() if e.destination == zone]:
            drops.pop(rid)
    return stops, ties


def test_planned_stops_equal_the_reference():
    # a 4 x 4 grid makes equal distances, shared pickup zones and drops at a
    # pickup zone common
    rng = np.random.default_rng(11)

    def zone():
        return ZoneId(int(rng.integers(4)), int(rng.integers(4)))

    ties = colocated = 0
    for _ in range(3000):
        v = make_vehicle(loc=zone(), grid=GridWorld(width=4, height=4), status=MATCHED,
                         seats_total=9, trunk_total=9)
        for rid in rng.permutation(int(rng.integers(0, 9))):
            e = ManifestEntry(int(rid), PASSENGER if rng.random() < 0.5 else GOODS, zone(), zone())
            e.onboard = bool(rng.random() < 0.4)
            v.manifest.append(e)
        want, tied = reference_planned_stops(v)
        assert v.planned_stops() == want
        ties += tied
        pending = {e.origin for e in v.manifest if not e.onboard}
        colocated += any(e.destination in pending for e in v.manifest)
    assert ties > 1000 and colocated > 1000


def reference_process_arrivals(v, tick):
    """process_arrivals as it was before it advanced the plan: every
    resolution rebuilds the stop plan with replan()."""
    events = []
    if v.status == DISPATCHING and v.location == v.dispatch_target:
        v.dispatch_target = None
        v.set_status(DISPATCHED)
    if v.status in (MATCHED, SERVING):
        if v.manifest and all(zone != v.location for zone, _ in v.stops):
            return events
        for e in [e for e in v.manifest if e.onboard and e.destination == v.location]:
            v.manifest.remove(e)
            events.append(DropEvent(e.request_id, v.id, v.location, tick))
        picked = False
        for e in v.manifest:
            if not e.onboard and e.origin == v.location:
                e.onboard = True
                picked = True
                events.append(PickupEvent(e.request_id, v.id, v.location, tick))
        if events:
            v.replan()
        if picked and v.status == MATCHED:
            v.set_status(SERVING)
        if v.status == SERVING and not v.manifest:
            v.set_status(IDLE)
    return events


def route_state(v):
    """What a vehicle's route is, whichever distance the stored plan is
    measured from: the plan and its zone index as seen from the vehicle,
    and its table row but for the odometer."""
    index = {zone: cum - v.driven for zone, cum in v.zone_index.items()}
    row = {name: value for name, value in v.fleet.row(v.id).items() if name != "driven"}
    return (v.status, v.location, v.manifest, v.remaining_stops(), index, row)


def drive_against_the_reference(got, want, grid, tick=0, ticks=60):
    """Alternate arrivals and moves on two copies of a vehicle, two rows of
    one table moved in one pass, one through process_arrivals and one
    through the reference, asserting equal events and states; returns how
    many arrivals resolved at the plan's first stop and how many resolved
    elsewhere on the plan."""
    at_first = elsewhere = 0
    for tick in range(tick, tick + ticks):
        first = got.stops[0][0] if got.stops else None
        events = process_arrivals(got, tick)
        want_events = reference_process_arrivals(want, tick)
        assert events == [e._replace(vehicle_id=got.id) for e in want_events], tick
        assert route_state(got) == route_state(want), tick
        if events:
            at_first += first == got.location
            elsewhere += first != got.location
        if got.status == IDLE:
            break
        move(got.fleet, [got.id, want.id], grid)
    return at_first, elsewhere


def test_advanced_plan_equals_the_replanned_one():
    # a vehicle standing on its plan's first stop drops that stop; anywhere
    # else a resolution replans; both must match replanning every time
    rng = np.random.default_rng(14)
    at_first = elsewhere = 0
    for trial in range(3000):
        grid = GridWorld(width=5, height=5, vehicle_speed=1 + trial % 2)

        def zone():
            return ZoneId(int(rng.integers(5)), int(rng.integers(5)))

        start = zone()
        entries = []
        for rid in range(int(rng.integers(1, 7))):
            origin, dest = zone(), zone()
            while dest == origin:  # a request never ends where it starts
                dest = zone()
            entries.append((rid, GOODS if rng.random() < 0.5 else PASSENGER, origin, dest,
                            bool(rng.random() < 0.4)))
        # a matched vehicle still has a pickup ahead
        pending = not all(onboard for *_, onboard in entries)
        status = MATCHED if pending and rng.random() < 0.5 else SERVING
        pair = vehicles_in_table(grid, [start] * 2, status=status, seats_total=9, trunk_total=9)
        for v in pair:
            for e in entries:
                v.add_entry(ManifestEntry(*e))
        got, want = pair
        a, b = drive_against_the_reference(got, want, grid, ticks=int(rng.integers(1, 20)))
        at_first, elsewhere = at_first + a, elsewhere + b
        # new work mid-route, as matching adds it, then on to the end
        rid = len(entries)
        origin, dest = zone(), zone()
        if dest != origin and got.status != IDLE and free_capacity(got)[0]:
            for v in pair:
                v.add_entry(ManifestEntry(rid, PASSENGER, origin, dest))
        a, b = drive_against_the_reference(got, want, grid, tick=20)
        at_first, elsewhere = at_first + a, elsewhere + b
        assert not got.manifest or got.status != IDLE
    assert at_first > 5000 and elsewhere > 500


def test_advanced_plan_at_a_zone_planned_twice():
    # the plan visits (0, 1) twice: to drop 1 and pick up 3, and later to
    # drop 2, picked up at (0, 3)
    grid = GridWorld(width=6, height=1)
    pair = vehicles_in_table(grid, [(0, 0)] * 2, status=SERVING)
    for v in pair:
        v.add_entry(entry(1, PASSENGER, (0, 0), (0, 1), onboard=True))
        v.add_entry(entry(2, PASSENGER, (0, 3), (0, 1)))
        v.add_entry(entry(3, GOODS, (0, 1), (0, 5)))
    got, want = pair
    assert got.remaining_stops() == [(ZoneId(0, 1), 1), (ZoneId(0, 3), 3), (ZoneId(0, 1), 5),
                                     (ZoneId(0, 5), 9)]
    assert drive_against_the_reference(got, want, grid) == (4, 0)
    assert got.status == IDLE and not got.manifest


def test_drop_on_the_way_to_a_pickup_replans():
    # pickups come first, so the drop at (0, 2) is planned after the pickup
    # at (0, 4); the vehicle passes (0, 2) on its way and drops there
    grid = GridWorld(width=6, height=1)
    pair = vehicles_in_table(grid, [(0, 0)] * 2, status=SERVING)
    for v in pair:
        v.add_entry(entry(1, PASSENGER, (0, 0), (0, 2), onboard=True))
        v.add_entry(entry(2, PASSENGER, (0, 4), (0, 3)))
    got, want = pair
    assert got.remaining_stops() == [(ZoneId(0, 4), 4), (ZoneId(0, 3), 5), (ZoneId(0, 2), 6)]
    assert drive_against_the_reference(got, want, grid, ticks=3) == (0, 1)
    assert got.remaining_stops() == [(ZoneId(0, 4), 1), (ZoneId(0, 3), 2)]
    assert drive_against_the_reference(got, want, grid, tick=3) == (2, 0)
    assert got.status == IDLE


def assert_plan_is_fresh(v):
    """The stored plan seen from the vehicle, its zone index and its route
    ETA equal those of a plan built from scratch."""
    fresh = v.planned_stops()
    assert v.remaining_stops() == fresh
    assert {zone: cum - v.driven for zone, cum in v.zone_index.items()} == stop_index(fresh)
    assert v.zone_index == stop_index(v.stops)
    for speed in (1, 2, 3):
        assert v.route_eta(speed) == (math.ceil(fresh[-1][1] / speed) if fresh else 0)


def interleave(v, grid, rng, new_entry, steps):
    """Random moves, arrivals and added entries, as the engine's phases make
    them, checking the plan after each; returns how often the first stop was
    dropped at a zone planned again later, and how often a vehicle that had
    moved replanned."""
    repeated = replanned = 0
    for tick in range(steps):
        if v.status == IDLE:
            break
        action = rng.integers(3)
        first, driven = v.stops[0] if v.stops else (None, 0), v.driven
        if action == 0:
            move_one(v, grid)
        elif action == 1:
            if process_arrivals(v, tick) and first[0] == v.location:
                repeated += v.location in v.zone_index
            replanned += driven > 0 and v.driven == 0
        elif all(free_capacity(v)):
            v.add_entry(new_entry(len(v.manifest) + 100 * tick))
            replanned += driven > 0
            if v.status == SERVING:
                v.set_status(MATCHED)
        assert_plan_is_fresh(v)
    return repeated, replanned


@pytest.mark.parametrize("speed", [1, 2, 3])
def test_odometer_and_zone_index_equal_a_fresh_plan(speed):
    # random manifests on a 5 x 5 grid, where shared zones and zones planned
    # twice are common; a dispatching vehicle drives to its target and its
    # plan stays where it was built
    rng = np.random.default_rng(50 + speed)
    grid = GridWorld(width=5, height=5, vehicle_speed=speed)

    def zone():
        return ZoneId(int(rng.integers(5)), int(rng.integers(5)))

    def new_entry(rid, onboard=False):
        origin, dest = zone(), zone()
        while dest == origin:  # a request never ends where it starts
            dest = zone()
        return ManifestEntry(rid, GOODS if rng.random() < 0.5 else PASSENGER, origin, dest,
                             onboard)

    repeated = replanned = frozen = 0
    for trial in range(400):
        v = make_vehicle(loc=zone(), grid=grid, status=DISPATCHING, seats_total=6, trunk_total=6)
        v.dispatch_target = zone()
        for rid in range(int(rng.integers(0, 3))):
            v.add_entry(new_entry(rid, onboard=bool(rng.random() < 0.5)))
        built = (list(v.stops), v.driven, dict(v.zone_index))
        while v.status == DISPATCHING:
            process_arrivals(v, trial)
            frozen += move_one(v, grid) > 0 and bool(v.stops)
            assert (v.stops, v.driven, v.zone_index) == built
        v.add_entry(new_entry(99))
        v.set_status(MATCHED)
        assert_plan_is_fresh(v)
        a, b = interleave(v, grid, rng, new_entry, steps=60)
        repeated, replanned = repeated + a, replanned + b
    assert repeated > 20 and replanned > 100 and frozen > 100


@pytest.mark.parametrize("speed", [1, 2, 3])
def test_odometer_through_a_zone_planned_twice(speed):
    # (0, 1) is the plan's first stop and its third; once the first is
    # dropped, the index must point at the third
    grid = GridWorld(width=6, height=1, vehicle_speed=speed)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING)
    v.add_entry(entry(1, PASSENGER, (0, 0), (0, 1), onboard=True))
    v.add_entry(entry(2, PASSENGER, (0, 3), (0, 1)))
    v.add_entry(entry(3, GOODS, (0, 1), (0, 5)))
    assert v.stops == [(ZoneId(0, 1), 1), (ZoneId(0, 3), 3), (ZoneId(0, 1), 5), (ZoneId(0, 5), 9)]
    indexes = []
    for tick in range(20):
        process_arrivals(v, tick)
        assert_plan_is_fresh(v)
        indexes.append(dict(v.zone_index))
        move_one(v, grid)
        assert_plan_is_fresh(v)
    assert v.status == IDLE
    assert {ZoneId(0, 3): 3, ZoneId(0, 1): 5, ZoneId(0, 5): 9} in indexes
