import math
from types import SimpleNamespace

import numpy as np
import pytest

from hopfleet.demand import GOODS, PASSENGER, URGENCY
from hopfleet.fleet import (
    ALLOWED_TRANSITIONS,
    DISPATCHED,
    DISPATCHING,
    IDLE,
    SERVING,
    STATUS_CODE,
    VEHICLE_STATUSES,
    DESTINATION,
    DROP_CUM,
    ONBOARD,
    REQUEST,
    FleetSnapshot,
    FleetTable,
    VehicleState,
    VehicleStateError,
    fleet_columns,
    late_orders,
    move,
    process_arrivals,
    project_supply,
    stop_index,
)
from hopfleet.geo import GridWorld, InvalidZoneError, ZoneId, manhattan
from hopfleet.reward import RewardWeights, agent_reward

from fleet_rows import (
    ManifestEntry,
    add,
    aim_at,
    flat,
    free_capacity,
    manifest,
    odometer,
    put,
    reference_process_arrivals,
    route_state,
    vehicles_in_table,
    zoned,
)


def make_vehicle(loc=(0, 0), grid=GridWorld(width=10, height=10), **kw):
    """Vehicle 0 of a table of its own on ``grid``."""
    return vehicles_in_table(grid, [loc], **kw)[0]


def move_one(v, grid):
    """The steps moved in a column pass over vehicle ``v``'s table, where
    no other vehicle can move."""
    return move(v.fleet, grid)[0]


def entry(rid, kind, origin, dest, onboard=False):
    return ManifestEntry(rid, kind, ZoneId(*origin), ZoneId(*dest), onboard)


def test_availability_examples():
    v, full, partial = vehicles_in_table(GridWorld(width=4, height=4), [(0, 0)] * 3)
    fleet = v.fleet
    assert free_capacity(v) == (4, 5)

    for i in range(4):
        add(full, entry(i, PASSENGER, (1, 1), (2, 2), onboard=True))
    for i in range(5):
        add(full, entry(10 + i, GOODS, (1, 1), (2, 2), onboard=True))
    assert free_capacity(full) == (0, 0)

    add(partial, entry(0, PASSENGER, (1, 1), (2, 2), onboard=True))
    add(partial, entry(1, PASSENGER, (1, 1), (3, 3), onboard=True))
    assert free_capacity(partial) == (2, 5)
    assert fleet.available().tolist() == [True, False, True]
    assert (fleet.seats_free.tolist(), fleet.trunk_free.tolist()) == ([4, 0, 2], [5, 0, 5])


def test_capacity_guard_on_add():
    v = make_vehicle(seats_total=1, trunk_total=0)
    add(v, entry(0, PASSENGER, (1, 1), (2, 2)))
    with pytest.raises(VehicleStateError):
        add(v, entry(1, PASSENGER, (1, 1), (2, 2)))
    with pytest.raises(VehicleStateError):
        add(v, entry(2, GOODS, (1, 1), (2, 2)))


def test_status_transition_graph_enforced():
    # the lifecycle is one cycle, idle -> dispatching -> dispatched ->
    # serving -> idle; each of the other 12 ordered pairs is refused
    cycle = [IDLE, DISPATCHING, DISPATCHED, SERVING]
    edges = set(zip(cycle, cycle[1:] + cycle[:1]))
    assert VEHICLE_STATUSES == tuple(cycle) and ALLOWED_TRANSITIONS == edges
    refused = 0
    for old in cycle:
        for new in cycle:
            v = make_vehicle(status=old)
            if (old, new) in edges:
                v.set_status(new)
                assert v.status == new
            else:
                with pytest.raises(VehicleStateError,
                                   match=f"vehicle 0: illegal transition {old} -> {new}"):
                    v.set_status(new)
                assert v.status == old
                refused += 1
    assert refused == 12


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
    fleet.status[v.id] = STATUS_CODE[SERVING]
    assert v.status == SERVING and type(v.status) is str
    with pytest.raises(TypeError, match="status"):
        VehicleState(0, fleet, status=IDLE)


def test_table_dispatch_writes_what_set_status_and_the_target_write():
    # many idle vehicles sent at once write the rows that set_status and the
    # target write give one at a time; a vehicle that is not idle is named,
    # with set_status's message, and nothing is written
    grid = GridWorld(width=4, height=4)
    batch = vehicles_in_table(grid, [(1, 1)] * 4)
    single = vehicles_in_table(grid, [(1, 1)] * 4)
    batch[0].fleet.dispatch(np.array([1, 3]), np.array([5, 15]))
    for vid, zone in ((1, 5), (3, 15)):
        single[vid].set_status(DISPATCHING)
        single[vid].fleet.target[vid] = zone
    assert [v.fleet.row(v.id) for v in batch] == [v.fleet.row(v.id) for v in single]
    fleet = batch[0].fleet
    rows = [fleet.row(vid) for vid in range(4)]
    with pytest.raises(VehicleStateError,
                       match=f"vehicle 3: illegal transition {DISPATCHING} -> {DISPATCHING}"):
        fleet.dispatch(np.array([0, 3, 2]), np.array([1, 2, 3]))
    assert [fleet.row(vid) for vid in range(4)] == rows


def test_totals_are_the_table_columns_alone():
    # a table holds each vehicle's seats and trunk slots in its columns and
    # builds the vehicles as its rows, which hold none of their own
    grid = GridWorld(width=4, height=4)
    fleet = FleetTable(grid, [4, 0], [5, 2], [ZoneId(0, 0)] * 2)
    vehicles = fleet.vehicles
    assert (fleet.seats_total.tolist(), fleet.trunk_total.tolist()) == ([4, 0], [5, 2])
    assert all(v.fleet is fleet and vars(v).keys() == {"id", "fleet", "stops"} for v in vehicles)
    assert (fleet.seats_free.tolist(), fleet.trunk_free.tolist()) == ([4, 0], [5, 2])
    fleet.seats_total[1] = 3
    assert fleet_columns(fleet)["seats_free"].tolist() == [4, 3]
    assert fleet.orders.shape[2] == 9  # slots for the largest vehicle: 4 seats, 5 trunk slots


def test_dispatching_arrival_becomes_dispatched():
    v = make_vehicle(loc=(2, 2), status=DISPATCHING)
    aim_at(v, (2, 2))
    arrivals = process_arrivals(v)
    assert v.status == DISPATCHED
    assert v.fleet.target[v.id] == -1  # parked
    assert arrivals == ([], [])


def test_serving_last_delivery_goes_idle():
    v = make_vehicle(loc=(3, 3), status=SERVING)
    add(v, entry(7, PASSENGER, (1, 1), (3, 3), onboard=True))
    arrivals = process_arrivals(v)
    assert v.status == IDLE
    assert manifest(v) == []
    assert arrivals == ([7], [])


def test_idle_vehicle_unchanged_by_advance():
    grid = GridWorld(width=10, height=10)
    v = make_vehicle(loc=(4, 4), grid=grid)
    arrivals = process_arrivals(v)
    moved = move(v.fleet, grid)
    assert (v.status, v.location, arrivals, moved) == (IDLE, ZoneId(4, 4), ([], []), (0, 0))
    assert v.fleet.arriving == []


def test_arrival_at_pickup_keeps_serving():
    v = make_vehicle(loc=(1, 1), status=SERVING)
    add(v, entry(3, GOODS, (1, 1), (5, 5)))
    arrivals = process_arrivals(v)
    assert v.status == SERVING
    assert manifest(v)[0].onboard
    assert arrivals == ([], [3])


def test_move_respects_speed_and_row_first():
    grid = GridWorld(width=10, height=10, vehicle_speed=2)
    v = make_vehicle(loc=(0, 0), grid=grid, status=DISPATCHING)
    aim_at(v, (3, 1))
    assert move(v.fleet, grid) == (2, 0)  # a dispatch drive is not service
    assert (v.location, odometer(v), v.fleet.arriving) == (ZoneId(2, 0), 0, [])
    assert move(v.fleet, grid) == (2, 0)
    assert (v.location, v.fleet.arriving) == (ZoneId(3, 1), [v.id])


def reference_move(v, grid):
    """move as it was before it reached its position in one step: one
    vehicle, one lattice step at a time, row coordinate first; it subtracts
    the steps moved from the stored plan's distances instead of keeping an
    odometer."""
    if v.status not in (DISPATCHING, SERVING):
        return 0
    target = divmod(v.fleet.target.item(v.id) if v.status == DISPATCHING else v.stops[0][0],
                    grid.width)
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
        statuses = [VEHICLE_STATUSES[int(s)] for s in rng.integers(4, size=n)]
        starts = [zone(height, width) for _ in range(n)]
        got, want = (vehicles_in_table(grid, starts, status=statuses) for _ in range(2))
        for vid, status in enumerate(statuses):
            target = zone(height, width)
            entries = [(int(rng.integers(2)), zone(height, width), zone(height, width))
                       for _ in range(int(rng.integers(1, 4)))]
            for v in (got[vid], want[vid]):
                if status == DISPATCHING:
                    aim_at(v, target)
                elif status == SERVING:
                    for rid, (onboard, origin, dest) in enumerate(entries):
                        add(v, entry(rid, PASSENGER, origin, dest, onboard=bool(onboard)))
        fleet = got[0].fleet
        for _ in range(3):  # consecutive moves, up to and past the targets
            steps = [reference_move(v, grid) for v in want]
            busy = [s for s, status in zip(steps, statuses) if status == SERVING]
            assert move(fleet, grid) == (sum(steps), sum(busy)), trial
            for g, w in zip(got, want):
                assert (g.location, g.remaining_stops()) == (w.location, w.stops), trial
                assert type(g.location) is ZoneId
            assert fleet.first_stale() is None, trial


def test_location_changes_at_most_speed_per_tick():
    grid = GridWorld(width=20, height=20, vehicle_speed=3)
    rng = np.random.default_rng(0)
    v = make_vehicle(loc=(10, 10), grid=grid, status=DISPATCHING)
    for _ in range(30):
        aim_at(v, (int(rng.integers(20)), int(rng.integers(20))))  # roam on
        before = v.location
        moved, _ = move(v.fleet, grid)
        assert moved <= 3
        assert grid.distance(before, v.location) == moved


def test_move_leaves_only_vehicles_that_can_resolve():
    # on the way to a pickup at (0, 3), both twins stand on (0, 1), a zone of
    # their plans: the drop zone of the order still to be picked up, where
    # nothing resolves, and for the loaded twin also of an onboard order
    grid = GridWorld(width=6, height=1)
    empty, loaded = vehicles_in_table(grid, [(0, 0)] * 2, status=SERVING)
    for v in (empty, loaded):
        add(v, entry(1, PASSENGER, (0, 3), (0, 1)))
    add(loaded, entry(2, PASSENGER, (0, 0), (0, 1), onboard=True))
    move(empty.fleet, grid)
    assert empty.location == loaded.location == ZoneId(0, 1)
    assert all(flat(v, (0, 1)) in stop_index(v.stops) for v in (empty, loaded))
    assert empty.fleet.arriving == [loaded.id]
    assert process_arrivals(empty) == ([], [])
    assert process_arrivals(loaded) == ([2], [])


def test_move_leaves_out_a_vehicle_on_a_planned_zone_where_nothing_resolves():
    # a vehicle with an onboard order bound for (0, 5) and a pickup ahead at
    # (0, 3) stands on (0, 1), the drop zone of the order still to be picked
    # up: a zone of its plan, but no order of its resolves there
    grid = GridWorld(width=6, height=1)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING)
    add(v, entry(1, PASSENGER, (0, 0), (0, 5), onboard=True))
    add(v, entry(2, PASSENGER, (0, 3), (0, 1)))
    move_one(v, grid)
    assert v.location == ZoneId(0, 1) and flat(v, (0, 1)) in stop_index(v.stops)
    assert v.fleet.arriving == []
    assert process_arrivals(v) == ([], [])


def test_goods_drop_at_hub_reports_drop_event():
    # the fleet reports a drop the same way for every leg; the engine decides
    # from its leg table whether the package is delivered or handed off
    v = make_vehicle(loc=(0, 4), status=SERVING)
    add(v, entry(5, GOODS, (0, 0), (0, 4), onboard=True))
    assert process_arrivals(v) == ([5], [])
    assert v.status == IDLE


def test_planned_stops_pickups_before_deliveries():
    v = make_vehicle(loc=(0, 0), status=SERVING)
    add(v, entry(1, PASSENGER, (0, 5), (0, 9), onboard=False))
    add(v, entry(2, PASSENGER, (0, 2), (0, 1), onboard=False))
    zones = [z for z, _ in zoned(v, v.planned_stops())]
    assert zones[0] == ZoneId(0, 2)  # nearest pickup first
    assert zones[1] == ZoneId(0, 5)
    assert set(zones[2:]) == {ZoneId(0, 9), ZoneId(0, 1)}
    assert v.stops == v.planned_stops()


def onboard_etas(v, speed):
    """Each onboard order's ETA as the engine settles it: its drop_cum, the
    first planned stop at its destination, through the odometer."""
    cols = v.rows()
    return {rid: v.ticks_to(cum, speed)
            for rid, cum, on in zip(cols[REQUEST], cols[DROP_CUM], cols[ONBOARD]) if on}


def test_onboard_etas_follow_stop_plan():
    grid = GridWorld(width=7, height=1)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING)
    add(v, entry(1, PASSENGER, (0, 0), (0, 4), onboard=True))
    add(v, entry(2, PASSENGER, (0, 0), (0, 6), onboard=True))
    assert onboard_etas(v, speed=1) == {1: 4, 2: 6}
    assert v.route_eta(speed=1) == 6
    assert v.route_eta(speed=2) == 3
    move_one(v, grid)
    assert odometer(v) == 1 and zoned(v, v.stops) == [(ZoneId(0, 4), 4), (ZoneId(0, 6), 6)]
    assert onboard_etas(v, speed=1) == {1: 3, 2: 5}
    assert onboard_etas(v, speed=2) == {1: 2, 2: 3}
    assert v.route_eta(speed=1) == 5


def test_onboard_etas_take_the_first_stop_at_a_zone():
    # (0, 1) is planned twice: first to pick up 3 and drop the onboard 1,
    # then to drop 2, picked up at (0, 3)
    v = make_vehicle(loc=(0, 0), status=SERVING)
    add(v, entry(1, PASSENGER, (0, 0), (0, 1), onboard=True))
    add(v, entry(2, PASSENGER, (0, 3), (0, 1)))
    add(v, entry(3, GOODS, (0, 1), (0, 5)))
    assert zoned(v, v.stops) == [(ZoneId(0, 1), 1), (ZoneId(0, 3), 3), (ZoneId(0, 1), 5),
                                 (ZoneId(0, 5), 9)]
    assert dict(zoned(v, stop_index(v.stops).items())) == {ZoneId(0, 1): 1, ZoneId(0, 3): 3,
                                                          ZoneId(0, 5): 9}
    assert onboard_etas(v, speed=1) == {1: 1}
    assert onboard_etas(v, speed=2) == {1: 1}


def test_serving_without_manifest_goes_idle_on_arrival():
    v, ref = (make_vehicle(loc=(3, 3), status=SERVING) for _ in range(2))
    assert process_arrivals(v) == reference_process_arrivals(ref) == ([], [])
    assert v.status == IDLE and route_state(v) == route_state(ref)


def test_arrival_away_from_every_stop_changes_nothing():
    v = make_vehicle(loc=(0, 0), status=SERVING)
    add(v, entry(1, PASSENGER, (0, 2), (0, 4)))
    put(v, (0, 1))
    v.replan()
    assert process_arrivals(v) == ([], [])
    assert v.status == SERVING and not manifest(v)[0].onboard


def test_serving_with_empty_plan_raises():
    grid = GridWorld(width=5, height=5)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING)
    with pytest.raises(VehicleStateError, match="vehicle 0: serving with an empty stop plan"):
        move(v.fleet, grid)
    # a dispatching vehicle without a target, named among vehicles that can move
    vehicles = vehicles_in_table(grid, [(0, 0)] * 3, status=DISPATCHING)
    aim_at(vehicles[0], (1, 1))
    with pytest.raises(VehicleStateError, match="vehicle 1: dispatching without a target"):
        move(vehicles[0].fleet, grid)


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
    add(v, entry(1, PASSENGER, (0, 0), (0, 3), onboard=True))
    snap = project_supply(fleet, grid)
    assert snap.available.sum() == 0  # full vehicle
    assert snap.freeing.tolist() == [[3, 0, 3]]  # free in 3 ticks at (0, 3)
    move_one(v, grid)
    assert project_supply(fleet, grid).freeing.tolist() == [[2, 0, 3]]


def test_project_supply_counts_vehicles_by_zone_from_the_table():
    # vehicles move and fill up after the table is built; the counts follow
    grid = GridWorld(width=4, height=3)
    vehicles = vehicles_in_table(grid, [(0, 0), (0, 0), (2, 3), (1, 2)],
                                 status=[DISPATCHING] + [DISPATCHED] * 3,  # one drives, 3 wait
                                 seats_total=1, trunk_total=0)
    fleet = vehicles[0].fleet
    aim_at(vehicles[0], (0, 1))
    move_one(vehicles[0], grid)
    add(vehicles[2], entry(1, PASSENGER, (2, 3), (2, 1), onboard=True))
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
                   for e in manifest(v))

    return {
        "status": [STATUS_CODE[v.status] for v in vehicles],
        "zone": [v.location.row * grid.width + v.location.col for v in vehicles],
        "seats_free": [v.fleet.seats_total[v.id] - count(v, PASSENGER) for v in vehicles],
        "trunk_free": [v.fleet.trunk_total[v.id] - count(v, GOODS) for v in vehicles],
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
    next_status = {IDLE: DISPATCHING, DISPATCHING: DISPATCHED, DISPATCHED: SERVING,
                   SERVING: IDLE}
    seen = set()
    for step in range(3000):
        v = vehicles[int(rng.integers(len(vehicles)))]
        op = int(rng.integers(4))
        if op == 0 and (v.status != SERVING or not manifest(v)):
            if v.status == IDLE:
                aim_at(v, zone())
            v.set_status(next_status[v.status])
        elif op == 1 and v.status in (DISPATCHED, SERVING):
            kind = PASSENGER if rng.random() < 0.5 else GOODS
            if free_capacity(v)[kind == GOODS] > 0:
                origin, dest = zone(), zone()
                while dest == origin:
                    dest = zone()
                add(v, ManifestEntry(step, kind, origin, dest))
                if v.status == DISPATCHED:
                    v.set_status(SERVING)
        elif op == 2 and (fleet.target[fleet.mask(DISPATCHING, SERVING)] >= 0).all():
            move(fleet, grid)  # every vehicle that is not parked has an objective
        elif op == 3:
            process_arrivals(v)
        else:
            continue
        seen.add((op, v.status))
        assert table_as_stored(fleet) == table_as_counted(vehicles, grid), step
        assert fleet.first_stale() is None, step
    # every operation ran, and vehicles passed through every status
    assert {op for op, _ in seen} == {0, 1, 2, 3}
    assert {status for _, status in seen} == set(VEHICLE_STATUSES)


def test_fleet_table_masks_and_rows():
    grid = GridWorld(width=4, height=4)
    statuses = [IDLE, DISPATCHING, DISPATCHED, SERVING, SERVING, IDLE]
    vehicles = vehicles_in_table(grid, [(vid % 4, 1) for vid in range(6)], status=statuses)
    fleet = vehicles[0].fleet
    assert fleet.vehicles is vehicles
    assert np.flatnonzero(fleet.mask(IDLE)).tolist() == [0, 5]
    assert np.flatnonzero(fleet.mask(DISPATCHING, SERVING)).tolist() == [1, 3, 4]
    assert fleet.row(4) == {"status": STATUS_CODE[SERVING], "zone": 0 * 4 + 1, "target": -1,
                            "seats_free": 4, "trunk_free": 5, "onboard": 0, "pending": 0,
                            "driven": 0}
    assert all(v.fleet is fleet for v in vehicles)


def test_fleet_table_mask_refuses_an_unknown_status():
    # a status the lifecycle does not have would select no vehicle; the
    # mask refuses it by name instead
    fleet = vehicles_in_table(GridWorld(width=4, height=4), [(0, 0)] * 2, status=SERVING)[0].fleet
    for statuses, unknown in ((("matched",), ["matched"]), ((SERVING, "matched"), ["matched"]),
                              (("parked", IDLE, "busy"), ["busy", "parked"])):
        with pytest.raises(ValueError) as refused:
            fleet.mask(*statuses)
        assert str(refused.value) == f"no vehicle status {unknown}"
    assert fleet.mask(SERVING).tolist() == [True, True]


def test_fleet_table_holds_vehicles_in_id_order():
    # the table builds vehicle i as its row i, one per location and pair of totals
    grid = GridWorld(width=4, height=4)
    fleet = FleetTable(grid, [4, 4], [5, 5], [ZoneId(0, 0)] * 2)
    assert [v.id for v in fleet.vehicles] == [0, 1]
    for seats, trunk, n in (([4, 4], [5, 5], 1), ([4], [5, 5], 2), ([4, 4], [5], 2)):
        with pytest.raises(ValueError, match="one location and one of each total per vehicle"):
            FleetTable(grid, seats, trunk, [ZoneId(0, 0)] * n)


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
    aim_at(v, (2, 3))
    move_one(v, grid)
    assert (v.location, v.fleet.zone[2]) == (ZoneId(2, 0), 8)
    for row, col in [(3, 0), (0, 4), (-1, 2), (1, -1), (12, 3)]:
        with pytest.raises(InvalidZoneError, match=rf"zone \({row}, {col}\) outside 3x4 grid"):
            vehicles_in_table(grid, [(0, 0), (2, 3), (row, col)])


CAPACITY = ("seats_free", "trunk_free", "onboard", "pending")


def capacity_row(v):
    """A vehicle's capacity columns in its table row."""
    row = v.fleet.row(v.id)
    return tuple(row[name] for name in CAPACITY)


def counted_capacity(v):
    """A vehicle's capacity columns as a fresh count of the order table gives them."""
    counted = fleet_columns(v.fleet)
    return tuple(int(counted[name][v.id]) for name in CAPACITY)


def test_tallies_recounted_with_the_stop_plan():
    grid = GridWorld(width=5, height=5)
    v = make_vehicle(loc=(0, 0), grid=grid, status=SERVING)
    assert capacity_row(v) == counted_capacity(v) == (4, 5, 0, 0)
    add(v, entry(1, PASSENGER, (0, 0), (0, 2)))
    add(v, entry(2, GOODS, (0, 0), (0, 1)))
    add(v, entry(3, PASSENGER, (0, 1), (0, 3)))
    assert capacity_row(v) == counted_capacity(v) == (2, 4, 0, 3)
    seen = []
    for _ in range(5):
        process_arrivals(v)
        seen.append(capacity_row(v))
        assert seen[-1] == counted_capacity(v)
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
    pickups = {e.request_id: e for e in manifest(v) if not e.onboard}
    drops = {e.request_id: e for e in manifest(v) if e.onboard}
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
        v = make_vehicle(loc=zone(), grid=GridWorld(width=4, height=4), status=SERVING,
                         seats_total=9, trunk_total=9)
        for rid in rng.permutation(int(rng.integers(0, 9))):
            add(v, ManifestEntry(int(rid), PASSENGER if rng.random() < 0.5 else GOODS,
                                      zone(), zone(), bool(rng.random() < 0.4)))
        want, tied = reference_planned_stops(v)
        assert zoned(v, v.planned_stops()) == want
        ties += tied
        pending = {e.origin for e in manifest(v) if not e.onboard}
        colocated += any(e.destination in pending for e in manifest(v))
    assert ties > 1000 and colocated > 1000


def drive_against_the_reference(got, want, grid, tick=0, ticks=60):
    """Alternate arrivals and moves on two copies of a vehicle, two rows of
    one table moved in one pass, one through process_arrivals and one
    through the reference, asserting equal drops, pickups and states;
    returns how many arrivals resolved at the plan's first stop and how
    many resolved elsewhere on the plan."""
    at_first = elsewhere = 0
    for tick in range(tick, tick + ticks):
        first = zoned(got, got.stops[:1])[0][0] if got.stops else None
        arrivals = process_arrivals(got)
        assert arrivals == reference_process_arrivals(want), tick
        assert route_state(got) == route_state(want), tick
        if any(arrivals):
            at_first += first == got.location
            elsewhere += first != got.location
        if got.status == IDLE:
            break
        move(got.fleet, grid)
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
        pair = vehicles_in_table(grid, [start] * 2, status=SERVING, seats_total=9, trunk_total=9)
        for v in pair:
            for e in entries:
                add(v, ManifestEntry(*e))
        got, want = pair
        a, b = drive_against_the_reference(got, want, grid, ticks=int(rng.integers(1, 20)))
        at_first, elsewhere = at_first + a, elsewhere + b
        # new work mid-route, as matching adds it, then on to the end
        rid = len(entries)
        origin, dest = zone(), zone()
        if dest != origin and got.status != IDLE and free_capacity(got)[0]:
            for v in pair:
                add(v, ManifestEntry(rid, PASSENGER, origin, dest))
        a, b = drive_against_the_reference(got, want, grid, tick=20)
        at_first, elsewhere = at_first + a, elsewhere + b
        assert not manifest(got) or got.status != IDLE
    assert at_first > 5000 and elsewhere > 500


def test_advanced_plan_at_a_zone_planned_twice():
    # the plan visits (0, 1) twice: to drop 1 and pick up 3, and later to
    # drop 2, picked up at (0, 3)
    grid = GridWorld(width=6, height=1)
    pair = vehicles_in_table(grid, [(0, 0)] * 2, status=SERVING)
    for v in pair:
        add(v, entry(1, PASSENGER, (0, 0), (0, 1), onboard=True))
        add(v, entry(2, PASSENGER, (0, 3), (0, 1)))
        add(v, entry(3, GOODS, (0, 1), (0, 5)))
    got, want = pair
    assert zoned(got, got.remaining_stops()) == [(ZoneId(0, 1), 1), (ZoneId(0, 3), 3),
                                                 (ZoneId(0, 1), 5),
                                     (ZoneId(0, 5), 9)]
    assert drive_against_the_reference(got, want, grid) == (4, 0)
    assert got.status == IDLE and not manifest(got)


def test_drop_on_the_way_to_a_pickup_replans():
    # pickups come first, so the drop at (0, 2) is planned after the pickup
    # at (0, 4); the vehicle passes (0, 2) on its way and drops there
    grid = GridWorld(width=6, height=1)
    pair = vehicles_in_table(grid, [(0, 0)] * 2, status=SERVING)
    for v in pair:
        add(v, entry(1, PASSENGER, (0, 0), (0, 2), onboard=True))
        add(v, entry(2, PASSENGER, (0, 4), (0, 3)))
    got, want = pair
    assert zoned(got, got.remaining_stops()) == [(ZoneId(0, 4), 4), (ZoneId(0, 3), 5),
                                                 (ZoneId(0, 2), 6)]
    assert drive_against_the_reference(got, want, grid, ticks=3) == (0, 1)
    assert zoned(got, got.remaining_stops()) == [(ZoneId(0, 4), 1), (ZoneId(0, 3), 2)]
    assert drive_against_the_reference(got, want, grid, tick=3) == (2, 0)
    assert got.status == IDLE


def assert_plan_is_fresh(v):
    """The stored plan seen from the vehicle, its zone index and its route
    ETA equal those of a plan built from scratch, and each order's drop_cum
    is its destination's entry in the zone index of the stored plan."""
    fresh = v.planned_stops()
    assert v.remaining_stops() == fresh
    index = stop_index(v.stops)
    assert {zone: cum - odometer(v) for zone, cum in index.items()} == stop_index(fresh)
    cols = v.rows()
    assert list(cols[DROP_CUM]) == [index[zone] for zone in cols[DESTINATION]]
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
        first, driven = v.stops[0] if v.stops else (None, 0), odometer(v)
        if action == 0:
            move_one(v, grid)
        elif action == 1:
            if any(process_arrivals(v)) and first[0] == flat(v, v.location):
                repeated += flat(v, v.location) in stop_index(v.stops)
            replanned += driven > 0 and odometer(v) == 0
        elif all(free_capacity(v)):
            add(v, new_entry(len(manifest(v)) + 100 * tick))
            replanned += driven > 0
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
        target = zone()
        for rid in range(int(rng.integers(0, 3))):
            add(v, new_entry(rid, onboard=bool(rng.random() < 0.5)))
        aim_at(v, target)  # the dispatch writes its target last, as the engine does
        built = (list(v.stops), odometer(v), v.rows())
        while v.status == DISPATCHING:
            process_arrivals(v)
            frozen += move_one(v, grid) > 0 and bool(v.stops)
            assert (v.stops, odometer(v), v.rows()) == built
        add(v, new_entry(99))
        v.set_status(SERVING)
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
    add(v, entry(1, PASSENGER, (0, 0), (0, 1), onboard=True))
    add(v, entry(2, PASSENGER, (0, 3), (0, 1)))
    add(v, entry(3, GOODS, (0, 1), (0, 5)))
    assert zoned(v, v.stops) == [(ZoneId(0, 1), 1), (ZoneId(0, 3), 3), (ZoneId(0, 1), 5),
                                 (ZoneId(0, 5), 9)]
    indexes = []
    for _ in range(20):
        process_arrivals(v)
        assert_plan_is_fresh(v)
        indexes.append(dict(zoned(v, stop_index(v.stops).items())))
        move_one(v, grid)
        assert_plan_is_fresh(v)
    assert v.status == IDLE
    assert {ZoneId(0, 3): 3, ZoneId(0, 1): 5, ZoneId(0, 5): 9} in indexes


def reference_late_orders(vehicles, registry, tick, speed):
    """The late orders as the engine's settle found them before the order
    table: a loop over the loaded vehicles in id order and their onboard
    orders in manifest order, each ETA read from the drop zone's entry in
    the zone index through ticks_to, the direct trip from the order's leg,
    each request's queue tick and leg index read from the registry and its
    urgency from its kind."""
    owner, urgency, extra, max_hops = [], [], [], [0] * len(vehicles)
    for v in vehicles:
        if not v.fleet.onboard[v.id]:
            continue
        for e in manifest(v):
            if not e.onboard:
                continue
            req = registry[e.request_id]
            eta = v.ticks_to(stop_index(v.stops)[flat(v, e.destination)], speed)
            direct = math.ceil(manhattan(e.origin, e.destination) / speed)
            delay = tick - req.since + eta - direct
            if delay > 0:
                owner.append(v.id)
                urgency.append(URGENCY[e.kind])
                extra.append(delay)
            if e.kind == GOODS and req.leg > max_hops[v.id]:
                max_hops[v.id] = req.leg
    return owner, urgency, extra, max_hops


@pytest.mark.parametrize("speed", [2, 3])
def test_late_orders_equal_the_reference_loop(speed):
    # random fleets on a 6 x 6 grid with random orders, moved and resolved
    # for a few ticks; at speeds 2 and 3 an ETA is a ceiling that a floor
    # division gets wrong, and packages ride at several hop indices
    rng = np.random.default_rng(90 + speed)
    grid = GridWorld(width=6, height=6, vehicle_speed=speed)
    weights = RewardWeights.preset("eval")

    def zone():
        return ZoneId(int(rng.integers(6)), int(rng.integers(6)))

    late = ceiling = hops = several = 0
    for trial in range(300):
        n = int(rng.integers(1, 8))
        vehicles = vehicles_in_table(grid, [zone() for _ in range(n)], status=SERVING,
                                     seats_total=3, trunk_total=3)
        fleet, registry, tick = vehicles[0].fleet, [], 20
        for v in vehicles:
            for _ in range(int(rng.integers(0, 6))):
                kind = GOODS if rng.random() < 0.5 else PASSENGER
                if not free_capacity(v)[kind == GOODS]:
                    continue
                origin, dest = zone(), zone()
                while dest == origin:
                    dest = zone()
                # the tick the order's leg joined the queue and its index
                registry.append(SimpleNamespace(since=int(rng.integers(8, tick + 1)),
                                                leg=int(rng.integers(4)) if kind == GOODS else 0))
                add(v, ManifestEntry(len(registry) - 1, kind, origin, dest,
                                     bool(rng.random() < 0.7)))
        # the request table's columns of those names
        since = np.array([req.since for req in registry], dtype=np.int64)
        leg = np.array([req.leg for req in registry], dtype=np.int32)
        for v in vehicles:
            if not v.stops:
                v.set_status(IDLE)  # serving with nothing to serve, as an arrival leaves it
        for _ in range(int(rng.integers(0, 4))):
            move(fleet, grid)
            for vid in fleet.arriving:
                process_arrivals(vehicles[vid])
        want = reference_late_orders(vehicles, registry, tick, speed)
        got = late_orders(fleet, tick, speed, since, leg)
        assert got[0].tolist() == want[0], trial
        assert [u.hex() for u in got[1].tolist()] == [float(u).hex() for u in want[1]], trial
        assert got[2].tolist() == want[2] and got[3].tolist() == want[3], trial
        ones, detour = np.ones(n, dtype=np.int64), rng.integers(0, 3, n).astype(float)
        rewards = [agent_reward(weights, fleet.onboard, detour, ones, ones * 0, hops_, *late_)
                   for hops_, late_ in ((got[3], got[:3]), (want[3], want[:3]))]
        assert rewards[0].tobytes() == rewards[1].tobytes(), trial
        late += len(want[0])
        several += sum(want[0].count(vid) > 1 for vid in set(want[0]))
        hops += sum(h > 1 for h in want[3])
        ceiling += sum((cum - odometer(v)) % speed > 0 for v in vehicles
                       for cum, on in zip(v.rows()[DROP_CUM], v.rows()[ONBOARD]) if on)
    assert late > 1000 and several > 300 and hops > 200 and ceiling > 600
