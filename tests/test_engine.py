import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hopfleet import demand as dm
from hopfleet import dispatch_rl as rl
from hopfleet import engine
from hopfleet import fleet as fl
from hopfleet.cli import build_config
from hopfleet.demand import GOODS, PASSENGER, Request, write_trip_records
from hopfleet.dispatch_rl import action_count, offset_to_action
from hopfleet.engine import (
    BASELINE_FLEX_HOPS,
    BASELINE_FLEX_NOHOPS,
    BASELINE_SEPARATE,
    BASELINES,
    EngineInvariantError,
    SimConfig,
    Simulation,
)
from hopfleet.geo import InvalidZoneError, ZoneId, manhattan
from hopfleet.reward import agent_reward

from desk_config import desk_config, desk_yaml, locate
from fleet_rows import (ManifestEntry, add, flat, free_capacity, manifest, odometer, put,
                        reference_process_arrivals, route_state, set_manifest)
from test_reward import reference_agent_reward


class ScriptedPolicy:
    """Always picks one fixed action offset with no exploration or learning."""

    class _Net:
        def __init__(self, action, n_actions):
            self.n_actions = n_actions
            self.values = np.zeros(n_actions)
            self.values[action] = 1.0

        def q_values(self, x):
            # one row of values per state, in the shape QNetwork.q_values gives
            return np.broadcast_to(self.values, np.shape(x)[:-1] + self.values.shape)

    def __init__(self, dr, dc):
        self.schedule_step = 0
        radius = desk_config().sim.rl.action_radius
        self.online = self._Net(offset_to_action(dr, dc, radius), action_count(radius))

    def epsilon(self, training):
        return 0.0

    def act_probability(self, training):
        return 1.0

    def train_tick(self):
        self.schedule_step += 1
        return None


def small_cfg(**kw):
    """The desk world of configs/default.yaml scaled down for fast tests;
    ``kw`` overrides further SimConfig fields."""
    desk = desk_config().sim
    overrides = dict(
        seed=1,
        n_vehicles=4,  # desk 50
        warmup_ticks=5,  # desk 100
        episode_ticks=40,  # desk 750
        t_n=100,  # desk 2000: ramps the schedules within a short episode
        # five warmup ticks never tally the desk's 15 pickups near a hub, so
        # the desk threshold leaves no hub; at 0 every lattice zone is one
        # and the relay path runs
        grid=replace(desk.grid, hop_min_pickups=0),
    )
    overrides.update(kw)
    return replace(desk, **overrides)


def test_initialize_places_vehicles_at_first_request_origins(tmp_path):
    reqs = [
        Request(0, PASSENGER, ZoneId(2, 3), ZoneId(4, 4), 0),
        Request(1, PASSENGER, ZoneId(7, 1), ZoneId(0, 0), 0),
        Request(2, GOODS, ZoneId(5, 5), ZoneId(5, 9), 1),
    ]
    path = tmp_path / "trips.csv"
    write_trip_records(path, reqs)
    cfg = small_cfg(n_vehicles=3, warmup_ticks=0)
    cfg.demand.trips_csv = str(path)
    sim = Simulation(cfg)
    sim.initialize()
    assert [v.location for v in sim.vehicles] == [ZoneId(2, 3), ZoneId(7, 1), ZoneId(5, 5)]


def test_replayed_requests_are_the_file_rows_in_file_order(tmp_path):
    # each row of a trip file is handed out once, at its tick, in file order
    # and with consecutive ids from 0 (no relays, whose legs take ids too)
    cfg = small_cfg(seed=5, n_vehicles=6, baseline=BASELINE_FLEX_NOHOPS)
    rows = engine.generate_workload(cfg, 30)
    path = tmp_path / "trips.csv"
    write_trip_records(path, rows)
    cfg = replace(cfg, demand=replace(cfg.demand, trips_csv=str(path)))
    log = Simulation(cfg).run(ticks=30, mode=engine.MODE_TRAIN)
    got = [(e["request"], e["tick"], e["req_kind"], e["origin"], e["destination"])
           for e in log.by_kind("request")]
    want = [(i, r.created_tick, r.kind, list(r.origin), list(r.destination))
            for i, r in enumerate(rows)]
    assert got == want and len(want) > 50 and len({r.created_tick for r in rows}) > 10


@pytest.mark.parametrize("baseline, seed, replay", [
    *((baseline, seed, False) for baseline in BASELINES for seed in (1, 2)),
    (BASELINE_FLEX_HOPS, 3, True),
])
def test_queue_and_ids_from_the_request_table_agree_with_the_log(baseline, seed, replay,
                                                                  tmp_path):
    # the queue is the request table's queued rows and the next request id
    # its length; at every tick the queue holds the requests the log has
    # queued and not yet assigned or rejected, in the order they joined it:
    # each request event takes the next id and joins the queue, and each
    # hop_drop queues its package again, behind everything queued before it
    cfg = small_cfg(seed=seed, baseline=baseline, episode_ticks=60)
    if replay:
        path = tmp_path / "trips.csv"
        write_trip_records(path, engine.generate_workload(cfg, cfg.episode_ticks))
        cfg = replace(cfg, demand=replace(cfg.demand, trips_csv=str(path)))
    sim = Simulation(cfg)
    sim.initialize()
    sim.training = replay
    created, queue, read, handoffs, closed = 0, [], 0, 0, 0
    for _ in range(cfg.episode_ticks):
        sim.step()
        for e in sim.log.events[read:]:
            if e["kind"] == "request":
                assert e["request"] == created, e
                queue.append(created)
                created += 1
            elif e["kind"] == "hop_drop":
                assert e["request"] < created and e["request"] not in queue, e
                queue.append(e["request"])
                handoffs += 1
            elif e["kind"] in ("assign", "reject"):
                queue.remove(e["request"])
                closed += 1
            elif e["kind"] in ("pickup", "deliver"):
                assert e["request"] < created and e["request"] not in queue, e
        read = len(sim.log.events)
        assert len(sim.registry) == created, sim.tick
        assert sim.registry.queued().tolist() == queue, sim.tick
    assert created > 100 and closed > 50
    assert (handoffs > 0) == (baseline == BASELINE_FLEX_HOPS)


def test_initialize_same_seed_identical_state():
    def snapshot():
        sim = Simulation(small_cfg(seed=9))
        sim.initialize()
        return ([tuple(v.location) for v in sim.vehicles], sorted(sim.grid.hop_zones))

    assert snapshot() == snapshot()


def test_initialize_zero_warmup_runs():
    sim = Simulation(small_cfg(warmup_ticks=0))
    sim.initialize()
    assert sim.tick == 0


def test_step_without_requests_only_advances_clock(tmp_path):
    reqs = [Request(0, PASSENGER, ZoneId(2, 2), ZoneId(3, 3), 999)]
    path = tmp_path / "trips.csv"
    write_trip_records(path, reqs)
    cfg = small_cfg(n_vehicles=2, warmup_ticks=0, episode_ticks=5)
    cfg.demand.trips_csv = str(path)
    sim = Simulation(cfg, policy=ScriptedPolicy(0, 0))  # the hold action
    sim.initialize()
    before = [tuple(v.location) for v in sim.vehicles]
    for _ in range(5):
        sim.step()
    assert sim.tick == 5
    assert [tuple(v.location) for v in sim.vehicles] == before
    assert all(v.status == fl.IDLE for v in sim.vehicles)


def inject_requests(sim, requests):
    """Replace the demand stream with a fixed script keyed by tick; the
    requests take the ids the engine hands out, from the request table's
    length."""
    table = {}
    for r in requests:
        table.setdefault(r.created_tick, []).append(r)

    def draw(tick, rng, id_start):
        return [dm.Request(rid, r.kind, r.origin, r.destination, tick)
                for rid, r in enumerate(table.get(tick, []), id_start)]

    sim._draw_requests = draw


def place(sim, *zones):
    """Put vehicles 0, 1, ... at ``zones`` by writing the zone column, the
    one stored copy of their locations."""
    for v, zone in zip(sim.vehicles, zones, strict=True):
        put(v, zone)


def test_adjacent_passenger_delivered_within_overhead_budget():
    cfg = small_cfg(n_vehicles=1, warmup_ticks=0, episode_ticks=15)
    sim = Simulation(cfg, policy=ScriptedPolicy(0, 1))  # always dispatch one zone east
    sim.initialize()
    place(sim, (0, 0))
    inject_requests(sim, [Request(0, PASSENGER, ZoneId(0, 1), ZoneId(0, 5), 0)])
    log = sim.run(ticks=15)
    deliver = log.by_kind("deliver")
    assert len(deliver) == 1
    origin_eta, trip_eta = 1, 4
    assert deliver[0]["tick"] <= origin_eta + trip_eta + 2


def test_goods_relay_one_hop_two_vehicles():
    cfg = small_cfg(n_vehicles=2, warmup_ticks=0, episode_ticks=30, max_hop_depth=1)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))  # dispatch one zone south
    sim.initialize()
    place(sim, (0, 0), (0, 3))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 6), 0)])
    log = sim.run(ticks=30)

    hops = log.by_kind("hop_drop")
    assert len(hops) == 1
    assert tuple(hops[0]["zone"]) == (0, 3)

    deliver = log.by_kind("deliver")
    assert len(deliver) == 1 and deliver[0]["request"] == 0

    pickups = log.by_kind("pickup")
    first_leg = next(p for p in pickups if p["parent"] is None)
    relay_leg = next(p for p in pickups if p["parent"] is not None)
    assert first_leg["vehicle"] != relay_leg["vehicle"]


def test_handed_off_package_is_priced_from_its_hub():
    # matching prices a package by its current leg: after the handoff at
    # the hub, the ETA from there, not from where the package started
    cfg = small_cfg(n_vehicles=2, warmup_ticks=0, episode_ticks=30, max_hop_depth=1)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))  # dispatch one zone south
    sim.initialize()
    place(sim, (0, 0), (0, 3))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 6), 0)])
    zones = {}  # the fleet's zones as each tick's match saw them

    def located_match(*args, _run=sim._match):
        zones[sim.tick] = sim.fleet.zone.copy()
        _run(*args)

    sim._match = located_match
    log = sim.run(ticks=30)
    hub = sim.registry[0].legs[1][0]
    (second,) = [e for e in log.by_kind("assign") if e["parent"] == 0]
    at = ZoneId._make(divmod(int(zones[second["tick"]][second["vehicle"]]), sim.grid.width))
    assert second["eta"] == sim.grid.eta(at, hub).ticks == 1
    assert sim.grid.eta(at, ZoneId(0, 0)).ticks == 4
    assert log.by_kind("deliver")


def test_handed_off_package_queues_behind_earlier_requests():
    # vehicle 1, parked at (3, 3) with its one trunk slot free, is 3 ticks
    # from the hub where the package is handed off at tick 5 and from a
    # goods request that joined the queue in that tick's intake, before the
    # handoff: at equal ETA the earlier queue entry takes the slot, though
    # its id is larger
    cfg = small_cfg(n_vehicles=2, warmup_ticks=0, episode_ticks=6, max_hop_depth=1, trunk=1)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))  # dispatch one zone south
    sim.initialize()
    place(sim, (0, 0), (2, 3))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 6), 0),
                          Request(1, GOODS, ZoneId(3, 6), ZoneId(3, 7), 5)])
    log = sim.run(ticks=6)
    assert [(e["tick"], tuple(e["zone"])) for e in log.by_kind("hop_drop")] == [(5, (0, 3))]
    assert [(e["request"], e["vehicle"], e["eta"]) for e in log.by_kind("assign")
            if e["tick"] == 5] == [(1, 1, 3)]
    assert sim.registry.queued().tolist() == [0]


def test_goods_relay_three_legs_on_one_request_row():
    cfg = small_cfg(n_vehicles=3, warmup_ticks=0, episode_ticks=40, max_hop_depth=2)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))  # dispatch one zone south
    sim.initialize()
    place(sim, (0, 0), (0, 3), (0, 6))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 9), 0)])
    # every change of the package's row: (status, leg) after it
    registry, trail = sim.registry, []
    for name in ("set_status", "hand_off"):
        def recorded(rid, arg, _run=getattr(registry, name)):
            _run(rid, arg)
            trail.append((rid, registry.status_of(rid), registry.leg.item(rid)))
        setattr(registry, name, recorded)
    log = sim.run(ticks=40)

    hubs = [ZoneId(0, 0), ZoneId(0, 3), ZoneId(0, 6), ZoneId(0, 9)]
    legs = tuple(zip(hubs, hubs[1:]))
    assert len(registry) == 1 and registry[0].legs == legs
    # one row through queued -> held -> queued -> ... -> delivered; a
    # pickup writes only its order's onboard flag
    assert trail == [(0, dm.HELD, 0), (0, dm.QUEUED, 1), (0, dm.HELD, 1), (0, dm.QUEUED, 2),
                     (0, dm.HELD, 2), (0, dm.DELIVERED, 2)]
    hops = log.by_kind("hop_drop")
    assert [h["hops_done"] for h in hops] == [1, 2]
    assert [tuple(h["zone"]) for h in hops] == [(0, 3), (0, 6)]
    deliver = log.by_kind("deliver")
    assert [(e["request"], e["leg"], tuple(e["zone"])) for e in deliver] == [(0, 0, (0, 9))]
    # each leg was picked up and dropped at its ends; a later leg is flagged
    # by its parent and waits from its handoff
    pickups = log.by_kind("pickup")
    assert [tuple(e["zone"]) for e in pickups] == [tuple(o) for o, _ in legs]
    assert [tuple(e["zone"]) for e in hops + deliver] == [tuple(d) for _, d in legs]
    assert [e["parent"] for e in pickups] == [None, 0, 0]
    queued_at = [0] + [h["tick"] for h in hops]
    assert [e["wait"] for e in pickups] == [e["tick"] - t for e, t in zip(pickups, queued_at)]
    assert registry.since.tolist() == [hops[-1]["tick"]]


def test_relay_lateness_counts_from_each_hand_off(monkeypatch):
    # the 3-leg relay above, priced at every settle: while a leg rides, its
    # lateness counts from the tick that leg joined the queue (the request's
    # created tick, then each hand-off tick, as the log gives them), against
    # a direct trip of that leg, and its vehicle's max_hops is the leg's index
    cfg = small_cfg(n_vehicles=3, warmup_ticks=0, episode_ticks=40, max_hop_depth=2)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))  # dispatch one zone south
    sim.initialize()
    place(sim, (0, 0), (0, 3), (0, 6))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 9), 0)])
    speed, late_orders, priced = sim.grid.vehicle_speed, fl.late_orders, []

    def recorded(fleet, tick, *args):
        out = late_orders(fleet, tick, *args)
        onboard = np.argwhere((fleet.orders[fl.REQUEST] == 0) & (fleet.orders[fl.ONBOARD] == 1))
        for vid, _ in onboard.tolist():
            hops = [e["tick"] for e in sim.log.by_kind("hop_drop")]
            origin, dest = sim.registry[0].legs[len(hops)]
            since = ([0] + hops)[-1]  # the tick the leg joined the queue
            extra = (tick - since + math.ceil(manhattan(sim.vehicles[vid].location, dest) / speed)
                     - math.ceil(manhattan(origin, dest) / speed))
            late = [e for v, e in zip(out[0].tolist(), out[2].tolist()) if v == vid]
            assert late == ([extra] if extra > 0 else []), tick
            assert out[3].tolist() == [len(hops) if v == vid else 0 for v in range(3)], tick
            priced.append((len(hops), extra, since))
        return out

    monkeypatch.setattr(fl, "late_orders", recorded)
    log = sim.run(ticks=40)
    assert [e["hops_done"] for e in log.by_kind("hop_drop")] == [1, 2] and log.by_kind("deliver")
    # every leg rode; the later legs, on time from their hand-off, would run
    # late counted from the request's created tick
    assert {leg for leg, *_ in priced} == {0, 1, 2}
    assert all(any(leg == k and extra <= 0 < extra + since for leg, extra, since in priced)
               for k in (1, 2))


def relay_waiting_at_hub():
    """One vehicle carries the first leg of a 2-leg relay and drops it at the
    hub; the package then waits queued for its second leg, with no vehicle
    free to take it."""
    cfg = small_cfg(n_vehicles=1, warmup_ticks=0, max_hop_depth=1)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))
    sim.initialize()
    place(sim, (0, 0))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 6), 0)])
    for _ in range(30):  # the hop drop comes at tick 6; a stalled relay fails below
        sim.step()
        if sim.log.by_kind("hop_drop"):
            break
    assert sim.log.by_kind("hop_drop"), "the first leg reached no hub within 30 ticks"
    assert len(sim.registry) == 1 and sim.registry.leg.tolist() == [1]
    assert sim.registry.queued().tolist() == [0]
    sim.run(ticks=0)  # the intact relay passes the full conservation check
    return sim


def relay_held_again():
    """The relay of ``relay_waiting_at_hub`` stepped until its package is
    assigned for its second leg: held in one order."""
    sim = relay_waiting_at_hub()
    while sim.registry.status_of(0) != dm.HELD:
        assert sim.tick < 30, "the second leg found no vehicle within 30 ticks"
        sim.step()
    assert manifest(sim.vehicles[0])[0][:4] == (0, GOODS, *sim.registry[0].legs[1])
    sim.run(ticks=0)
    return sim


def test_conservation_check_catches_a_lost_leg():
    # the waiting package marked held while no vehicle holds it
    sim = relay_waiting_at_hub()
    sim.registry.status[0] = dm.REQUEST_STATUS_CODE[dm.HELD]
    with pytest.raises(EngineInvariantError,
                       match=r"request 0 \(held\) is held in 0 orders, expected 1"):
        sim.run(ticks=0)


def serve(v, e):
    """Vehicle ``v`` takes on order ``e`` and serves it, its status column
    written as an assignment leaves it, so that only the order is wrong."""
    add(v, e)
    v.fleet.status[v.id] = fl.STATUS_CODE[fl.SERVING]


def test_conservation_check_catches_a_duplicated_leg():
    # the first leg, dropped at the hub, still onboard its vehicle while the
    # package waits queued: the light pass sees a queued request held
    sim = relay_waiting_at_hub()
    origin, hub = sim.registry[0].legs[0]
    serve(sim.vehicles[0], ManifestEntry(0, GOODS, origin, hub, onboard=True))
    with pytest.raises(EngineInvariantError,
                       match=f"request 0 {dm.QUEUED} in an order of vehicle 0"):
        sim.run(ticks=0)
    # the second leg assigned, and a copy of its order consistent in every
    # column: the held count sees two orders
    sim = relay_held_again()
    origin, dest = sim.registry[0].legs[1]
    add(sim.vehicles[0], ManifestEntry(0, GOODS, origin, dest))
    with pytest.raises(EngineInvariantError,
                       match=r"request 0 \(held\) is held in 2 orders, expected 1"):
        sim.run(ticks=0)


@pytest.mark.parametrize("closed", [dm.DELIVERED, dm.REJECTED])
def test_conservation_check_catches_a_leg_of_a_closed_request(closed):
    # a delivered or rejected request is held in no order; the package,
    # assigned for its second leg, is closed in the status column, its one copy
    sim = relay_held_again()
    sim.registry.status[0] = dm.REQUEST_STATUS_CODE[closed]
    with pytest.raises(EngineInvariantError,
                       match=f"request 0 {closed} in an order of vehicle 0"):
        sim._check_invariants(full=False)


def test_full_check_catches_a_plan_on_a_vehicle_without_orders():
    # a vehicle that holds no orders is checked against the empty plan
    # planned_stops makes for it, without building one
    sim = busy_sim()
    sim.run(ticks=0)
    v = next(v for v in sim.vehicles if not manifest(v))
    assert v.status != fl.SERVING and v.stops == []
    v.stops = [(int(sim.fleet.zone[v.id]), 0)]
    with pytest.raises(EngineInvariantError, match=f"vehicle {v.id} stored stop plan is stale"):
        sim.run(ticks=0)
    v.stops = []
    sim.run(ticks=0)


def arrival_events(vid, arrivals):
    """One process_arrivals return of vehicle ``vid`` as (kind, vehicle,
    request) events, drops first, as the engine logs them."""
    drops, pickups = arrivals
    return [("drop", vid, rid) for rid in drops] + [("pickup", vid, rid) for rid in pickups]


@pytest.mark.parametrize("speed", [1, 2])
@pytest.mark.parametrize("baseline", BASELINES)
def test_stored_stop_plan_matches_a_fresh_plan(baseline, speed, monkeypatch):
    # each vehicle keeps its stop plan, and the fleet table its capacity
    # columns, between manifest changes; after every phase that moves a
    # vehicle or changes a manifest they must equal a plan built and a
    # count made from scratch
    checked = 0
    events_seen = []
    process_arrivals = fl.process_arrivals

    def recorded(v):
        arrivals = process_arrivals(v)
        events_seen.extend(arrival_events(v.id, arrivals))
        return arrivals

    monkeypatch.setattr(fl, "process_arrivals", recorded)
    resolved = 0
    for seed in (3, 4, 5):
        cfg = small_cfg(baseline=baseline, seed=seed, n_vehicles=6,
                        grid=replace(small_cfg().grid, vehicle_speed=speed))
        sim = Simulation(cfg)
        sim.initialize()

        def arrivals_as_a_full_scan(*args, _run=sim._arrivals):
            # the engine skips parked vehicles and process_arrivals skips a
            # vehicle away from its stops; the full scan of every vehicle
            # must give the same events and leave the same vehicles
            copies = copy.deepcopy(sim.vehicles)
            want = [ev for c in copies
                    for ev in arrival_events(c.id, reference_process_arrivals(c))]
            events_seen.clear()
            _run(*args)
            assert events_seen == want, (seed, sim.tick)
            assert [route_state(v) for v in sim.vehicles] == [route_state(c) for c in copies]
            nonlocal resolved
            resolved += len(want)

        sim._arrivals = arrivals_as_a_full_scan
        for phase in ("_arrivals", "_match", "_advance"):
            def checked_phase(*args, _run=getattr(sim, phase), _phase=phase):
                nonlocal checked
                _run(*args)
                for v in sim.vehicles:
                    assert v.remaining_stops() == v.planned_stops(), (seed, sim.tick, _phase, v.id)
                    checked += len(v.stops) > 1
                assert sim.fleet.first_stale() is None, (seed, sim.tick, _phase)
            setattr(sim, phase, checked_phase)
        sim.run(ticks=40)
    assert checked > 50
    assert resolved > 100  # pickups and drops


def arrival_state(v):
    """Everything process_arrivals may change on a vehicle: its status,
    manifest, stop plan, order rows (with each drop_cum) and whole table row."""
    return v.status, manifest(v), v.stops, v.rows(), v.fleet.row(v.id)


@pytest.mark.parametrize("speed", [1, 2, 3])
@pytest.mark.parametrize("baseline", BASELINES)
def test_arrivals_only_where_something_can_resolve(baseline, speed, monkeypatch):
    # the engine resolves arrivals only for the vehicles the last move pass
    # left where something resolves (the fleet module docstring states the
    # rule); process_arrivals on every moving vehicle of a twin fleet must
    # give the same events and leave the same vehicles and table, and the
    # vehicles left arriving are exactly the twins it changes or gets events of
    process_arrivals = fl.process_arrivals
    seen = []

    def recorded(v):
        arrivals = process_arrivals(v)
        seen.extend(arrival_events(v.id, arrivals))
        return arrivals

    monkeypatch.setattr(fl, "process_arrivals", recorded)
    moving = (fl.DISPATCHING, fl.SERVING)
    skipped = resolved = on_the_way = 0
    for seed in (21, 22, 23):
        cfg = small_cfg(baseline=baseline, seed=seed, n_vehicles=8,
                        grid=replace(small_cfg().grid, vehicle_speed=speed))
        sim = Simulation(cfg)
        sim.initialize()

        def arrivals_against_every_moving_vehicle(*args, _run=sim._arrivals):
            nonlocal skipped, resolved, on_the_way
            twin = copy.deepcopy(sim.vehicles)  # the twins share one copied table
            want, resolving = [], []
            for c in twin:
                if c.status in moving:
                    before = arrival_state(c)
                    events = arrival_events(c.id, process_arrivals(c))
                    want.extend(events)
                    if events or arrival_state(c) != before:
                        resolving.append(c.id)
            assert sim.fleet.arriving == resolving, (seed, sim.tick)
            candidates = set(resolving)
            skipped += sum(v.status in moving and v.id not in candidates for v in sim.vehicles)
            on_the_way += sum(v.id in candidates and v.status != fl.DISPATCHING
                              and int(sim.fleet.zone[v.id]) != int(sim.fleet.target[v.id])
                              and any(vid == v.id for _, vid, _ in want)
                              for v in sim.vehicles)
            seen.clear()
            _run(*args)
            assert seen == want, (seed, sim.tick)
            assert [arrival_state(v) for v in sim.vehicles] == [arrival_state(c) for c in twin]
            resolved += len(want)

        sim._arrivals = arrivals_against_every_moving_vehicle
        sim.run(ticks=40)
    assert resolved > 100 and skipped > 100 and on_the_way > 0


def reference_remaining_etas(v, speed):
    """VehicleState.remaining_etas as it was, on a plan built from scratch:
    ticks until each onboard order's drop zone, the first planned stop at
    its destination."""
    first = dict(reversed(v.planned_stops()))  # the earliest stop at a zone wins
    return {e.request_id: math.ceil(first[flat(v, e.destination)] / speed)
            for e in manifest(v) if e.onboard}


def reference_settle(sim, detour):
    """The rewards, total detour delay and activations that _settle computed
    vehicle by vehicle before the fleet form, with the scalar reward and
    ETAs from a fresh plan, not the stored one; and the number of vehicles
    with more than one late order."""
    speed = sim.grid.vehicle_speed
    rewards, total_detour_delay, activations, several_late = [], 0.0, 0, 0
    for v in sim.vehicles:
        active_now, active_prev = int(v.status != fl.IDLE), int(sim.prev_active[v.id])
        activations += max(active_now - active_prev, 0)
        etas = {}
        if v.status == fl.SERVING:
            etas = reference_remaining_etas(v, speed)
        delays, hops, onboard = [], [], {PASSENGER: 0, GOODS: 0}
        for e in manifest(v):
            if not e.onboard:
                continue
            onboard[e.kind] += 1
            # the wait to pickup plus the ride since, to the drop, from the
            # tick the leg carried joined the queue
            queued = sim.registry.since.item(e.request_id)
            t_total = sim.tick - queued + etas.get(e.request_id, 0)
            t_direct = math.ceil(manhattan(e.origin, e.destination) / speed)
            delays.append((dm.URGENCY[e.kind], max(0.0, t_total - t_direct)))
            if e.kind == GOODS:
                hops.append(sim.registry.leg.item(e.request_id))
        rewards.append(reference_agent_reward(
            sim.weights, passengers_onboard=onboard[PASSENGER],
            packages_onboard=onboard[GOODS], detour_ticks=detour.get(v.id, 0.0),
            order_delays=delays, active_now=active_now, active_prev=active_prev,
            onboard_hops=hops))
        total_detour_delay += sum(d for _, d in delays)
        several_late += sum(d > 0 for _, d in delays) > 1
    return rewards, total_detour_delay, activations, several_late


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("speed", [1, 2])
@pytest.mark.parametrize("baseline", BASELINES)
def test_settled_rewards_equal_the_per_vehicle_reference(baseline, speed, mode, monkeypatch):
    settled = []

    def recorded(*args, **kw):
        settled.append(agent_reward(*args, **kw))
        return settled[-1]

    monkeypatch.setattr(engine, "agent_reward", recorded)
    several_late = 0
    for seed in (3, 4):
        cfg = small_cfg(baseline=baseline, seed=seed, n_vehicles=6, episode_ticks=60,
                        grid=replace(small_cfg().grid, vehicle_speed=speed))
        sim = Simulation(cfg)
        sim.initialize()

        def checked_settle(supply, forecast, detour, detail, _run=sim._settle):
            nonlocal several_late
            want, want_delay, want_activations, late = reference_settle(sim, detour)
            several_late += late
            _run(supply, forecast, detour, detail)
            (got,) = settled  # one agent_reward call per tick
            settled.clear()
            assert [r.hex() for r in got.tolist()] == [r.hex() for r in want], sim.tick
            assert detail["detour_delay"].hex() == want_delay.hex()
            assert detail["activations"] == want_activations
            assert detail["reward_mean"].hex() == float(np.mean(want)).hex()

        sim._settle = checked_settle
        sim.run(mode=mode)
    assert several_late > 200  # vehicle-ticks summing two or more late orders


@pytest.mark.parametrize("seed", [3, 4])
def test_replay_transitions_discount_the_rewards_between_decisions(seed, monkeypatch):
    # the reference keeps each vehicle's last decision and, at the next one,
    # sums the settled rewards of the ticks after it in tick order. Three
    # decisions in four hold, so that idle vehicles decide again, and an
    # idle vehicle decides in half the ticks, so that some transitions span
    # ticks; a dispatch is priced in its own tick, so the decision it closes
    # ends on a reward that is not zero
    cfg = small_cfg(seed=seed, n_vehicles=6, episode_ticks=80)
    sim = Simulation(cfg)
    sim.initialize()
    sim.training = True
    sim.policy.act_probability = lambda training: 0.5
    hold = offset_to_action(0, 0, cfg.rl.action_radius)
    rewards, observed, actions = [], [], []

    def settled(*args):
        rewards.append(agent_reward(*args).tolist())
        return np.array(rewards[-1])

    def chosen(values, drawn, _select=engine.rl.select_action):
        # a chunk's actions, in id order
        for action in _select(values, drawn).tolist():
            actions.append(action if len(actions) % 4 == 3 else hold)
        return np.array(actions[len(actions) - len(values):])

    def observe(maps, vids, _observe=sim._observe):
        states = _observe(maps, vids)
        observed.extend((sim.tick, vid, state) for vid, state in zip(vids, states))
        return states

    monkeypatch.setattr(engine, "agent_reward", settled)
    monkeypatch.setattr(engine.rl, "select_action", chosen)
    sim._observe = observe
    for _ in range(cfg.episode_ticks):
        sim.step()

    last, want = {}, []
    for (tick, vid, state), action in zip(observed, actions, strict=True):
        if vid in last:
            state0, action0, tick0 = last[vid]
            accum = 0.0
            for k in range(tick0 + 1, tick + 1):
                accum += (cfg.discount ** (k - tick0 - 1)) * rewards[k][vid]
            want.append((state0, action0, accum, state, tick - tick0 - 1))
        last[vid] = (state, action, tick)
    got = sim.policy.buffer._data
    assert len(got) == len(want)
    assert sum(accum != 0.0 for _, _, accum, _, elapsed in want if elapsed > 0) >= 2
    for tr, (state0, action0, accum, state, elapsed) in zip(got, want):
        # a state row is a view of its batch: the transition holds the very
        # memory the observation wrote
        assert np.shares_memory(tr.state, state0) and np.shares_memory(tr.next_state, state)
        assert tr.state.tobytes() == state0.tobytes() and not tr.terminal
        assert tr.next_state.tobytes() == state.tobytes()
        assert (tr.action, tr.reward.hex(), tr.elapsed) == (action0, accum.hex(), elapsed)


def test_dispatch_chunk_writes_what_a_per_vehicle_loop_writes():
    # one chunk of acting vehicles, written as columns, against a loop over
    # the vehicles: each one's draws, its own single-row pass, then
    # action_to_offset, GridWorld.clamp and GridWorld.eta. The greedy action
    # is (-3, 5) everywhere, so vehicle 0 in the corner clamps to (0, 5),
    # vehicle 2 in the opposite corner clamps onto itself and holds, and
    # vehicle 3 by the edge clamps in one coordinate; vehicles 1, 4 and 9
    # draw their actions. At two zones a tick, an odd distance rounds its ETA up
    cfg = small_cfg(n_vehicles=12, warmup_ticks=0)
    cfg = replace(cfg, grid=replace(cfg.grid, vehicle_speed=2))
    sim = Simulation(cfg)
    sim.initialize()
    grid, radius, online = sim.grid, cfg.rl.action_radius, sim.policy.online
    greedy = rl.offset_to_action(-3, 5, radius)
    online.biases[-1][greedy] += 1e3
    sim.policy.epsilon = lambda training: 0.25
    place(sim, (0, 0), (5, 5), (0, grid.width - 1), (1, grid.width - 2),
          *[(3 + i, 2 + i) for i in range(8)])
    supply, forecast = fl.project_supply(sim.fleet, grid), sim.forecaster.forecast()
    maps = rl.observation_maps(supply, forecast, cfg.rl.window)
    rng = copy.deepcopy(sim.explore_rng)
    status, target = sim.fleet.status.copy(), sim.fleet.target.copy()
    events, explored, clamped, held = [], [], [], []
    for v in sim.vehicles:
        assert rng.random() < 1.0  # the act gate: every idle vehicle acts in eval
        drawn = rl.exploration_draw(online.n_actions, 0.25, rng)
        values = online.q_values(rl.encode_state(maps, sim.fleet, [v.id])[0])
        action = int(np.argmax(values)) if drawn is None else drawn
        if drawn is not None:
            explored.append(v.id)
        dr, dc = rl.action_to_offset(action, radius)
        at = v.location
        to = grid.clamp(at.row + dr, at.col + dc)
        if to != (at.row + dr, at.col + dc):
            clamped.append(v.id)
        if to == at:
            held.append(v.id)
            continue
        status[v.id] = fl.STATUS_CODE[fl.DISPATCHING]
        target[v.id] = to.row * grid.width + to.col
        events.append({"tick": 0, "kind": "dispatch", "vehicle": v.id, "origin": list(at),
                       "target": list(to), "eta": grid.eta(at, to).ticks})
    assert explored == [1, 4, 9] and {0, 2, 3} <= set(clamped) and 2 in held
    assert any(e["eta"] * 2 > manhattan(e["origin"], e["target"]) for e in events)
    assert len(sim.vehicles) <= rl.STACK_CHUNK
    logged, detail = len(sim.log.events), {}
    sim._dispatch(supply, forecast, detail)
    assert sim.fleet.status.tolist() == status.tolist()
    assert sim.fleet.target.tolist() == target.tolist()
    assert sim.log.events[logged:] == events
    assert detail["dispatch_time"] == float(sum(e["eta"] for e in events))
    assert sim.explore_rng.bit_generator.state == rng.bit_generator.state


def test_full_check_catches_a_stale_stop_plan():
    sim = Simulation(small_cfg(seed=3))
    sim.initialize()
    while not any(v.stops and odometer(v) for v in sim.vehicles):
        sim.step()
    sim.run(ticks=0)  # the true plans pass
    v = next(v for v in sim.vehicles if v.stops and odometer(v))
    stops, driven = list(v.stops), odometer(v)
    stale = [
        ([(z, c + 1) for z, c in stops], driven),
        # an odometer that missed a move, or counted one twice
        (stops, driven - 1),
        (stops, driven + 1),
    ]
    for plan, steps in stale:
        v.stops, sim.fleet.driven[v.id] = list(plan), steps
        with pytest.raises(EngineInvariantError, match=f"vehicle {v.id} stored stop plan"):
            sim.run(ticks=0)
        v.stops, sim.fleet.driven[v.id] = list(stops), driven
        sim.run(ticks=0)


@pytest.mark.parametrize("column", fl.COLUMNS)
def test_full_check_catches_a_stale_fleet_table(column):
    # the objective is compared with the vehicles' status and plans, the
    # capacity columns with a recount of the manifests
    # six vehicles: four are full from tick 12 on, leaving no onboard
    # vehicle a free seat and none of them empty
    sim = Simulation(small_cfg(seed=3, n_vehicles=6))
    sim.initialize()

    def candidates():
        """The vehicles with something onboard; for a free-capacity column,
        only those with a free entry above 0, so that the true entry less
        one is stale without being overcommitted; for the zone column, none
        until another vehicle holds nothing, as its off-grid case needs one."""
        fleet = sim.fleet
        held = fleet.onboard > 0
        if column.endswith("_free"):
            held &= getattr(fleet, column) > 0
        if column == "zone" and (fleet.onboard + fleet.pending).all():
            held[:] = False
        return np.flatnonzero(held)

    while not len(candidates()):
        assert sim.tick < sim.cfg.episode_ticks, "no vehicle fits the case"
        sim.step()
    sim.run(ticks=0)  # the true table passes
    v = sim.vehicles[int(candidates()[0])]
    stored = getattr(sim.fleet, column)
    true = int(stored[v.id])
    if column == "zone":
        # the zone column is the one stored copy of the vehicles' locations:
        # a wrong zone shows as a stale plan, and one off the grid is refused
        width, zones = sim.grid.width, sim.grid.width * sim.grid.height
        stored[v.id] = true + 1 if (true + 1) % width else true - 1  # a step along the row
        with pytest.raises(EngineInvariantError, match=f"vehicle {v.id} stored stop plan is stale"):
            sim.run(ticks=0)
        stored[v.id] = true
        parked = next(u.id for u in sim.vehicles if not manifest(u))  # no plan to go stale
        for off in (-1, zones):
            stored[parked], at = off, stored[parked]
            with pytest.raises(InvalidZoneError, match=rf"zone \({off // width}, {off % width}\) "
                                                      rf"outside"):
                sim.run(ticks=0)
            stored[parked] = at
        sim.run(ticks=0)
        return
    if column == "status":
        # the status column is the one stored copy of the vehicles' statuses:
        # a loaded vehicle that does not serve is refused, a wrong status
        # shows where it changes the objective, and a code that names no
        # status is refused
        held = int(sim.fleet.onboard[v.id] + sim.fleet.pending[v.id])
        stored[v.id] = fl.STATUS_CODE[fl.IDLE]
        with pytest.raises(EngineInvariantError, match=f"vehicle {v.id} idle with {held} orders"):
            sim.run(ticks=0)
        stored[v.id] = true
        # an empty vehicle written as dispatching to a target, then idle
        parked = next(u.id for u in sim.vehicles if not manifest(u))
        was = int(stored[parked])
        stored[parked], sim.fleet.target[parked] = fl.STATUS_CODE[fl.DISPATCHING], 0
        sim.run(ticks=0)
        stored[parked] = fl.STATUS_CODE[fl.IDLE]
        with pytest.raises(EngineInvariantError,
                           match=f"vehicle {parked} fleet table target 0 is stale, "
                                 f"the vehicle says -1"):
            sim.run(ticks=0)
        stored[parked], sim.fleet.target[parked] = was, -1
        for code in (-1, len(fl.VEHICLE_STATUSES)):
            stored[v.id] = code
            with pytest.raises(EngineInvariantError, match=f"vehicle {v.id} bad status code {code}"):
                sim.run(ticks=0)
        stored[v.id] = true
        sim.run(ticks=0)
        return
    for stale in (true - 1, true + 1):
        stored[v.id] = stale
        with pytest.raises(EngineInvariantError,
                           match=f"vehicle {v.id} fleet table {column} {stale} is stale, "
                                 f"the vehicle says {true}"):
            sim.run(ticks=0)
        stored[v.id] = true
        sim.run(ticks=0)


def test_full_check_catches_a_table_entry_stale_before_supply():
    # a free-seat entry wrong while supply and matching read it is caught
    # before supply, ahead of the dispatch that would follow
    sim = Simulation(small_cfg(n_vehicles=1, warmup_ticks=0), policy=ScriptedPolicy(0, 1))
    sim.initialize()
    seats = int(sim.fleet.seats_free[0])
    sim.fleet.seats_free[0] = seats + 1
    with pytest.raises(EngineInvariantError,
                       match=f"vehicle 0 fleet table seats_free {seats + 1} is stale, "
                             f"the vehicle says {seats}"):
        sim.step()
    assert sim.tick == 0 and sim.log.by_kind("dispatch") == []


def busy_sim():
    """A small episode stepped until a vehicle carries a manifest and a
    request waits in the queue; its light invariant pass holds."""
    sim = Simulation(small_cfg(seed=3))
    sim.initialize()
    while not (len(sim.registry.queued()) and any(manifest(v) for v in sim.vehicles)):
        sim.step()
    sim._check_invariants(full=False)
    return sim


def corrupt_light(sim, case):
    """Break one thing the light pass checks; the message it must raise."""
    v = next(v for v in sim.vehicles if manifest(v))
    if case == "overcommitted":
        sim.fleet.seats_free[v.id] = -1
        return f"vehicle {v.id} overcommitted"
    if case == "overcommitted-trunk":
        sim.fleet.trunk_free[v.id] = -1
        return f"vehicle {v.id} overcommitted"
    code = -1 if case == "status-negative" else len(fl.VEHICLE_STATUSES)
    sim.fleet.status[v.id] = code
    return f"vehicle {v.id} bad status code {code}"


@pytest.mark.parametrize("case", ["overcommitted", "overcommitted-trunk", "status-negative",
                                  "status-past-end"])
def test_light_invariant_pass_names_what_broke(case):
    sim = busy_sim()
    message = corrupt_light(sim, case)
    with pytest.raises(EngineInvariantError, match=message) as info:
        sim._check_invariants(full=False)
    if case.startswith("status"):
        # a code that names no status is dumped as it is
        vid, code = int(message.split()[1]), int(message.split()[-1])
        dump = json.loads(str(info.value).split("state dump: ", 1)[1])
        record = next(r for r in dump["vehicles"] if r["id"] == vid)
        assert record["status"] == record["table"]["status"] == code


@pytest.mark.parametrize("case", ["status", "orders"])
def test_light_invariant_pass_ties_serving_to_held_orders(case):
    # a vehicle serves exactly while it holds orders: a status column that
    # leaves a loaded vehicle dispatched, or an order table emptied under a
    # serving vehicle (its capacity columns recounted, as an arrival does),
    # breaks the rule, and the dump shows the vehicle as it stands
    sim = busy_sim()
    v = next(v for v in sim.vehicles if manifest(v))
    assert v.status == fl.SERVING
    if case == "status":
        status, held = fl.DISPATCHED, len(manifest(v))
        sim.fleet.status[v.id] = fl.STATUS_CODE[status]
    else:
        status, held = fl.SERVING, 0
        set_manifest(v, [])
    with pytest.raises(EngineInvariantError,
                       match=f"vehicle {v.id} {status} with {held} orders") as info:
        sim._check_invariants(full=False)
    dump = json.loads(str(info.value).split("state dump: ", 1)[1])
    record = next(r for r in dump["vehicles"] if r["id"] == v.id)
    assert (record["status"], len(record["orders"]["request"])) == (status, held)


def corrupt_order_table(sim, case):
    """Break the order table where a column has a second source, or put a
    leg in two manifests; the message the check must raise."""
    v = next(v for v in sim.vehicles if manifest(v))
    e, orders = manifest(v)[0], sim.fleet.orders
    if case == "drop_cum":
        stored = int(orders[fl.DROP_CUM, v.id, 0]) + 1
        orders[fl.DROP_CUM, v.id, 0] = stored
        return (f"vehicle {v.id} order table drop_cum {stored} of request {e.request_id} "
                f"is stale, the zone index says {stored - 1}")
    if case == "onboard":
        # the flag is the one copy of whether the request is onboard: the
        # recount of the onboard column sees it
        stored = int(sim.fleet.onboard[v.id])
        orders[fl.ONBOARD, v.id, 0] = 1 - e.onboard
        counted = stored - 1 if e.onboard else stored + 1
        return (f"vehicle {v.id} fleet table onboard {stored} is stale, "
                f"the vehicle says {counted}")
    if case == "vehicle":
        # the table puts a request on a vehicle while the request waits in the queue
        rid = int(sim.registry.queued()[0])
        orders[fl.REQUEST, v.id, 0] = rid
        return f"request {rid} {dm.QUEUED} in an order of vehicle {v.id}"
    # a copy of the order on a second vehicle, every column of it consistent
    u = next(u for u in sim.vehicles if u is not v and free_capacity(u)[e.kind == GOODS])
    serve(u, e)
    status = sim.registry.status_of(e.request_id)
    return rf"request {e.request_id} \({status}\) is held in 2 orders, expected 1"


@pytest.mark.parametrize("case", ["drop_cum", "onboard", "vehicle", "in-two-manifests"])
def test_full_check_catches_a_stale_order_table(case):
    # an order's drop_cum has its vehicle's stored plan as a second source, its
    # onboard flag the vehicle's onboard count and its vehicle the status of its
    # request; a request in two manifests shows in the count of orders held
    # per request
    sim = busy_sim()
    sim.run(ticks=0)  # the true table passes
    message = corrupt_order_table(sim, case)
    with pytest.raises(EngineInvariantError, match=message):
        sim.run(ticks=0)


def test_dump_shows_the_named_vehicle_past_the_first_twenty():
    sim = Simulation(small_cfg(seed=3, n_vehicles=50))
    sim.initialize()
    sim.run(ticks=0)
    seats_free = int(sim.fleet.seats_free[30])
    sim.fleet.seats_free[30] += 1
    with pytest.raises(EngineInvariantError, match="vehicle 30 fleet table seats_free") as info:
        sim.run(ticks=0)
    dump = json.loads(str(info.value).split("state dump: ", 1)[1])
    assert [v["id"] for v in dump["vehicles"]] == [*range(20), 30]
    record = dump["vehicles"][-1]
    assert record["table"] == sim.fleet.row(30)
    assert record["table"]["seats_free"] == seats_free + 1
    assert record["location"] == list(sim.vehicles[30].location)
    sim.fleet.seats_free[30] -= 1
    # a stale manifest entry: the request joins the table queued, not held
    rid = len(sim.registry)
    sim.registry.add([Request(rid, PASSENGER, ZoneId(0, 0), ZoneId(0, 1), 0)])
    serve(sim.vehicles[30], ManifestEntry(rid, PASSENGER, ZoneId(0, 0), ZoneId(0, 1)))
    with pytest.raises(EngineInvariantError,
                       match=f"request {rid} queued in an order of vehicle 30") as info:
        sim.run(ticks=0)
    dump = json.loads(str(info.value).split("state dump: ", 1)[1])
    assert [v["id"] for v in dump["vehicles"]] == [*range(20), 30]
    orders = dump["vehicles"][-1]["orders"]
    assert sorted(orders) == sorted(fl.ORDER_FIELDS)
    assert (orders["request"], orders["kind"], orders["onboard"]) == (
        [rid], [fl.KINDS.index(PASSENGER)], [0])
    # a dump that names one of the first twenty shows it once
    assert [v["id"] for v in json.loads(sim._dump("probe", 3).split("state dump: ")[1])
            ["vehicles"]] == list(range(20))


def test_flex_nohops_never_hops():
    log = Simulation(small_cfg(baseline=BASELINE_FLEX_NOHOPS, episode_ticks=40)).run(mode="train")
    assert log.by_kind("hop_drop") == []


def test_separate_never_mixes_kinds_in_one_vehicle():
    cfg = small_cfg(baseline=BASELINE_SEPARATE, n_vehicles=6, episode_ticks=40)
    sim = Simulation(cfg)
    sim.initialize()
    seats, trunk = sim.fleet.seats_total, sim.fleet.trunk_total
    passenger_vehicles = [v for v in sim.vehicles if seats[v.id] > 0]
    goods_vehicles = [v for v in sim.vehicles if trunk[v.id] > 0]
    assert len(passenger_vehicles) == 3 and len(goods_vehicles) == 3
    assert all(trunk[v.id] == 0 for v in passenger_vehicles)
    assert all(seats[v.id] == 0 for v in goods_vehicles)
    assert all(trunk[v.id] == cfg.separate_goods_trunk for v in goods_vehicles)
    sim.training = True
    for _ in range(40):
        sim.step()
        for v in sim.vehicles:
            kinds = {e.kind for e in manifest(v)}
            assert kinds != {PASSENGER, GOODS}


def test_zero_patience_rejects_in_the_arrival_tick():
    # patience 0 is a valid setting: a request must match in the tick it arrives
    log = Simulation(small_cfg(episode_ticks=40, patience_ticks=0)).run(mode="eval")
    created = {e["request"]: e["tick"] for e in log.by_kind("request")}
    rejects = log.by_kind("reject")
    assert rejects and all(e["tick"] == created[e["request"]] for e in rejects)


def test_accept_accounting_identity():
    log = Simulation(small_cfg(episode_ticks=60, seed=4)).run(mode="train")
    originals = [e for e in log.by_kind("request") if e["parent"] is None]
    picked = {e["request"] for e in log.by_kind("pickup") if e["parent"] is None}
    rejected = {e["request"] for e in log.by_kind("reject")}
    assert picked.isdisjoint(rejected)
    open_ids = {e["request"] for e in originals} - picked - rejected
    assert len(originals) == len(picked) + len(rejected) + len(open_ids)


def test_goods_conservation_over_episode():
    cfg = small_cfg(episode_ticks=60, seed=7)
    sim = Simulation(cfg)
    sim.initialize()
    log = sim.run(ticks=60, mode="train")  # run() ends with a full conservation check
    # the first leg's pickup and the last leg's delivery, as the log holds them
    picked = {e["request"]: e["tick"] for e in log.by_kind("pickup") if e["parent"] is None}
    delivered = {e["request"]: e["tick"] for e in log.by_kind("deliver")}
    checked = 0
    for req in sim.registry.requests:
        if req.kind != GOODS:
            continue
        status = sim.registry.status_of(req.id)
        assert status in (dm.QUEUED, dm.HELD, dm.DELIVERED, dm.REJECTED)
        assert (req.id in delivered) == (status == dm.DELIVERED)
        if status == dm.DELIVERED:
            assert req.created_tick <= picked[req.id] <= delivered[req.id]
            checked += 1
    assert checked


def test_to_jsonl_writes_canonical(tmp_path):
    log = Simulation(small_cfg(episode_ticks=20)).run(mode="eval")
    path = tmp_path / "episode.jsonl"
    log.to_jsonl(path)
    assert path.read_text() == log.canonical()


def value_types(event):
    """The value types of an event, nested lists included."""
    return {k: [type(x) for x in v] if type(v) is list else type(v) for k, v in event.items()}


def test_log_add_stores_plain_values_as_the_plain_path_does():
    # add() keeps values of exact type int, float, str and None as they are
    # and converts the rest with _plain; np.float64 subclasses float, bool int
    payload = dict(i=7, b=True, none=None, s="pickup", f=0.1, i64=np.int64(-3),
                   f64=np.float64(2.5), zone=ZoneId(np.int64(2), 3),
                   pair=(np.int32(1), np.int64(4)))
    log = engine.EpisodeLog(n_vehicles=1, dt_minutes=1.0, ticks_per_day=10, baseline="separate",
                            seed=0)
    plain = copy.deepcopy(log)
    log.add(5, "probe", **payload)
    plain.events.append({"tick": 5, "kind": "probe",
                         **{k: engine._plain(v) for k, v in payload.items()}})
    assert log.events == plain.events
    assert value_types(log.events[0]) == value_types(plain.events[0])
    assert value_types(log.events[0])["f64"] is float and log.events[0]["zone"] == [2, 3]
    assert log.canonical() == plain.canonical()


def test_zero_tick_episode_empty_log():
    log = Simulation(small_cfg(episode_ticks=0)).run(mode="eval")
    assert log.ticks == 0
    assert log.events == []


def test_replay_bit_identical():
    a = Simulation(small_cfg(seed=21, episode_ticks=40)).run(mode="train").canonical()
    b = Simulation(small_cfg(seed=21, episode_ticks=40)).run(mode="train").canonical()
    c = Simulation(small_cfg(seed=22, episode_ticks=40)).run(mode="train").canonical()
    assert a == b
    assert a != c


def test_eval_mode_leaves_policy_untouched():
    cfg = small_cfg(episode_ticks=30)
    sim = Simulation(cfg)
    sim.initialize()
    before = sim.policy.online.parameters()
    sim.run(ticks=30, mode="eval")
    after = sim.policy.online.parameters()
    for p, q in zip(before, after):
        assert np.array_equal(p, q)


def test_training_fills_buffer_and_logs_curve():
    cfg = small_cfg(episode_ticks=80, seed=5)
    sim = Simulation(cfg)
    sim.initialize()
    sim.run(ticks=80, mode="train")
    assert len(sim.policy.buffer) > 0
    assert len(sim.curve) == 80
    assert sim.policy.schedule_step == 80


def test_training_steps_move_parameters():
    from hopfleet.dispatch_rl import Transition

    cfg = small_cfg(episode_ticks=10, seed=5)
    cfg.rl.batch_size = 4
    sim = Simulation(cfg)
    sim.initialize()
    rng = np.random.default_rng(0)
    dim = sim.policy.input_dim
    for _ in range(16):
        sim.policy.buffer.push(Transition(rng.normal(size=dim), int(rng.integers(225)),
                                          float(rng.normal()), rng.normal(size=dim), 0))
    before = sim.policy.online.parameters()
    sim.run(ticks=10, mode="train")
    after = sim.policy.online.parameters()
    assert any(not np.array_equal(p, q) for p, q in zip(before, after))
    losses = [row["loss"] for row in sim.curve if row["loss"] is not None]
    assert losses


def test_bad_baseline_rejected():
    with pytest.raises(ValueError, match="baseline must be one of"):
        replace(desk_config().sim, baseline="warp_drive")


@pytest.mark.parametrize(
    "kw, msg",
    [
        pytest.param(("rl.window", 14), "rl.window must be odd", id="window-even"),
        pytest.param(("grid.hop_stride", 0), "grid.hop_stride must be >= 1", id="hop_stride-0"),
        pytest.param(("separate_split", 1.5), "separate_split must be in", id="split-above-1"),
        pytest.param(("separate_split", -0.1), "separate_split must be in", id="split-below-0"),
        pytest.param(("weights_preset", "greedy"), "unknown weights_preset", id="weights_preset"),
        pytest.param(("demand.passenger_rate_per_zone", -0.1),
                     "demand.passenger_rate_per_zone must be >= 0", id="passenger_rate-negative"),
        pytest.param(("demand.origin_hot_rate", -0.5), "demand.origin_hot_rate must be >= 0",
                     id="origin_hot_rate-negative"),
        pytest.param(("demand.goods_location_rate", -0.2),
                     "demand.goods_location_rate must be >= 0", id="goods_location_rate-negative"),
    ],
)
def test_bad_config_rejected_when_built(kw, msg):
    # kw: a key of the YAML's sim section and the bad value it gets
    key, value = kw
    sim = desk_yaml()["sim"]
    holder, leaf = locate(sim, key)
    holder[leaf] = value
    with pytest.raises(ValueError, match=msg):
        build_config(SimConfig, sim)
