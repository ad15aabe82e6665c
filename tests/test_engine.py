import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hopfleet import demand as dm
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
        Request(0, PASSENGER, ZoneId(2, 3), ZoneId(4, 4), 0, 1.0),
        Request(1, PASSENGER, ZoneId(7, 1), ZoneId(0, 0), 0, 1.0),
        Request(2, GOODS, ZoneId(5, 5), ZoneId(5, 9), 1, 0.5),
    ]
    path = tmp_path / "trips.csv"
    write_trip_records(path, reqs)
    cfg = small_cfg(n_vehicles=3, warmup_ticks=0)
    cfg.demand.trips_csv = str(path)
    sim = Simulation(cfg)
    sim.initialize()
    assert [v.location for v in sim.vehicles] == [ZoneId(2, 3), ZoneId(7, 1), ZoneId(5, 5)]


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
    reqs = [Request(0, PASSENGER, ZoneId(2, 2), ZoneId(3, 3), 999, 1.0)]
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
    """Replace the demand stream with a fixed script keyed by tick."""
    table = {}
    for r in requests:
        table.setdefault(r.created_tick, []).append(r)

    def draw(tick, rng):
        out = []
        for r in table.get(tick, []):
            out.append(
                dm.Request(sim.next_request_id, r.kind, r.origin, r.destination, tick, r.urgency)
            )
            sim.next_request_id += 1
        return out

    sim._draw_requests = draw


def place(sim, *zones):
    """Put vehicles 0, 1, ... at ``zones``: build the fleet table anew from
    the vehicles and their zones, as ``initialize`` builds it."""
    sim.fleet = fl.FleetTable(sim.vehicles, sim.grid, [ZoneId(*zone) for zone in zones])


def test_adjacent_passenger_delivered_within_overhead_budget():
    cfg = small_cfg(n_vehicles=1, warmup_ticks=0, episode_ticks=15)
    sim = Simulation(cfg, policy=ScriptedPolicy(0, 1))  # always dispatch one zone east
    sim.initialize()
    place(sim, (0, 0))
    inject_requests(sim, [Request(0, PASSENGER, ZoneId(0, 1), ZoneId(0, 5), 0, 1.0)])
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
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 6), 0, 0.5)])
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


def test_goods_relay_three_legs_indexed_by_hops_completed():
    cfg = small_cfg(n_vehicles=3, warmup_ticks=0, episode_ticks=40, max_hop_depth=2)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))  # dispatch one zone south
    sim.initialize()
    place(sim, (0, 0), (0, 3), (0, 6))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 9), 0, 0.5)])
    log = sim.run(ticks=40)

    hubs = [ZoneId(0, 0), ZoneId(0, 3), ZoneId(0, 6), ZoneId(0, 9)]
    assert sim.legs[0] == tuple(zip(hubs, hubs[1:]))
    hops = log.by_kind("hop_drop")
    assert [h["hops_done"] for h in hops] == [1, 2]
    assert [tuple(h["zone"]) for h in hops] == [(0, 3), (0, 6)]
    deliver = log.by_kind("deliver")
    assert len(deliver) == 1 and deliver[0]["request"] == 0
    assert tuple(deliver[0]["zone"]) == (0, 9)

    legs = sorted((r for r in sim.registry.values() if 0 in (r.id, r.parent_id)),
                  key=lambda r: r.id)
    assert [r.hops_completed for r in legs] == [0, 1, 2]
    # each leg request was picked up and dropped at the ends of the leg its
    # hops_completed indexes
    picked = {e["request"]: tuple(e["zone"]) for e in log.by_kind("pickup")}
    dropped = {e["leg"]: tuple(e["zone"]) for e in hops + deliver}
    for r in legs:
        origin, dest = sim.legs[0][r.hops_completed]
        assert (picked[r.id], dropped[r.id]) == (tuple(origin), tuple(dest))
        assert r.status == dm.DELIVERED


def relay_waiting_at_hub():
    """One vehicle carries the first leg of a 2-leg relay and drops it at the
    hub; the second leg then waits queued, with no vehicle free to take it."""
    cfg = small_cfg(n_vehicles=1, warmup_ticks=0, max_hop_depth=1)
    sim = Simulation(cfg, policy=ScriptedPolicy(1, 0))
    sim.initialize()
    place(sim, (0, 0))
    inject_requests(sim, [Request(0, GOODS, ZoneId(0, 0), ZoneId(0, 6), 0, 0.5)])
    for _ in range(30):  # the hop drop comes at tick 6; a stalled relay fails below
        sim.step()
        if sim.log.by_kind("hop_drop"):
            break
    assert sim.log.by_kind("hop_drop"), "the first leg reached no hub within 30 ticks"
    leg = next(r for r in sim.registry.values() if r.parent_id == 0)
    assert sim.queue == [leg.id]
    sim.run(ticks=0)  # the intact relay passes the full conservation check
    return sim, leg


def test_conservation_check_catches_a_lost_leg():
    sim, leg = relay_waiting_at_hub()
    sim.queue.remove(leg.id)
    with pytest.raises(EngineInvariantError, match="request 0 .* 0 live legs, expected 1"):
        sim.run(ticks=0)


def test_conservation_check_catches_a_duplicated_leg():
    sim, leg = relay_waiting_at_hub()
    sim.queue.append(leg.id)
    with pytest.raises(EngineInvariantError, match="request 0 .* 2 live legs, expected 1"):
        sim.run(ticks=0)


def reference_process_arrivals(v, tick):
    """process_arrivals as it was before it read the stored plan: a scan of
    the whole manifest for every matched or serving vehicle."""
    events = []
    if v.status == fl.DISPATCHING and v.location == v.dispatch_target:
        v.dispatch_target = None
        v.set_status(fl.DISPATCHED)
    if v.status in (fl.MATCHED, fl.SERVING):
        for e in [e for e in v.manifest if e.onboard and e.destination == v.location]:
            v.manifest.remove(e)
            events.append(fl.DropEvent(e.request_id, v.id, v.location, tick))
        picked = False
        for e in v.manifest:
            if not e.onboard and e.origin == v.location:
                e.onboard = True
                picked = True
                events.append(fl.PickupEvent(e.request_id, v.id, v.location, tick))
        if events:
            v.replan()
        if picked and v.status == fl.MATCHED:
            v.set_status(fl.SERVING)
        if v.status == fl.SERVING and not v.manifest:
            v.set_status(fl.IDLE)
    return events


def vehicle_state(v):
    """A vehicle's state with its stop plan and zone index as seen from the
    vehicle, whichever distance the stored plan is measured from, and its
    row of the fleet table but for the odometer."""
    index = {zone: cum - v.driven for zone, cum in v.zone_index.items()}
    row = {name: value for name, value in v.fleet.row(v.id).items() if name != "driven"}
    return (v.status, v.location, v.dispatch_target, v.manifest, v.remaining_stops(), index, row)


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

    def recorded(v, tick):
        events = process_arrivals(v, tick)
        events_seen.extend(events)
        return events

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
            want = [ev for c in copies for ev in reference_process_arrivals(c, sim.tick)]
            events_seen.clear()
            _run(*args)
            assert events_seen == want, (seed, sim.tick)
            assert [vehicle_state(v) for v in sim.vehicles] == [vehicle_state(c) for c in copies]
            nonlocal resolved
            resolved += len(want)

        sim._arrivals = arrivals_as_a_full_scan
        for phase in ("_arrivals", "_match", "_advance"):
            def checked_phase(*args, _run=getattr(sim, phase), _phase=phase):
                nonlocal checked
                _run(*args)
                for v in sim.vehicles:
                    assert v.remaining_stops() == v.planned_stops(), (seed, sim.tick, _phase, v.id)
                    assert v.zone_index == fl.stop_index(v.stops), (seed, sim.tick, _phase, v.id)
                    checked += len(v.stops) > 1
                assert sim.fleet.first_stale() is None, (seed, sim.tick, _phase)
            setattr(sim, phase, checked_phase)
        sim.run(ticks=40)
    assert checked > 50
    assert resolved > 100  # pickups and drops


def arrival_state(v):
    """Everything process_arrivals may change on a vehicle: its status,
    manifest, stop plan, zone index and whole table row."""
    return v.status, v.manifest, v.stops, v.zone_index, v.fleet.row(v.id)


@pytest.mark.parametrize("speed", [1, 2, 3])
@pytest.mark.parametrize("baseline", BASELINES)
def test_arrivals_only_where_something_can_resolve(baseline, speed, monkeypatch):
    # the engine resolves arrivals only for the vehicles the last move pass
    # left where something can resolve (the fleet module docstring has the
    # argument); process_arrivals on every moving vehicle of a twin fleet
    # must give the same events and leave the same vehicles and table
    process_arrivals = fl.process_arrivals
    seen = []

    def recorded(v, tick):
        events = process_arrivals(v, tick)
        seen.extend(events)
        return events

    monkeypatch.setattr(fl, "process_arrivals", recorded)
    moving = (fl.DISPATCHING, fl.MATCHED, fl.SERVING)
    skipped = resolved = on_the_way = 0
    for seed in (21, 22, 23):
        cfg = small_cfg(baseline=baseline, seed=seed, n_vehicles=8,
                        grid=replace(small_cfg().grid, vehicle_speed=speed))
        sim = Simulation(cfg)
        sim.initialize()

        def arrivals_against_every_moving_vehicle(*args, _run=sim._arrivals):
            nonlocal skipped, resolved, on_the_way
            twin = copy.deepcopy(sim.vehicles)  # the twins share one copied table
            want = [ev for c in twin if c.status in moving
                    for ev in process_arrivals(c, sim.tick)]
            candidates = set(sim.fleet.arriving)
            skipped += sum(v.status in moving and v.id not in candidates for v in sim.vehicles)
            on_the_way += sum(v.id in candidates and v.status != fl.DISPATCHING
                              and int(sim.fleet.zone[v.id]) != int(sim.fleet.target[v.id])
                              and any(ev.vehicle_id == v.id for ev in want)
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
    return {e.request_id: math.ceil(first[e.destination] / speed)
            for e in v.manifest if e.onboard}


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
        if v.status in (fl.MATCHED, fl.SERVING):
            etas = reference_remaining_etas(v, speed)
        delays, hops, onboard = [], [], {PASSENGER: 0, GOODS: 0}
        for e in v.manifest:
            if not e.onboard:
                continue
            onboard[e.kind] += 1
            req = sim.registry[e.request_id]
            # the wait to pickup plus the ride since, to the drop
            t_total = sim.tick - req.created_tick + etas.get(e.request_id, 0)
            t_direct = math.ceil(manhattan(e.origin, e.destination) / speed)
            delays.append((req.urgency, max(0.0, t_total - t_direct)))
            if e.kind == GOODS:
                hops.append(req.hops_completed)
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
        action = _select(values, drawn)
        actions.append(action if len(actions) % 4 == 3 else hold)
        return actions[-1]

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


def test_full_check_catches_a_stale_stop_plan():
    sim = Simulation(small_cfg(seed=3))
    sim.initialize()
    while not any(v.stops and v.driven for v in sim.vehicles):
        sim.step()
    sim.run(ticks=0)  # the true plans pass
    v = next(v for v in sim.vehicles if v.stops and v.driven)
    stops, driven, index = list(v.stops), v.driven, dict(v.zone_index)
    zone, cum = stops[0]
    stale = [
        ("stops", [(z, c + 1) for z, c in stops], "stored stop plan"),
        # an odometer that missed a move, or counted one twice
        ("driven", driven - 1, "stored stop plan"),
        ("driven", driven + 1, "stored stop plan"),
        # an index with a stop's distance wrong, or with a zone off the plan
        ("zone_index", {**index, zone: cum - 1}, "stored zone index"),
        ("zone_index", {**index, ZoneId(-1, -1): cum}, "stored zone index"),
    ]
    for name, value, message in stale:
        setattr(v, name, value)
        with pytest.raises(EngineInvariantError, match=f"vehicle {v.id} {message}"):
            sim.run(ticks=0)
        v.stops, v.driven, v.zone_index = list(stops), driven, dict(index)
        sim.run(ticks=0)


@pytest.mark.parametrize("column", fl.COLUMNS)
def test_full_check_catches_a_stale_fleet_table(column):
    # the objective is compared with the vehicles' status and plans, the
    # capacity columns with a recount of the manifests
    sim = Simulation(small_cfg(seed=3))
    sim.initialize()
    while not sim.fleet.onboard.any():
        sim.step()
    sim.run(ticks=0)  # the true table passes
    v = sim.vehicles[int(np.flatnonzero(sim.fleet.onboard)[0])]
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
        parked = next(u.id for u in sim.vehicles if not u.manifest)  # no plan to go stale
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
        # a wrong status shows where it changes the objective, and a code
        # that names no status is refused
        target = int(sim.fleet.target[v.id])
        stored[v.id] = fl.STATUS_CODE[fl.IDLE]
        with pytest.raises(EngineInvariantError,
                           match=f"vehicle {v.id} fleet table target {target} is stale, "
                                 f"the vehicle says -1"):
            sim.run(ticks=0)
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
    while not (sim.queue and any(v.manifest for v in sim.vehicles)):
        sim.step()
    sim._check_invariants(full=False)
    return sim


def corrupt_light(sim, case):
    """Break one thing the light pass checks; the message it must raise."""
    v = next(v for v in sim.vehicles if v.manifest)
    rid = v.manifest[0].request_id
    if case == "overcommitted":
        sim.fleet.seats_free[v.id] = -1
        return f"vehicle {v.id} overcommitted"
    if case == "overcommitted-trunk":
        sim.fleet.trunk_free[v.id] = -1
        return f"vehicle {v.id} overcommitted"
    if case in ("status-negative", "status-past-end"):
        code = -1 if case == "status-negative" else len(fl.VEHICLE_STATUSES)
        sim.fleet.status[v.id] = code
        return f"vehicle {v.id} bad status code {code}"
    if case == "in-two-manifests":
        sim.vehicles[(v.id + 1) % len(sim.vehicles)].manifest.append(v.manifest[0])
        return f"request {rid} in two manifests"
    if case == "queued-and-assigned":
        sim.queue.append(rid)
        return f"request {rid} queued and assigned"
    queued = sim.queue[0]
    sim.registry[queued].status = dm.ASSIGNED
    return f"queued request {queued} not in queued status"


@pytest.mark.parametrize("case", ["overcommitted", "overcommitted-trunk", "status-negative",
                                  "status-past-end", "in-two-manifests", "queued-and-assigned",
                                  "not-queued"])
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
    # a stale manifest entry: request 999 is queued, not assigned
    sim.registry[999] = Request(999, PASSENGER, ZoneId(0, 0), ZoneId(0, 1), 0, 1.0)
    sim.vehicles[30].add_entry(fl.ManifestEntry(999, PASSENGER, ZoneId(0, 0), ZoneId(0, 1)))
    with pytest.raises(EngineInvariantError, match="request 999 status queued") as info:
        sim.run(ticks=0)
    dump = json.loads(str(info.value).split("state dump: ", 1)[1])
    assert [v["id"] for v in dump["vehicles"]] == [*range(20), 30]
    assert dump["vehicles"][-1]["manifest"] == [[999, PASSENGER, False]]
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
    passenger_vehicles = [v for v in sim.vehicles if v.seats_total > 0]
    goods_vehicles = [v for v in sim.vehicles if v.trunk_total > 0]
    assert len(passenger_vehicles) == 3 and len(goods_vehicles) == 3
    assert all(v.trunk_total == 0 for v in passenger_vehicles)
    assert all(v.seats_total == 0 for v in goods_vehicles)
    assert all(v.trunk_total == cfg.separate_goods_trunk for v in goods_vehicles)
    sim.training = True
    for _ in range(40):
        sim.step()
        for v in sim.vehicles:
            kinds = {e.kind for e in v.manifest}
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
    for req in sim.registry.values():
        if req.parent_id is not None or req.kind != GOODS:
            continue
        assert req.status in (dm.QUEUED, dm.ASSIGNED, dm.PICKED_UP, dm.DELIVERED, dm.REJECTED)
        assert (req.id in delivered) == (req.status == dm.DELIVERED)
        if req.status == dm.DELIVERED:
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
