"""Acceptance suite: one test per release criterion, each printing a verdict.

Criteria:
  1  unit-exact arithmetic (rewards, relay ratio, Poisson, fuel rates)
  2  greedy matching dominance vs exhaustive scan, 500 random instances
  3  relay planning invariants vs brute force, 500 random instances
  4  learning correctness (gradient check, double-estimator target, toy-grid
     policy vs dynamic-programming oracle)
  5  state-machine and conservation invariants over full episodes, with
     bit-identical seed replay
  6  directional baseline comparison at desk scale (trained policies)
  7  schedule endpoints and target-network sync exactness
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hopfleet.demand import GOODS, PASSENGER, Request, poisson_pmf
from hopfleet.dispatch_rl import (
    QNetwork,
    ReplayBuffer,
    Transition,
    act_probability_at,
    ddqn_target,
    ddqn_targets,
    epsilon_at,
    exploration_draw,
    select_action,
    sync_target,
    train_step,
)
from hopfleet.engine import (
    BASELINE_FLEX_HOPS,
    BASELINE_FLEX_NOHOPS,
    BASELINE_SEPARATE,
    DispatchPolicy,
    MODE_EVAL,
    MODE_TRAIN,
    Simulation,
)
from hopfleet.fleet import KINDS, FleetTable
from hopfleet.geo import GridWorld, ZoneId, manhattan
from hopfleet.hopplan import assign_hop_zones, eligible_hop_zone
from hopfleet.matching import match
from hopfleet.metrics import (
    build_report,
    effective_distance_ratio,
    fuel_cost_per_delivery,
    index_log,
)
from hopfleet.reward import RewardWeights, agent_reward

from desk_config import desk_config
from fleet_rows import free_capacity
from test_metrics import add_request, add_stats, empty_log


def verdict(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: unit-exact arithmetic


def test_criterion_1_unit_exactness():
    w = RewardWeights.preset("init")
    # one laden, freshly deployed vehicle, then one idle empty vehicle
    reward_case = agent_reward(w, onboard=[1], detour_ticks=[2], active_now=[1], active_prev=[0],
                               max_hops=[1], order_vehicle=[0], order_urgency=[0.5],
                               order_extra=[4])[0]
    empty_case = agent_reward(w, onboard=[0], detour_ticks=[0], active_now=[0], active_prev=[0],
                              max_hops=[0])[0]
    ok_reward = reward_case == pytest.approx(3.95) and empty_case == 0.0

    # two-leg relay layout with unit split distances gives ratio 1 + 1/2
    log = empty_log(n_vehicles=2)
    add_request(log, 0, kind="passenger", origin=(0, 1), dest=(0, 2), picked=0, delivered=2)
    add_request(log, 1, kind="goods", origin=(0, 0), dest=(0, 2), picked=0, delivered=2)
    add_stats(log, 0, active=2, moved_total=1)
    add_stats(log, 1, active=2, moved_total=1)
    ok_ratio = effective_distance_ratio(index_log(log)) == pytest.approx(1.5)

    ok_poisson = (
        abs(poisson_pmf(0, 0.0) - 1.0) < 1e-12
        and abs(poisson_pmf(1, 1.0) - math.exp(-1)) < 1e-9
        and abs(poisson_pmf(2, 3.0) - math.exp(-3) * 4.5) < 1e-9
        and abs(sum(poisson_pmf(x, 30.0) for x in range(400)) - 1.0) < 1e-9
    )

    fuel_log = empty_log(n_vehicles=1, dt=1.0)
    add_request(fuel_log, 0, picked=1, delivered=59)
    for t in range(60):
        add_stats(fuel_log, t, active=1, moved_total=1)
    ok_fuel = fuel_cost_per_delivery(index_log(fuel_log)) == pytest.approx(1.0)

    verdict("criterion 1: unit-exact reward/ratio/poisson/fuel arithmetic",
            ok_reward and ok_ratio and ok_poisson and ok_fuel)


# ---------------------------------------------------------------------------
# criterion 2: matching vs exhaustive dominance oracle


def _check_matching_instance(rng) -> bool:
    grid = GridWorld(width=8, height=8)
    n_req = int(rng.integers(1, 7))
    n_veh = int(rng.integers(1, 5))
    reqs = []
    for i in range(n_req):
        kind = PASSENGER if rng.random() < 0.5 else GOODS
        o = ZoneId(int(rng.integers(8)), int(rng.integers(8)))
        d = ZoneId((o.row + 1 + int(rng.integers(6))) % 8, int(rng.integers(8)))
        if o == d:
            d = ZoneId((o.row + 1) % 8, o.col)
        reqs.append(Request(i, kind, o, d, 0))
    specs = [((int(rng.integers(8)), int(rng.integers(8))), int(rng.integers(0, 3)),
              int(rng.integers(0, 3))) for _ in range(n_veh)]
    fleet = FleetTable(grid, [seats for _, seats, _ in specs], [trunk for _, _, trunk in specs],
                       [ZoneId(*loc) for loc, _, _ in specs])
    vehicles = fleet.vehicles
    bound = math.ceil(float(rng.integers(2, 12)) / grid.vehicle_speed)
    got = match([r.origin for r in reqs], np.arange(n_veh), fleet,
                [KINDS.index(r.kind) for r in reqs], bound, rng)

    seats = {v.id: free_capacity(v)[0] for v in vehicles}
    trunks = {v.id: free_capacity(v)[1] for v in vehicles}
    assigned = set()
    for pos, vid, eta in got:
        r = reqs[pos]
        if pos in assigned:
            return False
        assigned.add(pos)
        if eta > bound or eta != grid.eta(vehicles[vid].location, r.origin).ticks:
            return False
        pool = seats if r.kind == PASSENGER else trunks
        pool[vid] -= 1
        if pool[vid] < 0:
            return False
    if got:
        worst = max(eta for _, _, eta in got)
        for pos, r in enumerate(reqs):
            if pos in assigned:
                continue
            for v in vehicles:
                free = seats[v.id] if r.kind == PASSENGER else trunks[v.id]
                eta = grid.eta(v.location, r.origin).ticks
                if free > 0 and eta <= bound and eta < worst:
                    return False
    return True


def test_criterion_2_matching_oracle():
    rng = np.random.default_rng(20240404)
    failures = sum(0 if _check_matching_instance(rng) else 1 for _ in range(500))
    verdict("criterion 2: greedy matching dominance on 500 random instances",
            failures == 0, f"{failures} violations")


# ---------------------------------------------------------------------------
# criterion 3: relay planning vs brute force


def _check_hop_instance(rng) -> bool:
    n_hz = int(rng.integers(0, 6))
    hz = {ZoneId(int(r), int(c)) for r, c in rng.integers(0, 10, size=(n_hz, 2))}
    grid = GridWorld(width=10, height=10, hop_zones=frozenset(hz))
    while True:
        o = ZoneId(int(rng.integers(10)), int(rng.integers(10)))
        d = ZoneId(int(rng.integers(10)), int(rng.integers(10)))
        if o != d:
            break
    depth = int(rng.integers(0, 5))
    req = Request(0, GOODS, o, d, 0)
    trip = assign_hop_zones(req, grid, max_depth=depth)

    if trip.legs[0][0] != o or trip.legs[-1][1] != d:
        return False
    if len(trip.legs) > 2 ** depth:
        return False
    for (o1, d1), (o2, _) in zip(trip.legs, trip.legs[1:]):
        if d1 != o2 or d1 not in grid.hop_zones:
            return False

    def brute(a, b, k):
        direct = manhattan(a, b)
        best = None
        for h in sorted(hz):
            if h in (a, b):
                continue
            f, s = manhattan(a, h), manhattan(h, b)
            if f < direct and s < direct and f + s <= 2 * direct:
                if best is None or f < manhattan(a, best):
                    best = h
        if eligible_hop_zone(grid, a, b) != best:
            raise AssertionError("nearest eligible mismatch")
        if k <= 0 or best is None:
            return [(a, b)]
        return brute(a, best, k - 1) + brute(best, b, k - 1)

    try:
        expected = tuple(brute(o, d, depth))
    except AssertionError:
        return False
    if expected != trip.legs:
        return False
    # per-split bound implies the whole chain stays under 2^depth of direct
    return sum(manhattan(o, d) for o, d in trip.legs) <= (2 ** depth) * max(manhattan(o, d), 1)


def test_criterion_3_hop_planning_oracle():
    rng = np.random.default_rng(777)
    failures = sum(0 if _check_hop_instance(rng) else 1 for _ in range(500))
    verdict("criterion 3: relay planning invariants on 500 random instances",
            failures == 0, f"{failures} violations")


# ---------------------------------------------------------------------------
# criterion 4: learning correctness


def _fd_check(hidden, seed) -> float:
    """Worst per-tensor relative max-norm error between analytic and central
    finite-difference gradients."""
    rng = np.random.default_rng(seed)
    net = QNetwork(6, 4, hidden=hidden, rng=rng)
    states = rng.normal(size=(5, 6))
    actions = rng.integers(0, 4, size=5)
    targets = rng.normal(size=5)
    _, (gw, gb) = net.loss_and_gradients(states, actions, targets)
    h = 1e-6
    worst = 0.0
    params = net.weights + net.biases
    grads = gw + gb
    for p, g in zip(params, grads):
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + h
            up = net.loss_and_gradients(states, actions, targets)[0]
            p[idx] = old - h
            down = net.loss_and_gradients(states, actions, targets)[0]
            p[idx] = old
            fd[idx] = (up - down) / (2 * h)
        denom = max(float(np.abs(fd).max()), float(np.abs(g).max()), 1e-8)
        worst = max(worst, float(np.abs(fd - g).max()) / denom)
    return worst


def test_criterion_4a_gradient_check():
    worst = 0.0
    for i in range(50):
        hidden = [(8,), (12, 6), (10, 8, 6)][i % 3]
        worst = max(worst, _fd_check(hidden, 1000 + i))
    verdict("criterion 4a: finite-difference gradient check on 50 random inputs",
            worst < 1e-4, f"max rel err {worst:.2e}")


class _TwoActionStub:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.n_actions = 2

    def q_values(self, x):
        # one row per input row for a batch, as QNetwork.q_values returns
        return self.values if np.ndim(x) == 1 else np.tile(self.values, (len(x), 1))


def test_criterion_4b_double_estimator_target():
    tr = Transition(np.zeros(2), 0, 1.0, np.zeros(2), elapsed=1)
    online = _TwoActionStub([0.0, 5.0])
    target = _TwoActionStub([9.0, 4.0])
    z = ddqn_target(tr, online, target, gamma=0.5)
    single = ddqn_target(tr, target, target, gamma=0.5)
    # train_step runs the batched targets; they must agree on the same cases
    z_batch = ddqn_targets([tr], online, target, gamma=0.5)[0]
    single_batch = ddqn_targets([tr], target, target, gamma=0.5)[0]
    ok = (
        z == pytest.approx(1.0 + 0.25 * 4.0)
        and single == pytest.approx(1.0 + 0.25 * 9.0)
        and ddqn_target(tr, online, target, gamma=0.0) == 1.0
        and z != single
        and z_batch == pytest.approx(1.0 + 0.25 * 4.0)
        and single_batch == pytest.approx(1.0 + 0.25 * 9.0)
        and ddqn_targets([tr], online, target, gamma=0.0)[0] == 1.0
        and z_batch != single_batch
    )
    verdict("criterion 4b: double-estimator target on crafted two-action cases", ok)


# The toy grid's SGD step. train_step averages the gradient over the batch of
# 32, so a sampled transition moves its own value in proportion to step / 32.
# The terminal and near-terminal moves are rare in the buffer once epsilon
# reaches its floor at step 3000 (seed 2: 11 of 5000 rows take the 1.0 move
# from state (1, 2)), and at 0.05 they stay under-fit, so greedy keeps an
# accurately fit 0.9 move (learned Q 0.777 for the 1.0 move, 0.894 for the 0.9
# one). More steps at 0.05 do not cure it; steps 0.2, 0.3 and 0.4 all pass
# seeds 0-9, and 0.3 sits in the middle of that plateau.
TOY_GRID_SGD_STEP = 0.3


def _toy_grid_policy_accuracy(seed):
    """Train the shipped learner on a 5x5 deterministic grid against a
    value-iteration oracle. Returns the fraction of states whose greedy action
    is optimal, and one line per state it gets wrong: the DP-optimal action
    with the highest learned Q and the greedy action, each as (dr, dc) with
    its learned and DP Q."""
    size, goal, gamma = 5, (2, 3), 0.9
    offsets = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]

    def step(s, a):
        nxt = (min(max(s[0] + a[0], 0), size - 1), min(max(s[1] + a[1], 0), size - 1))
        return nxt, (1.0 if nxt == goal else 0.0), nxt == goal

    # exact oracle: value iteration on the known model
    q_star = {s: np.zeros(9) for s in [(r, c) for r in range(size) for c in range(size)]}
    for _ in range(200):
        for s in q_star:
            for ai, a in enumerate(offsets):
                nxt, r, done = step(s, a)
                q_star[s][ai] = r + (0.0 if done else gamma * q_star[nxt].max())

    def encode(s):
        vec = np.zeros(size * size)
        vec[s[0] * size + s[1]] = 1.0
        return vec

    rng = np.random.default_rng(seed)
    online = QNetwork(size * size, 9, hidden=(32,), rng=rng)
    target = online.clone()
    buffer = ReplayBuffer(5000)
    s = (0, 0)
    for step_i in range(6000):
        eps = epsilon_at(step_i, 3000, floor=0.05)
        a = select_action(online.q_values(encode(s)), exploration_draw(len(offsets), eps, rng))
        nxt, r, done = step(s, offsets[a])
        buffer.push(Transition(encode(s), a, r, encode(nxt), 0, terminal=done))
        s = (int(rng.integers(size)), int(rng.integers(size))) if done else nxt
        train_step(buffer, online, target, batch_size=32, learning_rate=TOY_GRID_SGD_STEP,
                   gamma=gamma, rng=rng)
        sync_target(online, target, step_i, period=100)

    hits = 0
    misses = []
    states = [st for st in q_star if st != goal]
    for st in states:
        q, qs = online.q_values(encode(st)), q_star[st]
        greedy = int(np.argmax(q))
        optimal = np.flatnonzero(qs >= qs.max() - 1e-9)
        if greedy in optimal:
            hits += 1
            continue
        best = int(optimal[np.argmax(q[optimal])])
        misses.append(f"seed {seed} {st}: DP {offsets[best]} Q {q[best]:.3f}/{qs[best]:.3f}, "
                      f"greedy {offsets[greedy]} Q {q[greedy]:.3f}/{qs[greedy]:.3f}")
    return hits / len(states), misses


def test_criterion_4c_toy_grid_policy_matches_dp():
    runs = [_toy_grid_policy_accuracy(seed) for seed in range(10)]
    accs = [acc for acc, _ in runs]
    misses = [line for _, lines in runs for line in lines]
    overall = float(np.mean(accs))
    verdict("criterion 4c: toy-grid greedy policy matches DP argmax over 10 seeds",
            overall >= 0.95,
            f"accuracy {overall:.3f} per-seed {['%.2f' % a for a in accs]}; "
            f"wrong greedy actions (learned/DP Q): {'; '.join(misses) or 'none'}")


# ---------------------------------------------------------------------------
# criterion 5: invariants and replay over full episodes


def desk_cfg(baseline=BASELINE_FLEX_HOPS, seed=7):
    """The shipped desk-scale world: configs/default.yaml with a seed and baseline."""
    return replace(desk_config().sim, seed=seed, baseline=baseline)


def test_criterion_5_invariants_and_replay():
    rng = np.random.default_rng(555)
    seeds = [int(s) for s in rng.integers(0, 100_000, size=10)]
    canon = {}
    for i, seed in enumerate(seeds):
        baseline = (BASELINE_FLEX_HOPS, BASELINE_FLEX_NOHOPS, BASELINE_SEPARATE)[i % 3]
        cfg = desk_cfg(baseline=baseline, seed=seed)
        sim = Simulation(cfg)
        sim.initialize()
        log = sim.run(mode=MODE_TRAIN)  # engine checks invariants every tick
        canon[(baseline, seed)] = log.canonical()
    # replay three of them for bit-identical logs
    for baseline, seed in list(canon)[:3]:
        cfg = desk_cfg(baseline=baseline, seed=seed)
        sim = Simulation(cfg)
        sim.initialize()
        log = sim.run(mode=MODE_TRAIN)
        assert log.canonical() == canon[(baseline, seed)], "replay diverged"
    verdict("criterion 5: 10 episodes, zero invariant violations, bit-identical replay", True)


# ---------------------------------------------------------------------------
# criterion 7: schedules and sync


def test_criterion_7_schedules_and_sync():
    ok = (
        epsilon_at(0, 1234) == 1.0
        and epsilon_at(1234, 1234) == pytest.approx(0.05)
        and act_probability_at(0, 1234) == pytest.approx(0.3)
        and act_probability_at(1234, 1234) == 1.0
        and act_probability_at(5000, 1234) == 1.0
    )
    online = QNetwork(4, 3, hidden=(8,), rng=np.random.default_rng(0))
    target = QNetwork(4, 3, hidden=(8,), rng=np.random.default_rng(1))
    for step_i in range(1, 451):
        online.weights[0][0, 0] += 0.001  # params drift between syncs
        synced = sync_target(online, target, step_i, period=150)
        if step_i % 150 == 0:
            ok = ok and synced
            for p, q in zip(online.parameters(), target.parameters()):
                ok = ok and np.array_equal(p, q)
        else:
            ok = ok and not synced
    verdict("criterion 7: schedule endpoints exact, target sync bit-equal at 150", ok)
