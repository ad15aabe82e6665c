import math

import numpy as np
import pytest

from hopfleet.demand import GOODS, PASSENGER, HistoricalAverageForecaster
from hopfleet.dispatch_rl import (
    CLIP_NORM,
    DEMAND_REACH,
    N_CHANNELS,
    N_SCALARS,
    CheckpointShapeError,
    QNetwork,
    ReplayBuffer,
    Transition,
    act_probability_at,
    action_count,
    action_target,
    action_to_offset,
    ddqn_target,
    ddqn_targets,
    encode_state,
    epsilon_at,
    exploration_draw,
    load_checkpoint,
    observation_maps,
    offset_to_action,
    save_checkpoint,
    select_action,
    state_dim,
    sync_target,
    train_step,
)
from hopfleet.fleet import FleetSnapshot, ManifestEntry, project_supply
from hopfleet.geo import GridWorld, ZoneId

from fleet_rows import free_capacity, vehicles_in_table

RADIUS, WINDOW = 7, 15  # the desk's rl.action_radius and rl.window


def empty_world(width=20, height=20):
    grid = GridWorld(width=width, height=height)
    supply = FleetSnapshot(available=np.zeros((height, width)),
                           freeing=np.zeros((0, 3), dtype=np.int64))
    forecast = np.zeros((DEMAND_REACH + 1, height, width))
    return grid, supply, forecast


def encode(supply, forecast, v, tick):
    """The state vector of one vehicle, a batch of one."""
    return encode_state(observation_maps(supply, forecast), v.fleet, [v.id], tick=tick,
                        ticks_per_day=1440, window=WINDOW)[0]


def reference_crop(arr, center, window):
    """The per-vehicle crop the encoder replaced: a window x window crop of
    the last two axes centred on ``center``, zero-padded off the grid."""
    half = window // 2
    out = np.zeros(arr.shape[:-2] + (window, window))
    h, w = arr.shape[-2:]
    r0, c0 = center.row - half, center.col - half
    rs, cs = max(r0, 0), max(c0, 0)
    re, ce = min(r0 + window, h), min(c0 + window, w)
    if rs < re and cs < ce:
        out[..., rs - r0 : re - r0, cs - c0 : ce - c0] = arr[..., rs:re, cs:ce]
    return out


def channels(vec, window=WINDOW):
    """The cropped maps of a state vector, (N_CHANNELS, window, window)."""
    return vec[:-N_SCALARS].reshape(N_CHANNELS, window, window)


def test_action_space_size_and_round_trip():
    assert action_count(RADIUS) == 225
    for idx in range(225):
        dr, dc = action_to_offset(idx, RADIUS)
        assert -7 <= dr <= 7 and -7 <= dc <= 7
        assert offset_to_action(dr, dc, RADIUS) == idx
    with pytest.raises(ValueError):
        offset_to_action(8, 0, RADIUS)


def test_action_target_clamped_to_grid():
    grid = GridWorld(width=10, height=10)
    idx = offset_to_action(-7, -7, RADIUS)
    assert action_target(grid, ZoneId(0, 0), idx, RADIUS) == ZoneId(0, 0)
    idx = offset_to_action(7, 7, RADIUS)
    assert action_target(grid, ZoneId(9, 9), idx, RADIUS) == ZoneId(9, 9)
    idx = offset_to_action(2, -1, RADIUS)
    assert action_target(grid, ZoneId(4, 4), idx, RADIUS) == ZoneId(6, 3)


def test_encode_empty_world_only_time_features():
    grid, supply, forecast = empty_world()
    v = vehicles_in_table(grid, [(10, 10)])[0]
    vec = encode(supply, forecast, v, tick=0)
    assert vec.shape == (state_dim(WINDOW),)
    assert np.all(channels(vec) == 0)
    scalars = vec[-N_SCALARS:]
    assert scalars[0] == 4.0 and scalars[1] == 5.0
    assert scalars[2] == pytest.approx(0.0)  # sin of tick 0
    assert scalars[3] == pytest.approx(1.0)


def test_encode_corner_zero_padded():
    grid, supply, forecast = empty_world()
    supply.available[:, :] = 1.0
    v = vehicles_in_table(grid, [(0, 0)])[0]
    avail = channels(encode(supply, forecast, v, tick=0))[1]
    assert avail[7, 7] == 1.0  # own zone at the crop center
    assert np.all(avail[:7, :] == 0.0)  # off-map rows above
    assert np.all(avail[:, :7] == 0.0)


def test_encode_demand_offset_east():
    grid, supply, forecast = empty_world()
    # 3 requests expected one step ahead, two zones east of the vehicle
    forecast[1, 10, 12] = 3.0
    v = vehicles_in_table(grid, [(10, 10)])[0]
    demand = channels(encode(supply, forecast, v, tick=0))[0]
    assert demand[7, 9] == 3.0
    assert demand.sum() == 3.0


def test_encode_deterministic():
    grid, supply, forecast = empty_world()
    supply.available[3, 4] = 2
    forecast[2, 5, 5] = 1.5
    v = vehicles_in_table(grid, [(5, 5)])[0]
    a = encode(supply, forecast, v, tick=77)
    b = encode(supply, forecast, v, tick=77)
    assert np.array_equal(a, b)


def reference_project_supply(vehicles, grid, horizon=30):
    """project_supply as it was: vehicles available now per zone, and busy
    ones in a (horizon + 1)-deep cube by the tick they free."""
    available = np.zeros((grid.height, grid.width))
    projected = np.zeros((horizon + 1, grid.height, grid.width))
    for v in vehicles:
        kinds = [e.kind for e in v.manifest]
        if kinds.count(PASSENGER) < v.seats_total or kinds.count(GOODS) < v.trunk_total:
            available[v.location.row, v.location.col] += 1
            continue
        if not v.stops:
            continue
        final_zone, cum = v.remaining_stops()[-1]
        eta = math.ceil(cum / grid.vehicle_speed)
        if eta <= horizon:
            projected[eta, final_zone.row, final_zone.col] += 1
    return available, projected


def reference_encode(available, projected, forecast, v, tick, ticks_per_day, window):
    """The observation as it was built from 30-step cubes: each call sums
    the forecast and projection steps itself and crops each channel."""
    demand_next = forecast[1 : min(16, forecast.shape[0])].sum(axis=0)
    freeing_15 = projected[1 : min(16, projected.shape[0])].sum(axis=0)
    freeing_30 = projected[1 : min(31, projected.shape[0])].sum(axis=0)
    channels = np.stack([reference_crop(m, v.location, window)
                         for m in (demand_next, available, freeing_15, freeing_30)])
    tod = 2.0 * math.pi * (tick % ticks_per_day) / ticks_per_day
    dow = 2.0 * math.pi * ((tick // ticks_per_day) % 7) / 7.0
    kinds = [e.kind for e in v.manifest]
    scalars = [v.seats_total - kinds.count(PASSENGER), v.trunk_total - kinds.count(GOODS),
               math.sin(tod), math.cos(tod), math.sin(dow), math.cos(dow)]
    return np.concatenate([channels.ravel(), scalars])


def random_fleet(rng, grid):
    """Vehicles at random zones with random manifests; small capacities fill
    up, so some are busy, and a few have no capacity and no plan at all."""
    def zone():
        return ZoneId(int(rng.integers(grid.height)), int(rng.integers(grid.width)))

    specs = []
    for _ in range(int(rng.integers(1, 40))):
        loc, seats, trunk = zone(), int(rng.integers(3)), int(rng.integers(3))
        entries = []
        for kind, free in ((PASSENGER, seats), (GOODS, trunk)):
            for _ in range(int(rng.integers(free + 1))):
                entries.append(ManifestEntry(len(entries), kind, zone(), zone(),
                                             onboard=bool(rng.integers(2))))
        specs.append((loc, seats, trunk, entries))
    fleet = vehicles_in_table(grid, [loc for loc, *_ in specs],
                              seats_total=[seats for _, seats, _, _ in specs],
                              trunk_total=[trunk for _, _, trunk, _ in specs])
    for v, (*_, entries) in zip(fleet, specs):
        for e in entries:
            v.add_entry(e)
    return fleet


@pytest.mark.parametrize("seed", [5, 15, 20, 30, 40])
def test_encode_from_tick_maps_equals_per_call_sums(seed):
    # the maps from the 15-step forecast and the freeing list are, bit for
    # bit, the slices of the 30-step forecast and supply cubes
    rng = np.random.default_rng(seed)
    for trial in range(20):
        height, width = (int(n) for n in rng.integers(1, 25, size=2))
        grid = GridWorld(width=width, height=height, vehicle_speed=int(rng.integers(1, 4)))
        forecaster = HistoricalAverageForecaster(grid, ticks_per_day=int(rng.integers(1, 60)))
        for t in range(int(rng.integers(0, 80))):
            forecaster.record(t, rng.poisson(0.3, size=(height, width)) * rng.random())
        tick = int(rng.integers(5000))
        fleet = random_fleet(rng, grid)
        table = fleet[0].fleet
        maps = observation_maps(project_supply(table, grid),
                                forecaster.forecast(tick, DEMAND_REACH))
        available, projected = reference_project_supply(fleet, grid)
        cube = forecaster.forecast(tick, 30)
        for v in fleet:
            window = int(rng.choice([1, 3, 15]))
            got = encode_state(maps, table, [v.id], tick, ticks_per_day=250, window=window)[0]
            want = reference_encode(available, projected, cube, v, tick, 250, window)
            assert got.tobytes() == want.tobytes(), (seed, trial, v.id, window)
        # the whole fleet in one batch, rows in fleet order
        window = int(rng.choice([1, 3, 15]))
        batch = encode_state(maps, table, [v.id for v in fleet], tick, ticks_per_day=250,
                             window=window)
        assert batch.shape == (len(fleet), state_dim(window))
        for v, got in zip(fleet, batch):
            want = reference_encode(available, projected, cube, v, tick, 250, window)
            assert got.tobytes() == want.tobytes(), (seed, trial, v.id, window)


def test_freeing_channels_count_within_their_reach():
    _, supply, forecast = empty_world(width=3, height=1)
    # (ticks until free, row, col): eta 0 is free already, 31 is out of reach
    supply.freeing = np.array([[0, 0, 0], [1, 0, 0], [15, 0, 1], [16, 0, 1], [30, 0, 2],
                               [31, 0, 2]])
    maps = observation_maps(supply, forecast)
    assert maps[2].tolist() == [[1, 1, 0]]  # within 15 ticks
    assert maps[3].tolist() == [[1, 2, 1]]  # within 30 ticks


def test_encoded_crop_is_identity_inside():
    arr = np.arange(100.0).reshape(10, 10)
    maps = np.stack([arr, 2 * arr, 3 * arr, 4 * arr])
    fleet = vehicles_in_table(GridWorld(width=10, height=10), [(5, 5)])[0].fleet
    vec = encode_state(maps, fleet, [0], 0, 1440, window=3)[0]
    assert np.array_equal(channels(vec, window=3), maps[:, 4:7, 4:7])


@pytest.mark.parametrize("window", [1, 3, 7, 15])
def test_encoder_batch_equals_per_vehicle_crops_at_corners_and_edges(window):
    # the rows of one batch, in the order of the ids given, equal a batch of
    # one per vehicle and the per-vehicle reference crop, on a grid narrower
    # than the window: corners, each edge and the interior, capacities
    # differing, one vehicle filled after the table was built
    height, width = 6, 9
    rng = np.random.default_rng(window)
    maps = rng.random((N_CHANNELS, height, width)) * rng.integers(0, 3, (N_CHANNELS, height, width))
    spots = [(0, 0), (0, width - 1), (height - 1, 0), (height - 1, width - 1),
             (0, 4), (height - 1, 4), (3, 0), (3, width - 1), (2, 5), (0, 0)]
    vehicles = vehicles_in_table(GridWorld(width=width, height=height), spots,
                                 seats_total=[i % 5 for i in range(len(spots))],
                                 trunk_total=[i // 2 for i in range(len(spots))])
    vehicles[4].add_entry(ManifestEntry(0, PASSENGER, ZoneId(0, 4), ZoneId(1, 4)))
    fleet = vehicles[0].fleet
    vids = [7, 0, 9, 4, 1, 2, 8, 3, 6, 5]
    batch = encode_state(maps, fleet, vids, 613, ticks_per_day=250, window=window)
    assert batch.shape == (len(vehicles), state_dim(window))
    for vid, row in zip(vids, batch):
        v = vehicles[vid]
        single = encode_state(maps, fleet, [vid], 613, ticks_per_day=250, window=window)[0]
        assert row.tobytes() == single.tobytes(), v.location
        assert channels(row, window).tobytes() == reference_crop(maps, v.location, window).tobytes()
        assert row[-N_SCALARS:-N_SCALARS + 2].tolist() == list(free_capacity(v))
    assert free_capacity(vehicles[4]) == (3, 2)
    assert encode_state(maps, fleet, [], 613, ticks_per_day=250,
                        window=window).shape == (0, state_dim(window))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 500])
def test_stacked_single_rows_equal_one_pass_per_row(n):
    # the dispatch phase evaluates idle vehicles as a stack of single rows,
    # in chunks; each row must keep the bits of its own single-state pass
    net = QNetwork(state_dim(WINDOW), action_count(RADIUS), hidden=(128, 128),
                   rng=np.random.default_rng(n))
    states = np.random.default_rng(n + 1).normal(size=(n, state_dim(WINDOW)))
    stacked = net.q_values(states[:, None, :])
    assert stacked.shape == (n, 1, action_count(RADIUS))
    chunked = np.concatenate([net.q_values(states[i : i + 37, None, :]) for i in range(0, n, 37)])
    for k in range(n):
        want = net.q_values(states[k]).tobytes()
        assert stacked[k, 0].tobytes() == want, k
        assert chunked[k, 0].tobytes() == want, k


def test_select_action_greedy_and_ties():
    rng = np.random.default_rng(0)
    net = QNetwork(4, 5, hidden=(8,), rng=np.random.default_rng(1))
    q = net.q_values(np.ones(4))
    assert exploration_draw(5, 0.0, rng) is None
    assert select_action(q, None) == int(np.argmax(q))
    assert select_action(np.zeros(5), None) == 0
    assert select_action(q, 3) == 3  # a drawn action overrides the values


def test_select_action_epsilon_one_uniform():
    rng = np.random.default_rng(7)
    n = 10_000
    counts = np.zeros(10)
    for _ in range(n):
        counts[select_action(np.zeros(10), exploration_draw(10, 1.0, rng))] += 1
    expected = n / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 21.67  # chi-square 99th percentile, 9 dof


class StubNet:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.n_actions = self.values.shape[-1]

    def q_values(self, x):
        return self.values


def test_ddqn_target_examples():
    tr = Transition(np.zeros(2), 0, 1.0, np.zeros(2), elapsed=1)
    online = StubNet([0.0, 5.0])  # argmax -> action 1
    target = StubNet([9.0, 4.0])  # evaluated at action 1 -> 4
    assert ddqn_target(tr, online, target, gamma=0.0) == 1.0
    assert ddqn_target(tr, online, target, gamma=0.5) == pytest.approx(1 + 0.25 * 4)


def test_ddqn_target_identical_nets_reduce_to_max():
    tr = Transition(np.zeros(2), 0, 2.0, np.zeros(2), elapsed=0)
    net = StubNet([3.0, 7.0])
    assert ddqn_target(tr, net, net, gamma=0.9) == pytest.approx(2.0 + 0.9 * 7.0)


def test_ddqn_target_decouples_selection_from_evaluation():
    # online prefers action 1; target thinks action 0 is best.
    tr = Transition(np.zeros(2), 0, 0.0, np.zeros(2), elapsed=0)
    online = StubNet([0.0, 1.0])
    target = StubNet([10.0, 2.0])
    z_double = ddqn_target(tr, online, target, gamma=1.0)
    z_single = ddqn_target(tr, target, target, gamma=1.0)
    assert z_double == pytest.approx(2.0)
    assert z_single == pytest.approx(10.0)
    assert z_double != z_single


def test_ddqn_target_terminal_skips_bootstrap():
    tr = Transition(np.zeros(2), 0, 3.5, np.zeros(2), elapsed=4, terminal=True)
    assert ddqn_target(tr, StubNet([9, 9]), StubNet([9, 9]), gamma=0.9) == 3.5


def test_ddqn_targets_batch_matches_scalar():
    rng = np.random.default_rng(3)
    online = QNetwork(6, 4, hidden=(12,), rng=np.random.default_rng(10))
    target = QNetwork(6, 4, hidden=(12,), rng=np.random.default_rng(11))
    batch = [
        Transition(rng.normal(size=6), int(rng.integers(4)), float(rng.normal()),
                   rng.normal(size=6), int(rng.integers(3)), bool(rng.random() < 0.2))
        for _ in range(16)
    ]
    z = ddqn_targets(batch, online, target, gamma=0.9)
    for i, tr in enumerate(batch):
        assert z[i] == pytest.approx(ddqn_target(tr, online, target, 0.9))


def reference_ddqn_targets(batch, online, target, gamma):
    """``ddqn_targets`` as a per-row loop, the form the array version replaced."""
    next_states = np.stack([tr.next_state for tr in batch])
    best = np.argmax(online.q_values(next_states), axis=1)
    boot = target.q_values(next_states)[np.arange(len(batch)), best]
    out = np.empty(len(batch))
    for i, tr in enumerate(batch):
        out[i] = tr.reward if tr.terminal else tr.reward + gamma ** (1 + tr.elapsed) * boot[i]
    return out


def test_ddqn_targets_bit_identical_to_per_row_reference():
    # at gamma 0.98, np.power and Python's ** disagree in the last bit for
    # some exponents 1 + elapsed (11, 24, 39 and 44 with numpy 2.4 on x86-64).
    # A zero reward keeps that bit from being rounded away.
    rng = np.random.default_rng(21)
    online = QNetwork(10, 6, hidden=(16, 16), rng=np.random.default_rng(22))
    target = QNetwork(10, 6, hidden=(16, 16), rng=np.random.default_rng(23))
    batch = [
        Transition(rng.normal(size=10), int(rng.integers(6)), reward, rng.normal(size=10),
                   elapsed, terminal)
        for elapsed in (0, 1, 10, 23, 38, 43, 77, 120)
        for reward in (0.0, float(rng.normal(scale=5.0)))
        for terminal in (False, True)
    ]
    z = ddqn_targets(batch, online, target, gamma=0.98)
    assert np.array_equal(z, reference_ddqn_targets(batch, online, target, 0.98))
    assert [z[i] == tr.reward for i, tr in enumerate(batch)] == [tr.terminal for tr in batch]


def reference_apply_gradients(net, grads, learning_rate):
    """``QNetwork.apply_gradients`` as it was before it stepped in place: new
    arrays for the clipped gradients and for each step."""
    grads_w, grads_b = grads
    total = math.sqrt(
        sum(float((g**2).sum()) for g in grads_w) + sum(float((g**2).sum()) for g in grads_b)
    )
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        grads_w = [g * scale for g in grads_w]
        grads_b = [g * scale for g in grads_b]
    for w, g in zip(net.weights, grads_w):
        w -= learning_rate * g
    for b, g in zip(net.biases, grads_b):
        b -= learning_rate * g


def gradient_norm(grads):
    return math.sqrt(sum(float((g**2).sum()) for g in [*grads[0], *grads[1]]))


@pytest.mark.parametrize("target_scale, clipped", [(0.01, False), (100.0, True)])
def test_apply_gradients_bit_identical_to_reference(target_scale, clipped):
    rng = np.random.default_rng(31)
    net = QNetwork(24, 9, hidden=(32, 32), rng=np.random.default_rng(32))
    twin = net.clone()
    states = rng.normal(size=(32, 24))
    actions = rng.integers(0, 9, size=32)
    targets = net.q_values(states)[np.arange(32), actions] + rng.normal(scale=target_scale, size=32)
    _, grads = net.loss_and_gradients(states, actions, targets)
    assert (gradient_norm(grads) > CLIP_NORM) == clipped
    _, twin_grads = twin.loss_and_gradients(states, actions, targets)
    reference_apply_gradients(twin, twin_grads, 0.0173)
    net.apply_gradients(grads, 0.0173)
    for p, q in zip(net.parameters(), twin.parameters()):
        assert np.array_equal(p, q)


def fd_gradient(net, states, actions, targets, h=1e-6):
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]

    def loss():
        return net.loss_and_gradients(states, actions, targets)[0]

    for w, g in zip(net.weights, grads_w):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = w[idx]
            w[idx] = old + h
            up = loss()
            w[idx] = old - h
            down = loss()
            w[idx] = old
            g[idx] = (up - down) / (2 * h)
    for b, g in zip(net.biases, grads_b):
        for i in range(b.shape[0]):
            old = b[i]
            b[i] = old + h
            up = loss()
            b[i] = old - h
            down = loss()
            b[i] = old
            g[i] = (up - down) / (2 * h)
    return grads_w, grads_b


def rel_err(a, b):
    denom = max(float(np.abs(a).max(initial=0)), float(np.abs(b).max(initial=0)), 1e-8)
    return float(np.abs(a - b).max(initial=0)) / denom


@pytest.mark.parametrize("hidden", [(8,), (16, 8), (12, 10, 6)])
def test_gradient_check_against_finite_differences(hidden):
    rng = np.random.default_rng(99)
    net = QNetwork(7, 5, hidden=hidden, rng=rng)
    states = rng.normal(size=(6, 7))
    actions = rng.integers(0, 5, size=6)
    targets = rng.normal(size=6)
    _, (gw, gb) = net.loss_and_gradients(states, actions, targets)
    fw, fb = fd_gradient(net, states, actions, targets)
    for a, b in zip(gw, fw):
        assert rel_err(a, b) < 1e-4
    for a, b in zip(gb, fb):
        assert rel_err(a, b) < 1e-4


def test_train_step_zero_loss_leaves_params():
    rng = np.random.default_rng(5)
    net = QNetwork(4, 3, hidden=(6,), rng=np.random.default_rng(2))
    target = net.clone()
    buf = ReplayBuffer(10)
    s = rng.normal(size=4)
    s2 = rng.normal(size=4)
    # terminal transition whose reward already equals the prediction: zero error
    a = 1
    r = float(net.q_values(s)[a])
    buf.push(Transition(s, a, r, s2, 0, terminal=True))
    before = net.parameters()
    loss = train_step(buf, net, target, batch_size=1, learning_rate=0.1, gamma=0.9, rng=rng)
    assert loss == pytest.approx(0.0, abs=1e-24)
    for p, q in zip(before, net.parameters()):
        assert np.array_equal(p, q)


def test_train_step_descends_on_fixed_target():
    rng = np.random.default_rng(6)
    net = QNetwork(4, 3, hidden=(8,), rng=np.random.default_rng(3))
    target = net.clone()
    buf = ReplayBuffer(10)
    buf.push(Transition(rng.normal(size=4), 2, 5.0, rng.normal(size=4), 0, terminal=True))
    losses = [train_step(buf, net, target, 1, 0.01, 0.9, rng) for _ in range(100)]
    assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_train_step_underfull_buffer_noop():
    net = QNetwork(4, 3, hidden=(6,), rng=np.random.default_rng(0))
    target = net.clone()
    buf = ReplayBuffer(10)
    assert train_step(buf, net, target, 4, 0.1, 0.9, np.random.default_rng(0)) is None


def test_train_step_never_touches_target():
    rng = np.random.default_rng(8)
    net = QNetwork(4, 3, hidden=(6,), rng=np.random.default_rng(4))
    target = QNetwork(4, 3, hidden=(6,), rng=np.random.default_rng(5))
    frozen = target.parameters()
    buf = ReplayBuffer(64)
    for _ in range(32):
        buf.push(Transition(rng.normal(size=4), int(rng.integers(3)), float(rng.normal()),
                            rng.normal(size=4), 0))
    for _ in range(10):
        train_step(buf, net, target, 8, 0.05, 0.9, rng)
    for p, q in zip(frozen, target.parameters()):
        assert np.array_equal(p, q)


def test_replay_buffer_fifo_eviction():
    buf = ReplayBuffer(5)
    for i in range(8):
        buf.push(Transition(np.array([float(i)]), 0, 0.0, np.array([0.0]), 0))
    assert len(buf) == 5
    kept = sorted(tr.state[0] for tr in buf._data)
    assert kept == [3.0, 4.0, 5.0, 6.0, 7.0]


def test_sync_target_schedule():
    online = QNetwork(3, 2, hidden=(4,), rng=np.random.default_rng(1))
    target = QNetwork(3, 2, hidden=(4,), rng=np.random.default_rng(2))
    assert sync_target(online, target, step=150, period=150)
    for p, q in zip(online.parameters(), target.parameters()):
        assert np.array_equal(p, q)
    online.weights[0][0, 0] += 1.0
    assert not sync_target(online, target, step=151, period=150)
    assert target.weights[0][0, 0] != online.weights[0][0, 0]
    assert sync_target(online, target, step=1, period=1)


def test_epsilon_schedule_endpoints():
    assert epsilon_at(0, 1000) == 1.0
    assert epsilon_at(1000, 1000) == pytest.approx(0.05)
    assert epsilon_at(500, 1000) == pytest.approx(0.525)
    assert epsilon_at(5000, 1000) == pytest.approx(0.05)


def test_act_probability_schedule_endpoints():
    assert act_probability_at(0, 1000) == pytest.approx(0.3)
    assert act_probability_at(1000, 1000) == 1.0
    assert act_probability_at(500, 1000) == pytest.approx(0.65)
    assert act_probability_at(9000, 1000) == 1.0


def test_checkpoint_round_trip(tmp_path):
    online = QNetwork(6, 4, hidden=(8, 8), rng=np.random.default_rng(11))
    target = QNetwork(6, 4, hidden=(8, 8), rng=np.random.default_rng(12))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, online, target, step=42, extra={"note": "test"})
    o2, t2, header = load_checkpoint(path)
    assert header["step"] == 42
    for p, q in zip(online.parameters(), o2.parameters()):
        assert np.array_equal(p, q)
    for p, q in zip(target.parameters(), t2.parameters()):
        assert np.array_equal(p, q)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    online = QNetwork(6, 4, hidden=(8,), rng=np.random.default_rng(1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, online, online.clone(), step=0)
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path, expected={"input_dim": 7, "hidden": [8], "n_actions": 4})
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path, expected={"input_dim": 6, "hidden": [16], "n_actions": 4})


def test_checkpoint_bias_of_wrong_shape_rejected(tmp_path):
    online = QNetwork(6, 4, hidden=(8, 8), rng=np.random.default_rng(1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, online, online.clone(), step=0)
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files}
    arrays["online_3"] = np.array([0.5])  # the first layer's bias, shape (8,)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointShapeError, match="layer 0 bias"):
        load_checkpoint(path)


def test_integer_checkpoint_rejected_and_network_kept(tmp_path):
    # an int64 array of the right shape would load, and the first training
    # step would then fail casting its float update into it
    online = QNetwork(6, 4, hidden=(8,), rng=np.random.default_rng(1))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, online, online.clone(), step=0)
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files}
    arrays["online_0"] = np.round(arrays["online_0"]).astype(np.int64)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointShapeError, match="layer 0 weights: expected floating point, got int64"):
        load_checkpoint(path)
    before = online.parameters()
    with pytest.raises(CheckpointShapeError, match="layer 0 bias: expected floating point, got bool"):
        online.set_parameters([before[0], before[1], before[2] > 0, before[3]])
    for p, q in zip(before, online.parameters()):
        assert np.array_equal(p, q)


def test_set_parameters_rejects_wrong_count_and_keeps_network():
    net = QNetwork(6, 4, hidden=(8,), rng=np.random.default_rng(1))
    before = net.parameters()
    other = QNetwork(6, 4, hidden=(8,), rng=np.random.default_rng(2)).parameters()
    with pytest.raises(CheckpointShapeError, match="expected 4 parameter arrays, got 3"):
        net.set_parameters(other[:3])
    with pytest.raises(CheckpointShapeError, match="layer 1 bias"):
        net.set_parameters([*other[:3], np.zeros(5)])
    for p, q in zip(before, net.parameters()):
        assert np.array_equal(p, q)
