import numpy as np
import pytest

from hopfleet.reward import (
    RewardWeights,
    agent_reward,
    global_objective,
    supply_demand_gap,
)


def test_supply_demand_gap_examples():
    assert supply_demand_gap([2, 3], [2, 3]) == 0.0
    assert supply_demand_gap([3, 1], [1, 2]) == 2.0
    assert supply_demand_gap([0, 0], [5, 5]) == 0.0


def test_supply_demand_gap_length_mismatch():
    with pytest.raises(ValueError):
        supply_demand_gap([1, 2, 3], [1, 2])


def test_supply_demand_gap_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = rng.integers(0, 10, size=8)
        v = rng.integers(0, 10, size=8)
        gap = supply_demand_gap(d, v)
        assert gap >= 0
        assert (gap == 0) == bool(np.all(v >= d))


def test_global_objective_examples():
    w = RewardWeights.preset("init")
    assert global_objective([0, 0, 0, 0, 0], w) == 0.0
    assert global_objective([1, 1, 1, 1, 1], w) == pytest.approx(-14.05)
    base = global_objective([1, 1, 1, 1, 1], w)
    bumped = global_objective([1, 3, 1, 1, 1], w)
    assert bumped - base == pytest.approx(-w.b2 * 2)


def test_global_objective_is_negative_dot_product():
    rng = np.random.default_rng(1)
    w = RewardWeights(2.0, 3.0, 0.5, 1.0, 4.0)
    for _ in range(50):
        comp = rng.uniform(0, 10, size=5)
        assert global_objective(comp, w) == pytest.approx(-float(w.as_vector() @ comp))


def reference_agent_reward(w, passengers_onboard=0, packages_onboard=0, detour_ticks=0.0,
                           order_delays=(), active_now=0, active_prev=0, onboard_hops=()):
    """The scalar reward of one vehicle, as the engine computed it vehicle by
    vehicle before the fleet form: order_delays holds (urgency, extra ticks)
    pairs and onboard_hops one hop count per onboard package."""
    delay_penalty = sum(urg * extra for urg, extra in order_delays)
    activation = max(active_now - active_prev, 0)
    max_hops = max(onboard_hops, default=0)
    return (
        w.b1 * (passengers_onboard + packages_onboard)
        - w.b2 * detour_ticks
        - w.b3 * delay_penalty
        - w.b4 * activation
        - w.b5 * max_hops
    )


def one_vehicle(w, onboard=0, detour_ticks=0.0, order_delays=(), active_now=0, active_prev=0,
                max_hops=0) -> float:
    """agent_reward on a fleet of one vehicle."""
    rewards = agent_reward(w, [onboard], [detour_ticks], [active_now], [active_prev], [max_hops],
                           order_vehicle=[0] * len(order_delays),
                           order_urgency=[u for u, _ in order_delays],
                           order_extra=[x for _, x in order_delays])
    assert rewards.shape == (1,) and rewards.dtype == np.float64
    return rewards[0].item()


def test_agent_reward_examples():
    w = RewardWeights.preset("init")
    assert one_vehicle(w) == 0.0
    assert one_vehicle(w, onboard=2 + 1) == 30.0
    r = one_vehicle(w, onboard=1, detour_ticks=2, order_delays=[(0.5, 4)], active_now=1,
                    active_prev=0, max_hops=1)
    assert r == pytest.approx(10 - 2 - 2 - 0.05 - 2)


def test_agent_reward_monotonicity():
    w = RewardWeights.preset("eval")

    def r(onboard=2, detour=1, extra=2, hops=1):
        return one_vehicle(w, onboard, detour, [(1.0, extra)], 0, 0, hops)

    r0 = r()
    assert r(onboard=3) > r0
    assert r(detour=3) < r0
    assert r(extra=5) < r0
    assert r(hops=3) < r0


def test_agent_reward_empty_hop_list_is_zero_penalty():
    w = RewardWeights(0.0, 0.0, 0.0, 0.0, 5.0)
    assert one_vehicle(w, max_hops=0) == 0.0


def test_agent_reward_of_an_empty_fleet():
    w = RewardWeights.preset("eval")
    assert agent_reward(w, [], [], [], [], []).shape == (0,)


@pytest.mark.parametrize(
    "kw, msg",
    [
        (dict(onboard=[-1, 0]), "counts and detour_ticks must be >= 0"),
        (dict(detour_ticks=[0.0, -0.5]), "counts and detour_ticks must be >= 0"),
        (dict(max_hops=[0]), "one entry per vehicle"),
        (dict(order_vehicle=[0, 1], order_urgency=[1.0], order_extra=[2, 3]), "one entry per order"),
        (dict(order_vehicle=[2], order_urgency=[1.0], order_extra=[2]), "vehicle index"),
        (dict(order_vehicle=[-1], order_urgency=[1.0], order_extra=[2]), "vehicle index"),
    ],
)
def test_agent_reward_rejects_bad_inputs(kw, msg):
    args = dict(onboard=[1, 0], detour_ticks=[0.0, 0.0], active_now=[1, 0], active_prev=[0, 0],
                max_hops=[0, 0])
    args.update(kw)
    with pytest.raises(ValueError, match=msg):
        agent_reward(RewardWeights.preset("eval"), **args)


def random_vehicle(rng):
    """Reward inputs of one vehicle, in the reference's form."""
    passengers, packages = int(rng.integers(0, 5)), int(rng.integers(0, 6))
    delays = []
    for _ in range(int(rng.integers(0, passengers + packages + 1))):
        # non-dyadic urgencies make the order of the additions show
        urgency = float(rng.choice([1.0, 0.5, rng.uniform(0.01, 1.0)]))
        extra = float(rng.choice([0.0, rng.integers(1, 40)]))  # some orders on time
        delays.append((urgency, extra))
    hops = [int(h) for h in rng.integers(0, 4, size=int(rng.integers(0, packages + 1)))]
    detour = float(rng.choice([0.0, rng.integers(1, 4), rng.uniform(0, 5)]))
    now, prev = (int(f) for f in rng.integers(0, 2, size=2))
    return dict(passengers_onboard=passengers, packages_onboard=packages, detour_ticks=detour,
                order_delays=delays, active_now=now, active_prev=prev, onboard_hops=hops)


@pytest.mark.parametrize("preset", ["init", "eval"])
def test_fleet_reward_equals_the_scalar_reference_bit_for_bit(preset):
    w = RewardWeights.preset(preset)
    rng = np.random.default_rng(20)
    summed = 0
    for _ in range(300):
        fleet = [random_vehicle(rng) for _ in range(int(rng.integers(0, 12)))]
        # the orders of different vehicles interleave at random, each
        # vehicle's keep their order; an order on time may be left out
        queues = [[(u, x) for u, x in v["order_delays"] if x > 0 or rng.random() < 0.5]
                  for v in fleet]
        orders = []
        while any(queues):
            vid = int(rng.choice([i for i, q in enumerate(queues) if q]))
            orders.append((vid, *queues[vid].pop(0)))
        got = agent_reward(
            w,
            onboard=[v["passengers_onboard"] + v["packages_onboard"] for v in fleet],
            detour_ticks=[v["detour_ticks"] for v in fleet],
            active_now=[v["active_now"] for v in fleet],
            active_prev=[v["active_prev"] for v in fleet],
            max_hops=[max(v["onboard_hops"], default=0) for v in fleet],
            order_vehicle=[vid for vid, _, _ in orders],
            order_urgency=[u for _, u, _ in orders],
            order_extra=[x for _, _, x in orders],
        )
        want = [reference_agent_reward(w, **v) for v in fleet]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        summed += sum(len(v["order_delays"]) > 2 for v in fleet)
    assert summed > 200  # many vehicles sum three or more orders


def test_weight_presets():
    init = RewardWeights.preset("init")
    assert (init.b1, init.b2, init.b3, init.b4, init.b5) == (10.0, 1.0, 1.0, 0.05, 2.0)
    ev = RewardWeights.preset("eval")
    assert (ev.b1, ev.b2, ev.b3, ev.b4, ev.b5) == (10.0, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        RewardWeights.preset("nope")


def test_weight_validation():
    with pytest.raises(ValueError):
        RewardWeights(discount=1.0)
    with pytest.raises(ValueError):
        RewardWeights(b3=-0.1)
