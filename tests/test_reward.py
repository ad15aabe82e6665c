import numpy as np
import pytest

from hopfleet.reward import (
    AgentRewardInputs,
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


def test_agent_reward_examples():
    w = RewardWeights.preset("init")
    assert agent_reward(AgentRewardInputs(), w) == 0.0
    assert agent_reward(AgentRewardInputs(passengers_onboard=2, packages_onboard=1), w) == 30.0
    r = agent_reward(
        AgentRewardInputs(
            passengers_onboard=1,
            detour_ticks=2,
            order_delays=[(0.5, 4)],
            active_now=1,
            active_prev=0,
            onboard_hops=[1],
        ),
        w,
    )
    assert r == pytest.approx(10 - 2 - 2 - 0.05 - 2)


def test_agent_reward_monotonicity():
    w = RewardWeights.preset("eval")
    base = AgentRewardInputs(passengers_onboard=1, packages_onboard=1, detour_ticks=1,
                             order_delays=[(1.0, 2)], onboard_hops=[1])
    r0 = agent_reward(base, w)
    assert agent_reward(AgentRewardInputs(2, 1, 1, [(1.0, 2)], 0, 0, [1]), w) > r0
    assert agent_reward(AgentRewardInputs(1, 2, 1, [(1.0, 2)], 0, 0, [1]), w) > r0
    assert agent_reward(AgentRewardInputs(1, 1, 3, [(1.0, 2)], 0, 0, [1]), w) < r0
    assert agent_reward(AgentRewardInputs(1, 1, 1, [(1.0, 5)], 0, 0, [1]), w) < r0
    assert agent_reward(AgentRewardInputs(1, 1, 1, [(1.0, 2)], 0, 0, [3]), w) < r0


def test_agent_reward_empty_hop_list_is_zero_penalty():
    w = RewardWeights(0.0, 0.0, 0.0, 0.0, 5.0)
    assert agent_reward(AgentRewardInputs(onboard_hops=[]), w) == 0.0


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
