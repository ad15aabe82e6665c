"""The cost structure: five fleet-level components and the per-vehicle reward.

The fleet objective penalizes unmet demand, dispatch travel, shared-ride
delays, newly deployed vehicles, and relay transfers. Each vehicle trains
on a local reward assembled from the same weights.
"""

from hopfleet.reward import (
    RewardWeights,
    agent_reward,
    global_objective,
    supply_demand_gap,
)

weights = RewardWeights.preset("init")
print(f"training weights: b1..b5 = {tuple(weights.as_vector())}, discount {weights.discount}")

demand = [3, 1, 0, 2]
supply = [1, 2, 1, 0]
components = [
    supply_demand_gap(demand, supply),
    7.0,  # dispatch travel: one vehicle sent on a 7-tick drive
    sum([1.0, 2.0, 3.0]),  # shared-ride delay: extra ticks of three onboard orders
    1.0,  # activations: one vehicle left idle this tick
    1.0,  # hops: one package handed over at a relay hub
]
print("components (gap, dispatch, detour, activations, hops):", components)
print("fleet objective:", global_objective(components, weights))

print("\nper-vehicle rewards:")
# agent_reward prices a whole fleet at once; here each vehicle is a fleet of one
empty = agent_reward(weights, onboard=[0], detour_ticks=[0], active_now=[0], active_prev=[0],
                     max_hops=[0])
print("  idle empty vehicle:", empty[0].item())

busy = agent_reward(weights, onboard=[2 + 1], detour_ticks=[0], active_now=[0], active_prev=[0],
                    max_hops=[0])
print("  two riders + one package, no penalties:", busy[0].item())

loaded = agent_reward(
    weights,
    onboard=[1],
    detour_ticks=[2],
    active_now=[1],
    active_prev=[0],
    max_hops=[1],
    # one package delayed 4 ticks at half urgency
    order_vehicle=[0], order_urgency=[0.5], order_extra=[4],
)
print("  freshly deployed, detouring, carrying a once-hopped package:", loaded[0].item())
