"""Fleet objective components and the per-vehicle rewards.

The global objective is the negative weighted sum of five per-tick costs:
unmet demand, dispatch travel time, shared-ride detour overhead, newly
activated vehicles, and hop-transfer count. Each vehicle is trained on a
local reward built from the same weights:

    r = b1*(passengers + packages) - b2*detour_ticks
        - b3 * sum_u urgency_u * extra_ticks_u
        - b4 * max(active_now - active_prev, 0)
        - b5 * max_u hops_u

``agent_reward`` computes it for the whole fleet at once, from per-vehicle
arrays and flat per-order arrays; a single vehicle is a fleet of one. Each
vehicle's delay sum adds its orders in the order given, so the result is
bit-identical to the scalar left-to-right sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Weight presets: "init" is the training default, "eval" the comparison setting.
WEIGHT_PRESETS = {
    "init": (10.0, 1.0, 1.0, 0.05, 2.0),
    "eval": (10.0, 1.0, 0.5, 1.0, 1.0),
}


@dataclass(frozen=True)
class RewardWeights:
    b1: float = 10.0
    b2: float = 1.0
    b3: float = 0.5
    b4: float = 1.0
    b5: float = 1.0

    def __post_init__(self):
        if min(self.b1, self.b2, self.b3, self.b4, self.b5) < 0:
            raise ValueError("weights must be nonnegative")

    @classmethod
    def preset(cls, name: str) -> "RewardWeights":
        if name not in WEIGHT_PRESETS:
            raise ValueError(f"unknown weights_preset {name!r}; choose from {sorted(WEIGHT_PRESETS)}")
        return cls(*WEIGHT_PRESETS[name])

    def as_vector(self) -> np.ndarray:
        return np.array([self.b1, self.b2, self.b3, self.b4, self.b5])


def supply_demand_gap(demand, supply) -> float:
    """Sum over zones of max(0, expected demand - available vehicles)."""
    d = np.asarray(demand, dtype=float).ravel()
    v = np.asarray(supply, dtype=float).ravel()
    if d.shape != v.shape:
        raise ValueError(f"demand/supply length mismatch: {d.shape} vs {v.shape}")
    return float(np.maximum(d - v, 0.0).sum())


def global_objective(components, weights: RewardWeights) -> float:
    """Negative weighted sum of the five cost components."""
    comp = np.asarray(components, dtype=float)
    if comp.shape != (5,):
        raise ValueError("expected 5 components: gap, dispatch, detour, activations, hops")
    return float(-(weights.as_vector() @ comp))


def agent_reward(w: RewardWeights, onboard, detour_ticks, active_now, active_prev, max_hops,
                 order_vehicle=(), order_urgency=(), order_extra=()) -> np.ndarray:
    """Every vehicle's reward, one float64 per vehicle in the order given.

    Per vehicle: onboard passengers plus packages, detour ticks, the
    activation flags now and a tick ago, and the largest completed hop count
    of its onboard packages. Per order: the index of the vehicle it rides,
    its urgency and its extra ticks. Each vehicle's urgency-weighted delay is
    summed in the order its orders are given.
    """
    onboard = np.asarray(onboard)
    detour_ticks = np.asarray(detour_ticks, dtype=float)
    owner = np.asarray(order_vehicle, dtype=np.intp)
    urgency = np.asarray(order_urgency, dtype=float)
    extra = np.asarray(order_extra, dtype=float)
    n = len(onboard)
    if any(np.shape(a) != (n,) for a in (detour_ticks, active_now, active_prev, max_hops)):
        raise ValueError("per-vehicle inputs must have one entry per vehicle")
    if not owner.shape == urgency.shape == extra.shape == (len(owner),):
        raise ValueError("per-order inputs must have one entry per order")
    if np.any(onboard < 0) or np.any(detour_ticks < 0):
        raise ValueError("counts and detour_ticks must be >= 0")
    if np.any(owner < 0) or np.any(owner >= n):
        raise ValueError("an order's vehicle index must lie in [0, vehicles)")
    # bincount adds each vehicle's weights in input order, as sum() would
    delay_penalty = np.bincount(owner, weights=urgency * extra, minlength=n)
    activation = np.maximum(np.subtract(active_now, active_prev), 0)
    return (
        w.b1 * onboard
        - w.b2 * detour_ticks
        - w.b3 * delay_penalty
        - w.b4 * activation
        - w.b5 * np.asarray(max_hops)
    )
