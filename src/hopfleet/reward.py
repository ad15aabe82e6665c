"""Fleet objective components and the per-vehicle reward.

The global objective is the negative weighted sum of five per-tick costs:
unmet demand, dispatch travel time, shared-ride detour overhead, newly
activated vehicles, and hop-transfer count. Each vehicle is trained on a
local reward built from the same weights:

    r = b1*(passengers + packages) - b2*detour_ticks
        - b3 * sum_u urgency_u * extra_ticks_u
        - b4 * max(active_now - active_prev, 0)
        - b5 * max_u hops_u
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    discount: float = 0.98

    def __post_init__(self):
        if not (0.0 < self.discount < 1.0):
            raise ValueError("discount must be in (0, 1)")
        if min(self.b1, self.b2, self.b3, self.b4, self.b5) < 0:
            raise ValueError("weights must be nonnegative")

    @classmethod
    def preset(cls, name: str, discount: float = 0.98) -> "RewardWeights":
        if name not in WEIGHT_PRESETS:
            raise ValueError(f"unknown weights_preset {name!r}; choose from {sorted(WEIGHT_PRESETS)}")
        return cls(*WEIGHT_PRESETS[name], discount=discount)

    def as_vector(self) -> np.ndarray:
        return np.array([self.b1, self.b2, self.b3, self.b4, self.b5])


@dataclass
class AgentRewardInputs:
    """Per-vehicle, per-tick reward ingredients."""

    passengers_onboard: int = 0
    packages_onboard: int = 0
    detour_ticks: float = 0.0
    order_delays: Sequence = ()  # (urgency, extra_ticks) per assigned order
    active_now: int = 0
    active_prev: int = 0
    onboard_hops: Sequence = ()  # completed hop count per onboard package

    def __post_init__(self):
        if min(self.passengers_onboard, self.packages_onboard, 0) < 0:
            raise ValueError("counts must be >= 0")
        if self.detour_ticks < 0:
            raise ValueError("detour_ticks must be >= 0")


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


def agent_reward(inputs: AgentRewardInputs, w: RewardWeights) -> float:
    """Per-vehicle reward; the distributed counterpart of the global objective."""
    delay_penalty = sum(urg * extra for urg, extra in inputs.order_delays)
    activation = max(inputs.active_now - inputs.active_prev, 0)
    max_hops = max(inputs.onboard_hops, default=0)
    return (
        w.b1 * (inputs.passengers_onboard + inputs.packages_onboard)
        - w.b2 * inputs.detour_ticks
        - w.b3 * delay_penalty
        - w.b4 * activation
        - w.b5 * max_hops
    )
