"""hopfleet: a deterministic fleet simulator and learned dispatch engine for
joint passenger ride-sharing and multi-hop goods delivery.

The pieces compose bottom-up: a zone lattice (:mod:`hopfleet.geo`), Poisson
demand and forecasting (:mod:`hopfleet.demand`), vehicle lifecycle
(:mod:`hopfleet.fleet`), relay planning for goods (:mod:`hopfleet.hopplan`),
greedy matching (:mod:`hopfleet.matching`), the reward structure
(:mod:`hopfleet.reward`), a double-Q dispatch learner
(:mod:`hopfleet.dispatch_rl`), the simulation loop (:mod:`hopfleet.engine`),
and post-hoc metrics (:mod:`hopfleet.metrics`). ``hopfleet.cli`` runs
experiments end to end.
"""

from .demand import GOODS, PASSENGER, Request, ServiceLocation, poisson_pmf
from .engine import (
    BASELINE_FLEX_HOPS,
    BASELINE_FLEX_NOHOPS,
    BASELINE_SEPARATE,
    EpisodeLog,
    SimConfig,
    Simulation,
)
from .geo import GridWorld, TravelEstimate, ZoneId, designate_hop_zones
from .hopplan import HopTrip, assign_hop_zones
from .matching import Assignment, match
from .metrics import MetricsReport, build_report
from .reward import RewardWeights, agent_reward, global_objective

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BASELINE_FLEX_HOPS",
    "BASELINE_FLEX_NOHOPS",
    "BASELINE_SEPARATE",
    "EpisodeLog",
    "GridWorld",
    "GOODS",
    "HopTrip",
    "MetricsReport",
    "PASSENGER",
    "Request",
    "RewardWeights",
    "ServiceLocation",
    "SimConfig",
    "Simulation",
    "TravelEstimate",
    "ZoneId",
    "agent_reward",
    "assign_hop_zones",
    "build_report",
    "designate_hop_zones",
    "global_objective",
    "match",
    "poisson_pmf",
]
