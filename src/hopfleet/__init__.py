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

__version__ = "0.1.0"
