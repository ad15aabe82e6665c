"""Pinned behaviour: sha256 digests of short episodes of every baseline.

Replay equality within one build cannot see a refactor that changes
behaviour deterministically; these digests can. Each case pins the digest of
``EpisodeLog.canonical()`` for one ``small_cfg`` episode. A train case runs
the episode after a shorter one that fills the replay buffer, as successive
``hopfleet train`` episodes do, so that it takes gradient steps; it also pins
the digest of the online network's parameters afterwards, because a train
log alone does not change with the weights.

A change that means to alter behaviour records new digests here and says
why in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import pytest

from hopfleet.dispatch_rl import load_checkpoint
from hopfleet.engine import (
    BASELINE_FLEX_HOPS,
    BASELINE_FLEX_NOHOPS,
    BASELINE_SEPARATE,
    MODE_EVAL,
    MODE_TRAIN,
    Simulation,
)

from test_engine import small_cfg

GOLDEN = {
    (BASELINE_FLEX_HOPS, MODE_EVAL): (
        "e9d918523ddcc137c030ed779699b5ef2d67f561ca4531d81b75882ab4f811fa",
        None,
    ),
    (BASELINE_FLEX_HOPS, MODE_TRAIN): (
        "2b0de0ff562de05e4ede9524e58ca86e545d10ab73dcff7cff08275185206e00",
        "b86f4804b958b42fb8fb45c642377e79805ed971bf3df4b17e90f4a1b379f87c",
    ),
    (BASELINE_FLEX_NOHOPS, MODE_EVAL): (
        "701ccbae4b74ffc7fa92b963dbbbf2b349c2b1d953ee807397142daf842c307d",
        None,
    ),
    (BASELINE_FLEX_NOHOPS, MODE_TRAIN): (
        "60baa713a33f2a576f48f071d4cdfafcdccc12d9bc44a2d6ca07d5f6e9b140e0",
        "8d624942a39ad004ba9805714cb04440d73f9e29315c96379e39cac439336140",
    ),
    (BASELINE_SEPARATE, MODE_EVAL): (
        "41b374e29439ea637e56ff53d9493a85da22e3df8c78bf0f86209d84537b56dc",
        None,
    ),
    (BASELINE_SEPARATE, MODE_TRAIN): (
        "a500eb9089290fe7fe31bcadec910119dc05623b670dbc1e563dc924ff5f751f",
        "ddf0507de32240640022febd93a5d1a504bdc538a8391fddcdab4721b0598254",
    ),
}

WARM_TICKS = 20  # the episode that fills the buffer before a pinned train episode


def golden_cfg(baseline):
    cfg = small_cfg(seed=3, baseline=baseline)
    cfg.rl.batch_size = 4
    return cfg


def parameter_digest(policy, tmp_path) -> str:
    """Digest of the online network, read back through a checkpoint file."""
    path = tmp_path / "policy.npz"
    policy.save(path)
    online, _, _ = load_checkpoint(path)
    h = hashlib.sha256()
    for p in online.parameters():
        h.update(p.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("baseline, mode", sorted(GOLDEN))
def test_episode_digest_pinned(baseline, mode, tmp_path):
    cfg = golden_cfg(baseline)
    policy = None
    if mode == MODE_TRAIN:
        warm = Simulation(replace(cfg, episode_ticks=WARM_TICKS))
        warm.initialize()
        warm.run(mode=MODE_TRAIN)
        cfg, policy = replace(cfg, seed=cfg.seed + 1), warm.policy
    sim = Simulation(cfg, policy=policy)
    sim.initialize()
    log = sim.run(mode=mode)
    log_digest = hashlib.sha256(log.canonical().encode()).hexdigest()
    params = parameter_digest(sim.policy, tmp_path) if mode == MODE_TRAIN else None
    if mode == MODE_TRAIN:
        assert any(row["loss"] is not None for row in sim.curve), "no gradient step taken"
    assert (log_digest, params) == GOLDEN[(baseline, mode)]
