"""Pinned behaviour: sha256 digests of short episodes of every baseline.

Replay equality within one build cannot see a refactor that changes
behaviour deterministically; these digests can. Each case pins the digest of
``EpisodeLog.canonical()`` for one ``small_cfg`` episode. A train case runs
the episode after a shorter one that fills the replay buffer, as successive
``hopfleet train`` episodes do, so that it takes gradient steps; it also pins
the digest of the online network's parameters afterwards, because a train
log alone does not change with the weights. ``small_cfg`` is the desk world
of ``configs/default.yaml`` scaled down, so these digests pin the YAML's
settings too, and a ``flex_hops`` case must relay at least one package.
In those train cases each vehicle decides once; one more train case has
vehicles decide again, so that transitions pushed from the decision ledger
reach its parameter digest. A larger world, in eval and in train mode, has
more idle vehicles at tick 0 than one stacked pass of the dispatch phase.
Each case runs the policy ``Simulation(cfg)`` builds, which is the
``DispatchPolicy(cfg)`` that ``hopfleet train``, ``hopfleet eval`` and
``bench/run.py`` build, so the pinned path is the one they run.

A change that means to alter behaviour records new digests here and says
why in CHANGES.md.
"""

import hashlib
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from hopfleet import engine
from hopfleet.dispatch_rl import STACK_CHUNK, load_checkpoint
from hopfleet.engine import (
    BASELINE_FLEX_HOPS,
    BASELINE_FLEX_NOHOPS,
    BASELINE_SEPARATE,
    BASELINES,
    DispatchPolicy,
    MODE_EVAL,
    MODE_TRAIN,
    PHASES,
    Simulation,
)

from test_engine import small_cfg

GOLDEN = {
    (BASELINE_FLEX_HOPS, MODE_EVAL): (
        "60f3c782f3f2d59289464fa7f50a3a1d6538c2fb9f41d68c293e85f857626de7",
        None,
    ),
    (BASELINE_FLEX_HOPS, MODE_TRAIN): (
        "bb0064ab884bd32f4b3b0e4dfc24fb5e670504f978b8a3aac6d98b0a41fbc0a7",
        "d25e937455e4a2cb2e010d457fa843666e72944931fadd8b4acefdd74ce2a7bf",
    ),
    (BASELINE_FLEX_NOHOPS, MODE_EVAL): (
        "741d04798f6ce506ea3a84abb96b9fd51148a65ff7468fb055a330de56463868",
        None,
    ),
    (BASELINE_FLEX_NOHOPS, MODE_TRAIN): (
        "23c3630994bfab89cc9222b8715105f83bf37ed37a82f0a2b419ad0707e07d31",
        "f1bab84440b79bd41cfc47ffd824c57ad6ad39bd6aec17f96c295511509af50b",
    ),
    (BASELINE_SEPARATE, MODE_EVAL): (
        "666687262f121ba58eb824c43396fe97b1bbaa530be84cbb5c64e4af2c2a5ee1",
        None,
    ),
    (BASELINE_SEPARATE, MODE_TRAIN): (
        "c9b6bf660a766e8ed7698af04d3549f9c8a424034f441e54d035fab6069a02e8",
        "88f40808fb2c62f6bc94226fd3d51c67d40e1910eba542f72dd1ac8c72a290f2",
    ),
}

# a train episode in which vehicles decide again after a busy spell, so that
# _settle pushes transitions whose rewards sum many ticks: 16 vehicles on a
# fifth of the desk demand, matched up to 20 zones away, go idle again once
# their manifests empty; (log digest, parameter digest)
GOLDEN_REPEAT_DECISIONS = (
    "8daa93f20d29386990bcb72161380357d321a421ccc1ecffc7bac8d44254caf2",
    "dc4f1fe45c15ae236590c8495799b574757a242837717ed32d8b1895e621af85",
)

# a 30x30 world with 200 vehicles for 30 ticks: tick 0 evaluates more idle
# vehicles than one stacked pass takes; mode -> (log digest, parameter digest)
GOLDEN_BEYOND_ONE_BLOCK = {
    MODE_EVAL: (
        "ccdfffc567bed792a7adb8f8d4b4818da46ede90a9a7c9b3cdf55758f63fdaa9",
        None,
    ),
    MODE_TRAIN: (
        "971ac7c08c477a699c203c54f304c53ec62a2021940a0a947fa9452730d373e9",
        "9bb9a89111740cbe7dd536394f2d25989c6ea40ae65dc60818696e0446357b4a",
    ),
}

WARM_TICKS = 20  # the episode that fills the buffer before a pinned train episode


def golden_cfg(baseline):
    cfg = small_cfg(seed=3, baseline=baseline)
    cfg.rl.batch_size = 4
    return cfg


def warm_policy(cfg):
    """The policy after a WARM_TICKS train episode, whose flush fills the
    buffer so that the next episode takes gradient steps."""
    warm = Simulation(replace(cfg, episode_ticks=WARM_TICKS))
    warm.run(mode=MODE_TRAIN)
    return warm.policy


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
        cfg, policy = replace(cfg, seed=cfg.seed + 1), warm_policy(cfg)
    sim = Simulation(cfg, policy=policy)
    sim.initialize()
    log = sim.run(mode=mode)
    log_digest = hashlib.sha256(log.canonical().encode()).hexdigest()
    params = parameter_digest(sim.policy, tmp_path) if mode == MODE_TRAIN else None
    if mode == MODE_TRAIN:
        assert any(row["loss"] is not None for row in sim.curve), "no gradient step taken"
    if baseline == BASELINE_FLEX_HOPS:
        assert log.by_kind("hop_drop"), "no package relayed at a hub"
    assert (log_digest, params) == GOLDEN[(baseline, mode)]


def test_repeat_decisions_digest_pinned(tmp_path):
    # the cases above decide once per vehicle, so all their transitions come
    # from the end-of-episode flush; here the decision ledger in _settle, its
    # discounted reward sums and its push order reach the parameter digest
    cfg = golden_cfg(BASELINE_FLEX_HOPS)
    cfg = replace(cfg, n_vehicles=16, episode_ticks=80, reject_radius_m=3000.0,
                  demand=replace(cfg.demand, passenger_rate_per_zone=0.0006,
                                 origin_hot_rate=0.09, goods_location_rate=0.04))
    sim = Simulation(replace(cfg, seed=cfg.seed + 1), policy=warm_policy(cfg))
    sim.initialize()
    sim.training = True
    filled = len(sim.policy.buffer)
    for _ in range(cfg.episode_ticks):
        sim.step()
    settled = len(sim.policy.buffer) - filled
    log = sim.run(ticks=0, mode=MODE_TRAIN)  # flushes the decisions still open
    assert settled >= 5, "too few transitions pushed from _settle"
    assert any(row["loss"] is not None for row in sim.curve), "no gradient step taken"
    assert log.by_kind("hop_drop"), "no package relayed at a hub"
    log_digest = hashlib.sha256(log.canonical().encode()).hexdigest()
    assert (log_digest, parameter_digest(sim.policy, tmp_path)) == GOLDEN_REPEAT_DECISIONS


@pytest.mark.parametrize("mode", sorted(GOLDEN_BEYOND_ONE_BLOCK))
def test_digest_beyond_one_block_and_one_chunk_pinned(mode, tmp_path):
    cfg = golden_cfg(BASELINE_FLEX_HOPS)
    cfg = replace(cfg, n_vehicles=200, episode_ticks=30, grid=replace(cfg.grid, width=30, height=30))
    policy = None
    if mode == MODE_TRAIN:
        cfg, policy = replace(cfg, seed=cfg.seed + 1), warm_policy(cfg)
    sim = Simulation(cfg, policy=policy)
    sim.initialize()
    observed = []  # (tick, vehicles) of each stacked pass

    def observe(maps, vehicles, _observe=sim._observe):
        observed.append((sim.tick, len(vehicles)))
        return _observe(maps, vehicles)

    sim._observe = observe
    log = sim.run(mode=mode)
    first = [n for tick, n in observed if tick == 0]
    assert len(first) >= 2 and sum(first) > STACK_CHUNK
    params = None
    if mode == MODE_TRAIN:
        assert any(row["loss"] is not None for row in sim.curve), "no gradient step taken"
        params = parameter_digest(sim.policy, tmp_path)
    log_digest = hashlib.sha256(log.canonical().encode()).hexdigest()
    assert (log_digest, params) == GOLDEN_BEYOND_ONE_BLOCK[mode]


@pytest.mark.parametrize("baseline", BASELINES)
def test_eval_keeps_no_replay_bookkeeping(baseline):
    # nothing samples the replay buffer in evaluation, so an eval episode
    # keeps no decisions in flight and pushes no transitions
    sim = Simulation(golden_cfg(baseline))
    sim.initialize()
    sim.training = False
    decisions = 0
    for _ in range(sim.cfg.episode_ticks):
        decisions += sim.step()["q_max"] is not None
        assert sim.pending == {} and sim._decisions == []
    assert decisions > 0
    log = sim.run(ticks=0, mode=MODE_EVAL)
    assert len(sim.policy.buffer) == 0
    assert hashlib.sha256(log.canonical().encode()).hexdigest() == GOLDEN[(baseline, MODE_EVAL)][0]


def test_phase_timers_cover_step_and_leave_the_log_alone(monkeypatch):
    baseline = BASELINE_FLEX_HOPS
    sim = Simulation(golden_cfg(baseline))
    sim.initialize()
    stepped = 0.0
    for _ in range(sim.cfg.episode_ticks):
        start = time.thread_time()
        sim.step()
        stepped += time.thread_time() - start
    spent = sim.phase_seconds
    assert list(spent) == list(PHASES) and min(spent.values()) > 0.0
    assert 0.9 * stepped <= sum(spent.values()) <= stepped
    timed = sim.log.canonical()
    assert hashlib.sha256(timed.encode()).hexdigest() == GOLDEN[(baseline, MODE_EVAL)][0]

    # the same episode with a clock that never moves, so the timers add nothing
    monkeypatch.setattr(engine, "time", SimpleNamespace(thread_time=lambda: 0.0))
    still = Simulation(golden_cfg(baseline))
    still.initialize()
    assert still.run(mode=MODE_EVAL).canonical() == timed
    assert set(still.phase_seconds.values()) == {0.0}


def test_phase_timers_count_cpu_time_not_waits():
    # a phase that sleeps spends wall time but not the thread's cpu time
    sim = Simulation(golden_cfg(BASELINE_FLEX_HOPS))
    sim.initialize()

    def sleepy_forecast(_forecast=sim.forecaster.forecast):
        time.sleep(0.05)
        return _forecast()

    sim.forecaster.forecast = sleepy_forecast
    start = time.perf_counter()
    for _ in range(3):
        sim.step()
    assert time.perf_counter() - start >= 0.15
    assert sim.phase_seconds["forecast"] < 0.05


@pytest.mark.parametrize("baseline", BASELINES)
def test_one_seed_one_network(baseline, tmp_path):
    # train, eval and the bench hand Simulation a DispatchPolicy(cfg); the
    # policy a Simulation builds for itself is the same network
    cfg = golden_cfg(baseline)
    eval_logs, train_logs, params = [], [], []
    for make in (lambda: Simulation(cfg), lambda: Simulation(cfg, policy=DispatchPolicy(cfg))):
        eval_logs.append(make().run(mode=MODE_EVAL).canonical())
        first = make()
        first.run(mode=MODE_TRAIN)  # fills the buffer, so that the next episode takes steps
        sim = Simulation(replace(cfg, seed=cfg.seed + 1), policy=first.policy)
        train_logs.append(sim.run(mode=MODE_TRAIN).canonical())
        assert any(row["loss"] is not None for row in sim.curve), "no gradient step taken"
        params.append(parameter_digest(sim.policy, tmp_path))
    assert eval_logs[0] == eval_logs[1]
    assert train_logs[0] == train_logs[1] and params[0] == params[1]
