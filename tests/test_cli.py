import csv
import inspect
import json
import os
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
import yaml

from hopfleet.cli import EvalSettings, ExperimentConfig, TrainSettings, load_config, main
from hopfleet.demand import ingest_trip_records
from hopfleet import cli
from hopfleet import dispatch_rl as rl
from hopfleet.dispatch_rl import load_checkpoint, save_checkpoint
from hopfleet.engine import PHASES, DemandConfig, DispatchPolicy, GridConfig, RLConfig, SimConfig
from hopfleet.fleet import FleetTable
from hopfleet.geo import GridWorld
from hopfleet.hopplan import assign_hop_zones

from desk_config import DESK_CONFIG, desk_config, desk_yaml, leaf_keys, locate, write_config

COMMANDS = ["train", "eval", "gen-data"]


@pytest.fixture
def smoke_config(tmp_path):
    """configs/default.yaml shrunk to a few vehicles, ticks and seeds."""
    cfg = desk_config()
    cfg.sim = replace(cfg.sim, seed=11, n_vehicles=6, warmup_ticks=5, episode_ticks=30, t_n=60,
                      rl=replace(cfg.sim.rl, hidden=(16,), batch_size=4))
    cfg.train.episodes = 1
    cfg.eval.seeds = [201, 202]
    cfg.out_dir = str(tmp_path / "run")
    path = tmp_path / "smoke.yaml"
    write_config(path, cfg)
    return str(path), cfg


def test_config_round_trip(tmp_path):
    cfg = desk_config()
    cfg.sim = replace(cfg.sim, seed=3, baseline="separate")
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    back = load_config(path)
    assert back == cfg
    write_config(tmp_path / "cfg2.yaml", back)
    assert (tmp_path / "cfg2.yaml").read_text() == path.read_text()


def _run_on(data, command, tmp_path):
    """Run ``command`` on a config file holding ``data``; its exit code."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    out = str(tmp_path / ("trips.csv" if command == "gen-data" else "run"))
    return main([command, "--config", str(path), "--out", out])


def test_missing_config_exit_2():
    assert main(["train", "--config", "/nonexistent/cfg.yaml"]) == 2
    assert main(["eval", "--config", "/nonexistent/cfg.yaml"]) == 2
    assert main(["gen-data", "--config", "/nonexistent/cfg.yaml", "--out", "x.csv"]) == 2


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "sim",  # keys of the sim section (or train.*, eval.*), each followed by the bad value it gets
    [
        ("rl.window", 14),
        ("grid.hop_stride", 0),
        ("separate_split", 1.5),
        ("weights_preset", "greedy"),
        ("rl.unknown_knob", 1),  # a key SimConfig does not have, say one since removed
        ("demand.passenger_rate_per_zone", -0.1),
        ("demand.origin_hot_rate", -0.5),
        ("demand.goods_location_rate", -0.2),
        ("demand.goods_radius_zones", 0),
        ("ticks_per_day", 0),
        ("grid.hop_min_pickups", -1),
        ("grid.width", 0),
        ("grid.height", 0),
        ("grid.vehicle_speed", 0),
        ("grid.hop_count_radius", -1),
        ("demand.hot_weight", 1.5),
        # removed: every package heads uniformly into its site's radius
        ("demand.goods_dest_hot_weight", 0.0),
        # one zone: no trip has a destination other than its origin
        ("grid.width", 1, "grid.height", 1),
        ("demand.origin_hot_zone_count", -1),
        ("demand.origin_hot_zone_count", 401),  # the desk grid has 400 zones
        ("demand.goods_locations_per_kind", -1),
        # two zones cannot hold the desk's five distinct hot zones
        ("grid.width", 2, "grid.height", 1, "demand.origin_hot_zone_count", 5),
        ("t_n", 0),
        ("rl.sync_period", 0),
        ("rl.batch_size", 0),
        ("rl.buffer_capacity", 0),
        ("max_hop_depth", -1),
        ("grid.zone_edge_m", 0),
        ("seats", -1),
        ("trunk", -1),
        ("separate_goods_trunk", -1),
        ("rl.action_radius", -1),
        ("rl.window", -1),
        ("horizon", 30),  # removed: the observation fixes its own look-ahead
        ("grid.hop_offset", 0),  # removed: hubs sit on multiples of hop_stride
        ("train.checkpoint_every", 0),  # removed: a checkpoint follows every episode
        ("dt_minutes", 0),  # the report's minute-based metrics would read 0.0
        ("train.episodes", 0),
        ("train.episodes", -2),
        ("reject_radius_m", -1),
        ("warmup_ticks", -3),
        ("eval.seeds", []),
        ("patience_ticks", -1),
        ("seed", -1),
        ("seed", 1.5),
        ("eval.seeds", [-3]),
        ("n_vehicles", 2.5),
        ("rl.hidden", [0]),
        ("rl.learning_rate", -1.0),
        ("effective_distance_includes_dispatch", "yes"),
        # a batch the buffer can never hold: training would take no step
        ("rl.buffer_capacity", 10),
        ("seats", True),  # an int field takes no bool
        ("dt_minutes", True),  # nor does a float field
        ("rl.learning_rate", "0.005"),
        ("demand.trips_csv", 5),
        ("rl.hidden", 128),
        ("rl.hidden", [1.5]),
        ("eval.seeds", [1.5]),
        ("discount", 1.0),
        ("discount", 0.0),
    ],
)
def test_bad_config_exit_2(command, sim, tmp_path, capsys):
    data = desk_yaml()
    keys = sim[::2]
    for key, value in zip(keys, sim[1::2]):
        holder, leaf = locate(data if key.startswith(("train.", "eval.")) else data["sim"], key)
        holder[leaf] = value
    assert _run_on(data, command, tmp_path) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and all(key in err for key in keys)


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_flag_exit_2(command, smoke_config, capsys):
    path, cfg = smoke_config
    out = os.path.join(cfg.out_dir, "trips.csv") if command == "gen-data" else cfg.out_dir
    assert main([command, "--config", path, "--seed", "-1", "--out", out]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_linear_network_config_runs(smoke_config):
    # an empty rl.hidden is a network without hidden layers, not a bad value
    path, cfg = smoke_config
    cfg.sim.rl.hidden = ()
    write_config(path, cfg)
    assert main(["train", "--config", path]) == 0


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", leaf_keys(desk_yaml()))
def test_missing_key_exit_2(command, key, tmp_path, capsys):
    data = desk_yaml()
    holder, leaf = locate(data, key)
    del holder[leaf]
    assert _run_on(data, command, tmp_path) == 2
    assert f"bad config {tmp_path / 'cfg.yaml'}: missing key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("cls", [GridConfig, DemandConfig, RLConfig, SimConfig,
                                 TrainSettings, EvalSettings, ExperimentConfig])
def test_config_fields_have_no_default(cls):
    # a default would be a second source of the value configs/default.yaml holds
    assert [f.name for f in fields(cls)
            if f.default is not MISSING or f.default_factory is not MISSING] == []


@pytest.mark.parametrize("func, name", [(assign_hop_zones, "max_depth"),
                                        (rl.observation_maps, "window"), (rl.state_dim, "window"),
                                        (rl.action_count, "radius"),
                                        (rl.action_to_offset, "radius"),
                                        (rl.offset_to_action, "radius"),
                                        (rl.action_target, "radius"),
                                        (rl.QNetwork, "hidden"), (rl.ReplayBuffer, "capacity"),
                                        (rl.sync_target, "period"),
                                        (FleetTable, "seats_total"),
                                        (FleetTable, "trunk_total")])
def test_config_parameters_have_no_default(func, name):
    assert inspect.signature(func).parameters[name].default is inspect.Parameter.empty


def test_config_loaders_agree(monkeypatch, tmp_path):
    # libyaml's loader where PyYAML has it; the pure-Python one otherwise
    assert cli.YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    shipped = load_config(DESK_CONFIG)
    broken = tmp_path / "broken.yaml"
    broken.write_text("sim: [unclosed\n")
    with pytest.raises(yaml.YAMLError):
        load_config(broken)
    monkeypatch.setattr(cli, "YAML_LOADER", yaml.SafeLoader)
    assert load_config(DESK_CONFIG) == shipped
    with pytest.raises(yaml.YAMLError):
        load_config(broken)


def test_malformed_yaml_exit_2(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("sim: [unclosed\n")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2


def test_train_smoke_writes_artifacts(smoke_config):
    path, cfg = smoke_config
    assert main(["train", "--config", path]) == 0
    out = cfg.out_dir
    assert os.path.exists(os.path.join(out, "checkpoint_final.npz"))
    assert os.path.exists(os.path.join(out, "training_curve.csv"))
    assert os.path.exists(os.path.join(out, "last_episode.jsonl"))
    with open(os.path.join(out, "train_summary.json")) as fh:
        summary = json.load(fh)
    assert summary["total_steps"] == 30
    assert len(summary["episodes"]) == 1


@pytest.mark.parametrize("command", ["train", "eval"])
def test_timings_written_per_phase(smoke_config, command):
    path, cfg = smoke_config
    assert main([command, "--config", path]) == 0
    with open(os.path.join(cfg.out_dir, "timings.json")) as fh:
        timings = json.load(fh)
    episodes = cfg.train.episodes if command == "train" else len(cfg.eval.seeds)
    assert timings["ticks"] == episodes * cfg.sim.episode_ticks
    assert list(timings["phase_seconds"]) == list(PHASES)
    assert all(seconds > 0 for seconds in timings["phase_seconds"].values())


def test_train_takes_gradient_steps(smoke_config):
    # the first episode only fills the replay buffer: each vehicle decides
    # once, and its transition is stored at the end-of-episode flush
    path, cfg = smoke_config
    cfg.train.episodes = 2
    write_config(path, cfg)
    assert main(["train", "--config", path]) == 0
    with open(os.path.join(cfg.out_dir, "training_curve.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    assert any(row["loss"] for row in rows)


def test_train_resume_continues_steps(smoke_config):
    path, cfg = smoke_config
    assert main(["train", "--config", path]) == 0
    ckpt = os.path.join(cfg.out_dir, "checkpoint_final.npz")
    _, _, header = load_checkpoint(ckpt)
    assert header["step"] == 30
    assert main(["train", "--config", path, "--checkpoint", ckpt]) == 0
    _, _, header2 = load_checkpoint(os.path.join(cfg.out_dir, "checkpoint_final.npz"))
    assert header2["step"] == 60  # counter continued, no reinitialization


def test_train_resume_appends_to_curve(smoke_config):
    # the resumed run appends its rows under the first run's one header
    path, cfg = smoke_config
    assert main(["train", "--config", path]) == 0
    ckpt = os.path.join(cfg.out_dir, "checkpoint_final.npz")
    assert main(["train", "--config", path, "--checkpoint", ckpt]) == 0
    with open(os.path.join(cfg.out_dir, "training_curve.csv"), newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["step", "q_max", "loss", "epsilon", "act_probability"]
    steps = [int(line[0]) for line in lines[1:]]
    assert len(steps) == 2 * cfg.sim.episode_ticks
    assert steps == sorted(steps)


def test_eval_with_random_init_runs(smoke_config, capsys):
    path, cfg = smoke_config
    assert main(["eval", "--config", path]) == 0
    report_path = os.path.join(cfg.out_dir, "report_flex_hops.json")
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["eval_seeds"] == [201, 202]
    assert len(report["per_seed"]) == 2
    for seed_report in report["per_seed"]:
        assert seed_report["accept_rate_overall"] is None or 0 <= seed_report["accept_rate_overall"] <= 1


def test_eval_three_baselines_three_reports(smoke_config):
    path, cfg = smoke_config
    for baseline in ("flex_hops", "flex_nohops", "separate"):
        assert main(["eval", "--config", path, "--baseline", baseline]) == 0
    for baseline in ("flex_hops", "flex_nohops", "separate"):
        assert os.path.exists(os.path.join(cfg.out_dir, f"report_{baseline}.json"))


def test_eval_checkpoint_mismatch_rejected_before_sim(smoke_config, tmp_path):
    path, cfg = smoke_config
    assert main(["train", "--config", path]) == 0
    ckpt = os.path.join(cfg.out_dir, "checkpoint_final.npz")
    # same checkpoint, incompatible architecture in the config
    other = load_config(path)
    other.sim.rl.hidden = (32, 32)
    other_path = tmp_path / "other.yaml"
    write_config(other_path, other)
    assert main(["eval", "--config", str(other_path), "--checkpoint", ckpt]) == 2


def test_eval_missing_checkpoint_exit_2(smoke_config):
    path, cfg = smoke_config
    assert main(["eval", "--config", path, "--checkpoint", "/nonexistent.npz"]) == 2


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["directory", "text_file"])
def test_not_a_checkpoint_exit_2(smoke_config, tmp_path, capsys, command, kind):
    path, cfg = smoke_config
    bad = tmp_path / "not_a_checkpoint"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_text("step,loss\n1,0.5\n")
    assert main([command, "--config", path, "--checkpoint", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err
    assert os.listdir(cfg.out_dir) == []  # rejected before anything ran


def test_checkpoint_missing_parameter_array_exit_2(smoke_config, tmp_path, capsys):
    path, cfg = smoke_config
    policy = DispatchPolicy(cfg.sim)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, policy.online, policy.target, step=0)
    with np.load(ckpt) as blob:
        arrays = {name: blob[name] for name in blob.files if name != "online_3"}
    np.savez(ckpt, **arrays)
    assert main(["eval", "--config", path, "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint rejected" in err and "online_3" in err
    assert os.listdir(cfg.out_dir) == []  # rejected before anything ran


@pytest.mark.parametrize("command", ["train", "eval"])
def test_integer_checkpoint_exit_2(smoke_config, tmp_path, capsys, command):
    path, cfg = smoke_config
    policy = DispatchPolicy(cfg.sim)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, policy.online, policy.target, step=0)
    with np.load(ckpt) as blob:
        arrays = {name: blob[name] for name in blob.files}
    arrays["online_0"] = np.round(arrays["online_0"]).astype(np.int64)
    np.savez(ckpt, **arrays)
    assert main([command, "--config", path, "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint rejected" in err and "layer 0 weights" in err
    assert os.listdir(cfg.out_dir) == []  # rejected before anything ran


def test_compare_identical_reports_zero_delta(smoke_config, tmp_path, capsys):
    path, cfg = smoke_config
    assert main(["eval", "--config", path]) == 0
    report = os.path.join(cfg.out_dir, "report_flex_hops.json")
    out = str(tmp_path / "cmp")
    assert main(["compare", report, report, "--out", out]) == 0
    with open(os.path.join(out, "compare.json")) as fh:
        cmp_data = json.load(fh)
    # two reports of one baseline keep one entry each, labelled by position
    labels = ["0:flex_hops", "1:flex_hops"]
    assert cmp_data["reference"] == labels[0]
    assert cmp_data["reports"] == dict.fromkeys(labels, report)
    for metric in cmp_data["metrics"].values():
        assert list(metric["values"]) == list(metric["delta_vs_reference"]) == labels
        assert metric["values"][labels[0]] == metric["values"][labels[1]]
        deltas = [d for d in metric["delta_vs_reference"].values() if d is not None]
        assert all(abs(d) < 1e-12 for d in deltas)
        # a tie goes to the first report at the best value
        assert metric["best"] == (labels[0] if metric["values"][labels[0]] is not None else None)


def test_compare_missing_file_exit_2():
    assert main(["compare", "/nonexistent/report.json"]) == 2


@pytest.mark.parametrize("content", ["{}", "[1]", "{unclosed"])
def test_compare_non_report_exit_2(content, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(content)
    assert main(["compare", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_gen_data_round_trips(smoke_config, tmp_path):
    path, cfg = smoke_config
    out_csv = str(tmp_path / "trips.csv")
    assert main(["gen-data", "--config", path, "--out", out_csv, "--ticks", "20"]) == 0
    grid = GridWorld(width=cfg.sim.grid.width, height=cfg.sim.grid.height)
    records = ingest_trip_records(out_csv, grid)
    assert records
    assert all(0 <= r.created_tick < 20 for r in records)


def test_eval_reproducible_outputs(smoke_config, tmp_path, monkeypatch):
    path, cfg = smoke_config
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["eval", "--config", path, "--out", out_a]) == 0
    assert main(["eval", "--config", path, "--out", out_b]) == 0
    with open(os.path.join(out_a, "report_flex_hops.json")) as fh:
        a = fh.read()
    with open(os.path.join(out_b, "report_flex_hops.json")) as fh:
        b = fh.read()
    assert a == b
