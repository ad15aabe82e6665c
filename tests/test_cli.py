import csv
import json
import os

import numpy as np
import pytest
import yaml

from hopfleet.cli import ExperimentConfig, load_config, main, save_config
from hopfleet.demand import ingest_trip_records
from hopfleet.dispatch_rl import load_checkpoint
from hopfleet.engine import SimConfig
from hopfleet.geo import GridWorld


@pytest.fixture
def smoke_config(tmp_path):
    cfg = ExperimentConfig()
    cfg.sim = SimConfig(
        seed=11,
        n_vehicles=6,
        warmup_ticks=5,
        episode_ticks=30,
        t_n=60,
    )
    cfg.sim.rl.hidden = (16,)
    cfg.sim.rl.batch_size = 4
    cfg.train.episodes = 1
    cfg.eval.seeds = [201, 202]
    cfg.out_dir = str(tmp_path / "run")
    path = tmp_path / "smoke.yaml"
    save_config(path, cfg)
    return str(path), cfg


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig()
    cfg.sim = SimConfig(seed=3, baseline="separate")
    path = tmp_path / "cfg.yaml"
    save_config(path, cfg)
    back = load_config(path)
    assert back.to_dict() == cfg.to_dict()
    save_config(tmp_path / "cfg2.yaml", back)
    assert (tmp_path / "cfg2.yaml").read_text() == path.read_text()


def test_missing_config_exit_2():
    assert main(["train", "--config", "/nonexistent/cfg.yaml"]) == 2
    assert main(["eval", "--config", "/nonexistent/cfg.yaml"]) == 2
    assert main(["gen-data", "--config", "/nonexistent/cfg.yaml", "--out", "x.csv"]) == 2


@pytest.mark.parametrize("command", ["train", "eval", "gen-data"])
@pytest.mark.parametrize(
    "sim",
    [
        {"rl": {"window": 14}},
        {"grid": {"hop_stride": 0}},
        {"separate_split": 1.5},
        {"weights_preset": "greedy"},
        {"rl": {"unknown_knob": 1}},  # a key SimConfig does not have, say one since removed
    ],
)
def test_bad_config_exit_2(command, sim, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"sim": sim}))
    out = str(tmp_path / ("trips.csv" if command == "gen-data" else "run"))
    assert main([command, "--config", str(path), "--out", out]) == 2
    assert "bad config" in capsys.readouterr().err


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


def test_train_takes_gradient_steps(smoke_config):
    # the first episode only fills the replay buffer: each vehicle decides
    # once, and its transition is stored at the end-of-episode flush
    path, cfg = smoke_config
    cfg.train.episodes = 2
    save_config(path, cfg)
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
    save_config(other_path, other)
    assert main(["eval", "--config", str(other_path), "--checkpoint", ckpt]) == 2


def test_eval_missing_checkpoint_exit_2(smoke_config):
    path, cfg = smoke_config
    assert main(["eval", "--config", path, "--checkpoint", "/nonexistent.npz"]) == 2


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("kind", ["directory", "text file"])
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


def test_compare_identical_reports_zero_delta(smoke_config, tmp_path, capsys):
    path, cfg = smoke_config
    assert main(["eval", "--config", path]) == 0
    report = os.path.join(cfg.out_dir, "report_flex_hops.json")
    out = str(tmp_path / "cmp")
    assert main(["compare", report, report, "--out", out]) == 0
    with open(os.path.join(out, "compare.json")) as fh:
        cmp_data = json.load(fh)
    for metric in cmp_data["metrics"].values():
        deltas = [d for d in metric["delta_vs_reference"].values() if d is not None]
        assert all(abs(d) < 1e-12 for d in deltas)


def test_compare_missing_file_exit_2():
    assert main(["compare", "/nonexistent/report.json"]) == 2


def test_gen_data_round_trips(smoke_config, tmp_path):
    path, cfg = smoke_config
    out_csv = str(tmp_path / "trips.csv")
    assert main(["gen-data", "--config", path, "--out", out_csv, "--ticks", "20"]) == 0
    grid = GridWorld(width=cfg.sim.grid.width, height=cfg.sim.grid.height)
    records = ingest_trip_records(out_csv, grid)
    assert records
    assert all(0 <= r.created_tick < 20 for r in records)


def test_env_var_overrides_out_dir(smoke_config, tmp_path, monkeypatch):
    path, cfg = smoke_config
    override = str(tmp_path / "env_out")
    monkeypatch.setenv("HOPFLEET_OUT", override)
    assert main(["eval", "--config", path]) == 0
    assert os.path.exists(os.path.join(override, "report_flex_hops.json"))


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
