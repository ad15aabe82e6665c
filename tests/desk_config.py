"""The one source of the configuration the tests start from: configs/default.yaml."""

import json
from dataclasses import asdict
from pathlib import Path

import yaml

from hopfleet.cli import load_config

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def desk_yaml() -> dict:
    """The parsed YAML, a fresh copy on every call."""
    return yaml.safe_load(DESK_CONFIG.read_text())


def desk_config():
    """The loaded ExperimentConfig, a fresh copy on every call."""
    return load_config(DESK_CONFIG)


def locate(data: dict, dotted: str) -> tuple:
    """The mapping of a parsed YAML that holds the key ``a.b.c``, and ``c``."""
    *path, leaf = dotted.split(".")
    for part in path:
        data = data[part]
    return data, leaf


def leaf_keys(data: dict, prefix: str = "") -> list:
    """Every dotted leaf key of a parsed YAML, in file order."""
    keys = []
    for key, value in data.items():
        if isinstance(value, dict):
            keys.extend(leaf_keys(value, f"{prefix}{key}."))
        else:
            keys.append(f"{prefix}{key}")
    return keys


def write_config(path, cfg):
    """Dump an ExperimentConfig as a YAML file that load_config reads back."""
    Path(path).write_text(yaml.safe_dump(json.loads(json.dumps(asdict(cfg)))))
