"""Experiment configuration: strict JSON schema, defaults, content hash.

Unknown keys are rejected rather than ignored so typos fail loudly. The
canonical JSON form (sorted keys, minimal separators) feeds the config
hash recorded in checkpoints and metrics rows.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field

from .errors import UsageError
from .nn import DataSpec, NetworkConfig
from .solver import SjfbConfig


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.lr <= 0:
            raise UsageError("learning rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise UsageError("Adam betas must lie in [0, 1)")
        if self.weight_decay < 0:
            raise UsageError("weight decay must be >= 0")


@dataclass(frozen=True)
class ScheduleParams:
    timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: {
        "name": "gaussian-mixture", "modes": 8, "spread": 0.05})
    model: NetworkConfig = field(default_factory=NetworkConfig)
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    sjfb: SjfbConfig = field(default_factory=SjfbConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 256
    train_steps: int = 1000
    seed: int = 0
    class_dropout: float = 0.1
    metrics_every: int = 50
    checkpoint_every: int = 0      # 0: only the final checkpoint
    eval_every: int = 0            # 0: no periodic SWD/MMD evaluation
    eval_count: int = 1000

    def __post_init__(self):
        if self.batch_size < 1 or self.train_steps < 0:
            raise UsageError("batch_size >= 1 and train_steps >= 0 required")
        if not 0.0 <= self.class_dropout <= 1.0:
            raise UsageError("class_dropout must lie in [0, 1]")
        if self.metrics_every < 1:
            raise UsageError("metrics_every must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise UsageError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if self.model.train_timesteps != self.schedule.timesteps:
            raise UsageError("model.train_timesteps must match schedule")


_DATASET_KEYS = {
    "gaussian-mixture": {"name", "modes", "spread"},
    "checkerboard": {"name"},
    "spiral": {"name"},
    "image-dir": {"name", "path", "size"},
}


def _check_keys(section, given, allowed):
    unknown = set(given) - set(allowed)
    if unknown:
        raise UsageError(
            f"unknown key(s) in {section}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def _dataclass_from(section, cls, d, **extra):
    _check_keys(section, d, cls.__dataclass_fields__.keys() - extra.keys())
    return cls(**d, **extra)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise UsageError("config root must be a JSON object")
    top_allowed = ExperimentConfig.__dataclass_fields__.keys()
    _check_keys("config", raw, top_allowed)
    out = {}

    ds = dict(raw.get("dataset", {"name": "gaussian-mixture"}))
    name = ds.get("name")
    if name not in _DATASET_KEYS:
        raise UsageError(f"unknown dataset name {name!r}; "
                         f"expected one of {sorted(_DATASET_KEYS)}")
    _check_keys(f"dataset[{name}]", ds, _DATASET_KEYS[name])
    out["dataset"] = ds

    sched_d = dict(raw.get("schedule", {}))
    out["schedule"] = _dataclass_from("schedule", ScheduleParams, sched_d)

    model_d = dict(raw.get("model", {}))
    data_d = dict(model_d.pop("data", {"kind": "points2d"}))
    data = _dataclass_from("model.data", DataSpec, data_d)
    out["model"] = _dataclass_from(
        "model", NetworkConfig, model_d, data=data,
        train_timesteps=out["schedule"].timesteps)

    out["sjfb"] = _dataclass_from("sjfb", SjfbConfig,
                                  dict(raw.get("sjfb", {})))
    out["optimizer"] = _dataclass_from("optimizer", OptimizerConfig,
                                       dict(raw.get("optimizer", {})))
    for key in ("batch_size", "train_steps", "seed", "class_dropout",
                "metrics_every", "checkpoint_every", "eval_every",
                "eval_count"):
        if key in raw:
            out[key] = raw[key]
    return ExperimentConfig(**out)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    m = cfg.model
    return {
        "dataset": dict(cfg.dataset),
        "model": {
            "width": m.width, "heads": m.heads, "n_pre": m.n_pre,
            "n_post": m.n_post, "n_classes": m.n_classes,
            "data": {"kind": m.data.kind, "image_size": m.data.image_size,
                     "patch": m.data.patch},
        },
        "schedule": {"timesteps": cfg.schedule.timesteps,
                     "beta_start": cfg.schedule.beta_start,
                     "beta_end": cfg.schedule.beta_end},
        "sjfb": {"n_max": cfg.sjfb.n_max, "m_max": cfg.sjfb.m_max,
                 "sampling": cfg.sjfb.sampling, "fixed_n": cfg.sjfb.fixed_n,
                 "fixed_m": cfg.sjfb.fixed_m},
        "optimizer": {"lr": cfg.optimizer.lr, "beta1": cfg.optimizer.beta1,
                      "beta2": cfg.optimizer.beta2,
                      "weight_decay": cfg.optimizer.weight_decay},
        "batch_size": cfg.batch_size,
        "train_steps": cfg.train_steps,
        "seed": cfg.seed,
        "class_dropout": cfg.class_dropout,
        "metrics_every": cfg.metrics_every,
        "checkpoint_every": cfg.checkpoint_every,
        "eval_every": cfg.eval_every,
        "eval_count": cfg.eval_count,
    }


def config_json(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True,
                      separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_json(cfg).encode("utf-8")).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file {path!r} does not exist") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") \
            from None
    return config_from_dict(raw)
