"""Training loop: Adam on the v-prediction MSE with stochastic iteration
draws, divergence guards, deterministic metrics, and checkpoints.

metrics.csv is a pure function of (config, seed); wall-clock timings go to
a separate timings.csv so reruns stay byte-identical. Every metrics row
carries the seed and config hash.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .budget import CostModel, plan_constant
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    ExperimentConfig,
    config_from_dict,
    config_hash,
    config_json,
)
from .data import DatasetSampler
from .errors import DivergenceError, NumericError, UsageError
from .metrics import evaluate
from .nn import DenoiseNet
from .params import ParamStore
from .sampling import SamplerConfig, generate
from .schedule import build_schedule, q_sample, v_target
from .solver import SjfbBatch, SolverConfig, sjfb_train_step

ADAM_EPS = 1e-8
ABORT_STREAK = 50

METRICS_COLUMNS = ["step", "loss", "n", "m", "delta_first", "delta_last",
                   "vmse", "swd", "mmd", "skipped", "seed", "config_hash"]


def adam_update(store: ParamStore, grads, opt, adam_step):
    """One Adam step over every parameter that received a gradient."""
    b1, b2 = opt.beta1, opt.beta2
    corr1 = 1.0 - b1 ** adam_step
    corr2 = 1.0 - b2 ** adam_step
    for name, g in grads.items():
        p = store[name]
        grad = g.data.astype(np.float32, copy=False)
        if opt.weight_decay:
            grad = grad + opt.weight_decay * p.data
        if name not in store.moments:
            store.moments[name] = (np.zeros_like(p.data),
                                   np.zeros_like(p.data))
        m1, m2 = store.moments[name]
        m1 *= b1
        m1 += (1.0 - b1) * grad
        m2 *= b2
        m2 += (1.0 - b2) * grad * grad
        step_dir = (m1 / corr1) / (np.sqrt(m2 / corr2) + ADAM_EPS)
        p.data[...] = p.data - opt.lr * step_dir


@dataclass
class TrainResult:
    steps_run: int
    final_loss: float
    loss_history: list = field(default_factory=list)
    checkpoint_path: str = ""
    metrics_path: str = ""
    param_count: int = 0
    skipped_steps: int = 0
    net: object = None             # live network, for in-process callers


def held_out_vmse(net, sched, x0, labels, iterations=6, seed=0):
    """Deterministic v-prediction MSE on a fixed batch at a fixed depth."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    t = rng.integers(0, sched.timesteps, size=len(x0))
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    x_t = q_sample(sched, x0, t, eps)
    v = v_target(sched, x0, t, eps)
    pred = net.forward(x_t, t, labels, iterations=iterations)
    diff = pred.data.astype(np.float64) - v.astype(np.float64)
    return float(np.mean(diff * diff))


def _eval_sampling_metrics(net, sched, cfg, ref):
    cost = CostModel(cfg.model.n_pre, cfg.model.n_post)
    budget = 15 * cost.entry_cost(4)
    plan = plan_constant(budget, 4, cost, train_timesteps=sched.timesteps)
    out = generate(net, sched,
                   SamplerConfig(kind="ddim", seed=cfg.seed + 1,
                                 solver=SolverConfig(init="reuse")),
                   batch=cfg.eval_count, plan=plan)
    return evaluate(out.samples, ref, min_count=min(500, cfg.eval_count))


def train(cfg: ExperimentConfig, out_dir, log=None) -> TrainResult:
    """Run the full training loop; writes metrics, timings, checkpoints."""
    os.makedirs(out_dir, exist_ok=True)
    say = log if log is not None else (lambda msg: None)

    sched = build_schedule(cfg.schedule.timesteps, cfg.schedule.beta_start,
                           cfg.schedule.beta_end)
    net = DenoiseNet(cfg.model, seed=cfg.seed)
    n_params = net.param_count()
    say(f"parameters: fpdm={n_params}")

    if cfg.model.n_classes > 0:
        if cfg.dataset["name"] != "gaussian-mixture":
            raise UsageError("class-conditional training needs the labeled "
                             "gaussian-mixture dataset")
        if cfg.dataset.get("modes", 8) != cfg.model.n_classes:
            raise UsageError("model.n_classes must equal dataset modes")

    seeds = np.random.SeedSequence(cfg.seed).generate_state(4)
    sampler = DatasetSampler(seed=int(seeds[0]), **cfg.dataset)
    rng_step = np.random.default_rng(int(seeds[1]))   # t, eps, dropout
    rng_draw = np.random.default_rng(int(seeds[2]))   # (n, m) draws
    rng_eval = np.random.default_rng(int(seeds[3]))

    eval_x0, eval_labels = sampler_eval_batch(cfg, rng_eval)
    eval_ref = None
    if cfg.eval_every > 0:
        eval_ref, _ = DatasetSampler(seed=int(seeds[3]) ^ 0x5A5A,
                                     **cfg.dataset).draw(cfg.eval_count)

    chash = config_hash(cfg)
    cjson = config_json(cfg)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        fh.write(cjson + "\n")

    metrics_path = os.path.join(out_dir, "metrics.csv")
    timings_path = os.path.join(out_dir, "timings.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.fpdm")
    result = TrainResult(steps_run=0, final_loss=math.nan,
                         checkpoint_path=ckpt_path,
                         metrics_path=metrics_path,
                         param_count=n_params)

    t_start = time.perf_counter()
    streak = 0
    adam_step = 0
    with open(metrics_path, "w", newline="") as mf, \
            open(timings_path, "w", newline="") as tf:
        mw = csv.writer(mf)
        tw = csv.writer(tf)
        mw.writerow(METRICS_COLUMNS)
        tw.writerow(["step", "seconds"])
        for step in range(cfg.train_steps):
            x0, labels = sampler.draw(cfg.batch_size)
            labels = _apply_dropout(cfg, labels, rng_step)
            t = rng_step.integers(0, sched.timesteps, size=cfg.batch_size)
            eps = rng_step.standard_normal(x0.shape).astype(np.float32)
            batch = SjfbBatch(x_t=q_sample(sched, x0, t, eps), t=t,
                              v_target=v_target(sched, x0, t, eps),
                              labels=labels)
            row = {"step": step, "seed": cfg.seed, "config_hash": chash,
                   "skipped": result.skipped_steps}
            try:
                res = sjfb_train_step(batch, net, cfg.sjfb, rng_draw)
            except DivergenceError as exc:
                result.skipped_steps += 1
                say(f"step {step}: skipped ({exc})")
                continue
            except NumericError as exc:
                streak += 1
                result.skipped_steps += 1
                if streak > ABORT_STREAK:
                    raise NumericError(
                        f"aborting: {streak} consecutive non-finite steps, "
                        f"last at step {step}: {exc}") from exc
                continue
            streak = 0
            adam_step += 1
            adam_update(net.store, res.grads, cfg.optimizer, adam_step)
            result.steps_run = step + 1
            result.final_loss = res.loss
            is_row = step % cfg.metrics_every == 0 or \
                step == cfg.train_steps - 1
            if is_row:
                row.update({"loss": repr(res.loss), "n": res.n, "m": res.m,
                            "delta_first": f"{res.deltas[0]:.6e}",
                            "delta_last": f"{res.deltas[-1]:.6e}"})
                if cfg.eval_every > 0 and step > 0 and \
                        step % cfg.eval_every == 0:
                    vmse = held_out_vmse(net, sched, eval_x0, eval_labels,
                                         seed=cfg.seed)
                    swd, mmd = _eval_sampling_metrics(net, sched, cfg,
                                                      eval_ref)
                    row.update({"vmse": repr(vmse), "swd": repr(swd),
                                "mmd": repr(mmd)})
                mw.writerow([row.get(c, "") for c in METRICS_COLUMNS])
                tw.writerow([step, f"{time.perf_counter() - t_start:.3f}"])
                result.loss_history.append((step, res.loss))
            if cfg.checkpoint_every > 0 and step > 0 and \
                    step % cfg.checkpoint_every == 0:
                save_checkpoint(os.path.join(out_dir, f"checkpoint_{step}.fpdm"),
                                net.store, step, adam_step, chash, cjson)
    save_checkpoint(ckpt_path, net.store, cfg.train_steps, adam_step,
                    chash, cjson)
    result.net = net
    say(f"finished {result.steps_run} steps, final loss {result.final_loss}")
    return result


def net_from_checkpoint(path):
    """Rebuild the network, schedule, and config stored in a checkpoint."""
    store, _, _, _, cjson = load_checkpoint(path)
    if not cjson:
        raise UsageError(f"checkpoint {path!r} carries no embedded config; "
                         "it cannot rebuild the network")
    cfg = config_from_dict(json.loads(cjson))
    net = DenoiseNet(cfg.model, seed=cfg.seed)
    if set(store.names()) != set(net.store.names()):
        raise UsageError("checkpoint parameters do not match the "
                         "configured network")
    for name, p in store.items():
        net.store.assign(name, p.data)
    sched = build_schedule(cfg.schedule.timesteps, cfg.schedule.beta_start,
                           cfg.schedule.beta_end)
    return net, sched, cfg


def sampler_eval_batch(cfg, rng):
    """Fixed held-out batch for deterministic v-MSE probes."""
    holdout = DatasetSampler(seed=int(rng.integers(0, 2 ** 31)),
                             **cfg.dataset)
    x0, labels = holdout.draw(min(cfg.eval_count, 512))
    if cfg.model.n_classes == 0:
        labels = None
    return x0, labels


def _apply_dropout(cfg, labels, rng):
    if cfg.model.n_classes == 0 or labels is None:
        return None
    drop = rng.random(len(labels)) < cfg.class_dropout
    out = labels.copy()
    out[drop] = cfg.model.null_class
    return out
