"""Sweep drivers for the sampling-budget and training-schedule studies.

Each driver runs a family of matched sampling or training runs against a
live network, audits every run's compute cost, and returns a small result
object whose ``rows`` render directly as CSV. Sample-quality numbers are
reported as the median over a few seeds plus the min/max band; the band is
what desk-scale trend claims are judged against.
"""

from __future__ import annotations

import csv
import dataclasses
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .budget import CostModel, audit_cost, plan_constant, plan_ramp
from .config import ExperimentConfig
from .data import DatasetSampler
from .errors import AuditError, UsageError
from .metrics import evaluate
from .sampling import SamplerConfig, generate
from .schedule import build_schedule
from .solver import SjfbConfig, SolverConfig
from .train import held_out_vmse, train

SWEEP_SEEDS = (0, 1, 2)


@dataclass
class SweepResult:
    columns: list
    rows: list = field(default_factory=list)
    # driver-specific extras, keyed however the driver documents
    extra: dict = field(default_factory=dict)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.columns)
            w.writerows(self.rows)


def _generate_audited(net, sched, plan, *, seed, count, kind="ddpm",
                      reuse=False):
    solver = SolverConfig(init="reuse" if reuse else "injection")
    cfg = SamplerConfig(kind=kind, seed=seed, solver=solver)
    out = generate(net, sched, cfg, batch=count, plan=plan)
    verdict = audit_cost(plan, out.counter_records)
    if not verdict:
        raise AuditError(
            f"plan audit failed: expected {verdict.expected} passes, "
            f"counted {verdict.counted}, first bad timestep "
            f"{verdict.first_bad_timestep}")
    return out


def _swd_band(net, sched, plan, reference, *, seeds, count, kind, reuse):
    vals = []
    for seed in seeds:
        out = _generate_audited(net, sched, plan, seed=seed, count=count,
                                kind=kind, reuse=reuse)
        swd, _ = evaluate(out.samples, reference)
        vals.append(swd)
    vals = sorted(vals)
    return float(np.median(vals)), vals[0], vals[-1], vals


def experiment_smoothing(net, sched, reference, budget=280,
                         k_list=(1, 2, 4, 8, 16, 26, 68), *,
                         seeds=SWEEP_SEEDS, count=1000, kind="ddpm",
                         out_csv=None):
    """Trade iterations per timestep against timestep count at fixed budget.

    One row per k: (k, steps, swd median, swd min, swd max). The per-seed
    values are kept in ``extra["swd"][k]``.
    """
    cost = CostModel(net.config.n_pre, net.config.n_post)
    result = SweepResult(columns=["k", "steps", "swd", "swd_min", "swd_max"],
                         extra={"swd": {}})
    for k in k_list:
        plan = plan_constant(budget, k, cost, sched.timesteps)
        med, lo, hi, vals = _swd_band(net, sched, plan, reference,
                                      seeds=seeds, count=count, kind=kind,
                                      reuse=True)
        result.extra["swd"][k] = vals
        result.rows.append([k, plan.steps, repr(med), repr(lo), repr(hi)])
    if out_csv:
        result.write_csv(out_csv)
    return result


def experiment_reuse(net, sched, reference, k_list=(1, 2, 4, 8, 16, 32), *,
                     steps=20, batches=10, batch_size=128, seeds=SWEEP_SEEDS,
                     count=1000, kind="ddpm", out_csv=None):
    """Pair runs that differ only in fixed-point initialization.

    The timestep grid is held fixed (``steps`` entries at every k) so the
    per-timestep convergence indicator is comparable across k. Long-form
    rows: (k, reuse, swd median, timestep, mean final delta over batches).
    ``extra["deltas"][(k, reuse)]`` is the (batches, steps) array of final
    deltas and ``extra["swd"][(k, reuse)]`` the per-seed metric values.
    """
    cost = CostModel(net.config.n_pre, net.config.n_post)
    result = SweepResult(
        columns=["k", "reuse", "swd", "timestep", "mean_delta"],
        extra={"deltas": {}, "swd": {}, "plans": {}})
    for k in k_list:
        plan = plan_constant(steps * cost.entry_cost(k), k, cost,
                             sched.timesteps)
        if plan.steps != steps:
            raise UsageError(f"k={k} does not fit a {steps}-step grid")
        result.extra["plans"][k] = plan
        for reuse in (False, True):
            med, _, _, vals = _swd_band(net, sched, plan, reference,
                                        seeds=seeds, count=count, kind=kind,
                                        reuse=reuse)
            profile = np.empty((batches, plan.steps))
            for b in range(batches):
                out = _generate_audited(net, sched, plan, seed=1000 + b,
                                        count=batch_size, kind=kind,
                                        reuse=reuse)
                profile[b] = [tr.deltas[-1] for tr in out.traces]
            key = (k, reuse)
            result.extra["deltas"][key] = profile
            result.extra["swd"][key] = vals
            mean_profile = profile.mean(axis=0)
            for t, d in zip(plan.timesteps, mean_profile):
                result.rows.append([k, int(reuse), repr(med), t, repr(d)])
    if out_csv:
        result.write_csv(out_csv)
    return result


def experiment_heuristics(net, sched, reference, budget=280,
                          mean_k_list=(4, 8), *, seeds=SWEEP_SEEDS,
                          count=1000, kind="ddpm", out_csv=None):
    """Constant versus increasing versus decreasing allocation, equal cost.

    The ramp planners are driven with the constant plan's realized cost so
    all three plans for a given mean k audit to the same total.
    """
    cost = CostModel(net.config.n_pre, net.config.n_post)
    result = SweepResult(
        columns=["heuristic", "mean_k", "steps", "cost", "swd",
                 "swd_min", "swd_max"],
        extra={"swd": {}, "plans": {}})
    for k in mean_k_list:
        base = plan_constant(budget, k, cost, sched.timesteps)
        plans = {"constant": base}
        for direction in ("increasing", "decreasing"):
            plans[direction] = plan_ramp(base.total_cost, direction,
                                         base.steps, cost, sched.timesteps)
        for name, plan in plans.items():
            if plan.total_cost != base.total_cost:
                raise AuditError(f"{name} plan cost {plan.total_cost} != "
                                 f"matched cost {base.total_cost}")
            med, lo, hi, vals = _swd_band(net, sched, plan, reference,
                                          seeds=seeds, count=count,
                                          kind=kind, reuse=True)
            result.extra["swd"][(name, k)] = vals
            result.extra["plans"][(name, k)] = plan
            result.rows.append([name, k, plan.steps, plan.total_cost,
                                repr(med), repr(lo), repr(hi)])
    if out_csv:
        result.write_csv(out_csv)
    return result


TRAINING_METHODS = {
    # draw both iteration counts uniformly every step
    "stochastic": SjfbConfig(n_max=6, m_max=6, sampling="stochastic"),
    # unroll six with-grad iterations, no warm-up
    "fixed6": SjfbConfig(sampling="fixed", fixed_n=0, fixed_m=6),
    # classic one-step gradient after six no-grad iterations
    "jfb1": SjfbConfig(sampling="fixed", fixed_n=6, fixed_m=1),
}


def experiment_training_iters(base_cfg: ExperimentConfig,
                              seeds=SWEEP_SEEDS, *, eval_iterations=6,
                              out_csv=None, log=None):
    """Train the same model under three iteration schedules per seed.

    Rows: (method, seed, final v-MSE on a shared held-out batch). The loss
    curves land in ``extra["curves"][(method, seed)]`` and the per-method
    medians in ``extra["median"]`` for trend reporting.
    """
    sched = build_schedule(base_cfg.schedule.timesteps,
                           base_cfg.schedule.beta_start,
                           base_cfg.schedule.beta_end)
    held, held_labels = DatasetSampler(
        seed=4242, **base_cfg.dataset).draw(2048)
    if base_cfg.model.n_classes == 0:
        held_labels = None
    result = SweepResult(columns=["method", "seed", "vmse"],
                         extra={"curves": {}, "median": {}})
    scores = {name: [] for name in TRAINING_METHODS}
    for name, sjfb in TRAINING_METHODS.items():
        for seed in seeds:
            cfg = dataclasses.replace(base_cfg, sjfb=sjfb, seed=seed)
            with tempfile.TemporaryDirectory() as tmp:
                run = train(cfg, tmp, log=log)
            vmse = held_out_vmse(run.net, sched, held, held_labels,
                                 iterations=eval_iterations)
            scores[name].append(vmse)
            result.extra["curves"][(name, seed)] = run.loss_history
            result.rows.append([name, seed, repr(vmse)])
    for name, vals in scores.items():
        result.extra["median"][name] = float(np.median(vals))
    if out_csv:
        result.write_csv(out_csv)
    return result
