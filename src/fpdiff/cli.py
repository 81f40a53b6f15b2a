"""Command-line entry points.

Subcommands: ``train`` (config in, checkpoint and metrics out), ``sample``
(checkpoint in, audited budgeted samples out), ``sweep`` (the four study
drivers), ``eval`` (metric pair for two sample sets), and ``gradcheck``
(finite-difference verification of the gradient engine).

Exit codes: 0 success, 2 usage error, 3 numeric or divergence error,
4 cost-audit failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .budget import (
    CostModel,
    audit_cost,
    export_plan_csv,
    plan_adaptive,
    plan_constant,
    plan_ramp,
)
from .config import load_config
from .data import DatasetSampler, load_image_dir, read_pgm, write_pgm
from .errors import AuditError, NumericError, UsageError
from .experiments import (
    experiment_heuristics,
    experiment_reuse,
    experiment_smoothing,
    experiment_training_iters,
)
from .gradcheck import network_gradient_check
from .metrics import evaluate
from .sampling import SamplerConfig, generate
from .solver import SolverConfig, export_trace_csv
from .train import net_from_checkpoint, train

HEURISTICS = ("constant", "increasing", "decreasing", "adaptive")
# Adaptive plans are probed on chains 0..PROBE_CHAINS-1 of the request's
# seed, whatever --count is, so the plan does not depend on the count.
PROBE_CHAINS = 64


def _parse_bool(text):
    lowered = str(text).lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_int_list(text):
    try:
        return tuple(int(x) for x in str(text).split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _sample_labels(cfg, count):
    if cfg.model.n_classes == 0:
        return None
    return (np.arange(count) % cfg.model.n_classes).astype(np.int64)


def _write_samples(out_dir, samples):
    if samples.ndim == 2:
        path = os.path.join(out_dir, "samples.csv")
        with open(path, "w", newline="") as fh:
            for row in samples:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return path
    for i, image in enumerate(samples):
        write_pgm(os.path.join(out_dir, f"sample_{i:05d}.pgm"), image)
    return out_dir


def _cmd_train(args):
    cfg = load_config(args.config)
    result = train(cfg, args.out, log=print)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    return 0


def _build_plan(args, net, sched, cfg, sampler):
    """The plan to run, and for adaptive plans (threshold, probes, probe
    block passes); None otherwise."""
    cost = CostModel(cfg.model.n_pre, cfg.model.n_post)
    grid = plan_constant(args.budget, args.iters, cost, sched.timesteps)
    if args.heuristic == "constant":
        return grid, None
    if args.heuristic in ("increasing", "decreasing"):
        return plan_ramp(args.budget, args.heuristic, grid.steps, cost,
                         sched.timesteps), None
    # adaptive: probe thresholds with the real sampler on the constant
    # plan's timesteps, then freeze the plan of the tightest feasible one
    labels = _sample_labels(cfg, PROBE_CHAINS)
    passes = []

    def probe(theta):
        solver = replace(sampler.solver, mode="threshold", theta=theta)
        out = generate(net, sched, replace(sampler, solver=solver),
                       batch=PROBE_CHAINS, timesteps=grid.timesteps,
                       labels=labels)
        passes.append(sum(p for _, p in out.counter_records))
        return out.realized

    theta, plan = plan_adaptive(args.budget, probe, cost)
    return plan, (theta, len(passes), sum(passes))


def _cmd_sample(args):
    net, sched, cfg = net_from_checkpoint(args.ckpt)
    if args.guidance != 1.0 and cfg.model.n_classes == 0:
        raise UsageError("guidance requires a class-conditional checkpoint")
    os.makedirs(args.out, exist_ok=True)
    labels = _sample_labels(cfg, args.count)
    sampler = SamplerConfig(
        kind=args.sampler, guidance=args.guidance, seed=args.seed,
        solver=SolverConfig(init="reuse" if args.reuse else "injection"))
    plan, adaptive = _build_plan(args, net, sched, cfg, sampler)
    out = generate(net, sched, sampler, batch=args.count, plan=plan,
                   labels=labels)
    verdict = audit_cost(plan, out.counter_records)
    if not verdict:
        raise AuditError(
            f"cost audit failed: expected {verdict.expected} block passes, "
            f"counted {verdict.counted}, first bad timestep "
            f"{verdict.first_bad_timestep}")
    sample_path = _write_samples(args.out, out.samples)
    export_plan_csv(plan, os.path.join(args.out, "plan.csv"))
    export_trace_csv(out.traces, os.path.join(args.out, "traces.csv"))
    print(f"audit ok: {verdict.counted} block passes over "
          f"{plan.steps} timesteps (budget {args.budget})")
    if adaptive is not None:
        theta, probes, passes = adaptive
        print(f"adaptive threshold: {theta!r}")
        print(f"adaptive probes: {passes} block passes over {probes} "
              f"probes on {PROBE_CHAINS} chains")
    print(f"samples: {sample_path}")
    return 0


def _reference_for(cfg, count):
    return DatasetSampler(seed=7777, **cfg.dataset).draw(max(count, 1000))[0]


def _cmd_sweep(args):
    os.makedirs(args.out, exist_ok=True)
    if args.study == "training-iters":
        if not args.config:
            raise UsageError("sweep training-iters needs --config")
        cfg = load_config(args.config)
        out_csv = os.path.join(args.out, "training_iters.csv")
        res = experiment_training_iters(
            cfg, seeds=args.seeds, out_csv=out_csv,
            log=print if args.verbose else None)
        for name, med in sorted(res.extra["median"].items()):
            print(f"{name}: median vmse {med!r}")
        print(f"curve: {out_csv}")
        return 0
    if not args.ckpt:
        raise UsageError(f"sweep {args.study} needs --ckpt")
    net, sched, cfg = net_from_checkpoint(args.ckpt)
    reference = _reference_for(cfg, args.count)
    out_csv = os.path.join(args.out, f"{args.study}.csv")
    if args.study == "smoothing":
        k_list = args.k_list or (1, 2, 4, 8, 16, 26, 68)
        experiment_smoothing(net, sched, reference, budget=args.budget,
                             k_list=k_list, seeds=args.seeds,
                             count=args.count, out_csv=out_csv)
    elif args.study == "reuse":
        k_list = args.k_list or (1, 2, 4, 8, 16, 32)
        experiment_reuse(net, sched, reference, k_list=k_list,
                         seeds=args.seeds, count=args.count,
                         out_csv=out_csv)
    else:
        k_list = args.k_list or (4, 8)
        experiment_heuristics(net, sched, reference, budget=args.budget,
                              mean_k_list=k_list, seeds=args.seeds,
                              count=args.count, out_csv=out_csv)
    print(f"curve: {out_csv}")
    return 0


def _load_samples(path):
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".pgm"))
        if not names:
            raise UsageError(f"no .pgm files under {path!r}")
        size = read_pgm(os.path.join(path, names[0])).shape[0]
        return load_image_dir(path, size)
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError:
        raise UsageError(f"sample file {path!r} does not exist") from None
    except ValueError as exc:
        raise UsageError(f"could not parse {path!r}: {exc}") from None
    return data


def _cmd_eval(args):
    samples = _load_samples(args.samples)
    ref = _load_samples(args.ref)
    swd, mmd = evaluate(samples, ref)
    print(f"swd: {swd!r}")
    print(f"mmd: {mmd!r}")
    return 0


def _cmd_gradcheck(args):
    tolerances = {"float32": 1e-2, "float64": 1e-5}
    modes = ("float32", "float64") if args.dtype == "both" else (args.dtype,)
    failed = False
    for dtype in modes:
        worst = max(network_gradient_check(seed, width=args.width,
                                           dtype=dtype)
                    for seed in range(args.seeds))
        tol = tolerances[dtype]
        ok = worst < tol
        failed |= not ok
        print(f"gradcheck {dtype}: max rel err {worst:.3e} over "
              f"{args.seeds} seeds (tolerance {tol:g}) "
              f"{'ok' if ok else 'FAILED'}")
    if failed:
        raise NumericError("gradient check exceeded tolerance")
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="fpdiff",
        description="Budget-aware diffusion with an implicit fixed-point "
                    "denoiser.")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=_cmd_train)

    sa = sub.add_parser("sample", help="generate samples under a compute "
                                       "budget")
    sa.add_argument("--ckpt", required=True)
    sa.add_argument("--out", required=True)
    sa.add_argument("--budget", type=int, default=280)
    sa.add_argument("--iters", type=int, default=4,
                    help="iterations per timestep (mean for ramps, grid "
                         "source for adaptive)")
    sa.add_argument("--heuristic", choices=HEURISTICS, default="constant")
    sa.add_argument("--reuse", type=_parse_bool, default=False,
                    help="carry each solution to the next timestep "
                         "(true/false)")
    sa.add_argument("--sampler", choices=("ddpm", "ddim"), default="ddpm")
    sa.add_argument("--guidance", type=float, default=1.0)
    sa.add_argument("--seed", type=int, default=0)
    sa.add_argument("--count", type=int, default=1000)
    sa.set_defaults(func=_cmd_sample)

    sw = sub.add_parser("sweep", help="run one of the study drivers")
    sw.add_argument("study", choices=("smoothing", "reuse", "heuristics",
                                      "training-iters"))
    sw.add_argument("--ckpt")
    sw.add_argument("--config", help="base config for training-iters")
    sw.add_argument("--out", required=True)
    sw.add_argument("--budget", type=int, default=280)
    sw.add_argument("--k-list", type=_parse_int_list, default=None)
    sw.add_argument("--seeds", type=_parse_int_list, default=(0, 1, 2))
    sw.add_argument("--count", type=int, default=1000)
    sw.add_argument("--verbose", action="store_true")
    sw.set_defaults(func=_cmd_sweep)

    ev = sub.add_parser("eval", help="SWD and MMD between two sample sets")
    ev.add_argument("--samples", required=True)
    ev.add_argument("--ref", required=True)
    ev.set_defaults(func=_cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient "
                                          "verification")
    gc.add_argument("--width", type=int, default=64)
    gc.add_argument("--seeds", type=int, default=20)
    gc.add_argument("--dtype", choices=("float32", "float64", "both"),
                    default="both")
    gc.set_defaults(func=_cmd_gradcheck)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AuditError as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
