#!/usr/bin/env python3
"""fpdiff benchmark: one workload per process, timed, checked, one JSON line.

    python3 bench/run.py --workload sample-mix8 --seed 1 --seconds 20 --trace 0

Runs whole operations of the workload until ``--seconds`` have passed, then
checks the program's outputs and prints, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, op_s, peak_rss_mb); with
``--trace 1`` they are the per-layer figures of bench/spans.py, recorded on
every other operation so that the untraced ones give the tracing overhead.
See bench/README.md for the workloads and what each figure should move.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread, set before numpy loads: the figures describe a single
# core, and a second pool thread would compete with the interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def process_age():
    """Seconds since the kernel started this process (10 ms resolution), so
    set-up includes interpreter start and imports."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
from reference import ReferenceNet, read_checkpoint  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = HERE / "fixtures"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"      # metric names and units

BUDGET, ITERS = 280, 4       # the README quickstart's plan
CHECK_CHAINS = 32            # the batch compared against the first chains
V_CHAINS = 4                 # chains checked against the reference forward
TRAIN_STEPS = 200            # one training round; see README for why
ACCEPTANCE = {               # ROADMAP acceptance config (README quickstart)
    "batch_size": 256, "model": {"width": 32, "heads": 4},
    "dataset": {"name": "gaussian-mixture", "modes": 8},
    "optimizer": {"lr": 3e-4}, "metrics_every": 1,
}


def import_fpdiff():
    """Import the package from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fpdiff
    if Path(fpdiff.__file__).resolve().parent != src / "fpdiff":
        raise SystemExit(f"fpdiff imported from {fpdiff.__file__}, "
                         f"not from {src}")


class Sampling:
    """``fpdiff sample`` requests against a checked-in checkpoint."""

    op_name = "sample request"

    def __init__(self, seed, workdir, ckpt, count, extra, mixture, fixed):
        self.seed, self.workdir = seed, workdir
        self.ckpt = FIXTURES / ckpt
        self.count, self.extra = count, extra
        self.mixture, self.fixed = mixture, fixed
        self.requests = []
        self.last = None               # final generate() result of a request
        self.steps = []                # (x_t, v, t) of each sampler step

    def setup(self, patches):
        from fpdiff import net_from_checkpoint
        import fpdiff.cli
        _, _, cfg = net_from_checkpoint(str(self.ckpt))
        self.n_pre, self.n_post = cfg.model.n_pre, cfg.model.n_post
        self.reference = ReferenceNet(*read_checkpoint(self.ckpt))
        self.seeds = np.random.default_rng(self.seed).integers(
            0, 2 ** 31 - 1, size=1024)

        def capture(orig):
            def generate(*args, **kwargs):
                self.steps = []
                self.last = orig(*args, **kwargs)
                return self.last
            return generate
        patches.wrap(fpdiff.cli, "generate", capture)

    def request(self, i, count):
        import fpdiff.cli
        out = self.workdir / f"r{i}-{count}"
        argv = ["sample", "--ckpt", str(self.ckpt), "--out", str(out),
                "--budget", str(BUDGET), "--iters", str(ITERS),
                "--reuse", "true", "--seed", str(self.seeds[i]),
                "--count", str(count)] + self.extra
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = fpdiff.cli.main(argv)
        seconds = time.perf_counter() - t0
        last, self.last = self.last, None
        req = {"dir": out, "rc": rc, "stdout": stdout.getvalue(),
               "stderr": stderr.getvalue(),
               "samples": None if last is None else last.samples,
               "first_iters": None if last is None else last.realized[0][1]}
        return seconds, req

    def op(self, i):
        seconds, req = self.request(i, self.count)
        self.requests.append(req)
        return [seconds], 1, int(req["rc"] != 0)

    def check(self):
        fails = []
        for i, req in enumerate(self.requests):
            fails += self._check_request(i, req)
        fails += self._check_small_batch()
        fails.append(self._round_trip())
        return fails

    def _check_request(self, i, req):
        if req["rc"] != 0:
            return [f"request exited {req['rc']}: {req['stderr'].strip()}"]
        audit = C.parse_audit(req["stdout"])
        fails = [C.check_plan(req["dir"] / "plan.csv", BUDGET, audit)]
        if self.fixed and audit != self.plan_passes():
            fails.append(f"audit {audit}, plan arithmetic {self.plan_passes()}")
        if self.mixture:
            samples = np.loadtxt(req["dir"] / "samples.csv", delimiter=",",
                                 ndmin=2)
            fresh = C.mixture_draw(np.random.default_rng([self.seed, 2, i]),
                                   C.REFERENCE_POINTS)
            fails.append(C.check_mixture(samples, fresh))
        else:
            blobs = [(req["dir"] / f"sample_{j:05d}.pgm").read_bytes()
                     for j in range(len(req["samples"]))]
            fails.append(C.check_images(req["samples"], blobs))
        return fails

    def _check_small_batch(self):
        """A 32-chain request with the first request's seed, counted by the
        tracer's wrappers: pass counts, batch independence and the
        reference forward at the first timestep."""
        import fpdiff.sampling

        def record(orig):
            def step(*args, **kwargs):
                self.steps.append((args[1][:V_CHAINS], args[2][:V_CHAINS], args[3]))
                return orig(*args, **kwargs)
            return step

        tracer = Tracer()
        with Patches() as patches:
            tracer.install(patches)
            for name in ("ddpm_step", "ddim_step"):
                patches.wrap(fpdiff.sampling, name, record)
            _, req = self.request(0, CHECK_CHAINS)
        if req["rc"] != 0:
            return [f"check request exited {req['rc']}: {req['stderr'].strip()}"]
        audit = C.parse_audit(req["stdout"])
        final = tracer.counts["nn.block_passes"] - tracer.counts["budget.probe_passes"]
        if self.fixed:
            fails = [C.check_passes(final, audit, self.plan_passes()),
                     C.check_batch_independence(self.requests[0]["samples"],
                                                req["samples"])]
        else:
            total, rows, _, _ = C.read_plan(req["dir"] / "plan.csv")
            fails = [C.check_passes(final, audit, (total, len(rows))),
                     C.check_plan(req["dir"] / "plan.csv", BUDGET, audit)]
        x_t, v, t = self.steps[0]
        fails.append(C.check_v(v, self.reference.v(x_t, t, req["first_iters"])))
        return fails

    def plan_passes(self):
        """(block passes, steps) of the constant plan, from the budget."""
        entry = self.n_pre + ITERS + self.n_post
        return BUDGET // entry * entry, BUDGET // entry

    def _round_trip(self):
        from fpdiff.checkpoint import load_checkpoint, save_checkpoint
        return round_trip(self.ckpt, self.workdir, load_checkpoint,
                          save_checkpoint)

    def peak_alloc_mb(self):
        return 0.0                     # no training step runs


def round_trip(path, workdir, load, save):
    """save(load(file)) reproduces the file byte for byte."""
    again = workdir / "round-trip.fpdm"
    save(again, *load(path))
    return C.check_same_bytes(Path(path).read_bytes(), again.read_bytes(),
                              f"checkpoint round trip of {Path(path).name}")


class Training:
    """``train`` rounds of TRAIN_STEPS steps at the acceptance config."""

    op_name = "training step"

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.rounds = []

    def setup(self, patches):
        import fpdiff.train
        self.seeds = np.random.default_rng(self.seed).integers(
            0, 2 ** 31 - 1, size=1024)
        self.starts = []               # perf_counter at each step's start

        def clock(orig):
            def sjfb_train_step(*args, **kwargs):
                self.starts.append(time.perf_counter())
                return orig(*args, **kwargs)
            return sjfb_train_step
        patches.wrap(fpdiff.train, "sjfb_train_step", clock)

    def run_round(self, seed, steps, out, **extra):
        from fpdiff.config import config_from_dict
        from fpdiff.train import train
        cfg = config_from_dict(dict(ACCEPTANCE, seed=int(seed),
                                    train_steps=steps, **extra))
        return train(cfg, str(out))

    def op(self, i):
        """One round. A step is timed from its start to the next step's
        start, so the round's model set-up and final checkpoint save are no
        step's, and the run's median step is not moved by a burst of load on
        the host the way the round's mean is."""
        self.starts = []
        result = self.run_round(self.seeds[i], TRAIN_STEPS, self.workdir / f"r{i}")
        self.rounds.append(result)
        return np.diff(self.starts).tolist(), TRAIN_STEPS, result.skipped_steps

    def peak_alloc_mb(self):
        """tracemalloc peak over one training step at the largest draw,
        n = m = 6 (the larger of two steps; the first also allocates the
        Adam moments)."""
        tracer = Tracer()
        # Start from an empty heap, so that garbage left by the timed rounds
        # does not depend on how many ran; garbage this round makes stays in.
        gc.collect()
        tracemalloc.start()
        try:
            with Patches() as patches:
                tracer.install(patches)
                self.run_round(self.seeds[-1], 2, self.workdir / "alloc",
                               sjfb={"sampling": "fixed", "fixed_n": 6,
                                     "fixed_m": 6})
        finally:
            tracemalloc.stop()
        return tracer.peak_alloc / 2 ** 20

    def check(self):
        from fpdiff.checkpoint import load_checkpoint, save_checkpoint
        fails = []
        for result in self.rounds:
            fails.append(C.check_loss_falls([l for _, l in result.loss_history]))
            fails.append(round_trip(result.checkpoint_path, self.workdir,
                                    load_checkpoint, save_checkpoint))
        return fails + self._check_gradient()

    def _check_gradient(self):
        """One n=0, m=2 step on the trained fixture: the tape gradient along
        a random direction against float64 central differences of the
        reference loss, and the loss itself against the reference."""
        from fpdiff import SjfbConfig, net_from_checkpoint, sjfb_train_step
        from fpdiff.solver import SjfbBatch
        path = FIXTURES / "mix8.fpdm"
        net, sched, _ = net_from_checkpoint(str(path))
        params, config = read_checkpoint(path)
        rng = np.random.default_rng([self.seed, 1])
        x0 = C.mixture_draw(rng, 64)
        t = rng.integers(0, sched.timesteps, size=64)
        eps = rng.standard_normal(x0.shape)
        a, b = sched.sqrt_alpha_bar[t, None], sched.sqrt_one_minus[t, None]
        batch = SjfbBatch(x_t=(a * x0 + b * eps).astype(np.float32), t=t,
                          v_target=(a * eps - b * x0).astype(np.float32))
        step = sjfb_train_step(batch, net, SjfbConfig(sampling="fixed",
                                                      fixed_n=0, fixed_m=2), rng)
        direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        tape = sum(float((step.grads[k].data.astype(np.float64) * d).sum())
                   for k, d in direction.items() if k in step.grads) / norm

        def loss(h):
            moved = {k: p + h * direction[k] / norm for k, p in params.items()}
            return ReferenceNet(moved, config).loss(batch.x_t, t, batch.v_target, 2)

        h = 1e-4
        return [C.check_v(step.loss, loss(0.0)),
                C.check_gradient(tape, (loss(h) - loss(-h)) / (2 * h))]


WORKLOADS = {
    "train-mix8": lambda seed, d: Training(seed, d),
    "sample-mix8": lambda seed, d: Sampling(
        seed, d, "mix8.fpdm", 1000, [], mixture=True, fixed=True),
    "adaptive-mix8": lambda seed, d: Sampling(
        seed, d, "mix8.fpdm", 200, ["--heuristic", "adaptive"],
        mixture=True, fixed=False),
    "sample-image": lambda seed, d: Sampling(
        seed, d, "image.fpdm", 64, ["--sampler", "ddim"],
        mixture=False, fixed=True),
}


def measure(workload, seconds, trace):
    """Whole operations until ``seconds`` pass. A traced run repeats each
    input twice, untraced then traced, so that the difference between the
    two is the tracing overhead and not a difference in work."""
    plain, traced, tracer = [], [], Tracer()
    attempted = failed = traced_ops = 0
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds or not plain
           or (trace and not traced)):
        on = trace and i % 2 == 1
        with Patches() as patches:
            if on:
                tracer.op = i
                tracer.install(patches)
            times, ops, bad = workload.op(i // 2 if trace else i)
        (traced if on else plain).extend(times)
        print(f"op {i}{' traced' if on else ''}: {statistics.median(times):.4f} "
              f"s per {workload.op_name} (median), {bad} of {ops} failed",
              file=sys.stderr)
        attempted, failed = attempted + ops, failed + bad
        traced_ops += ops if on else 0
        i += 1
    return plain, traced, tracer, traced_ops, attempted, failed


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    import_fpdiff()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        with Patches() as patches:
            workload = WORKLOADS[args.workload](args.seed, workdir)
            workload.setup(patches)
            setup_s = process_age()
            plain, traced, tracer, traced_ops, attempted, failed = measure(
                workload, args.seconds, args.trace)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failures = [f for f in workload.check() if f]
            if args.trace:
                metrics = tracer.metrics(traced_ops)
                metrics["trace.overhead_s"] = (statistics.median(traced)
                                               - statistics.median(plain))
                metrics["train.step_peak_alloc_mb"] = workload.peak_alloc_mb()
                tracer.dump(OUT / f"trace-{args.workload}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        metrics = {"setup_s": setup_s, "op_s": statistics.median(plain),
                   "peak_rss_mb": rss_mb}
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace
                                            else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"measured {sorted(metrics)} but {SPEC.name} "
                         f"declares {sorted(units)}")
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(f"{args.workload}: {attempted} {workload.op_name}s, "
          f"{failed} failed, {len(failures)} check failures")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
