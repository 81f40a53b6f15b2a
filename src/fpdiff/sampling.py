"""Reverse samplers: ancestral (DDPM) and deterministic (DDIM) steps,
classifier-free guidance, and the budgeted generation loop.

Generation walks a plan's timesteps from pure noise, solving the implicit
block to the planned iteration count (or to a delta threshold), then
applying the chosen reverse update. The final timestep emits the clipped
x0 prediction directly. Each chain owns an RNG stream derived from
(seed, chain index), so results are independent of how chains are grouped
into calls.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .budget import BudgetPlan
from .errors import NumericError, UsageError
from .nn import PassCounter
from .schedule import NoiseSchedule, predict_from_v
from .solver import SolverConfig, solve


def _posterior_coeffs(sched, t, t_prev):
    ab_t = float(sched.alpha_bar[t])
    ab_p = float(sched.alpha_bar[t_prev])
    beta_eff = 1.0 - ab_t / ab_p
    c0 = np.sqrt(ab_p) * beta_eff / (1.0 - ab_t)
    cx = np.sqrt(ab_t / ab_p) * (1.0 - ab_p) / (1.0 - ab_t)
    var = (1.0 - ab_p) / (1.0 - ab_t) * beta_eff
    return c0, cx, var


def _check_transition(sched, t, t_prev):
    if not (0 <= t_prev < t < sched.timesteps):
        raise UsageError(
            f"need 0 <= t_prev < t < {sched.timesteps}, got t={t} t_prev={t_prev}")


def _clip_x0(sched, x_t, t, v_pred):
    t_arr = np.full(x_t.shape[0], t)
    x0_hat, eps_hat = predict_from_v(sched, x_t, t_arr, v_pred)
    return np.clip(x0_hat, -1.0, 1.0), eps_hat


def ddpm_step(sched: NoiseSchedule, x_t, v_pred, t, t_prev, rng=None):
    """One ancestral step: sample the fixed-variance Gaussian posterior.

    The x0 prediction is clipped to [-1, 1] first. No noise is added when
    t_prev == 0.
    """
    _check_transition(sched, t, t_prev)
    x0_hat, _ = _clip_x0(sched, x_t, t, v_pred)
    c0, cx, var = _posterior_coeffs(sched, t, t_prev)
    mean = c0 * x0_hat + cx * x_t
    if t_prev > 0:
        if rng is None:
            raise UsageError("ddpm_step needs an rng when t_prev > 0")
        mean = mean + np.sqrt(var) * rng.standard_normal(x_t.shape)
    out = mean.astype(x_t.dtype)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite sample state at timestep {t}")
    return out


def ddim_step(sched: NoiseSchedule, x_t, v_pred, t, t_prev):
    """Deterministic update re-noising the clipped x0 prediction to t_prev."""
    if t_prev != t:
        _check_transition(sched, t, t_prev)
    x0_hat, eps_hat = _clip_x0(sched, x_t, t, v_pred)
    out = (sched.sqrt_alpha_bar[t_prev] * x0_hat
           + sched.sqrt_one_minus[t_prev] * eps_hat).astype(x_t.dtype)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite sample state at timestep {t}")
    return out


def cfg_combine(v_cond, v_uncond, w):
    """v_uncond + w * (v_cond - v_uncond); w=1 is conditional-only."""
    if np.shape(v_cond) != np.shape(v_uncond):
        raise UsageError("guidance inputs must share a shape")
    if w < 0:
        raise UsageError("guidance scale must be >= 0")
    return v_uncond + w * (v_cond - v_uncond)


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "ddpm"             # "ddpm" | "ddim"
    guidance: float = 1.0
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.kind not in ("ddpm", "ddim"):
            raise UsageError(f"unknown sampler kind {self.kind!r}")
        if self.guidance < 0:
            raise UsageError("guidance scale must be >= 0")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise UsageError(
                f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class SampleResult:
    samples: np.ndarray
    counter_records: list          # (train_timestep, block passes)
    realized: list                 # (train_timestep, solver iterations)
    traces: list                   # FixedPointTrace per timestep


class _ChainRng:
    """One RNG stream per chain; draws stack along the leading axis."""

    def __init__(self, seed, chains):
        self.rngs = [np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=(c,))) for c in range(chains)]

    def standard_normal(self, shape):
        rows = [r.standard_normal(shape[1:]) for r in self.rngs]
        return np.stack(rows).astype(np.float32)


def generate(net, sched: NoiseSchedule, cfg: SamplerConfig, batch,
             plan: BudgetPlan | None = None, timesteps=None, labels=None):
    """Sample ``batch`` chains under a plan or a threshold rule.

    Exactly one of ``plan`` (fixed per-timestep iteration counts) and
    ``timesteps`` (threshold mode; cfg.solver must carry theta/max_iters)
    may be given. With ``labels``, every network call runs the conditional
    and null-class halves as one doubled batch, so the block-pass count is
    independent of the guidance scale.
    """
    if (plan is None) == (timesteps is None):
        raise UsageError("pass exactly one of plan or timesteps")
    if batch < 1:
        raise UsageError(f"need at least one chain, got {batch}")
    if plan is not None:
        ts = list(plan.timesteps)
        iter_counts = list(plan.iterations)
    else:
        ts = [int(t) for t in timesteps]
        iter_counts = None
        if cfg.solver.mode != "threshold":
            raise UsageError("timestep-list sampling needs a threshold solver")
    if ts[0] != sched.timesteps - 1:
        raise UsageError(
            f"sampling must start at timestep {sched.timesteps - 1}, "
            f"got {ts[0]}")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (batch,):
            raise UsageError("labels must have one entry per chain")

    chain_rng = _ChainRng(cfg.seed, batch)
    x = chain_rng.standard_normal((batch,) + net.config.data.data_shape)

    counter = PassCounter()
    net.pass_counter = counter
    realized = []
    traces = []
    previous = None
    try:
        for i, t in enumerate(ts):
            counter.begin_timestep(t)
            x_star, v, trace = _denoise_at(
                net, sched, cfg, x, t,
                iter_counts[i] if iter_counts is not None else None,
                labels, previous)
            previous = x_star if cfg.solver.init == "reuse" else None
            realized.append((t, trace.iterations_used))
            traces.append(trace)
            if i + 1 < len(ts):
                if cfg.kind == "ddpm":
                    x = ddpm_step(sched, x, v, t, ts[i + 1], chain_rng)
                else:
                    x = ddim_step(sched, x, v, t, ts[i + 1])
            else:
                x, _ = _clip_x0(sched, x, t, v)
    finally:
        net.pass_counter = None
    return SampleResult(samples=x, counter_records=counter.records,
                        realized=realized, traces=traces)


def _denoise_at(net, sched, cfg, x, t, k, labels, previous):
    """One network evaluation at timestep t: solve, then predict v."""
    batch = x.shape[0]
    if labels is not None:
        x_in = np.concatenate([x, x])
        t_in = np.full(2 * batch, t)
        lab_in = np.concatenate(
            [labels, np.full(batch, net.config.null_class)])
    else:
        x_in = x
        t_in = np.full(batch, t)
        lab_in = None
    mod = net.fp_block.modulation(net.embed_conditioning(t_in, lab_in))
    x_tilde = net.inject(net.pre_forward(net.tokenize(x_in)))
    # Reuse starts from the neighboring timestep's solution; the first
    # timestep has none and starts from the injection, by design.
    x0 = x_tilde if previous is None else previous
    if k is None:
        solver_cfg = cfg.solver
    else:
        solver_cfg = SolverConfig(mode="fixed", iterations=k,
                                  init=cfg.solver.init)
    x_star, trace = solve(
        lambda z: net.fp_step(z, x_tilde, mod), x0, solver_cfg, timestep=t)
    v_out = net.post_forward(x_star).data
    if labels is not None:
        v = cfg_combine(v_out[:batch], v_out[batch:], cfg.guidance)
    else:
        v = v_out
    return x_star, v, trace
