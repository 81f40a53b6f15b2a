"""Fixed-point iteration, stochastic training steps, and gradient probes.

``solve`` is the one fixed-point loop: plain iteration x <- step(x) either
for a fixed count or until the RMS update norm delta falls below a threshold.
Training follows the split-gradient recipe with two fixed-count solves: n
iterations run without recording, m iterations run on the tape, and backward
unrolls only those m. One (n, m) draw is shared by the whole batch each step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, NumericError, UsageError
from . import tensor as T
from .tensor import Tape, Tensor, backward, no_recording, recording

DIVERGENCE_DELTA = 1e4


@dataclass(frozen=True)
class SolverConfig:
    """Iteration policy: fixed count or threshold, plus the init mode."""

    mode: str = "fixed"            # "fixed" | "threshold"
    iterations: int = 4            # fixed mode
    theta: float = 1e-3            # threshold mode stop level
    max_iters: int = 64            # threshold mode cap
    init: str = "injection"        # "injection" | "reuse"

    def __post_init__(self):
        if self.mode not in ("fixed", "threshold"):
            raise UsageError(f"unknown solver mode {self.mode!r}")
        if self.mode == "fixed" and self.iterations < 1:
            raise UsageError("fixed mode needs iterations >= 1")
        if self.mode == "threshold":
            if self.theta <= 0:
                raise UsageError("threshold mode needs theta > 0")
            if self.max_iters < 1:
                raise UsageError("threshold mode needs max_iters >= 1")
        if self.init not in ("injection", "reuse"):
            raise UsageError(f"unknown init mode {self.init!r}")


@dataclass
class FixedPointTrace:
    """Per-solve record: RMS deltas, count, and the final two iterates."""

    timestep: int
    deltas: list = field(default_factory=list)
    iterations_used: int = 0
    second_last: np.ndarray | None = None
    last: np.ndarray | None = None


def rms_delta(a, b):
    """||a - b||_2 / sqrt(numel), accumulated in float64."""
    d = a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)
    return float(np.sqrt(np.mean(d * d)))


def solve(step, x0: Tensor, cfg: SolverConfig, timestep=-1):
    """Iterate ``step`` from ``x0``; returns (solution, trace).

    Raises DivergenceError (carrying the partial trace) on a non-finite
    iterate or an RMS delta above the divergence level.
    """
    trace = FixedPointTrace(timestep=int(timestep))
    x = x0
    limit = cfg.iterations if cfg.mode == "fixed" else cfg.max_iters
    for _ in range(limit):
        x_new = step(x)
        if not np.all(np.isfinite(x_new.data)):
            raise DivergenceError(
                f"non-finite iterate at timestep {timestep}", trace)
        d = rms_delta(x_new.data, x.data)
        trace.deltas.append(d)
        trace.iterations_used += 1
        trace.second_last = x.data
        trace.last = x_new.data
        x = x_new
        if d > DIVERGENCE_DELTA:
            raise DivergenceError(
                f"delta {d:.3e} exceeds {DIVERGENCE_DELTA:.0e} "
                f"at timestep {timestep}", trace)
        if cfg.mode == "threshold" and d <= cfg.theta:
            break
    return x, trace


@dataclass(frozen=True)
class SjfbConfig:
    """Iteration-count policy for training.

    sampling="stochastic" draws n ~ U{0..n_max} and m ~ U{1..m_max} each
    step; sampling="fixed" always uses (fixed_n, fixed_m).
    """

    n_max: int = 6
    m_max: int = 6
    sampling: str = "stochastic"   # "stochastic" | "fixed"
    fixed_n: int = 0
    fixed_m: int = 1

    def __post_init__(self):
        if self.n_max < 0:
            raise UsageError("n_max must be >= 0")
        if self.m_max < 1:
            raise UsageError("m_max must be >= 1")
        if self.sampling not in ("stochastic", "fixed"):
            raise UsageError(f"unknown sampling mode {self.sampling!r}")
        if self.sampling == "fixed" and (self.fixed_n < 0 or self.fixed_m < 1):
            raise UsageError("fixed draws need n >= 0 and m >= 1")

    def draw(self, rng):
        if self.sampling == "fixed":
            return self.fixed_n, self.fixed_m
        n = int(rng.integers(0, self.n_max + 1))
        m = int(rng.integers(1, self.m_max + 1))
        return n, m


@dataclass
class SjfbBatch:
    """Prepared training batch: noised inputs and the regression target."""

    x_t: np.ndarray
    t: np.ndarray
    v_target: np.ndarray
    labels: np.ndarray | None = None


@dataclass
class SjfbStepResult:
    loss: float
    grads: dict
    n: int
    m: int
    deltas: list
    tape_nodes: int


def sjfb_train_step(batch: SjfbBatch, net, cfg: SjfbConfig, rng):
    """One training step with an (n, m) draw shared across the batch.

    The injection output x_tilde and the implicit block's modulation are
    computed once on the tape and shared by every iteration; x_tilde is the
    first iterate. Gradients flow to the pre layers and injection through
    the with-grad segment's use of x_tilde, and to the modulation maps
    through its use of the modulation.
    """
    n, m = cfg.draw(rng)
    tape = Tape()
    with recording(tape):
        mod = net.fp_block.modulation(
            net.embed_conditioning(batch.t, batch.labels))
        x_tilde = net.inject(net.pre_forward(net.tokenize(batch.x_t)))
        x, deltas = _split_solve(
            lambda z: net.fp_step(z, x_tilde, mod), x_tilde, n, m)
        v_pred = net.post_forward(x)
        loss = T.mse(v_pred, Tensor(batch.v_target))
    loss_value = float(loss.data)
    if not math.isfinite(loss_value):
        raise NumericError(f"non-finite training loss {loss_value!r} "
                           f"at draw (n={n}, m={m})")
    grads = backward(tape, loss)
    return SjfbStepResult(loss=loss_value, grads=grads, n=n, m=m,
                          deltas=deltas, tape_nodes=tape.node_count)


def _split_solve(step, x, n, m):
    """n fixed iterations without recording, then m on the active tape.

    Both segments are ``solve`` calls; the first is skipped when n = 0.
    Returns (x, deltas of all n + m iterations). A DivergenceError carries
    the trace of the segment that diverged.
    """
    deltas = []
    if n:
        with no_recording():
            x, trace = solve(step, x, SolverConfig(iterations=n))
        deltas += trace.deltas
    x, trace = solve(step, x, SolverConfig(iterations=m))
    return x, deltas + trace.deltas


def export_trace_csv(traces, path):
    """Write solve traces as CSV rows (timestep, iteration, delta)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["timestep", "iteration", "delta"])
        for tr in traces:
            for i, d in enumerate(tr.deltas):
                wr.writerow([tr.timestep, i, f"{d:.10e}"])


# ---------------------------------------------------------------------------
# Gradient-quality probe on a linear implicit layer.
# ---------------------------------------------------------------------------

@dataclass
class LinearImplicitSystem:
    """x <- x @ wa + x_tilde @ wb with spectral radius below 1.

    ``wa``/``wb`` live in a ParamStore so the tape can produce named grads;
    the matching column-convention matrices are A = wa.T, B = wb.T.
    """

    store: object
    wa: object
    wb: object
    x_tilde: np.ndarray
    target: np.ndarray
    x0: np.ndarray


def make_linear_system(dim=8, rho=0.5, seed=0) -> LinearImplicitSystem:
    from .params import ParamStore
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim))
    raw = 0.5 * (raw + raw.T)
    eig = np.max(np.abs(np.linalg.eigvalsh(raw)))
    a = raw * (rho / eig)
    b = rng.normal(size=(dim, dim)) / math.sqrt(dim)
    store = ParamStore()
    wa = store.create("wa", a.T)
    wb = store.create("wb", b.T)
    return LinearImplicitSystem(
        store=store, wa=wa, wb=wb,
        x_tilde=rng.normal(size=(1, dim)),
        target=rng.normal(size=(1, dim)),
        x0=np.zeros((1, dim)),
    )


def exact_implicit_gradient(system):
    """Implicit-function-theorem gradient of the MSE loss, via numpy solves.

    Independent of the tape machinery; used as the reference route.
    """
    a = system.wa.data.T.astype(np.float64)
    b = system.wb.data.T.astype(np.float64)
    d = a.shape[0]
    xt = system.x_tilde.reshape(-1)
    g = system.target.reshape(-1)
    eye = np.eye(d)
    x_star = np.linalg.solve(eye - a, b @ xt)
    u = 2.0 / d * (x_star - g)
    wvec = np.linalg.solve(eye - a.T, u)
    grad_a = np.outer(wvec, x_star)
    grad_b = np.outer(wvec, xt)
    # Transpose back to the row-convention parameters wa = A.T, wb = B.T.
    return grad_a.T, grad_b.T, x_star


def sjfb_gradient(system, n, m):
    """Tape gradient of the same loss after n no-grad + m with-grad steps."""
    tape = Tape()
    x_tilde = Tensor(system.x_tilde)
    target = Tensor(system.target)
    with recording(tape):
        inj = T.matmul(x_tilde, system.wb)
        x, _ = _split_solve(lambda z: T.add(T.matmul(z, system.wa), inj),
                            Tensor(system.x0), n, m)
        loss = T.mse(x, target)
    grads = backward(tape, loss)
    return grads["wa"].data, grads["wb"].data


def _cosine(a, b):
    a = a.reshape(-1)
    b = b.reshape(-1)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def jfb_gradient_comparison(system, n_grid=(0, 4, 8, 16), m_grid=(1, 2, 4)):
    """Cosine similarity of split gradients vs the exact implicit gradient.

    Returns rows (n, m, cosine) over the grid.
    """
    ga, gb, _ = exact_implicit_gradient(system)
    exact = np.concatenate([ga.reshape(-1), gb.reshape(-1)])
    rows = []
    for n in n_grid:
        for m in m_grid:
            sa, sb = sjfb_gradient(system, n, m)
            approx = np.concatenate([sa.reshape(-1).astype(np.float64),
                                     sb.reshape(-1).astype(np.float64)])
            rows.append((n, m, _cosine(approx, exact)))
    return rows
