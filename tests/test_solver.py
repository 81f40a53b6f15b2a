"""Solver contracts, split-gradient quality, and the training step."""

import csv
import math

import numpy as np
import pytest

import fpdiff.tensor as T
from fpdiff.errors import DivergenceError, UsageError
from fpdiff.nn import Block, DataSpec, DenoiseNet, NetworkConfig
from fpdiff.schedule import build_schedule, q_sample, v_target
from fpdiff.solver import (
    SjfbBatch,
    SjfbConfig,
    SolverConfig,
    exact_implicit_gradient,
    export_trace_csv,
    jfb_gradient_comparison,
    make_linear_system,
    sjfb_gradient,
    sjfb_train_step,
    solve,
)
from fpdiff.tensor import Tensor, using_dtype


def linear_step(system):
    inj = Tensor(system.x_tilde @ system.wb.data)

    def step(x):
        return T.add(T.matmul(x, system.wa), inj)

    return step


class TestSolve:
    def test_fixed_mode_runs_exact_count(self):
        system = make_linear_system(rho=0.5, seed=0)
        x0 = Tensor(system.x0)
        _, trace = solve(linear_step(system), x0, SolverConfig(iterations=13))
        assert trace.iterations_used == 13
        assert len(trace.deltas) == 13

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_converges_to_linear_solve(self, rho):
        system = make_linear_system(rho=rho, seed=0)
        with using_dtype("float64"):
            # Error contracts by rho per iteration, so the reachable
            # accuracy in 40 iterations scales with the starting distance.
            scale = 1.0 if rho == 0.5 else 4e-5
            system.x_tilde = system.x_tilde * scale
            x, trace = solve(linear_step(system), Tensor(system.x0 * 0.0),
                             SolverConfig(iterations=40))
        a = system.wa.data.T
        b = system.wb.data.T
        x_star = np.linalg.solve(np.eye(8) - a, b @ system.x_tilde.reshape(-1))
        assert np.max(np.abs(x.data.reshape(-1) - x_star)) < 1e-6

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_delta_ratio_tracks_spectral_radius(self, rho):
        system = make_linear_system(rho=rho, seed=0)
        with using_dtype("float64"):
            _, trace = solve(linear_step(system), Tensor(system.x0),
                             SolverConfig(iterations=30))
        d = np.asarray(trace.deltas)
        ratios = d[10:20] / d[9:19]
        assert np.all(np.abs(ratios - rho) < 0.1 * rho)

    def test_threshold_mode_stops_at_theta(self):
        system = make_linear_system(rho=0.5, seed=0)
        cfg = SolverConfig(mode="threshold", theta=1e-3, max_iters=64)
        _, trace = solve(linear_step(system), Tensor(system.x0), cfg)
        assert trace.iterations_used < 64
        assert trace.deltas[-1] <= 1e-3
        assert all(d > 1e-3 for d in trace.deltas[:-1])

    def test_threshold_mode_respects_cap(self):
        system = make_linear_system(rho=0.9, seed=0)
        cfg = SolverConfig(mode="threshold", theta=1e-12, max_iters=5)
        _, trace = solve(linear_step(system), Tensor(system.x0), cfg)
        assert trace.iterations_used == 5

    def test_divergent_iteration_raises_with_partial_trace(self):
        def step(x):
            return T.mul_scalar(x, 10.0)

        with pytest.raises(DivergenceError) as info:
            solve(step, Tensor(np.full((1, 8), 100.0)),
                  SolverConfig(iterations=50), timestep=7)
        trace = info.value.trace
        assert 0 < trace.iterations_used < 50
        assert trace.deltas[-1] > 1e4
        assert "7" in str(info.value)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            SolverConfig(mode="anderson")
        with pytest.raises(UsageError):
            SolverConfig(iterations=0)
        with pytest.raises(UsageError):
            SolverConfig(mode="threshold", theta=0.0)
        with pytest.raises(UsageError):
            SolverConfig(init="warm")


class TestExactGradientOracle:
    def test_implicit_gradient_matches_finite_differences(self):
        # Independent check of the reference gradient: perturb each weight,
        # re-solve the linear system, central-difference the loss.
        system = make_linear_system(rho=0.5, seed=3)
        ga, gb, _ = exact_implicit_gradient(system)

        def loss_at(a, b):
            xs = np.linalg.solve(np.eye(8) - a, b @ system.x_tilde.reshape(-1))
            diff = xs - system.target.reshape(-1)
            return float(np.mean(diff * diff))

        a0 = system.wa.data.T.astype(np.float64)
        b0 = system.wb.data.T.astype(np.float64)
        h = 1e-6
        rng = np.random.default_rng(11)
        for _ in range(10):
            i, j = rng.integers(0, 8, size=2)
            da = np.zeros_like(a0)
            da[i, j] = h
            fd = (loss_at(a0 + da, b0) - loss_at(a0 - da, b0)) / (2 * h)
            assert abs(fd - ga.T[i, j]) < 1e-6 * max(1.0, abs(fd))
            db = np.zeros_like(b0)
            db[i, j] = h
            fd = (loss_at(a0, b0 + db) - loss_at(a0, b0 - db)) / (2 * h)
            assert abs(fd - gb.T[i, j]) < 1e-6 * max(1.0, abs(fd))


class TestSplitGradientQuality:
    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_n8_m1_cosine_above_point_nine(self, rho):
        system = make_linear_system(rho=rho, seed=0)
        rows = jfb_gradient_comparison(system, n_grid=(8,), m_grid=(1,))
        assert rows[0][2] > 0.9

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_cosine_non_decreasing_in_m(self, rho):
        system = make_linear_system(rho=rho, seed=0)
        rows = jfb_gradient_comparison(system)
        by_n = {}
        for n, m, c in rows:
            by_n.setdefault(n, []).append((m, c))
        for n, pairs in by_n.items():
            cos = [c for _, c in sorted(pairs)]
            assert all(b >= a for a, b in zip(cos, cos[1:])), (n, cos)

    def test_frozen_grid_values(self):
        # Spot values frozen from the float64 reference route.
        system = make_linear_system(rho=0.5, seed=0)
        rows = dict(((n, m), c) for n, m, c in jfb_gradient_comparison(system))
        assert rows[(0, 1)] == pytest.approx(0.710937, abs=1e-4)
        assert rows[(8, 1)] == pytest.approx(0.986401, abs=1e-4)
        assert rows[(8, 4)] == pytest.approx(0.999984, abs=1e-4)

    def test_large_m_recovers_exact_gradient(self):
        system = make_linear_system(rho=0.5, seed=0)
        ga, gb, _ = exact_implicit_gradient(system)
        sa, sb = sjfb_gradient(system, n=16, m=32)
        exact = np.concatenate([ga.reshape(-1), gb.reshape(-1)])
        approx = np.concatenate([sa.reshape(-1), sb.reshape(-1)])
        denom = np.linalg.norm(exact)
        assert np.linalg.norm(approx - exact) / denom < 1e-5


class TestSjfbConfig:
    def test_draw_bounds_and_coverage(self):
        cfg = SjfbConfig(n_max=6, m_max=6)
        rng = np.random.default_rng(0)
        draws = [cfg.draw(rng) for _ in range(4000)]
        ns = {n for n, _ in draws}
        ms = {m for _, m in draws}
        assert ns == set(range(0, 7))
        assert ms == set(range(1, 7))

    def test_fixed_sampling(self):
        cfg = SjfbConfig(sampling="fixed", fixed_n=3, fixed_m=2)
        rng = np.random.default_rng(0)
        assert all(cfg.draw(rng) == (3, 2) for _ in range(10))

    def test_validation(self):
        with pytest.raises(UsageError):
            SjfbConfig(n_max=-1)
        with pytest.raises(UsageError):
            SjfbConfig(m_max=0)
        with pytest.raises(UsageError):
            SjfbConfig(sampling="warm")
        with pytest.raises(UsageError):
            SjfbConfig(sampling="fixed", fixed_m=0)


def tiny_net(seed=0):
    cfg = NetworkConfig(width=16, heads=2, n_pre=1, n_post=1,
                        data=DataSpec("points2d"))
    return DenoiseNet(cfg, seed=seed)


def tiny_batch(seed=0, size=6):
    sched = build_schedule()
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(size, 2)).astype(np.float32)
    eps = rng.normal(size=(size, 2)).astype(np.float32)
    t = rng.integers(0, 1000, size=size)
    return SjfbBatch(x_t=q_sample(sched, x0, t, eps), t=t,
                     v_target=v_target(sched, x0, t, eps))


class TestTrainStep:
    def test_tape_nodes_independent_of_n(self):
        net = tiny_net()
        batch = tiny_batch()
        rng = np.random.default_rng(0)
        counts = {}
        for n in (0, 3, 9):
            cfg = SjfbConfig(sampling="fixed", fixed_n=n, fixed_m=2)
            res = sjfb_train_step(batch, net, cfg, rng)
            counts[n] = res.tape_nodes
            assert len(res.deltas) == n + 2
        assert counts[0] == counts[3] == counts[9]

    def test_tape_nodes_linear_in_m(self):
        net = tiny_net()
        batch = tiny_batch()
        rng = np.random.default_rng(0)
        sizes = []
        for m in (1, 2, 3):
            cfg = SjfbConfig(sampling="fixed", fixed_n=4, fixed_m=m)
            sizes.append(sjfb_train_step(batch, net, cfg, rng).tape_nodes)
        per_iter = sizes[1] - sizes[0]
        assert per_iter > 0
        assert sizes[2] - sizes[1] == per_iter

    def test_gradients_reach_every_stage(self):
        net = tiny_net()
        batch = tiny_batch()
        cfg = SjfbConfig(sampling="fixed", fixed_n=2, fixed_m=2)
        res = sjfb_train_step(batch, net, cfg, np.random.default_rng(0))
        assert math.isfinite(res.loss)
        names = set(res.grads)
        for probe in ("fp.attn.q.w", "fp.inject.w", "pre.0.mlp.fc1.w",
                      "post.0.attn.out.w", "head.out.w", "temb.fc1.w"):
            assert probe in names, probe

    def test_modulation_runs_once_per_step(self, monkeypatch):
        # The implicit block's modulation depends only on the conditioning,
        # so a step computes it once on the tape, whatever n and m are, and
        # its maps still receive a gradient.
        net = tiny_net()
        batch = tiny_batch()
        calls = []
        orig = Block.modulation

        def counted(blk, cond):
            if blk is net.fp_block:
                calls.append(cond.shape[0])
            return orig(blk, cond)

        monkeypatch.setattr(Block, "modulation", counted)
        rng = np.random.default_rng(0)
        for n, m in ((0, 1), (3, 2), (6, 6)):
            calls.clear()
            cfg = SjfbConfig(sampling="fixed", fixed_n=n, fixed_m=m)
            res = sjfb_train_step(batch, net, cfg, rng)
            assert calls == [len(batch.t)], (n, m)
            assert "fp.mod.gate1.w" in res.grads

    def test_stochastic_draws_recorded(self):
        net = tiny_net()
        batch = tiny_batch()
        cfg = SjfbConfig(n_max=4, m_max=3)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(12):
            res = sjfb_train_step(batch, net, cfg, rng)
            assert 0 <= res.n <= 4
            assert 1 <= res.m <= 3
            seen.add((res.n, res.m))
        assert len(seen) > 3


class TestTraceExport:
    def test_round_trip(self, tmp_path):
        system = make_linear_system(rho=0.5, seed=0)
        traces = []
        for ts in (9, 5, 1):
            _, tr = solve(linear_step(system), Tensor(system.x0),
                          SolverConfig(iterations=4), timestep=ts)
            traces.append(tr)
        path = tmp_path / "trace.csv"
        export_trace_csv(traces, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["timestep", "iteration", "delta"]
        assert len(rows) == 1 + 3 * 4
        assert rows[1][0] == "9"
        assert float(rows[1][2]) == pytest.approx(traces[0].deltas[0])
