"""Reverse samplers: step algebra, oracle chains, budgeted generation."""

import numpy as np
import pytest

from fpdiff.budget import CostModel, audit_cost, plan_constant, plan_ramp
from fpdiff.errors import UsageError
from fpdiff.nn import Block, DataSpec, DenoiseNet, NetworkConfig
from fpdiff.sampling import (
    SamplerConfig,
    cfg_combine,
    ddim_step,
    ddpm_step,
    generate,
)
from fpdiff.schedule import build_schedule, q_sample, select_timesteps, v_target
from fpdiff.solver import SolverConfig

C11 = CostModel(1, 1)


@pytest.fixture(scope="module")
def sched():
    return build_schedule()


def oracle_v(sched, x_t, t, c):
    """Exact velocity for a point dataset concentrated at c."""
    t_arr = np.full(x_t.shape[0], int(t))
    shape = (x_t.shape[0],) + (1,) * (x_t.ndim - 1)
    sab = sched.sqrt_alpha_bar[t_arr].reshape(shape)
    som = sched.sqrt_one_minus[t_arr].reshape(shape)
    eps_imp = (x_t - sab * c) / som
    return (sab * eps_imp - som * c).astype(np.float32)


class ZeroRng:
    def standard_normal(self, shape):
        return np.zeros(shape, dtype=np.float32)


class TestGuidance:
    def test_w_one_is_conditional(self):
        vc = np.array([1.0, 2.0])
        vu = np.array([0.5, -1.0])
        np.testing.assert_array_equal(cfg_combine(vc, vu, 1.0), vc)

    def test_w_zero_is_unconditional(self):
        vc = np.array([1.0, 2.0])
        vu = np.array([0.5, -1.0])
        np.testing.assert_array_equal(cfg_combine(vc, vu, 0.0), vu)

    def test_extrapolation_arithmetic(self):
        assert cfg_combine(np.array([2.0]), np.array([1.0]), 4.0)[0] == 5.0

    def test_validation(self):
        with pytest.raises(UsageError):
            cfg_combine(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(UsageError):
            cfg_combine(np.zeros(2), np.zeros(2), -0.5)


class TestStepAlgebra:
    def test_ddim_self_transition_is_identity(self, sched):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-0.9, 0.9, size=(32, 2)).astype(np.float32)
        eps = rng.standard_normal((32, 2)).astype(np.float32)
        t = 417
        x_t = q_sample(sched, x0, np.full(32, t), eps)
        v = v_target(sched, x0, np.full(32, t), eps)
        out = ddim_step(sched, x_t, v, t, t)
        np.testing.assert_allclose(out, x_t, atol=1e-5)

    def test_ddpm_final_transition_is_deterministic(self, sched):
        rng = np.random.default_rng(1)
        x_t = rng.standard_normal((8, 2)).astype(np.float32)
        v = rng.standard_normal((8, 2)).astype(np.float32)
        a = ddpm_step(sched, x_t, v, 3, 0)
        b = ddpm_step(sched, x_t, v, 3, 0)
        np.testing.assert_array_equal(a, b)

    def test_ddpm_requires_rng_for_noisy_transition(self, sched):
        x = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(UsageError):
            ddpm_step(sched, x, x, 10, 5)

    def test_transition_order_enforced(self, sched):
        x = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(UsageError):
            ddpm_step(sched, x, x, 5, 5)
        with pytest.raises(UsageError):
            ddim_step(sched, x, x, 5, 9)

    def test_ddpm_step_variance_matches_posterior(self, sched):
        # Monte Carlo spread of one step against the fixed posterior
        # variance (1 - ab_prev)/(1 - ab_t) * (1 - ab_t/ab_prev).
        t, t_prev = 500, 499
        ab_t = sched.alpha_bar[t]
        ab_p = sched.alpha_bar[t_prev]
        want = (1 - ab_p) / (1 - ab_t) * (1 - ab_t / ab_p)
        n = 10000
        x_t = np.full((n, 2), 0.4, dtype=np.float32)
        v = np.zeros((n, 2), dtype=np.float32)
        out = ddpm_step(sched, x_t, v, t, t_prev, np.random.default_rng(2))
        got = out.var(axis=0, ddof=1)
        assert np.all(np.abs(got - want) < 0.05 * want)


class TestOracleChains:
    def test_full_ddpm_chain_recovers_point_mass(self, sched):
        c = np.array([0.3, -0.7], dtype=np.float32)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2)).astype(np.float32)
        ts = list(range(999, -1, -1))
        for i, t in enumerate(ts):
            v = oracle_v(sched, x, t, c)
            if i + 1 < len(ts):
                x = ddpm_step(sched, x, v, t, ts[i + 1], rng)
            else:
                sab = sched.sqrt_alpha_bar[t]
                som = sched.sqrt_one_minus[t]
                x = np.clip(sab * x - som * v, -1.0, 1.0)
        assert np.max(np.abs(x - c)) < 1e-3

    def test_ten_step_ddim_recovers_point_mass(self, sched):
        c = np.array([0.55, 0.1], dtype=np.float32)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2)).astype(np.float32)
        ts = select_timesteps(1000, 10)
        for i, t in enumerate(ts):
            v = oracle_v(sched, x, t, c)
            if i + 1 < len(ts):
                x = ddim_step(sched, x, v, t, ts[i + 1])
            else:
                sab = sched.sqrt_alpha_bar[t]
                som = sched.sqrt_one_minus[t]
                x = np.clip(sab * x - som * v, -1.0, 1.0)
        assert np.max(np.abs(x - c)) < 1e-3

    def test_zero_noise_ddpm_equals_ddim_from_clean_start(self, sched):
        # Both updates are the same deterministic posterior-mean recursion
        # once the state sits on the noise-free manifold; starting from
        # zeros keeps them together for the whole trajectory.
        c = np.array([0.2, 0.6], dtype=np.float32)
        ts = select_timesteps(1000, 20)
        xa = np.zeros((1, 2), dtype=np.float32)
        xb = np.zeros((1, 2), dtype=np.float32)
        zero = ZeroRng()
        for i, t in enumerate(ts[:-1]):
            va = oracle_v(sched, xa, t, c)
            vb = oracle_v(sched, xb, t, c)
            xa = ddpm_step(sched, xa, va, t, ts[i + 1], zero)
            xb = ddim_step(sched, xb, vb, t, ts[i + 1])
            assert np.max(np.abs(xa - xb)) < 1e-4

    def test_zero_noise_ddpm_and_ddim_agree_on_final_output_only(self, sched):
        # From a shared noise draw the terminal step separates them: the
        # posterior x_t coefficient vanishes at alpha_bar = 0, so the
        # no-noise chain drops the residual while the deterministic sampler
        # carries it. Outputs still coincide because the oracle's x0
        # prediction is exact everywhere.
        c = np.array([-0.4, 0.25], dtype=np.float32)
        ts = select_timesteps(1000, 20)
        rng = np.random.default_rng(5)
        start = rng.standard_normal((1, 2)).astype(np.float32)
        xa = start.copy()
        xb = start.copy()
        zero = ZeroRng()
        diverged = 0.0
        for i, t in enumerate(ts):
            va = oracle_v(sched, xa, t, c)
            vb = oracle_v(sched, xb, t, c)
            if i + 1 < len(ts):
                xa = ddpm_step(sched, xa, va, t, ts[i + 1], zero)
                xb = ddim_step(sched, xb, vb, t, ts[i + 1])
                diverged = max(diverged, float(np.max(np.abs(xa - xb))))
            else:
                sab = sched.sqrt_alpha_bar[t]
                som = sched.sqrt_one_minus[t]
                xa = np.clip(sab * xa - som * va, -1.0, 1.0)
                xb = np.clip(sab * xb - som * vb, -1.0, 1.0)
        assert diverged > 0.1
        assert np.max(np.abs(xa - xb)) < 1e-4
        assert np.max(np.abs(xa - c)) < 1e-4


def small_net(n_classes=0, seed=0):
    cfg = NetworkConfig(width=16, heads=2, n_pre=1, n_post=1,
                        n_classes=n_classes, data=DataSpec("points2d"))
    net = DenoiseNet(cfg, seed=seed)
    net.store.randomize(np.random.default_rng(seed + 1), scale=0.05)
    return net


class TestGenerate:
    def test_shapes_and_determinism(self, sched):
        net = small_net()
        plan = plan_constant(60, 4, C11)
        cfg = SamplerConfig(kind="ddpm", seed=11)
        a = generate(net, sched, cfg, batch=5, plan=plan)
        b = generate(net, sched, cfg, batch=5, plan=plan)
        assert a.samples.shape == (5, 2)
        assert np.all(np.isfinite(a.samples))
        np.testing.assert_array_equal(a.samples, b.samples)
        c = generate(net, sched, SamplerConfig(kind="ddpm", seed=12),
                     batch=5, plan=plan)
        assert not np.array_equal(a.samples, c.samples)

    def test_pass_count_audit_exact(self, sched):
        net = small_net()
        for plan in (plan_constant(60, 4, C11),
                     plan_ramp(60, "decreasing", 6, C11)):
            res = generate(net, sched, SamplerConfig(seed=0), batch=3,
                           plan=plan)
            audit = audit_cost(plan, res.counter_records)
            assert audit.ok, (plan.heuristic, audit)
            assert [k for _, k in res.realized] == list(plan.iterations)

    def test_modulation_runs_once_per_timestep(self, sched, monkeypatch):
        # Fixed plan with k = 4: the implicit block's modulation is computed
        # once per timestep and shared by its four iterations, with and
        # without guidance.
        calls = []
        orig = Block.modulation

        def counted(blk, cond):
            if blk.conditioned:
                calls.append(cond.shape[0])
            return orig(blk, cond)

        monkeypatch.setattr(Block, "modulation", counted)
        plan = plan_constant(60, 4, C11)
        for n_classes, labels in ((0, None), (4, np.array([0, 1, 2]))):
            calls.clear()
            res = generate(small_net(n_classes=n_classes), sched,
                           SamplerConfig(seed=0, guidance=2.0), batch=3,
                           plan=plan, labels=labels)
            assert [k for _, k in res.realized] == [4] * len(plan.timesteps)
            width = 3 if labels is None else 6
            assert calls == [width] * len(plan.timesteps)

    def test_guidance_does_not_change_pass_count(self, sched):
        net = small_net(n_classes=4)
        plan = plan_constant(45, 3, C11)
        labels = np.array([0, 1, 2])
        totals = []
        for w in (1.0, 4.0):
            res = generate(net, sched, SamplerConfig(seed=0, guidance=w),
                           batch=3, plan=plan, labels=labels)
            assert audit_cost(plan, res.counter_records).ok
            totals.append(sum(p for _, p in res.counter_records))
        uncond = generate(net, sched, SamplerConfig(seed=0), batch=3,
                          plan=plan)
        totals.append(sum(p for _, p in uncond.counter_records))
        assert totals[0] == totals[1] == totals[2] == plan.total_cost

    def test_guidance_scale_changes_samples(self, sched):
        net = small_net(n_classes=4)
        plan = plan_constant(45, 3, C11)
        labels = np.array([0, 1, 2])
        a = generate(net, sched, SamplerConfig(seed=0, guidance=1.0),
                     batch=3, plan=plan, labels=labels)
        b = generate(net, sched, SamplerConfig(seed=0, guidance=4.0),
                     batch=3, plan=plan, labels=labels)
        assert not np.array_equal(a.samples, b.samples)

    def test_reuse_changes_solve_initialization(self, sched):
        net = small_net()
        plan = plan_constant(60, 4, C11)
        cold = generate(net, sched, SamplerConfig(
            seed=0, solver=SolverConfig(init="injection")), batch=3, plan=plan)
        warm = generate(net, sched, SamplerConfig(
            seed=0, solver=SolverConfig(init="reuse")), batch=3, plan=plan)
        assert not np.array_equal(cold.samples, warm.samples)
        # First timestep has no previous solution: identical delta there.
        assert cold.traces[0].deltas == warm.traces[0].deltas
        assert cold.traces[1].deltas != warm.traces[1].deltas
        assert audit_cost(plan, warm.counter_records).ok

    def test_threshold_mode_realizes_iterations(self, sched):
        net = small_net()
        ts = select_timesteps(1000, 5)
        loose = SamplerConfig(seed=0, solver=SolverConfig(
            mode="threshold", theta=1e9, max_iters=7))
        res = generate(net, sched, loose, batch=2, timesteps=ts)
        assert [k for _, k in res.realized] == [1] * 5
        tight = SamplerConfig(seed=0, solver=SolverConfig(
            mode="threshold", theta=1e-12, max_iters=3))
        res = generate(net, sched, tight, batch=2, timesteps=ts)
        assert [k for _, k in res.realized] == [3] * 5
        total = sum(p for _, p in res.counter_records)
        assert total == 5 * (3 + C11.overhead)

    def test_argument_validation(self, sched):
        net = small_net()
        plan = plan_constant(60, 4, C11)
        cfg = SamplerConfig(seed=0)
        with pytest.raises(UsageError):
            generate(net, sched, cfg, batch=2)
        with pytest.raises(UsageError):
            generate(net, sched, cfg, batch=2, plan=plan,
                     timesteps=[999, 0])
        with pytest.raises(UsageError):
            generate(net, sched, cfg, batch=2, timesteps=[999, 0])
        with pytest.raises(UsageError):
            generate(net, sched, SamplerConfig(seed=0, solver=SolverConfig(
                mode="threshold", theta=1e-3)), batch=2, timesteps=[500, 0])
        with pytest.raises(UsageError):
            generate(net, sched, cfg, batch=3, plan=plan,
                     labels=np.array([0, 1]))

    def test_sampler_config_validation(self):
        with pytest.raises(UsageError):
            SamplerConfig(kind="euler")
        with pytest.raises(UsageError):
            SamplerConfig(guidance=-1.0)
