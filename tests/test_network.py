"""Denoiser structure tests: init identities, tying, conditioning, counts."""

import numpy as np
import pytest

from fpdiff.errors import UsageError
from fpdiff.gradcheck import finite_difference_check
from fpdiff.nn import (BaselineNet, DataSpec, DenoiseNet, NetworkConfig,
                       PassCounter, patchify, sinusoid_features)
from fpdiff import tensor as T
from fpdiff.tensor import Tensor, using_dtype


def points_config(**kw):
    base = dict(width=32, heads=4, n_pre=1, n_post=1, n_classes=0)
    base.update(kw)
    return NetworkConfig(**base)


# ---------------------------------------------------------------------------
# Initialization identities.
# ---------------------------------------------------------------------------

def test_blocks_are_identity_at_init():
    net = DenoiseNet(points_config(), seed=0)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 1, 32)).astype(np.float32))
    out = net.pre_forward(x)
    assert np.array_equal(out.data, x.data)

    mod = net.fp_block.modulation(net.embed_conditioning(np.array([5, 10, 20])))
    xt = Tensor(rng.normal(size=(3, 1, 32)).astype(np.float32))
    step = net.fp_step(x, xt, mod)
    # Zero-init gates produce no residual update, so the cell collapses to
    # the normalized injection regardless of the iterate.
    expected = T.layer_norm(xt).data
    np.testing.assert_allclose(step.data, expected, rtol=1e-6, atol=1e-6)
    other = net.fp_step(Tensor(rng.normal(size=(3, 1, 32)).astype(np.float32)),
                        xt, mod)
    np.testing.assert_allclose(other.data, expected, rtol=1e-6, atol=1e-6)


def test_conditioned_block_needs_its_modulation():
    net = DenoiseNet(points_config(), seed=0)
    x = Tensor(np.zeros((2, 1, 32), dtype=np.float32))
    with pytest.raises(UsageError):
        net.fp_block(x)
    with pytest.raises(UsageError):
        net.fp_block.modulation(None)
    # Unconditioned blocks use their static vectors.
    assert net.pre[0].modulation(None) is net.pre[0].mod
    assert np.array_equal(net.pre[0](x).data, x.data)


def test_zero_injection_weights_give_zero_x_tilde():
    net = DenoiseNet(points_config(), seed=0)
    net.store.assign("fp.inject.w", np.zeros((32, 32), dtype=np.float32))
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 1, 32)).astype(np.float32))
    assert np.all(net.inject(x).data == 0.0)


def test_inject_is_per_token_affine():
    net = DenoiseNet(points_config(), seed=3)
    rng = np.random.default_rng(3)
    w = rng.normal(size=(32, 32)).astype(np.float32)
    b = rng.normal(size=(32,)).astype(np.float32)
    net.store.assign("fp.inject.w", w)
    net.store.assign("fp.inject.b", b)
    x = rng.normal(size=(2, 1, 32)).astype(np.float32)
    got = net.inject(Tensor(x)).data
    np.testing.assert_allclose(got, x @ w + b, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# Conditioning.
# ---------------------------------------------------------------------------

def test_sinusoid_features_at_zero_and_spread():
    f0 = sinusoid_features([0], 128)[0]
    half = 64
    assert np.all(f0[:half] == 0.0)
    assert np.all(f0[half:] == 1.0)
    fT = sinusoid_features([999], 128)[0]
    assert np.sum(np.abs(fT - f0) > 1e-3) >= half


def test_embed_conditioning_validates_inputs():
    net = DenoiseNet(points_config(), seed=0)
    with pytest.raises(UsageError):
        net.embed_conditioning(np.array([1000]))
    with pytest.raises(UsageError):
        net.embed_conditioning(np.array([-1]))
    with pytest.raises(UsageError):
        net.embed_conditioning(np.array([5]), labels=np.array([0]))

    cond_net = DenoiseNet(points_config(n_classes=4), seed=0)
    with pytest.raises(UsageError):
        cond_net.embed_conditioning(np.array([5]), labels=np.array([5]))
    emb = cond_net.embed_conditioning(np.array([5]), labels=np.array([4]))
    assert emb.shape == (1, 32)  # label 4 is the null class, valid


def test_null_class_row_is_distinct_learned_vector():
    net = DenoiseNet(points_config(n_classes=3), seed=0)
    assert net.class_table.shape == (4, 32)
    net.store.assign("class_table", np.arange(4 * 32, dtype=np.float32).reshape(4, 32) * 1e-3)
    t = np.array([7, 7])
    a = net.embed_conditioning(t, labels=np.array([0, 3])).data
    assert not np.allclose(a[0], a[1])


def test_pre_and_post_blocks_ignore_timestep():
    rng = np.random.default_rng(4)
    net = DenoiseNet(points_config(), seed=5)
    net.store.randomize(np.random.default_rng(6))
    x = rng.normal(size=(3, 2)).astype(np.float32)

    tok = net.tokenize(x)
    pre_a = net.pre_forward(tok)
    pre_b = net.pre_forward(net.tokenize(x))
    assert np.array_equal(pre_a.data, pre_b.data)

    out_a = net.forward(x, np.array([100, 100, 100]), iterations=2).data
    out_b = net.forward(x, np.array([900, 900, 900]), iterations=2).data
    assert not np.allclose(out_a, out_b)  # timestep reaches the implicit block

    x_star = Tensor(rng.normal(size=(3, 1, 32)).astype(np.float32))
    post_a = net.post_forward(x_star)
    post_b = net.post_forward(Tensor(x_star.data.copy()))
    assert np.array_equal(post_a.data, post_b.data)


# ---------------------------------------------------------------------------
# Shapes and patching.
# ---------------------------------------------------------------------------

def test_points_shape_roundtrip():
    net = DenoiseNet(points_config(), seed=0)
    x = np.random.default_rng(0).normal(size=(7, 2)).astype(np.float32)
    v = net.forward(x, np.full(7, 3), iterations=1)
    assert v.shape == (7, 2)


def test_image_shape_roundtrip_and_patch_layout():
    cfg = NetworkConfig(width=16, heads=2, n_pre=0, n_post=0, n_classes=0,
                        data=DataSpec("image", image_size=8, patch=2))
    assert cfg.token_count == 16
    net = DenoiseNet(cfg, seed=0)
    imgs = np.random.default_rng(1).normal(size=(3, 8, 8)).astype(np.float32)
    v = net.forward(imgs, np.full(3, 17), iterations=1)
    assert v.shape == (3, 8, 8)

    pt = patchify(imgs, 2)
    assert pt.shape == (3, 16, 4)
    # Patch row 0 of image 0 is the top-left 2x2 block, row-major.
    np.testing.assert_array_equal(pt[0, 0], imgs[0, :2, :2].reshape(-1))
    np.testing.assert_array_equal(pt[0, 1], imgs[0, :2, 2:4].reshape(-1))


def test_untested_layer_counts_warn():
    with pytest.warns(UserWarning, match="outside the tested set"):
        points_config(n_pre=3)


# ---------------------------------------------------------------------------
# Parameter accounting.
# ---------------------------------------------------------------------------

def _prefix_count(store, prefix):
    return sum(p.data.size for name, p in store.items() if name.startswith(prefix))


def test_implicit_block_params_equal_explicit_block_plus_injection():
    cfg = points_config(width=64, heads=4)
    net = DenoiseNet(cfg, seed=0)
    base = BaselineNet(cfg, n_blocks=3, seed=0)
    fp_total = _prefix_count(net.store, "fp.")
    inject = _prefix_count(net.store, "fp.inject.")
    explicit = _prefix_count(base.store, "blocks.0.")
    assert inject == 64 * 64 + 64
    assert fp_total == explicit + inject


def test_param_ratio_against_28_block_stack():
    cfg = NetworkConfig(width=128, heads=4, n_pre=1, n_post=1, n_classes=0)
    net = DenoiseNet(cfg, seed=0)
    base = BaselineNet(cfg, n_blocks=28, seed=0)
    ratio = net.param_count() / base.param_count()
    assert ratio < 0.13


# ---------------------------------------------------------------------------
# Weight-tying equivalence.
# ---------------------------------------------------------------------------

def tie_baseline_to(net: DenoiseNet) -> BaselineNet:
    """Build an explicit stack that reproduces net's 1-iteration forward.

    The injection is set to 0.5 * identity so the first iterate's input
    x_tilde + x_tilde equals the pre-block output bit-exactly; static
    modulation vectors map onto zeroed conditioned modulations via the bias.
    """
    cfg = net.config
    w = cfg.width
    half_ident = (0.5 * np.eye(w)).astype(np.float32)
    net.store.assign("fp.inject.w", half_ident)
    net.store.assign("fp.inject.b", np.zeros(w, dtype=np.float32))

    n_blocks = cfg.n_pre + 1 + cfg.n_post
    base = BaselineNet(cfg, n_blocks=n_blocks, seed=123)
    shared = ["patch_in.w", "patch_in.b", "pos", "temb.fc1.w", "temb.fc1.b",
              "temb.fc2.w", "temb.fc2.b", "head.shift", "head.scale",
              "head.out.w", "head.out.b"]
    if cfg.n_classes > 0:
        shared.append("class_table")
    for name in shared:
        base.store.assign(name, net.store[name].data)

    sources = [f"pre.{i}" for i in range(cfg.n_pre)] + ["fp"] + \
              [f"post.{i}" for i in range(cfg.n_post)]
    mats = ["attn.q.w", "attn.q.b", "attn.k.w", "attn.k.b", "attn.v.w",
            "attn.v.b", "attn.out.w", "attn.out.b", "mlp.fc1.w", "mlp.fc1.b",
            "mlp.fc2.w", "mlp.fc2.b"]
    mods = ["shift1", "scale1", "gate1", "shift2", "scale2", "gate2"]
    for i, src in enumerate(sources):
        dst = f"blocks.{i}"
        for m in mats:
            base.store.assign(f"{dst}.{m}", net.store[f"{src}.{m}"].data)
        for k in mods:
            if src == "fp":
                base.store.assign(f"{dst}.mod.{k}.w", net.store[f"fp.mod.{k}.w"].data)
                base.store.assign(f"{dst}.mod.{k}.b", net.store[f"fp.mod.{k}.b"].data)
            else:
                base.store.assign(f"{dst}.mod.{k}.w", np.zeros((w, w), dtype=np.float32))
                base.store.assign(f"{dst}.mod.{k}.b", net.store[f"{src}.mod.{k}"].data)
    return base


def test_weight_tying_reproduces_one_iteration_forward_bit_exactly():
    net = DenoiseNet(points_config(width=32), seed=9)
    net.store.randomize(np.random.default_rng(10), scale=0.05)
    base = tie_baseline_to(net)

    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 2)).astype(np.float32)
    t = np.array([3, 700, 42, 0, 999])
    got_net = net.forward(x, t, iterations=1)
    # Same three tied blocks, with the implicit cell's injection-based trunk
    # and closing normalization spliced in by hand around the middle block.
    cond = base.embed_conditioning(t)
    h = base.tokenize(x)
    pre_out = base.blocks[0](h, base.blocks[0].modulation(cond))
    x_tilde = Tensor(0.5 * pre_out.data)
    u = Tensor(2.0 * x_tilde.data)            # iterate starts at x_tilde
    update = Tensor(base.blocks[1](u, base.blocks[1].modulation(cond)).data - u.data)
    h = T.layer_norm(Tensor(x_tilde.data + update.data))
    h = base.blocks[2](h, base.blocks[2].modulation(cond))
    got_base = base.head(h)
    assert np.array_equal(got_net.data, got_base.data)


# ---------------------------------------------------------------------------
# Gradients through the whole stack.
# ---------------------------------------------------------------------------

def test_full_network_finite_difference_on_five_params():
    # float64 keeps the finite differences out of round-off territory
    with using_dtype(np.float64):
        net = DenoiseNet(points_config(), seed=20)
        net.store.randomize(np.random.default_rng(21), scale=0.05)
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 2))
        t = np.array([10, 400, 800, 999])
        target = rng.normal(size=(4, 2))

        def f():
            return T.mse(net.forward(x, t, iterations=2), Tensor(target))

        names = ["fp.attn.q.w", "fp.inject.w", "pre.0.mlp.fc1.w",
                 "post.0.mod.gate2", "head.out.w"]
        params = [net.store[n] for n in names]
        err = finite_difference_check(f, params, h=1e-5, probes_per_param=2)
    assert err < 1e-6


def test_pass_counter_counts_block_applications():
    net = DenoiseNet(points_config(), seed=0)
    net.pass_counter = PassCounter()
    net.pass_counter.begin_timestep(999)
    x = np.zeros((2, 2), dtype=np.float32)
    net.forward(x, np.array([999, 999]), iterations=4)
    # 1 pre + 4 fp + 1 post
    assert net.pass_counter.total == 6
    assert net.pass_counter.records == [[999, 6]]
