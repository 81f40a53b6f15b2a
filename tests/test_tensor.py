"""Tape engine tests: primitive gradients, recording semantics, round trips."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from fpdiff.checkpoint import load_params, save_params
from fpdiff.errors import NumericError, UsageError
from fpdiff.gradcheck import finite_difference_check
from fpdiff.params import ParamStore
from fpdiff import tensor as T
from fpdiff.tensor import (Tape, Tensor, backward, no_recording, recording,
                           using_dtype)


def make_param(name, arr):
    store = ParamStore()
    return store.create(name, arr)


# ---------------------------------------------------------------------------
# Closed-form gradient oracles.
# ---------------------------------------------------------------------------

def test_linear_mse_gradient_matches_closed_form():
    # L = mean((x @ W + b - y)^2); hand-derived:
    #   dW = 2/N * x^T (x W + b - y),  db = 2/N * sum_rows(x W + b - y)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3)).astype(np.float32)
    y = rng.normal(size=(5, 2)).astype(np.float32)
    store = ParamStore()
    w = store.create("w", rng.normal(size=(3, 2)).astype(np.float32))
    b = store.create("b", rng.normal(size=(2,)).astype(np.float32))

    tape = Tape()
    with recording(tape):
        pred = T.add(T.matmul(Tensor(x), w), b)
        loss = T.mse(pred, Tensor(y))
    grads = backward(tape, loss)

    resid = (x @ w.data + b.data - y).astype(np.float64)
    n = resid.size
    want_w = 2.0 / n * x.astype(np.float64).T @ resid
    want_b = 2.0 / n * resid.sum(axis=0)
    np.testing.assert_allclose(grads["w"].data, want_w, atol=1e-6)
    np.testing.assert_allclose(grads["b"].data, want_b, atol=1e-6)


def test_no_grad_iterations_then_one_with_grad_matches_hand_vjp():
    # Iterate x <- x W^T + c without grad, then one recorded application.
    # Starting at the fixed point keeps the iterate constant, so the gradient
    # must equal the hand-rolled single-application VJP for every no-grad
    # count, and the tape must always hold exactly one application.
    rng = np.random.default_rng(1)
    d = 4
    a = 0.5 * rng.normal(size=(d, d)) / np.sqrt(d)
    c = rng.normal(size=(1, d))
    x_star = np.linalg.solve(np.eye(d) - a.T, c.T).T.astype(np.float32)
    target = rng.normal(size=(1, d)).astype(np.float32)

    store = ParamStore()
    w = store.create("w", a.astype(np.float32))
    c_t = Tensor(c.astype(np.float32))

    def step(x):
        return T.add(T.matmul(x, w), c_t)

    results = []
    node_counts = []
    for n_nograd in (0, 3, 7):
        tape = Tape()
        x = Tensor(x_star)
        with no_recording():
            for _ in range(n_nograd):
                x = step(x)
        with recording(tape):
            out = step(x)
            loss = T.mse(out, Tensor(target))
        grads = backward(tape, loss)
        results.append(grads["w"].data.copy())
        node_counts.append(tape.node_count)

    # Hand VJP of one application: dL/dW = x^T u with u = 2(xW + c - y)/N.
    xin = x_star.astype(np.float64)
    u = 2.0 / target.size * (xin @ w.data + c - target)
    want = xin.T @ u
    for got in results:
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    assert node_counts[0] == node_counts[1] == node_counts[2]


# ---------------------------------------------------------------------------
# Per-primitive finite-difference sweep.
# ---------------------------------------------------------------------------

def _loss_builders(rng):
    """One scalar loss per primitive, each a function of a single parameter."""
    r1 = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
    r2 = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
    r2w = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
    r3 = Tensor(rng.normal(size=(3, 5)).astype(np.float32))
    r4 = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    xc = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    yc = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
    r5 = Tensor(rng.normal(size=(2, 3, 2)).astype(np.float32))
    idx = np.array([0, 3, 3, 1])
    xb = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
    rb = Tensor(rng.normal(size=(2, 3, 2)).astype(np.float32))

    def weighted(t, r):
        return T.sum_all(T.mul(t, r))

    return {
        "matmul_rhs": ((4, 2), lambda w: weighted(T.matmul(xc, w), r1)),
        "matmul_rhs_batched": ((4, 2), lambda w: weighted(T.matmul(xb, w), rb)),
        "matmul_lhs": ((2, 3), lambda w: weighted(T.matmul(w, xc), Tensor(
            np.ones((2, 4), dtype=np.float32)))),
        "add_broadcast": ((4,), lambda w: weighted(T.add(r2, w), r2w)),
        "mul_broadcast": ((4,), lambda w: weighted(T.mul(r2, w), r2w)),
        "scalars": ((3, 5), lambda w: weighted(
            T.add_scalar(T.mul_scalar(w, 1.7), 0.3), r3)),
        "gelu": ((3, 5), lambda w: weighted(T.gelu(w), r3)),
        "silu": ((3, 5), lambda w: weighted(T.silu(w), r3)),
        "softmax": ((3, 5), lambda w: weighted(T.softmax(w), r3)),
        "mean": ((3, 5), lambda w: T.mean_all(T.mul(w, r3))),
        "mse": ((3, 2), lambda w: T.mse(w, yc)),
        "reshape_transpose": ((3, 4), lambda w: weighted(
            T.transpose(T.reshape(w, (3, 2, 2)), (1, 0, 2)), r5)),
        "embed_rows": ((5, 3), lambda w: weighted(T.embed_rows(w, idx), r4)),
    }


def test_every_primitive_matches_finite_differences_over_many_seeds():
    # 100 seeds x all primitives at h=1e-3, float32, rel err < 1e-3.
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, (shape, build) in _loss_builders(rng).items():
            store = ParamStore()
            w = store.create("w", rng.normal(size=shape).astype(np.float32))
            err = finite_difference_check(lambda: build(w), [w],
                                          h=1e-3, probes_per_param=2)
            assert err < 1e-3, f"{name} seed={seed} err={err:.2e}"
            worst = max(worst, err)
    assert worst < 1e-3


def test_gelu_forward_matches_float64_pow_reference_bitwise():
    # The forward cubes by multiplication instead of float64 pow; the last
    # float64 bit may move, the float32 output must not.
    rng = np.random.default_rng(0)
    x = np.concatenate([
        np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32),
        rng.uniform(-12.0, 12.0, 1_000_000).astype(np.float32),
        rng.normal(0.0, 1e-3, 100_000).astype(np.float32)])
    x64 = x.astype(np.float64)
    c = math.sqrt(2.0 / math.pi)
    want = (0.5 * x64 * (1.0 + np.tanh(c * (x64 + 0.044715 * x64 ** 3))))
    got = T.gelu(Tensor(x)).data
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32),
                          want.astype(np.float32).view(np.uint32))


def test_sigmoid_matches_masked_reference_bitwise():
    # The branch-free form must give the float64 bits of the masked form
    # it replaced, including at 0, +-inf and where exp would overflow.
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(0)
    x = np.concatenate([
        np.linspace(-700.0, 700.0, 1_000_001),
        rng.uniform(-40.0, 40.0, 1_000_000),
        rng.normal(0.0, 1e-3, 100_000),
        [0.0, -0.0, np.inf, -np.inf, 700.0, -700.0]])
    got = T._sigmoid(x)
    assert np.array_equal(got.view(np.uint64), masked(x).view(np.uint64))
    assert got[-6:-2].tolist() == [0.5, 0.5, 1.0, 0.0]


def test_layer_norm_linear_composition_fd():
    rng = np.random.default_rng(7)
    store = ParamStore()
    w = store.create("w", rng.normal(size=(6, 4)).astype(np.float32))
    gain = store.create("gain", (1 + 0.1 * rng.normal(size=(4,))).astype(np.float32))
    bias = store.create("bias", (0.1 * rng.normal(size=(4,))).astype(np.float32))
    x = Tensor(rng.normal(size=(5, 6)).astype(np.float32))
    r = Tensor(rng.normal(size=(5, 4)).astype(np.float32))

    def f():
        return T.sum_all(T.mul(T.layer_norm(T.matmul(x, w), gain, bias), r))

    err = finite_difference_check(f, [w, gain, bias], h=1e-3)
    assert err < 1e-3


def test_fd_check_flags_corrupted_gradient(monkeypatch):
    rng = np.random.default_rng(3)
    store = ParamStore()
    w = store.create("w", rng.normal(size=(4, 4)).astype(np.float32))
    r = Tensor(rng.normal(size=(4, 4)).astype(np.float32))

    monkeypatch.setattr(T, "_silu_grad", lambda x: 1.3 * T._sigmoid(
        x.astype(np.float64)) * (1.0 + x * (1.0 - T._sigmoid(x.astype(np.float64)))))
    err = finite_difference_check(
        lambda: T.sum_all(T.mul(T.silu(w), r)), [w], h=1e-3)
    assert err > 0.1


def test_fd_check_in_float64_mode_is_tight():
    with using_dtype(np.float64):
        rng = np.random.default_rng(11)
        store = ParamStore()
        w = store.create("w", rng.normal(size=(6, 4)))
        x = Tensor(rng.normal(size=(5, 6)))
        r = Tensor(rng.normal(size=(5, 4)))
        err = finite_difference_check(
            lambda: T.sum_all(T.mul(T.layer_norm(T.matmul(x, w)), r)),
            [w], h=1e-5)
    assert err < 1e-7


# ---------------------------------------------------------------------------
# Recording semantics.
# ---------------------------------------------------------------------------

def _small_net(x, w):
    return T.silu(T.matmul(x, w))


def test_eval_no_grad_appends_nothing_and_matches_with_grad_bitwise():
    rng = np.random.default_rng(5)
    store = ParamStore()
    w = store.create("w", rng.normal(size=(4, 4)).astype(np.float32))
    x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))

    tape = Tape()
    with recording(tape):
        before = tape.node_count
        with no_recording():
            out_ng = _small_net(x, w)
        assert tape.node_count == before
        out_wg = _small_net(x, w)
    assert tape.node_count == 2  # matmul + silu
    assert np.array_equal(out_ng.data, out_wg.data)


def test_node_count_equals_primitive_count():
    rng = np.random.default_rng(6)
    store = ParamStore()
    w = store.create("w", rng.normal(size=(4, 4)).astype(np.float32))
    x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))

    def f(x):
        h = T.gelu(T.add(T.matmul(x, w), 0.5 * np.ones(4, dtype=np.float32)))
        return T.mean_all(h)

    tape = Tape()
    with recording(tape):
        f(x)
    assert tape.node_count == 4  # matmul, add, gelu, mean


def test_tape_grows_with_grad_only():
    rng = np.random.default_rng(8)
    store = ParamStore()
    w = store.create("w", (0.2 * rng.normal(size=(4, 4))).astype(np.float32))
    x0 = Tensor(rng.normal(size=(1, 4)).astype(np.float32))

    def step(x):
        return T.silu(T.matmul(x, w))

    tape = Tape()
    with recording(tape):
        x = x0
        with no_recording():
            for _ in range(50):
                x = step(x)
        assert tape.node_count == 0
        for _ in range(3):
            x = step(x)
    assert tape.node_count == 6  # 3 iterations x 2 primitives


def test_gradients_exist_only_for_touched_parameters():
    rng = np.random.default_rng(9)
    store = ParamStore()
    w1 = store.create("w1", rng.normal(size=(4, 4)).astype(np.float32))
    store.create("w2", rng.normal(size=(4, 4)).astype(np.float32))
    x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))

    tape = Tape()
    with recording(tape):
        loss = T.mean_all(T.matmul(x, w1))
    grads = backward(tape, loss)
    assert set(grads) == {"w1"}


def test_backward_rejects_foreign_or_nonscalar_loss():
    rng = np.random.default_rng(10)
    store = ParamStore()
    w = store.create("w", rng.normal(size=(3, 3)).astype(np.float32))
    x = Tensor(rng.normal(size=(1, 3)).astype(np.float32))

    tape = Tape()
    with recording(tape):
        out = T.matmul(x, w)
    with pytest.raises(UsageError):
        backward(tape, out)  # not scalar
    other = Tape()
    with recording(other):
        loss = T.mean_all(T.matmul(x, w))
    with pytest.raises(UsageError):
        backward(tape, loss)  # recorded elsewhere


def test_tape_is_freed_without_the_cycle_collector():
    # Nodes refer to their tape weakly, so once backward has run and the
    # caller drops the tape and the loss, reference counting frees the graph.
    rng = np.random.default_rng(12)
    store = ParamStore()
    w = store.create("w", rng.normal(size=(4, 4)).astype(np.float32))
    x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))

    gc.disable()
    try:
        tape = Tape()
        with recording(tape):
            loss = T.mean_all(T.softmax(T.matmul(x, w)))
        grads = backward(tape, loss)
        alive = weakref.ref(tape)
        del tape, loss
        assert alive() is None
    finally:
        gc.enable()
    assert set(grads) == {"w"}


# One call per primitive on a (2, 3) input; see the test below.
PRIMITIVE_CALLS = {
    "matmul": lambda x: T.matmul(x, Tensor(np.ones((3, 2)))),
    "add": lambda x: T.add(x, x),
    "mul": lambda x: T.mul(x, x),
    "mul_scalar": lambda x: T.mul_scalar(x, 2.0),
    "add_scalar": lambda x: T.add_scalar(x, 1.0),
    "gelu": T.gelu,
    "silu": T.silu,
    "layer_norm": lambda x: T.layer_norm(x, np.ones(3), np.zeros(3)),
    "softmax": T.softmax,
    "sum_all": T.sum_all,
    "mean_all": T.mean_all,
    "mse": lambda x: T.mse(x, Tensor(np.zeros((2, 3)))),
    "reshape": lambda x: T.reshape(x, (3, 2)),
    "transpose": lambda x: T.transpose(x, (1, 0)),
    "embed_rows": lambda x: T.embed_rows(x, [1, 0]),
}


@pytest.mark.parametrize("op", PRIMITIVE_CALLS)
def test_non_finite_output_names_the_primitive(op):
    # inf, -inf and a value whose square or double overflows float32: the
    # forward may overflow or produce nan, but must neither warn nor return
    # a non-finite tensor.
    x = Tensor(np.array([[np.inf, -np.inf, 3e38], [1.0, 2.0, 3.0]],
                        dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"primitive '{op}'"):
            PRIMITIVE_CALLS[op](x)


def test_param_store_contracts():
    store = ParamStore()
    store.create("a", np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(UsageError):
        store.create("a", np.zeros(1, dtype=np.float32))
    with pytest.raises(UsageError):
        store.assign("a", np.zeros((3, 2), dtype=np.float32))
    store.assign("a", np.ones((2, 3), dtype=np.float32))
    assert store.total_count() == 6


def test_param_payload_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    store = ParamStore()
    store.create("block.w", rng.normal(size=(3, 5)).astype(np.float32))
    store.create("block.b", rng.normal(size=(5,)).astype(np.float32))
    store.create("scalarish", rng.normal(size=(1,)).astype(np.float32))

    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_params(store, p1)
    loaded = load_params(p1)
    assert loaded.names() == store.names()
    for name, p in store.items():
        assert np.array_equal(loaded[name].data, p.data)
    save_params(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_param_payload_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(UsageError, match="magic"):
        load_params(path)
