"""Dense float tensors with an explicit recording tape for reverse-mode gradients.

Storage is row-major float32 by default (float64 available as a debug mode via
``using_dtype``). Primitives run eagerly on numpy arrays; when a tape is
active, each primitive appends one node holding the saved inputs and a
backward closure. Evaluation outside a recording context (or inside
``no_recording``) produces plain untracked tensors, so iterating a function
many times without grad leaves the tape untouched.

Reductions (sum, mean, MSE, layer-norm statistics, softmax normalizer)
accumulate in 64-bit and store results back in the working dtype.
"""

from __future__ import annotations

import contextlib
import math
import weakref

import numpy as np

from .errors import NumericError, UsageError

_DEFAULT_DTYPE = np.float32


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the storage dtype for newly created tensors.

    float64 mode exists for debugging gradient checks; checkpoints and
    training always run float32.
    """
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise UsageError(f"unsupported dtype {dtype!r}; use float32 or float64")
    prev = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dt.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


class Tensor:
    """Immutable-by-convention dense array, optionally tracked on a tape."""

    __slots__ = ("data", "node")

    def __init__(self, data, node=None):
        arr = np.ascontiguousarray(data, dtype=_DEFAULT_DTYPE)
        self.data = arr
        self.node = node

    @classmethod
    def _wrap(cls, arr, node=None):
        # Internal: trust the array's dtype/layout, skip the cast.
        t = cls.__new__(cls)
        t.data = arr
        t.node = node
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def numel(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, tracked={self.node is not None})"


class Parameter(Tensor):
    """Named leaf tensor; gradients accumulate to it whenever a tape records."""

    __slots__ = ("name",)

    def __init__(self, name, data):
        super().__init__(data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class Node:
    """One recorded primitive application.

    Holds grad routing targets (parent Node, Parameter leaf, or None for
    constants) and the backward closure over the saved inputs. ``tape`` is a
    weak reference to the recording tape, so a tape and its nodes form no
    reference cycle and a step's graph is freed as soon as it goes out of use.
    """

    __slots__ = ("tape", "targets", "backward")

    def __init__(self, tape, targets, backward):
        self.tape = tape
        self.targets = targets
        self.backward = backward


class Tape:
    """Append-only record of primitive applications, in execution order.

    Execution order is a topological order (inputs are recorded before any
    node that consumes them), so backward walks the list reversed.
    """

    def __init__(self):
        self.nodes = []

    @property
    def node_count(self):
        return len(self.nodes)


_ACTIVE_TAPE = None


@contextlib.contextmanager
def recording(tape):
    """Record primitives applied inside the block onto ``tape``."""
    global _ACTIVE_TAPE
    if not isinstance(tape, Tape):
        raise UsageError("recording() needs a Tape")
    prev = _ACTIVE_TAPE
    _ACTIVE_TAPE = tape
    try:
        yield tape
    finally:
        _ACTIVE_TAPE = prev


@contextlib.contextmanager
def no_recording():
    """Suspend recording; primitives inside run without touching any tape."""
    global _ACTIVE_TAPE
    prev = _ACTIVE_TAPE
    _ACTIVE_TAPE = None
    try:
        yield
    finally:
        _ACTIVE_TAPE = prev


def active_tape():
    return _ACTIVE_TAPE


def backward(tape, loss):
    """Walk ``tape`` in reverse and return {param name: gradient Tensor}.

    Only parameters touched by recorded nodes appear in the result. The loss
    must be a scalar recorded on this tape.
    """
    if loss.node is None or loss.node.tape() is not tape:
        raise UsageError("loss was not recorded on this tape")
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    acc = {id(loss.node): np.ones_like(loss.data)}
    param_by_id = {}
    for node in reversed(tape.nodes):
        g = acc.pop(id(node), None)
        if g is None:
            continue
        for tgt, ig in zip(node.targets, node.backward(g)):
            if tgt is None or ig is None:
                continue
            key = id(tgt)
            if key in acc:
                acc[key] = acc[key] + ig
            else:
                acc[key] = ig
            if isinstance(tgt, Parameter):
                param_by_id[key] = tgt
    return {p.name: Tensor._wrap(acc[i]) for i, p in param_by_id.items()}


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _target_of(t, tape):
    if t.node is not None and t.node.tape() is tape:
        return t.node
    if isinstance(t, Parameter):
        return t
    return None


def _apply(op, tensors, attrs, make_backward):
    datas = tuple(t.data for t in tensors)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _RAW_FORWARD[op](*datas, **attrs)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite output from primitive '{op}'")
    tape = _ACTIVE_TAPE
    node = None
    if tape is not None:
        targets = tuple(_target_of(t, tape) for t in tensors)
        if any(tgt is not None for tgt in targets):
            node = Node(weakref.ref(tape), targets,
                        make_backward(datas, out, attrs))
            tape.nodes.append(node)
    return Tensor._wrap(out, node)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_grad(x):
    x = x.astype(np.float64, copy=False)
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    th = np.tanh(inner)
    sech2 = 1.0 - th ** 2
    return 0.5 * (1.0 + th) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)


def _silu_grad(x):
    s = _sigmoid(x.astype(np.float64, copy=False))
    return s * (1.0 + x * (1.0 - s))


# ---------------------------------------------------------------------------
# Raw forward kernels (ndarray in, ndarray out), looked up by op name in
# _apply.
# ---------------------------------------------------------------------------

def _raw_matmul(a, b):
    return np.matmul(a, b)


def _raw_add(a, b):
    return a + b


def _raw_mul(a, b):
    return a * b


def _raw_mul_scalar(a, c):
    return (a * a.dtype.type(c)).astype(a.dtype, copy=False)


def _raw_add_scalar(a, c):
    return (a + a.dtype.type(c)).astype(a.dtype, copy=False)


def _raw_gelu(a):
    x = a.astype(np.float64, copy=False)
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(a.dtype)


def _raw_silu(a):
    x = a.astype(np.float64, copy=False)
    return (x * _sigmoid(x)).astype(a.dtype)


def _raw_layer_norm(x, *affine, eps=1e-5, has_gain=False, has_bias=False):
    x64 = x.astype(np.float64, copy=False)
    mu = x64.mean(axis=-1, keepdims=True)
    var = np.mean((x64 - mu) ** 2, axis=-1, keepdims=True)
    xhat = (x64 - mu) / np.sqrt(var + eps)
    out = xhat
    rest = list(affine)
    if has_gain:
        out = out * rest.pop(0)
    if has_bias:
        out = out + rest.pop(0)
    return out.astype(x.dtype)


def _raw_softmax(x):
    # Per-row max subtraction keeps exp() in range regardless of logit scale.
    x64 = x.astype(np.float64, copy=False)
    shifted = x64 - x64.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=-1, keepdims=True)).astype(x.dtype)


def _raw_sum_all(a):
    return np.asarray(a.sum(dtype=np.float64), dtype=a.dtype)


def _raw_mean_all(a):
    return np.asarray(a.mean(dtype=np.float64), dtype=a.dtype)


def _raw_mse(a, b):
    d = a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)
    return np.asarray(np.mean(d * d), dtype=a.dtype)


def _raw_reshape(a, shape):
    return np.ascontiguousarray(a).reshape(shape)


def _raw_transpose(a, axes):
    return np.ascontiguousarray(np.transpose(a, axes))


def _raw_embed_rows(table, idx):
    return np.ascontiguousarray(table[idx])


_RAW_FORWARD = {
    "matmul": _raw_matmul,
    "add": _raw_add,
    "mul": _raw_mul,
    "mul_scalar": _raw_mul_scalar,
    "add_scalar": _raw_add_scalar,
    "gelu": _raw_gelu,
    "silu": _raw_silu,
    "layer_norm": _raw_layer_norm,
    "softmax": _raw_softmax,
    "sum_all": _raw_sum_all,
    "mean_all": _raw_mean_all,
    "mse": _raw_mse,
    "reshape": _raw_reshape,
    "transpose": _raw_transpose,
    "embed_rows": _raw_embed_rows,
}


# ---------------------------------------------------------------------------
# Public primitives.
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def make_backward(datas, out, attrs):
        da, db = datas

        def bw(g):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(db, -1, -2)), da.shape)
            if db.ndim == 2 and da.ndim > 2:
                # A shared weight: one GEMM over all batch rows instead of
                # one outer product per row summed afterwards.
                gb = da.reshape(-1, db.shape[0]).T @ g.reshape(-1, db.shape[1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(da, -1, -2), g), db.shape)
            return ga, gb

        return bw

    return _apply("matmul", (a, b), {}, make_backward)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def make_backward(datas, out, attrs):
        da, db = datas

        def bw(g):
            return _unbroadcast(g, da.shape), _unbroadcast(g, db.shape)

        return bw

    return _apply("add", (a, b), {}, make_backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def make_backward(datas, out, attrs):
        da, db = datas

        def bw(g):
            return _unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)

        return bw

    return _apply("mul", (a, b), {}, make_backward)


def mul_scalar(a, c):
    a = _as_tensor(a)
    c = float(c)

    def make_backward(datas, out, attrs):
        def bw(g):
            return ((g * attrs["c"]).astype(g.dtype, copy=False),)

        return bw

    return _apply("mul_scalar", (a,), {"c": c}, make_backward)


def add_scalar(a, c):
    a = _as_tensor(a)
    c = float(c)

    def make_backward(datas, out, attrs):
        def bw(g):
            return (g,)

        return bw

    return _apply("add_scalar", (a,), {"c": c}, make_backward)


def gelu(a):
    a = _as_tensor(a)

    def make_backward(datas, out, attrs):
        (x,) = datas

        def bw(g):
            return ((g * _gelu_grad(x)).astype(x.dtype),)

        return bw

    return _apply("gelu", (a,), {}, make_backward)


def silu(a):
    a = _as_tensor(a)

    def make_backward(datas, out, attrs):
        (x,) = datas

        def bw(g):
            return ((g * _silu_grad(x)).astype(x.dtype),)

        return bw

    return _apply("silu", (a,), {}, make_backward)


def layer_norm(x, gain=None, bias=None, eps=1e-5):
    """Normalize the last axis; optional learned per-channel gain and bias."""
    x = _as_tensor(x)
    tensors = [x]
    has_gain = gain is not None
    has_bias = bias is not None
    if has_gain:
        tensors.append(_as_tensor(gain))
    if has_bias:
        tensors.append(_as_tensor(bias))

    def make_backward(datas, out, attrs):
        xd = datas[0]
        x64 = xd.astype(np.float64, copy=False)
        mu = x64.mean(axis=-1, keepdims=True)
        var = np.mean((x64 - mu) ** 2, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + attrs["eps"])
        xhat = (x64 - mu) * inv
        gd = datas[1] if has_gain else None

        def bw(g):
            g64 = g.astype(np.float64, copy=False)
            gy = g64 * gd if has_gain else g64
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            gx = ((gy - m1 - xhat * m2) * inv).astype(xd.dtype)
            grads = [gx]
            if has_gain:
                gg = _unbroadcast(g64 * xhat, gd.shape).astype(xd.dtype)
                grads.append(gg)
            if has_bias:
                gb = _unbroadcast(g64, datas[-1].shape).astype(xd.dtype)
                grads.append(gb)
            return tuple(grads)

        return bw

    return _apply("layer_norm", tuple(tensors),
                  {"eps": float(eps), "has_gain": has_gain, "has_bias": has_bias},
                  make_backward)


def softmax(x):
    """Softmax over the last axis (rows shifted by their max internally)."""
    x = _as_tensor(x)

    def make_backward(datas, out, attrs):
        s = out.astype(np.float64, copy=False)

        def bw(g):
            g64 = g.astype(np.float64, copy=False)
            dot = (g64 * s).sum(axis=-1, keepdims=True)
            return (((g64 - dot) * s).astype(out.dtype),)

        return bw

    return _apply("softmax", (x,), {}, make_backward)


def sum_all(a):
    a = _as_tensor(a)

    def make_backward(datas, out, attrs):
        (x,) = datas

        def bw(g):
            return (np.broadcast_to(g.reshape(()), x.shape).astype(x.dtype).copy(),)

        return bw

    return _apply("sum_all", (a,), {}, make_backward)


def mean_all(a):
    a = _as_tensor(a)

    def make_backward(datas, out, attrs):
        (x,) = datas

        def bw(g):
            full = np.broadcast_to(g.reshape(()) / x.size, x.shape)
            return (full.astype(x.dtype).copy(),)

        return bw

    return _apply("mean_all", (a,), {}, make_backward)


def mse(a, b):
    """Mean squared error between two same-shape tensors (scalar output)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise UsageError(f"mse shape mismatch: {a.shape} vs {b.shape}")

    def make_backward(datas, out, attrs):
        da, db = datas

        def bw(g):
            coeff = 2.0 / da.size
            diff = da.astype(np.float64, copy=False) - db.astype(np.float64, copy=False)
            ga = (g.reshape(()) * coeff * diff).astype(da.dtype)
            return ga, -ga

        return bw

    return _apply("mse", (a, b), {}, make_backward)


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)

    def make_backward(datas, out, attrs):
        (x,) = datas

        def bw(g):
            return (np.ascontiguousarray(g).reshape(x.shape),)

        return bw

    return _apply("reshape", (a,), {"shape": shape}, make_backward)


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(int(ax) for ax in axes)

    def make_backward(datas, out, attrs):
        inv = tuple(np.argsort(axes))

        def bw(g):
            return (np.ascontiguousarray(np.transpose(g, inv)),)

        return bw

    return _apply("transpose", (a,), {"axes": axes}, make_backward)


def embed_rows(table, idx):
    """Row lookup ``table[idx]``; backward scatter-adds into the table."""
    table = _as_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise UsageError(f"embed_rows needs a 1-d index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise UsageError("embed_rows index out of range")

    def make_backward(datas, out, attrs):
        (tb,) = datas
        ix = attrs["idx"]

        def bw(g):
            gt = np.zeros_like(tb)
            np.add.at(gt, ix, g)
            return (gt,)

        return bw

    return _apply("embed_rows", (table,), {"idx": idx}, make_backward)


def linear(x, w, b=None):
    """Affine map ``x @ w + b`` composed from primitives."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out
