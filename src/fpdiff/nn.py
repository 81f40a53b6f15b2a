"""Transformer denoiser with one weight-tied implicit block.

The network is pre blocks -> input injection -> implicit block (iterated by a
fixed-point solver) -> post blocks -> linear head. Timestep and class
conditioning enter only the implicit block, through adaptive layer-norm
modulation; pre and post blocks use layer norm with learned static
shift/scale/gate vectors, so perturbing the timestep changes nothing outside
the implicit block. All gates start at zero, which makes every block the
identity at initialization.

``BaselineNet`` is the matched explicit stack (every block conditioned) used
for parameter-count and cost comparisons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .params import ParamStore
from .solver import SolverConfig, solve
from . import tensor as T
from .tensor import Tensor


TESTED_LAYER_COUNTS = (0, 1, 2, 4)


@dataclass(frozen=True)
class DataSpec:
    """Shape adapter between raw data arrays and token sequences."""

    kind: str                 # "points2d" | "image"
    image_size: int = 0
    patch: int = 0

    def __post_init__(self):
        if self.kind == "points2d":
            return
        if self.kind == "image":
            if self.image_size not in (8, 16):
                raise UsageError(f"image size must be 8 or 16, got {self.image_size}")
            if self.patch <= 0 or self.image_size % self.patch:
                raise UsageError(f"patch {self.patch} does not tile size {self.image_size}")
            return
        raise UsageError(f"unknown data kind {self.kind!r}")

    @property
    def token_count(self):
        if self.kind == "points2d":
            return 1
        return (self.image_size // self.patch) ** 2

    @property
    def token_dim(self):
        if self.kind == "points2d":
            return 2
        return self.patch * self.patch

    @property
    def data_shape(self):
        return (2,) if self.kind == "points2d" else (self.image_size, self.image_size)


@dataclass(frozen=True)
class NetworkConfig:
    width: int = 128
    heads: int = 4
    n_pre: int = 1
    n_post: int = 1
    n_classes: int = 0
    data: DataSpec = field(default_factory=lambda: DataSpec("points2d"))
    train_timesteps: int = 1000

    def __post_init__(self):
        if self.width <= 0 or self.width % self.heads:
            raise UsageError(f"width {self.width} not divisible by heads {self.heads}")
        if self.width % 2:
            raise UsageError("width must be even for the sinusoidal table")
        if self.n_pre < 0 or self.n_post < 0:
            raise UsageError("layer counts must be non-negative")
        if self.n_classes < 0:
            raise UsageError("n_classes must be non-negative")
        for name, n in (("n_pre", self.n_pre), ("n_post", self.n_post)):
            if n not in TESTED_LAYER_COUNTS:
                warnings.warn(f"{name}={n} is outside the tested set "
                              f"{TESTED_LAYER_COUNTS}", stacklevel=3)

    @property
    def token_count(self):
        return self.data.token_count

    @property
    def null_class(self):
        return self.n_classes


class PassCounter:
    """Counts block forward passes, bucketed by sampling timestep."""

    def __init__(self):
        self.records = []        # list of [train_timestep, passes]
        self._current = None

    def begin_timestep(self, t):
        self._current = [int(t), 0]
        self.records.append(self._current)

    def tick(self):
        if self._current is None:
            self._current = [-1, 0]
            self.records.append(self._current)
        self._current[1] += 1

    @property
    def total(self):
        return sum(r[1] for r in self.records)


class Linear:
    def __init__(self, store, name, d_in, d_out, rng, scale=0.02, zero=False):
        if zero:
            w = np.zeros((d_in, d_out), dtype=np.float64)
        else:
            w = rng.normal(0.0, scale, size=(d_in, d_out))
        self.w = store.create(f"{name}.w", w)
        self.b = store.create(f"{name}.b", np.zeros(d_out, dtype=np.float64))

    def __call__(self, x):
        return T.linear(x, self.w, self.b)


_MOD_NAMES = ("shift1", "scale1", "gate1", "shift2", "scale2", "gate2")


class Block:
    """Attention + MLP block with gated, modulated residual branches.

    conditioned=True derives the six modulation vectors (shift/scale/gate per
    branch) from the conditioning embedding through zero-initialized linear
    maps; conditioned=False stores them as zero-initialized per-channel
    parameters, making the block independent of timestep and class.
    """

    def __init__(self, store, name, width, heads, rng, conditioned):
        self.width = width
        self.heads = heads
        self.conditioned = conditioned
        self.wq = Linear(store, f"{name}.attn.q", width, width, rng)
        self.wk = Linear(store, f"{name}.attn.k", width, width, rng)
        self.wv = Linear(store, f"{name}.attn.v", width, width, rng)
        self.wo = Linear(store, f"{name}.attn.out", width, width, rng)
        self.mlp1 = Linear(store, f"{name}.mlp.fc1", width, 4 * width, rng)
        self.mlp2 = Linear(store, f"{name}.mlp.fc2", 4 * width, width, rng)
        if conditioned:
            self.mod = {k: Linear(store, f"{name}.mod.{k}", width, width, rng,
                                  zero=True) for k in _MOD_NAMES}
        else:
            self.mod = {k: store.create(f"{name}.mod.{k}",
                                        np.zeros(width, dtype=np.float64))
                        for k in _MOD_NAMES}

    def modulation(self, cond):
        """The six modulation vectors for a conditioning embedding.

        They depend only on ``cond``, so an implicit block computes them once
        per solve and passes them to every iteration.
        """
        if self.conditioned:
            if cond is None:
                raise UsageError("conditioned block called without conditioning")
            act = T.silu(cond)
            b = cond.shape[0]
            return {k: T.reshape(self.mod[k](act), (b, 1, self.width))
                    for k in _MOD_NAMES}
        return self.mod

    def _attention(self, x):
        b, t, w = x.shape
        hd = w // self.heads

        def split(v):
            return T.transpose(T.reshape(v, (b, t, self.heads, hd)), (0, 2, 1, 3))

        q = split(self.wq(x))
        k = split(self.wk(x))
        v = split(self.wv(x))
        scores = T.mul_scalar(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                              1.0 / math.sqrt(hd))
        att = T.matmul(T.softmax(scores), v)
        att = T.reshape(T.transpose(att, (0, 2, 1, 3)), (b, t, w))
        return self.wo(att)

    def __call__(self, x, mod=None, counter=None):
        """One block pass; ``mod`` is ``modulation(cond)`` (a conditioned
        block needs it, an unconditioned one uses its static vectors)."""
        if counter is not None:
            counter.tick()
        if mod is None:
            if self.conditioned:
                raise UsageError("conditioned block called without modulation")
            mod = self.mod
        h = T.layer_norm(x)
        h = T.add(T.mul(h, T.add_scalar(mod["scale1"], 1.0)), mod["shift1"])
        x = T.add(x, T.mul(mod["gate1"], self._attention(h)))
        h = T.layer_norm(x)
        h = T.add(T.mul(h, T.add_scalar(mod["scale2"], 1.0)), mod["shift2"])
        mlp = self.mlp2(T.gelu(self.mlp1(h)))
        return T.add(x, T.mul(mod["gate2"], mlp))


def sinusoid_features(t, width, max_period=10000.0):
    """Sinusoidal timestep features, layout [sin | cos]; t=0 -> zeros, ones."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = width // 2
    freqs = np.exp(-math.log(max_period) * np.arange(half) / half)
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def patchify(images, patch):
    """(B, S, S) -> (B, T, patch*patch), row-major over the patch grid."""
    b, s, _ = images.shape
    g = s // patch
    x = images.reshape(b, g, patch, g, patch)
    return np.ascontiguousarray(x.transpose(0, 1, 3, 2, 4)).reshape(b, g * g, patch * patch)


class _Backbone:
    """Shared tokenizer, conditioning, and output head construction."""

    def __init__(self, config, store, rng):
        self.config = config
        self.store = store
        w = config.width
        d = config.data
        self.patch_in = Linear(store, "patch_in", d.token_dim, w, rng)
        self.pos = store.create("pos", rng.normal(0.0, 0.02, size=(d.token_count, w)))
        self.temb1 = Linear(store, "temb.fc1", w, w, rng)
        self.temb2 = Linear(store, "temb.fc2", w, w, rng)
        if config.n_classes > 0:
            # Zero init keeps every untrained class row identical, so a model
            # trained with full dropout is exactly label-independent.
            self.class_table = store.create(
                "class_table", np.zeros((config.n_classes + 1, w), dtype=np.float64))
        else:
            self.class_table = None
        self.head_shift = store.create("head.shift", np.zeros(w, dtype=np.float64))
        self.head_scale = store.create("head.scale", np.zeros(w, dtype=np.float64))
        self.head_out = Linear(store, "head.out", w, d.token_dim, rng, zero=True)

    def tokenize(self, x_data):
        """Raw data array -> (B, T, width) token Tensor with positions added."""
        x = np.asarray(x_data)
        d = self.config.data
        if d.kind == "points2d":
            if x.ndim != 2 or x.shape[1] != 2:
                raise UsageError(f"expected (B, 2) points, got {x.shape}")
            tokens = x.reshape(x.shape[0], 1, 2)
        else:
            if x.ndim != 3 or x.shape[1:] != d.data_shape:
                raise UsageError(f"expected (B, {d.image_size}, {d.image_size}) "
                                 f"images, got {x.shape}")
            tokens = patchify(x, d.patch)
        return T.add(self.patch_in(Tensor(tokens)), self.pos)

    def embed_conditioning(self, t, labels=None):
        """Timestep indices and optional class labels -> (B, width) embedding.

        ``labels`` entries equal to ``config.null_class`` select the learned
        null-class vector used for dropout and guidance.
        """
        t = np.asarray(t)
        cfg = self.config
        if t.ndim == 0:
            t = t.reshape(1)
        if np.any(t < 0) or np.any(t >= cfg.train_timesteps):
            raise UsageError(f"timestep out of [0, {cfg.train_timesteps})")
        feats = Tensor(sinusoid_features(t, cfg.width))
        emb = self.temb2(T.silu(self.temb1(feats)))
        if labels is not None:
            if self.class_table is None:
                raise UsageError("class labels passed to an unconditional model")
            labels = np.asarray(labels, dtype=np.int64)
            if np.any(labels < 0) or np.any(labels > cfg.null_class):
                raise UsageError(f"class label out of [0, {cfg.null_class}]")
            emb = T.add(emb, T.embed_rows(self.class_table, labels))
        return emb

    def head(self, x):
        """Final norm + linear projection back to data shape."""
        h = T.layer_norm(x)
        h = T.add(T.mul(h, T.add_scalar(self.head_scale, 1.0)), self.head_shift)
        out = self.head_out(h)
        d = self.config.data
        b = out.shape[0]
        if d.kind == "points2d":
            return T.reshape(out, (b, 2))
        g = d.image_size // d.patch
        out = T.reshape(out, (b, g, g, d.patch, d.patch))
        out = T.transpose(out, (0, 1, 3, 2, 4))
        return T.reshape(out, (b, d.image_size, d.image_size))


class DenoiseNet(_Backbone):
    """Denoiser with pre blocks, one implicit block, and post blocks."""

    def __init__(self, config: NetworkConfig, seed=0, store=None):
        store = store if store is not None else ParamStore()
        rng = np.random.default_rng(seed)
        super().__init__(config, store, rng)
        w = config.width
        self.pre = [Block(store, f"pre.{i}", w, config.heads, rng, conditioned=False)
                    for i in range(config.n_pre)]
        self.fp_block = Block(store, "fp", w, config.heads, rng, conditioned=True)
        ident = np.eye(w, dtype=np.float64)
        self.inject_w = store.create("fp.inject.w", ident)
        self.inject_b = store.create("fp.inject.b", np.zeros(w, dtype=np.float64))
        self.post = [Block(store, f"post.{i}", w, config.heads, rng, conditioned=False)
                     for i in range(config.n_post)]
        self.pass_counter = None

    def pre_forward(self, x_tokens):
        for blk in self.pre:
            x_tokens = blk(x_tokens, counter=self.pass_counter)
        return x_tokens

    def inject(self, x_pre):
        """Per-token linear projection of the pre-block output (bias included)."""
        return T.linear(x_pre, self.inject_w, self.inject_b)

    def fp_step(self, x, x_tilde, mod):
        """One implicit-block application on x + x_tilde.

        Pure function of its inputs and the parameters; ``mod`` is
        ``fp_block.modulation(cond)``, computed once per solve. The injection
        is added to the block input, and the same weights serve every
        iteration. The next iterate is the injection plus the block's
        residual update, layer-normalized: basing the trunk on x_tilde
        rather than on the iterate keeps the map's Jacobian free of an
        identity term, so the iteration actually contracts. Carrying the
        iterate itself through the residual trunk would re-accumulate
        x_tilde every pass and leave the map with no fixed point at all.
        """
        u = T.add(x, x_tilde)
        out = self.fp_block(u, mod, counter=self.pass_counter)
        update = T.add(out, T.mul_scalar(u, -1.0))
        return T.layer_norm(T.add(x_tilde, update))

    def post_forward(self, x_star):
        for blk in self.post:
            x_star = blk(x_star, counter=self.pass_counter)
        return self.head(x_star)

    def forward(self, x_data, t, labels=None, iterations=1):
        """Full forward pass with a fixed iteration count.

        The fixed-point iteration is a fixed-mode ``solve`` from the
        injection output; solver code drives the pieces directly when it
        needs reuse or traces.
        """
        solver_cfg = SolverConfig(iterations=iterations)   # rejects < 1
        mod = self.fp_block.modulation(self.embed_conditioning(t, labels))
        x_tilde = self.inject(self.pre_forward(self.tokenize(x_data)))
        x, _ = solve(lambda z: self.fp_step(z, x_tilde, mod), x_tilde,
                     solver_cfg)
        return self.post_forward(x)

    def param_count(self):
        return self.store.total_count()


class BaselineNet(_Backbone):
    """Explicit stack of distinct conditioned blocks (the matched baseline)."""

    def __init__(self, config: NetworkConfig, n_blocks: int, seed=0, store=None):
        if n_blocks < 1:
            raise UsageError("baseline needs at least one block")
        store = store if store is not None else ParamStore()
        rng = np.random.default_rng(seed)
        super().__init__(config, store, rng)
        self.n_blocks = n_blocks
        self.blocks = [Block(store, f"blocks.{i}", config.width, config.heads,
                             rng, conditioned=True) for i in range(n_blocks)]
        self.pass_counter = None

    def forward(self, x_data, t, labels=None):
        cond = self.embed_conditioning(t, labels)
        x = self.tokenize(x_data)
        for blk in self.blocks:
            x = blk(x, blk.modulation(cond), counter=self.pass_counter)
        return self.head(x)

    def param_count(self):
        return self.store.total_count()
