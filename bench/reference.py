"""Independent float64 reimplementation of the fpdiff denoiser forward.

Reads the checkpoint file itself (the documented FPDM/FPDX layout) and
evaluates the network with plain numpy. Nothing here imports fpdiff, so a
fault in the package's tensor kernels, network wiring or checkpoint loader
shows up as a disagreement with this module.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MODS = ("shift1", "scale1", "gate1", "shift2", "scale2", "gate2")


def read_checkpoint(path):
    """Return ({name: float64 array}, embedded config dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        out = blob[pos:pos + n]
        pos += n
        return out

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != b"FPDM":
        raise ValueError(f"{path}: bad magic")
    _version, count = unpack("<II")
    params = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        name = take(name_len).decode("utf-8")
        (rank,) = unpack("<B")
        shape = unpack(f"<{rank}I") if rank else ()
        size = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(4 * size), dtype="<f4")
        params[name] = data.reshape(shape).astype(np.float64)
    if take(4) != b"FPDX":
        raise ValueError(f"{path}: missing extension section")
    unpack("<IQQ")
    (hash_len,) = unpack("<H")
    take(hash_len)
    (cfg_len,) = unpack("<I")
    config = json.loads(take(cfg_len).decode("utf-8"))
    return params, config


def layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                    * (x + 0.044715 * x ** 3)))


def silu(x):
    return x / (1.0 + np.exp(-x))


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sinusoid(t, width):
    half = width // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = np.asarray(t, dtype=np.float64).reshape(-1, 1) * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class ReferenceNet:
    """Unconditional denoiser: pre blocks, iterated implicit block, post
    blocks and head, all in float64."""

    def __init__(self, params, config):
        model = config["model"]
        if model.get("n_classes", 0):
            raise ValueError("the reference covers unconditional models only")
        self.p = params
        self.width = model["width"]
        self.heads = model["heads"]
        self.n_pre = model.get("n_pre", 1)
        self.n_post = model.get("n_post", 1)
        data = model.get("data", {"kind": "points2d"})
        self.image = data["kind"] == "image"
        self.size = data.get("image_size", 0)
        self.patch = data.get("patch", 0)

    def _lin(self, x, name):
        return x @ self.p[name + ".w"] + self.p[name + ".b"]

    def _attention(self, name, x):
        b, t, w = x.shape
        hd = w // self.heads
        q, k, v = (self._lin(x, f"{name}.attn.{s}")
                   .reshape(b, t, self.heads, hd).transpose(0, 2, 1, 3)
                   for s in "qkv")
        att = softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd)) @ v
        return self._lin(att.transpose(0, 2, 1, 3).reshape(b, t, w),
                         f"{name}.attn.out")

    def _block(self, name, x, cond=None):
        if cond is None:
            m = {k: self.p[f"{name}.mod.{k}"] for k in MODS}
        else:
            act = silu(cond)
            m = {k: self._lin(act, f"{name}.mod.{k}")[:, None, :] for k in MODS}
        h = layer_norm(x) * (1.0 + m["scale1"]) + m["shift1"]
        x = x + m["gate1"] * self._attention(name, h)
        h = layer_norm(x) * (1.0 + m["scale2"]) + m["shift2"]
        mlp = self._lin(gelu(self._lin(h, f"{name}.mlp.fc1")), f"{name}.mlp.fc2")
        return x + m["gate2"] * mlp

    def _tokens(self, x):
        x = np.asarray(x, dtype=np.float64)
        if not self.image:
            return x[:, None, :]
        b, g, p = len(x), self.size // self.patch, self.patch
        return (x.reshape(b, g, p, g, p).transpose(0, 1, 3, 2, 4)
                .reshape(b, g * g, p * p))

    def _untokens(self, out):
        b = len(out)
        if not self.image:
            return out.reshape(b, 2)
        g, p = self.size // self.patch, self.patch
        return (out.reshape(b, g, g, p, p).transpose(0, 1, 3, 2, 4)
                .reshape(b, self.size, self.size))

    def v(self, x_t, t, iterations):
        """v prediction after ``iterations`` implicit steps from the
        injection (the solver's start when there is no reused solution)."""
        p = self.p
        x = self._lin(self._tokens(x_t), "patch_in") + p["pos"]
        t = np.broadcast_to(np.asarray(t), (len(x),))
        cond = self._lin(silu(self._lin(sinusoid(t, self.width), "temb.fc1")),
                         "temb.fc2")
        for i in range(self.n_pre):
            x = self._block(f"pre.{i}", x)
        x_tilde = self._lin(x, "fp.inject")
        z = x_tilde
        for _ in range(iterations):
            u = z + x_tilde
            z = layer_norm(x_tilde + self._block("fp", u, cond) - u)
        for i in range(self.n_post):
            z = self._block(f"post.{i}", z)
        h = layer_norm(z) * (1.0 + p["head.scale"]) + p["head.shift"]
        return self._untokens(self._lin(h, "head.out"))

    def loss(self, x_t, t, v_target, iterations):
        d = self.v(x_t, t, iterations) - np.asarray(v_target, dtype=np.float64)
        return float(np.mean(d * d))
