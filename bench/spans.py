"""Spans and counts around fpdiff's modules, recorded from outside.

Each wrapper replaces a public function where its callers look it up
(``fpdiff.sampling.solve`` rather than ``fpdiff.solver.solve``, because the
sampler imported the name), so the package itself is never edited. Spans
stay in memory; ``metrics`` folds them into per-operation figures and
``dump`` writes them out once the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time
import tracemalloc

# (object path, attribute, span name). Class attributes are wrapped on the
# class, so every instance sees the wrapper.
SPANS = (
    ("fpdiff.cli", "main", "cli"),
    ("fpdiff.cli", "generate", "sampling.generate"),
    ("fpdiff.cli", "plan_adaptive", "budget.plan_adaptive"),
    ("fpdiff.cli", "write_pgm", "data.write_pgm"),
    ("fpdiff.train", "load_checkpoint", "checkpoint.load"),
    ("fpdiff.train", "sjfb_train_step", "solver.sjfb_train_step"),
    ("fpdiff.train", "adam_update", "train.adam_update"),
    ("fpdiff.train", "save_checkpoint", "train.checkpoint_save"),
    ("fpdiff.train", "q_sample", "train.batch_prep"),
    ("fpdiff.train", "v_target", "train.batch_prep"),
    ("fpdiff.data.DatasetSampler", "draw", "train.batch_prep"),
    ("fpdiff.sampling", "solve", "solver.solve"),
    ("fpdiff.sampling", "ddpm_step", "sampling.ddpm_step"),
    ("fpdiff.sampling", "ddim_step", "sampling.ddim_step"),
    ("fpdiff.solver", "backward", "tensor.backward"),
    ("fpdiff.nn.DenoiseNet", "embed_conditioning", "nn.embed_conditioning"),
    ("fpdiff.nn.DenoiseNet", "pre_forward", "nn.pre_forward"),
    ("fpdiff.nn.DenoiseNet", "fp_step", "nn.fp_step"),
    ("fpdiff.nn.DenoiseNet", "post_forward", "nn.post_forward"),
    ("fpdiff.nn.Block", "__call__", "nn.block"),
)

# Tensor primitives, wrapped on fpdiff.tensor because nn and solver call them
# as ``T.<op>``. None of them calls another, and ``linear`` is left alone:
# it only calls matmul and add, which are counted there. The rest share
# "tensor.other".
TENSOR_OPS = {"gelu": "tensor.gelu", "softmax": "tensor.softmax",
              "matmul": "tensor.matmul", "layer_norm": "tensor.layer_norm",
              "add": "tensor.add"}
for _op in ("mul", "mul_scalar", "add_scalar", "silu", "sum_all", "mean_all",
            "mse", "reshape", "transpose", "embed_rows"):
    TENSOR_OPS[_op] = "tensor.other"
SPANS += tuple(("fpdiff.tensor", op, name) for op, name in TENSOR_OPS.items())

# Inclusive seconds per operation, reported under "<span>.s".
TIMED = ("tensor.gelu", "tensor.softmax", "tensor.matmul",
         "tensor.layer_norm", "tensor.add", "tensor.other", "tensor.backward",
         "nn.pre_forward", "nn.fp_step", "nn.post_forward",
         "nn.embed_conditioning", "solver.solve", "solver.sjfb_train_step",
         "train.batch_prep", "train.adam_update", "train.checkpoint_save",
         "sampling.generate", "sampling.ddpm_step", "sampling.ddim_step",
         "budget.plan_adaptive", "checkpoint.load", "data.write_pgm")


def resolve(path):
    """'fpdiff.nn.Block' -> the class; 'fpdiff.cli' -> the module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Patches:
    """Installs wrappers and puts every original back on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)``."""
        own = owner.__dict__.get(attr)      # None: inherited, delete on exit
        current = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(current)(make(current)))
        self._saved.append((owner, attr, own))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, own in reversed(self._saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()


class Tracer:
    """Span recorder. A span is [name, start, end, parent index, op, tag]."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.peak_alloc = 0
        self.op = 0
        self._stack = []
        self._open = collections.Counter()

    def inside(self, name):
        return self._open[name] > 0

    def install(self, patches):
        from fpdiff.tensor import active_tape
        after = {
            "solver.solve": lambda a, out: self.counts.update(
                {"solver.iterations": out[1].iterations_used}),
            "tensor.backward": lambda a, out: self.counts.update(
                {"tensor.tape_nodes": a[0].node_count}),
            "train.adam_update": lambda a, out: self._read_peak(),
        }

        def fp_tag(args):
            self.counts["nn.block_rows"] += args[1].shape[0]
            if self.inside("solver.sjfb_train_step"):
                return "with_grad" if active_tape() is not None else "no_grad"
            return None

        def block_tag(args):
            self.counts["nn.block_passes"] += 1
            if self.inside("budget.plan_adaptive"):
                self.counts["budget.probe_passes"] += 1
            return None

        before = {"nn.fp_step": fp_tag, "nn.block": block_tag,
                  "solver.sjfb_train_step": self._reset_peak}
        for path, attr, name in SPANS:
            patches.wrap(resolve(path), attr,
                         self._make(name, before.get(name), after.get(name)))

    def _make(self, name, before, after):
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        def make(orig):
            def wrapper(*args, **kwargs):
                tag = before(args) if before else None
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, tag]
                stack.append(len(spans))
                spans.append(span)
                opened[name] += 1
                span[1] = clock()
                try:
                    out = orig(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                    opened[name] -= 1
                if after:
                    after(args, out)
                return out
            return wrapper
        return make

    def _reset_peak(self, args):
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        return None

    def _read_peak(self):
        if tracemalloc.is_tracing():
            self.peak_alloc = max(self.peak_alloc,
                                  tracemalloc.get_traced_memory()[1])

    def table(self):
        """{span name: [calls, inclusive s, self s]} over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _, tag) in enumerate(self.spans):
            row = out[name if tag is None else f"{name}[{tag}]"]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return dict(out)

    def metrics(self, ops):
        """Per-layer figures per operation (a sample request or a training
        step) over ``ops`` traced operations."""
        table = self.table()

        def total(name, col=1):
            return sum(row[col] for key, row in table.items()
                       if key == name or key.startswith(name + "["))

        per = {f"{name}.s": total(name) / ops for name in TIMED}
        per["cli.self.s"] = total("cli", 2) / ops
        per["tensor.calls"] = sum(total(name, 0) for name
                                  in set(TENSOR_OPS.values())) / ops
        per["train.no_grad_iter.s"] = table.get("nn.fp_step[no_grad]", [0, 0.0])[1] / ops
        per["train.with_grad_iter.s"] = table.get("nn.fp_step[with_grad]", [0, 0.0])[1] / ops
        passes = self.counts["nn.block_passes"]
        per["nn.s_per_block_pass"] = total("nn.block") / passes if passes else 0.0
        for key in ("nn.block_passes", "nn.block_rows", "solver.iterations",
                    "tensor.tape_nodes", "budget.probe_passes"):
            per[key] = self.counts[key] / ops
        per["budget.useful_pass_ratio"] = (
            (passes - self.counts["budget.probe_passes"]) / passes
            if passes else 0.0)
        return per

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": self.spans,
                       "table": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                                 for k, v in sorted(self.table().items())}},
                      fh)
