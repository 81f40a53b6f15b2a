#!/usr/bin/env python3
"""Plant a fault and watch the matching benchmark check catch it.

    python3 bench/selftest.py

Runs one 64-chain sample-mix8 request and the benchmark's 32-chain check
request, first clean (no check may fail), then with each fault in turn:

- a perturbed weight        -> the reference-forward check fails;
- one extra block pass that bypasses fpdiff's own pass counter
                            -> the wrapper pass count disagrees;
- two swapped chains        -> the batch-independence check fails;
- a PGM pixel one level off -> the image check fails (a float32 half-level
                               tie rounded either way passes).

Exits 0 when every check behaves, 1 otherwise. Takes about ten seconds.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads
from spans import Patches


def perturb_weight(orig):
    def net_from_checkpoint(path):
        net, sched, cfg = orig(path)
        net.store["fp.mlp.fc1.w"].data[0, 0] += 0.05
        return net, sched, cfg
    return net_from_checkpoint


def extra_pass(orig):
    from fpdiff import tensor as T
    done = []

    def fp_step(net, x, x_tilde, cond):
        if not done:
            done.append(True)
            net.fp_block(T.add(x, x_tilde), cond)   # no counter: unaudited
        return orig(net, x, x_tilde, cond)
    return fp_step


def check_image_cases():
    """The PGM check accepts a float32 half-level tie rounded either way and
    rejects a pixel one level off anywhere else."""
    import checks as C
    import numpy as np
    image = np.array([[0.9960785, -0.5]], np.float32)   # levels 254.5, 63.75
    tie = C.quantise(image)
    tie[0, 0] -= 1                                      # 254, as float32 gives
    off = C.quantise(image)
    off[0, 1] += 1                                      # 65 for 63.75
    results = []
    for name, levels, expect in (("PGM tie rounded down", tie, None),
                                 ("PGM pixel one level off", off,
                                  "does not read back")):
        fail = C.check_images(image[None], [C.encode_pgm(levels)])
        ok = fail is None if expect is None else expect in (fail or "")
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {fail or 'no check failed'}")
    return results


def main():
    run.import_fpdiff()
    import fpdiff.cli
    import fpdiff.nn
    run.OUT.mkdir(exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp, Patches() as patches:
        wl = run.WORKLOADS["sample-mix8"](0, Path(tmp))
        wl.count = 64
        wl.setup(patches)
        wl.op(0)

        def case(name, planted, expect):
            with Patches() as fault:
                if planted:
                    fault.wrap(*planted)
                fails = [f for f in wl._check_small_batch() if f]
            ok = (not fails) if expect is None else any(expect in f for f in fails)
            results.append(ok)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {fails or 'no check failed'}")

        case("clean run", None, None)
        case("perturbed weight", (fpdiff.cli, "net_from_checkpoint",
                                  perturb_weight), "reference forward")
        case("extra block pass", (fpdiff.nn.DenoiseNet, "fp_step", extra_pass),
             "block passes")
        samples = wl.requests[0]["samples"]
        samples[[0, 1]] = samples[[1, 0]]
        case("swapped chains", None, "differ between batch sizes")
    results += check_image_cases()
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
