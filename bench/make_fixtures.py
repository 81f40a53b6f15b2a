#!/usr/bin/env python3
"""Regenerate the benchmark's checked-in inputs from fixed seeds.

    python3 bench/make_fixtures.py

writes bench/fixtures/images/*.pgm (48 synthetic 8x8 squares),
bench/fixtures/mix8.fpdm (400 steps at the acceptance config) and
bench/fixtures/image.fpdm (an 8x8, patch-2 model trained on those images).
The sampling workloads read these files instead of training, so a later
change to training arithmetic does not change the weights they sample
with, nor the adaptive workload's probe sequence. Takes about two minutes
on one core.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = HERE / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from checks import encode_pgm, quantise  # noqa: E402

MIX8 = {
    "seed": 0, "train_steps": 400, "batch_size": 256, "metrics_every": 50,
    "model": {"width": 32, "heads": 4},
    "dataset": {"name": "gaussian-mixture", "modes": 8},
    "optimizer": {"lr": 3e-4},
}
IMAGE = {
    "seed": 0, "train_steps": 200, "batch_size": 64, "metrics_every": 50,
    "model": {"width": 32, "heads": 4,
              "data": {"kind": "image", "image_size": 8, "patch": 2}},
    "dataset": {"name": "image-dir", "path": "bench/fixtures/images", "size": 8},
    "optimizer": {"lr": 1e-3},
}


def write_images(out, count=48, seed=0):
    """Bright squares of side 2-4 at random places on a dark 8x8 field."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(count):
        img = -np.ones((8, 8))
        side = int(rng.integers(2, 5))
        r, c = rng.integers(0, 9 - side, size=2)
        img[r:r + side, c:c + side] = 1.0
        (out / f"{i:03d}.pgm").write_bytes(encode_pgm(quantise(img)))


def train_to(raw, dest):
    """Train and keep the weights; the Adam moments are dropped, since
    sampling never reads them."""
    from fpdiff.checkpoint import load_checkpoint, save_checkpoint
    from fpdiff.config import config_from_dict
    from fpdiff.train import train
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        run = train(config_from_dict(raw), tmp)
        store, step, adam_step, chash, cjson = load_checkpoint(run.checkpoint_path)
    store.moments.clear()
    save_checkpoint(dest, store, step, adam_step, chash, cjson)
    print(f"{dest.relative_to(ROOT)}: {run.steps_run} steps, "
          f"final loss {run.final_loss:.4f}")


def main():
    os.chdir(ROOT)           # the image config names its folder from here
    write_images(FIXTURES / "images")
    train_to(MIX8, FIXTURES / "mix8.fpdm")
    train_to(IMAGE, FIXTURES / "image.fpdm")


if __name__ == "__main__":
    main()
