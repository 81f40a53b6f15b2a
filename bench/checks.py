"""Property checks on fpdiff outputs, written without fpdiff code.

Every check returns None when it holds and a one-line reason when it does
not, so the benchmark can list all failures and the self-tests can plant a
fault and see the matching check object. No check compares an output with
a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import re

import numpy as np

# float32 storage against a float64 reimplementation: the forward agrees to
# about 1e-7 relative, so 1e-5 leaves a wide margin and still
# catches any perturbed weight or mis-wired op.
V_TOL = 1e-5
# Directional derivative of the float32 tape against float64 central
# differences (the same relative tolerance as fpdiff's float32 gradcheck).
GRAD_TOL = 1e-2
# Criterion 08's quality bounds for an 8-mode mixture sample, measured
# against REFERENCE_POINTS fresh points so the reference adds little noise.
SWD_BOUND = 0.15
MIN_MODE_SHARE = 0.02
REFERENCE_POINTS = 20000
MODES, RADIUS, SPREAD = 8, 0.75, 0.05

AUDIT_RE = re.compile(r"audit ok: (\d+) block passes over (\d+) timesteps")
PGM_HEADER = re.compile(rb"P5\s(\d+)\s(\d+)\s255\s")
# float32 rounding of (x + 1) * 127.5 near 255: about 3e-5 of a grey level.
PGM_TIE_SLACK = 1e-4


def check_v(program_v, reference_v):
    err = float(np.max(np.abs(np.asarray(program_v, np.float64) - reference_v)))
    limit = V_TOL * (1.0 + float(np.max(np.abs(reference_v))))
    if not err <= limit:
        return f"v differs from the reference forward by {err:.3e} (limit {limit:.1e})"
    return None


def check_gradient(tape_slope, fd_slope):
    err = abs(tape_slope - fd_slope) / max(abs(fd_slope), 1e-12)
    if not err <= GRAD_TOL:
        return (f"tape directional derivative {tape_slope:.6e} vs central "
                f"difference {fd_slope:.6e}: relative error {err:.2e}")
    return None


def parse_audit(stdout):
    m = AUDIT_RE.search(stdout)
    return (int(m.group(1)), int(m.group(2))) if m else None


def check_passes(counted, audit, expected):
    """Wrapper-counted passes, the program's audit line and the expected
    (passes, steps) must all agree."""
    if audit is None:
        return "no audit line in the sample output"
    if counted != expected[0] or audit != expected:
        return (f"block passes: wrappers counted {counted}, audit says "
                f"{audit[0]} over {audit[1]} steps, expected {expected[0]} "
                f"over {expected[1]}")
    return None


def read_plan(path):
    """(total_cost from the header, [(timestep, iterations)], n_pre, n_post)."""
    with open(path) as fh:
        header = fh.readline()
        meta = dict(p.split("=", 1) for p in header[2:].split())
        rows = [line.strip().split(",") for line in fh][1:]
    return (int(meta["total_cost"]), [(int(r[1]), int(r[2])) for r in rows],
            int(meta["n_pre"]), int(meta["n_post"]))


def check_plan(path, budget, audit):
    """plan.csv's rows re-add to its total, which fits the budget and
    matches the audited pass count."""
    total, rows, n_pre, n_post = read_plan(path)
    summed = sum(n_pre + k + n_post for _, k in rows)
    if summed != total or total > budget or audit is None \
            or audit != (total, len(rows)):
        return (f"plan total {total} (rows add to {summed}, {len(rows)} steps) "
                f"vs budget {budget} and audit {audit}")
    return None


def mixture_draw(rng, n):
    """Fresh draw from the known 8-mode mixture, plain numpy."""
    which = rng.integers(0, MODES, size=n)
    ang = 2.0 * math.pi * which / MODES
    centres = RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return centres + SPREAD * rng.standard_normal((n, 2))


def swd(samples, reference, projections=128, seed=0):
    """Sliced 1-Wasserstein distance of 2-d samples to a (larger) reference
    set: per direction, sorted samples against the reference quantiles at
    the same levels."""
    dirs = np.random.default_rng(seed).standard_normal((projections, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(np.asarray(samples, np.float64) @ dirs.T, axis=0)
    levels = (np.arange(len(pa)) + 0.5) / len(pa)
    pb = np.quantile(np.asarray(reference, np.float64) @ dirs.T, levels, axis=0)
    return float(np.mean(np.abs(pa - pb)))


def check_mixture(samples, reference):
    ang = 2.0 * math.pi * np.arange(MODES) / MODES
    centres = RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    nearest = np.argmin(((samples[:, None, :] - centres) ** 2).sum(-1), axis=1)
    share = np.bincount(nearest, minlength=MODES).min() / len(samples)
    dist = swd(samples, reference)
    if not (dist < SWD_BOUND and share >= MIN_MODE_SHARE):
        return (f"SWD {dist:.4f} (bound {SWD_BOUND}), smallest mode share "
                f"{share:.3f} (floor {MIN_MODE_SHARE})")
    return None


def check_batch_independence(full, small):
    """The first chains of a large batch equal a small batch, bit for bit."""
    head = np.asarray(full)[:len(small)]
    if head.shape != np.shape(small) or not np.array_equal(head, small):
        bad = np.nonzero(np.any((head != small).reshape(len(small), -1), 1))[0]
        return f"chains {bad[:8].tolist()} differ between batch sizes"
    return None


def check_loss_falls(losses):
    tenth = max(1, len(losses) // 10)
    first, last = np.mean(losses[:tenth]), np.mean(losses[-tenth:])
    if not last < first:
        return f"loss over the last tenth {last:.4f} not below the first {first:.4f}"
    return None


def check_same_bytes(a, b, what):
    return None if a == b else f"{what}: bytes differ"


def quantise(images):
    return np.clip(np.rint((np.asarray(images, np.float64) + 1.0) * 127.5),
                   0, 255).astype(np.uint8)


def encode_pgm(levels):
    h, w = levels.shape
    return b"P5\n%d %d\n255\n" % (w, h) + levels.tobytes()


def decode_pgm(raw):
    # Exactly one whitespace byte ends the header; pixel bytes may look
    # like whitespace themselves.
    m = PGM_HEADER.match(raw)
    if not m or len(raw) - m.end() != int(m.group(1)) * int(m.group(2)):
        raise ValueError("not an 8-bit binary PGM of the stated size")
    w, h = int(m.group(1)), int(m.group(2))
    return np.frombuffer(raw, dtype=np.uint8, offset=m.end()).reshape(h, w)


def check_images(samples, pgm_blobs):
    """Pixels lie in [-1, 1]; file i decodes to the quantised sample i.

    A pixel whose exact level is within PGM_TIE_SLACK of a half level may
    read back as either neighbour: a writer that scales float32 samples in
    float32 rounds 254.500008 to the tie 254.5 and then to even, 254."""
    samples = np.asarray(samples)
    if samples.min() < -1.0 or samples.max() > 1.0:
        return f"pixels outside [-1, 1]: {samples.min()}..{samples.max()}"
    if len(pgm_blobs) != len(samples):
        return f"{len(pgm_blobs)} PGM files for {len(samples)} samples"
    want = quantise(samples)
    exact = (samples.astype(np.float64) + 1.0) * 127.5
    for i, raw in enumerate(pgm_blobs):
        try:
            got = decode_pgm(raw)
        except ValueError as exc:
            return f"PGM {i}: {exc}"
        off = got != want[i]
        tie = np.abs(got - exact[i]) <= 0.5 + PGM_TIE_SLACK
        if np.any(off & ~tie):
            return f"PGM {i} does not read back to its sample"
    return None
