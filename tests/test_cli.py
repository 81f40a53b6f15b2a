"""Command-line surface: exit codes, artifacts, byte determinism."""

import collections
import csv

import numpy as np
import pytest

from fpdiff.budget import AuditResult, import_plan_csv
from fpdiff import cli
from fpdiff.cli import main
from fpdiff.config import config_from_dict, config_json
from fpdiff.data import read_pgm
from fpdiff.sampling import SamplerConfig, generate
from fpdiff.train import net_from_checkpoint, train


def write_config(path, **overrides):
    raw = {
        "dataset": {"name": "gaussian-mixture", "modes": 2, "spread": 0.05},
        "model": {"width": 16, "heads": 2},
        "batch_size": 32,
        "train_steps": 30,
        "seed": 3,
        "metrics_every": 10,
    }
    raw.update(overrides)
    path.write_text(config_json(config_from_dict(raw)))
    return raw


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train")
    cfg = config_from_dict({
        "dataset": {"name": "gaussian-mixture", "modes": 2, "spread": 0.05},
        "model": {"width": 16, "heads": 2},
        "batch_size": 32, "train_steps": 30, "seed": 3, "metrics_every": 10,
    })
    return train(cfg, out).checkpoint_path


@pytest.fixture(scope="module")
def cond_ckpt(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train-cond")
    cfg = config_from_dict({
        "dataset": {"name": "gaussian-mixture", "modes": 4, "spread": 0.05},
        "model": {"width": 16, "heads": 2, "n_classes": 4},
        "batch_size": 32, "train_steps": 30, "seed": 3, "metrics_every": 10,
    })
    return train(cfg, out).checkpoint_path


def read_samples_csv(path):
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()]
    return np.array([[float(v) for v in row] for row in rows])


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, train_steps=10)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        for name in ("checkpoint.fpdm", "metrics.csv", "timings.csv",
                     "config.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "parameters: fpdm=" in stdout
        assert "checkpoint:" in stdout

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSampleCommand:
    def sample_args(self, ckpt, out, **kw):
        base = {"budget": 60, "iters": 4, "count": 500, "seed": 0}
        base.update(kw)
        args = ["sample", "--ckpt", str(ckpt), "--out", str(out)]
        for key, val in base.items():
            args += [f"--{key}", str(val)]
        return args

    def test_constant_plan_outputs(self, ckpt, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(self.sample_args(ckpt, out)) == 0
        samples = read_samples_csv(out / "samples.csv")
        assert samples.shape == (500, 2)
        plan = import_plan_csv(out / "plan.csv")
        assert plan.steps == 10 and set(plan.iterations) == {4}
        assert (out / "traces.csv").exists()
        assert "audit ok:" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, ckpt, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(self.sample_args(ckpt, a)) == 0
        assert main(self.sample_args(ckpt, b)) == 0
        assert main(self.sample_args(ckpt, c, seed=9)) == 0
        for name in ("samples.csv", "plan.csv", "traces.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (a / "samples.csv").read_bytes() != \
            (c / "samples.csv").read_bytes()

    def test_ramp_heuristic_fills_budget(self, ckpt, tmp_path):
        out = tmp_path / "ramp"
        assert main(self.sample_args(ckpt, out, heuristic="increasing",
                                     reuse="true")) == 0
        plan = import_plan_csv(out / "plan.csv")
        assert plan.heuristic == "increasing"
        assert plan.total_cost == 60
        assert list(plan.iterations) == sorted(plan.iterations)

    def test_adaptive_heuristic_audits(self, ckpt, tmp_path, capsys):
        out = tmp_path / "adaptive"
        assert main(self.sample_args(ckpt, out, heuristic="adaptive",
                                     count=200)) == 0
        stdout = capsys.readouterr().out
        assert "adaptive threshold:" in stdout
        assert "audit ok:" in stdout
        plan = import_plan_csv(out / "plan.csv")
        assert plan.total_cost <= 60
        # The final run is the frozen plan in fixed mode: a fixed-count run
        # of plan.csv with the same seed and sampler reproduces it exactly.
        net, sched, _ = net_from_checkpoint(ckpt)
        fixed = generate(net, sched, SamplerConfig(kind="ddpm", seed=0),
                         batch=200, plan=plan)
        assert np.array_equal(read_samples_csv(out / "samples.csv"),
                              fixed.samples.astype(np.float64))
        with open(out / "traces.csv", newline="") as fh:
            iters = collections.Counter(
                int(row["timestep"]) for row in csv.DictReader(fh))
        assert sorted(iters.items(), reverse=True) == \
            list(zip(plan.timesteps, plan.iterations))

    def test_guidance_needs_conditional_model(self, ckpt, tmp_path, capsys):
        code = main(self.sample_args(ckpt, tmp_path / "g", guidance=4.0))
        assert code == 2
        assert "guidance" in capsys.readouterr().err

    def test_guidance_on_conditional_checkpoint(self, cond_ckpt, tmp_path):
        out = tmp_path / "cond"
        assert main(self.sample_args(cond_ckpt, out, guidance=4.0,
                                     count=200, budget=30, iters=2)) == 0
        assert read_samples_csv(out / "samples.csv").shape == (200, 2)

    def test_audit_failure_exits_4(self, ckpt, tmp_path, monkeypatch,
                                   capsys):
        bad = AuditResult(ok=False, expected=1, counted=2,
                          first_bad_timestep=3)
        monkeypatch.setattr(cli, "audit_cost", lambda plan, rec: bad)
        code = main(self.sample_args(ckpt, tmp_path / "bad"))
        assert code == 4
        assert "audit error:" in capsys.readouterr().err

    def test_checkpoint_without_config_rejected(self, tmp_path, capsys):
        from fpdiff.checkpoint import save_checkpoint
        from fpdiff.params import ParamStore
        store = ParamStore()
        store.create("w", np.ones(3, dtype=np.float32))
        bare = tmp_path / "bare.fpdm"
        save_checkpoint(bare, store, 0, 0, "0" * 16)
        assert main(self.sample_args(bare, tmp_path / "out")) == 2
        assert "no embedded config" in capsys.readouterr().err

    def test_bad_bool_flag_is_usage_error(self, ckpt, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(self.sample_args(ckpt, tmp_path / "x", reuse="maybe"))
        assert excinfo.value.code == 2


class TestSweepCommand:
    def test_smoothing_sweep(self, ckpt, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "smoothing", "--ckpt", str(ckpt),
                     "--out", str(out), "--budget", "40",
                     "--k-list", "2,4", "--seeds", "0",
                     "--count", "500"]) == 0
        lines = (out / "smoothing.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_reuse_sweep(self, ckpt, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "reuse", "--ckpt", str(ckpt),
                     "--out", str(out), "--k-list", "2", "--seeds", "0",
                     "--count", "500"]) == 0
        lines = (out / "reuse.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 20

    def test_heuristics_sweep(self, ckpt, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "heuristics", "--ckpt", str(ckpt),
                     "--out", str(out), "--budget", "40",
                     "--k-list", "4", "--seeds", "0",
                     "--count", "500"]) == 0
        lines = (out / "heuristics.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_training_iters_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, train_steps=8)
        out = tmp_path / "sweep"
        assert main(["sweep", "training-iters", "--config", str(cfg_path),
                     "--out", str(out), "--seeds", "0"]) == 0
        assert (out / "training_iters.csv").exists()
        stdout = capsys.readouterr().out
        for name in ("stochastic", "fixed6", "jfb1"):
            assert f"{name}: median vmse" in stdout

    def test_missing_inputs_are_usage_errors(self, tmp_path, capsys):
        assert main(["sweep", "training-iters",
                     "--out", str(tmp_path / "a")]) == 2
        assert main(["sweep", "smoothing",
                     "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "--config" in err and "--ckpt" in err


class TestEvalCommand:
    def test_eval_on_csv_pairs(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, rng.standard_normal((600, 2)), delimiter=",")
        np.savetxt(b, rng.standard_normal((600, 2)), delimiter=",")
        assert main(["eval", "--samples", str(a), "--ref", str(b)]) == 0
        stdout = capsys.readouterr().out
        assert "swd:" in stdout and "mmd:" in stdout

    def test_eval_on_pgm_dirs(self, tmp_path, capsys):
        from fpdiff.data import write_pgm
        rng = np.random.default_rng(1)
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            for i in range(500):
                img = np.clip(rng.standard_normal((8, 8)) * 0.3, -1, 1)
                write_pgm(d / f"s_{i:04d}.pgm", img.astype(np.float32))
        assert main(["eval", "--samples", str(tmp_path / "a"),
                     "--ref", str(tmp_path / "b")]) == 0
        assert "swd:" in capsys.readouterr().out

    def test_eval_too_few_samples(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.zeros((10, 2)), delimiter=",")
        np.savetxt(b, np.zeros((600, 2)), delimiter=",")
        assert main(["eval", "--samples", str(a), "--ref", str(b)]) == 2

    def test_eval_missing_file(self, tmp_path, capsys):
        b = tmp_path / "b.csv"
        np.savetxt(b, np.zeros((600, 2)), delimiter=",")
        code = main(["eval", "--samples", str(tmp_path / "nope.csv"),
                     "--ref", str(b)])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_small_width_passes(self, capsys):
        assert main(["gradcheck", "--width", "16", "--seeds", "2",
                     "--dtype", "float32"]) == 0
        assert "max rel err" in capsys.readouterr().out

    def test_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "network_gradient_check",
                            lambda seed, width, dtype: 1.0)
        code = main(["gradcheck", "--width", "16", "--seeds", "1",
                     "--dtype", "float32"])
        assert code == 3
        assert "FAILED" in capsys.readouterr().out


class TestSampleImages:
    def test_image_samples_write_pgm_files(self, tmp_path):
        samples = np.clip(
            np.random.default_rng(0).standard_normal((3, 8, 8)), -1, 1
        ).astype(np.float32)
        path = cli._write_samples(str(tmp_path), samples)
        assert path == str(tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.pgm"))
        assert names == [f"sample_{i:05d}.pgm" for i in range(3)]
        first = read_pgm(tmp_path / "sample_00000.pgm")
        assert first.shape == (8, 8)
        assert np.max(np.abs(first - samples[0])) <= (1.0 / 127.5)
