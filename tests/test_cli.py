"""CLI tests driven in-process through main(argv).

Each subcommand is exercised against real containers in a temp directory;
exit codes are checked against the documented taxonomy (0 ok, 2 config,
3 io, 4 numerical). Config precedence is verified end to end by reading
the values back out of the emitted run report.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2moe import cli, pipeline
from d2moe.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from d2moe.config import CompressionConfig
from d2moe.container import container_load, container_save, load_any, save_calibration, save_model
from d2moe.errors import NumericalError
from d2moe.fixtures import gen_fixture
from d2moe.moe import MoELayer, MoEModel, Role, moe_forward_dense
from d2moe.pipeline import compute_layer_stats
from d2moe.report import read_report

SMALL = ["--experts", "4", "--d-model", "16", "--hidden", "24",
         "--tokens", "192", "--rank-noise", "2"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small model/calib pair shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["gen-fixture", "--seed", "0", *SMALL,
               "--out-model", str(root / "model.d2m"),
               "--out-calib", str(root / "calib.d2m")])
    assert rc == EXIT_OK
    return root


def run_ok(argv, capsys):
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out


class TestGenFixture:
    def test_writes_both_containers(self, tmp_path, capsys):
        out = run_ok(["gen-fixture", "--seed", "7", *SMALL,
                      "--out-model", str(tmp_path / "m.d2m"),
                      "--out-calib", str(tmp_path / "c.d2m")], capsys)
        assert (tmp_path / "m.d2m").exists() and (tmp_path / "c.d2m").exists()
        assert "seed=7" in out

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for tag in ("a", "b"):
            run_ok(["gen-fixture", "--seed", "3", *SMALL,
                    "--out-model", str(tmp_path / f"m{tag}.d2m"),
                    "--out-calib", str(tmp_path / f"c{tag}.d2m")], capsys)
        assert (tmp_path / "ma.d2m").read_bytes() == (tmp_path / "mb.d2m").read_bytes()
        assert (tmp_path / "ca.d2m").read_bytes() == (tmp_path / "cb.d2m").read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-100"], "seed must be non-negative, got -100"),
        (["--tokens", "0"], "fixture dimensions must be positive"),
    ])
    def test_bad_seed_or_size_is_config_error(self, tmp_path, capsys, flags, message):
        """A seed or size gen_fixture rejects exits 2 with the named error and
        writes nothing."""
        rc = main(["gen-fixture", *flags, "--out-model", str(tmp_path / "m.d2m"),
                   "--out-calib", str(tmp_path / "c.d2m")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_bad_expert_count_is_config_error(self, tmp_path, capsys):
        rc = main(["gen-fixture", "--experts", "1",
                   "--out-model", str(tmp_path / "m.d2m"),
                   "--out-calib", str(tmp_path / "c.d2m")])
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestCompressEval:
    def test_compress_then_eval_round_trip(self, workdir, tmp_path, capsys):
        out_model = tmp_path / "compressed.d2m"
        out_report = tmp_path / "run.jsonl"
        out = run_ok(["compress", "--model", str(workdir / "model.d2m"),
                      "--calib", str(workdir / "calib.d2m"),
                      "--ratio-delta", "0.5", "--sparsity", "0.4",
                      "--merge", "fisher",
                      "--out", str(out_model), "--report", str(out_report)], capsys)
        assert "loss" in out and "stored expert params" in out
        rep = read_report(out_report)
        assert rep.config["delta_ratio"] == 0.5
        assert rep.config["sparsity"] == 0.4
        assert rep.config["merge_method"] == "fisher"

        # eval on the compressed container reproduces the reported loss
        eval_out = run_ok(["eval", "--model", str(out_model),
                           "--calib", str(workdir / "calib.d2m")], capsys)
        loss = float(eval_out.split("loss=")[1].split()[0])
        assert loss == pytest.approx(rep.loss_after, abs=1e-12)

    def test_layer_widths_that_change_compress_and_eval(self, tmp_path, capsys):
        """A model whose layers map 8 -> 12 -> 8 features compresses, and its
        container evaluates: no census runs a layer on another layer's input."""
        rng = np.random.default_rng(5)

        def layer(d_in, hidden, d_out, n=4):
            ups, downs = zip(*[(rng.normal(size=(hidden, d_in)) / np.sqrt(d_in),
                                rng.normal(size=(d_out, hidden)) / np.sqrt(hidden))
                               for _ in range(n)])
            return MoELayer(gate=rng.normal(size=(n, d_in)),
                            weights={Role.UP: ups, Role.DOWN: downs}, top_k=2)

        model = MoEModel(layers=[layer(8, 16, 12), layer(12, 16, 8)], head=rng.normal(size=(5, 8)))
        save_model(tmp_path / "model.d2m", model)
        save_calibration(tmp_path / "calib.d2m", rng.normal(size=(8, 300)), rng.integers(0, 5, 300))
        inputs = ["--model", str(tmp_path / "model.d2m"), "--calib", str(tmp_path / "calib.d2m")]
        run_ok(["compress", *inputs, "--merge", "mean", "--sparsity", "0.4", "--trim", "1",
                "--out", str(tmp_path / "c.d2m"), "--report", str(tmp_path / "run.jsonl")], capsys)
        out = run_ok(["eval", "--model", str(tmp_path / "c.d2m"), "--calib", str(tmp_path / "calib.d2m")],
                     capsys)
        assert "tokens=300" in out
        layers = read_report(tmp_path / "run.jsonl").layers
        assert [rec.params.m for rec in layers] == [16 * 8 + 12 * 16, 16 * 12 + 8 * 16]

    def test_eval_dense_model(self, workdir, capsys):
        out = run_ok(["eval", "--model", str(workdir / "model.d2m"),
                      "--calib", str(workdir / "calib.d2m")], capsys)
        assert "perplexity=" in out and "tokens=192" in out

    def test_model_and_calib_roles_enforced(self, workdir, capsys):
        rc = main(["eval", "--model", str(workdir / "calib.d2m"),
                   "--calib", str(workdir / "calib.d2m")])
        assert rc == EXIT_CONFIG
        assert "calibration data" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compress", "calibrate"])
    def test_calibration_of_another_width_is_config_error(self, workdir, tmp_path, capsys, command):
        """Tokens whose width is not the model's d_model fail with a named
        ShapeError (exit 2), not a traceback from inside the forward."""
        assert main(["gen-fixture", "--seed", "0", *SMALL[:2], "--d-model", "12", *SMALL[4:],
                     "--out-model", str(tmp_path / "m12.d2m"),
                     "--out-calib", str(tmp_path / "c12.d2m")]) == EXIT_OK
        capsys.readouterr()
        outputs = {"compress": ["--out", str(tmp_path / "out.d2m"), "--report", str(tmp_path / "r.jsonl")],
                   "calibrate": ["--out", str(tmp_path / "stats.csv")]}
        rc = main([command, "--model", str(workdir / "model.d2m"), "--calib", str(tmp_path / "c12.d2m"),
                   *outputs[command]])
        assert rc == EXIT_CONFIG
        assert "calibration tokens rows 12 != d_model 16" in capsys.readouterr().err


class TestContainerKinds:
    """Each command reads only the container kinds it runs on: another kind
    as --model or --calib exits 2 with one line naming the rule, and
    nothing is written."""

    @pytest.fixture(scope="class")
    def paths(self, workdir, tmp_path_factory):
        root = tmp_path_factory.mktemp("kinds")
        assert main(["compress", "--model", str(workdir / "model.d2m"), "--calib", str(workdir / "calib.d2m"),
                     "--merge", "mean", "--out", str(root / "compressed.d2m"),
                     "--report", str(root / "compressed.jsonl")]) == EXIT_OK
        return {"dense": workdir / "model.d2m", "compressed": root / "compressed.d2m",
                "calibration": workdir / "calib.d2m"}

    @staticmethod
    def run(command, model, calib, out, capsys):
        """Exit code and stderr of `command` on the `model` and `calib` containers."""
        outputs = {"compress": ["--out", str(out / "o.d2m"), "--report", str(out / "r.jsonl")],
                   "calibrate": ["--out", str(out / "c.csv")], "eval": [],
                   "cka": ["--out-dir", str(out / "an"), "--cka"],
                   "sensitivity": ["--out-dir", str(out / "an"), "--sensitivity"],
                   "frontier": ["--out-dir", str(out / "an"), "--frontier", "0.5"]}[command]
        name = "analyze" if command in ("cka", "sensitivity", "frontier") else command
        capsys.readouterr()
        rc = main([name, "--model", str(model), "--calib", str(calib), *outputs])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["compressed", "calibration"])
    @pytest.mark.parametrize("command", ["compress", "calibrate", "cka"])
    def test_dense_model_commands_reject_other_model_kinds(self, paths, tmp_path, capsys, command, kind):
        rc, err = self.run(command, paths[kind], paths["calibration"], tmp_path, capsys)
        assert rc == EXIT_CONFIG
        assert err == f"error: {paths[kind]} is not a dense model container\n"
        assert not list(tmp_path.iterdir())

    def test_eval_rejects_calibration_as_the_model(self, paths, tmp_path, capsys):
        rc, err = self.run("eval", paths["calibration"], paths["calibration"], tmp_path, capsys)
        assert rc == EXIT_CONFIG
        assert err == f"error: {paths['calibration']} holds calibration data, not a model\n"

    @pytest.mark.parametrize("kind", ["dense", "compressed"])
    @pytest.mark.parametrize("command", ["compress", "calibrate", "eval", "sensitivity", "frontier"])
    def test_calib_must_be_a_calibration_container(self, paths, tmp_path, capsys, command, kind):
        rc, err = self.run(command, paths["dense"], paths[kind], tmp_path, capsys)
        assert rc == EXIT_CONFIG
        assert err == f"error: {paths[kind]} is not a calibration container\n"
        assert not list(tmp_path.iterdir())


class TestNumpyOnlyRuntime:
    def test_no_scipy_module_is_loaded(self, tmp_path):
        """A fresh interpreter imports the package and runs gen-fixture,
        a Fisher compress, eval and report through `cli.main` without
        loading any scipy module."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import sys\n"
            "import d2moe, d2moe.cli\n"
            f"small = {SMALL!r}\n"
            "io = ['--model', 'model.d2m', '--calib', 'calib.d2m']\n"
            "for argv in (['gen-fixture', *small, '--out-model', 'model.d2m', '--out-calib', 'calib.d2m'],\n"
            "             ['compress', *io, '--merge', 'fisher', '--out', 'c.d2m', '--report', 'run.jsonl'],\n"
            "             ['eval', '--model', 'c.d2m', '--calib', 'calib.d2m'],\n"
            "             ['report', '--report', 'run.jsonl']):\n"
            "    assert d2moe.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestConfigPrecedence:
    def compress_config(self, workdir, tmp_path, extra):
        report = tmp_path / "run.jsonl"
        rc = main(["compress", "--model", str(workdir / "model.d2m"),
                   "--calib", str(workdir / "calib.d2m"),
                   "--out", str(tmp_path / "out.d2m"), "--report", str(report),
                   *extra])
        assert rc == EXIT_OK
        return read_report(report).config

    def test_file_then_preset_then_set_then_flag(self, workdir, tmp_path):
        cfg_file = tmp_path / "base.cfg"
        cfg_file.write_text("sparsity = 0.5\nseed = 11  # kept\n", encoding="utf-8")
        file_only = self.compress_config(workdir, tmp_path, ["--config", str(cfg_file)])
        assert file_only["sparsity"] == 0.5 and file_only["seed"] == 11

        preset = self.compress_config(workdir, tmp_path,
                                      ["--config", str(cfg_file), "--preset", "throughput"])
        assert preset["sparsity"] == 0.6

        via_set = self.compress_config(
            workdir, tmp_path,
            ["--config", str(cfg_file), "--preset", "throughput", "--set", "sparsity=0.2"])
        assert via_set["sparsity"] == 0.2

        via_flag = self.compress_config(
            workdir, tmp_path,
            ["--config", str(cfg_file), "--preset", "throughput",
             "--set", "sparsity=0.2", "--sparsity", "0.3"])
        assert via_flag["sparsity"] == 0.3
        assert via_flag["seed"] == 11  # untouched keys survive the chain

    def test_malformed_set_pair(self, workdir, tmp_path, capsys):
        rc = main(["compress", "--model", str(workdir / "model.d2m"),
                   "--calib", str(workdir / "calib.d2m"),
                   "--out", str(tmp_path / "o.d2m"), "--report", str(tmp_path / "r.jsonl"),
                   "--set", "sparsity:0.2"])
        assert rc == EXIT_CONFIG
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_preset(self, workdir, tmp_path):
        rc = main(["compress", "--model", str(workdir / "model.d2m"),
                   "--calib", str(workdir / "calib.d2m"),
                   "--out", str(tmp_path / "o.d2m"), "--report", str(tmp_path / "r.jsonl"),
                   "--preset", "turbo"])
        assert rc == EXIT_CONFIG


class TestCalibrate:
    def test_csv_schema_and_frequencies(self, workdir, tmp_path, capsys):
        out_csv = tmp_path / "calib.csv"
        run_ok(["calibrate", "--model", str(workdir / "model.d2m"),
                "--calib", str(workdir / "calib.d2m"), "--out", str(out_csv)], capsys)
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "layer,expert,frequency,gram_trace_up,gram_trace_down"
        assert len(lines) == 1 + 4  # one layer, four experts
        freqs = [float(line.split(",")[2]) for line in lines[1:]]
        assert sum(freqs) == pytest.approx(1.0, abs=1e-12)
        traces = [float(v) for line in lines[1:] for v in line.split(",")[3:]]
        assert all(t >= 0.0 for t in traces)

    def test_runs_no_fisher_whatever_the_merge(self, workdir, tmp_path, capsys, monkeypatch):
        """The CSV holds frequencies and Gram traces only, so a Fisher merge
        setting must not start a Fisher pass, and the bytes match a mean run."""
        argv = ["calibrate", "--model", str(workdir / "model.d2m"), "--calib", str(workdir / "calib.d2m")]
        run_ok([*argv, "--merge", "mean", "--out", str(tmp_path / "mean.csv")], capsys)

        def no_fisher(*args, **kwargs):
            raise AssertionError("calibrate ran fisher_accumulate")

        monkeypatch.setattr("d2moe.gradients.fisher_accumulate", no_fisher)
        monkeypatch.setattr("d2moe.pipeline.fisher_accumulate", no_fisher)
        run_ok([*argv, "--merge", "fisher", "--out", str(tmp_path / "fisher.csv")], capsys)
        assert (tmp_path / "fisher.csv").read_bytes() == (tmp_path / "mean.csv").read_bytes()

    def test_runs_in_token_chunks(self, tmp_path, capsys, monkeypatch):
        """Past one chunk, calibrate captures chunk by chunk and writes the
        statistics `compute_layer_stats` sums over the chunks."""
        argv = ["--experts", "4", "--d-model", "8", "--hidden", "12", "--rank-noise", "2"]
        model_path, calib_path = tmp_path / "m.d2m", tmp_path / "c.d2m"
        run_ok(["gen-fixture", "--seed", "1", *argv, "--tokens", "1100",
                "--out-model", str(model_path), "--out-calib", str(calib_path)], capsys)
        chunks = []
        real = pipeline.capture_calibration

        def spy(model, x, grams=None):
            chunks.append(x.shape[1])
            return real(model, x, grams)

        monkeypatch.setattr(pipeline, "capture_calibration", spy)
        run_ok(["calibrate", "--model", str(model_path), "--calib", str(calib_path),
                "--calib-samples", "1100", "--out", str(tmp_path / "calib.csv")], capsys)
        assert chunks == [512, 512, 76]
        model, (tokens, _) = load_any(model_path), load_any(calib_path)
        stats, _ = compute_layer_stats(model, tokens, CompressionConfig(merge_method="mean"))
        want = [f"0,{i},{float(f)!r},{float(np.trace(stats[0].grams[Role.UP][i]))!r},"
                f"{float(np.trace(stats[0].grams[Role.DOWN][i]))!r}"
                for i, f in enumerate(stats[0].frequency)]
        assert (tmp_path / "calib.csv").read_text(encoding="utf-8").splitlines()[1:] == want


class TestAnalyze:
    def test_cka_csv(self, workdir, tmp_path, capsys):
        run_ok(["analyze", "--model", str(workdir / "model.d2m"),
                "--out-dir", str(tmp_path), "--cka"], capsys)
        lines = (tmp_path / "cka.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 1 + 16
        diag = {tuple(line.split(",")[:2]): float(line.split(",")[2])
                for line in lines[1:]}
        for i in range(4):
            assert diag[(str(i), str(i))] == pytest.approx(1.0, abs=1e-12)

    def test_sensitivity_and_frontier(self, workdir, tmp_path, capsys):
        run_ok(["analyze", "--model", str(workdir / "model.d2m"),
                "--calib", str(workdir / "calib.d2m"),
                "--out-dir", str(tmp_path),
                "--sensitivity", "--frontier", "0.25,0.75"], capsys)
        sens = (tmp_path / "sensitivity.csv").read_text(encoding="utf-8").splitlines()
        assert sens[0] == "layer,loss_increase,allocated_ratio"
        assert len(sens) == 2  # single layer
        front = (tmp_path / "frontier.csv").read_text(encoding="utf-8").splitlines()
        assert front[0] == "ratio,loss,params"
        assert len(front) == 3
        p_small = int(front[1].split(",")[2])
        p_large = int(front[2].split(",")[2])
        assert p_small < p_large

    def test_sensitivity_with_data_label_fisher_uses_calib_labels(self, workdir, tmp_path, capsys):
        """The scan hands --calib's labels to the data-label Fisher, as
        compress does."""
        run_ok(["analyze", "--model", str(workdir / "model.d2m"),
                "--calib", str(workdir / "calib.d2m"), "--out-dir", str(tmp_path),
                "--sensitivity", "--merge", "fisher", "--fisher-mode", "data-label"], capsys)
        sens = (tmp_path / "sensitivity.csv").read_text(encoding="utf-8").splitlines()
        assert sens[0] == "layer,loss_increase,allocated_ratio"
        assert len(sens) == 2

    def test_budget_is_weighted_by_layer_parameters(self, tmp_path, capsys):
        """Layers of hidden 64 and 16 hold expert parameters 4:1, so the
        allocated ratios meet the budget as a 4:1 weighted mean."""
        rng = np.random.default_rng(0)
        d, n = 32, 8
        layers = []
        for hidden in (64, 16):
            ups, downs = zip(*[(rng.normal(size=(hidden, d)) / np.sqrt(d),
                                rng.normal(size=(d, hidden)) / np.sqrt(hidden)) for _ in range(n)])
            layers.append(MoELayer(gate=rng.normal(size=(n, d)),
                                   weights={Role.UP: ups, Role.DOWN: downs}, top_k=2))
        model = MoEModel(layers=layers, head=rng.normal(size=(10, d)))
        x = rng.normal(size=(d, 256))
        save_model(tmp_path / "model.d2m", model)
        save_calibration(tmp_path / "calib.d2m", x, np.argmax(moe_forward_dense(model, x)[0], axis=0))
        run_ok(["analyze", "--model", str(tmp_path / "model.d2m"), "--calib", str(tmp_path / "calib.d2m"),
                "--out-dir", str(tmp_path), "--sensitivity", "--budget", "0.5"], capsys)
        rows = (tmp_path / "sensitivity.csv").read_text(encoding="utf-8").splitlines()[1:]
        ratios = [float(row.split(",")[2]) for row in rows]
        assert ratios[0] != ratios[1]
        assert (4 * ratios[0] + ratios[1]) / 5 == pytest.approx(0.5, abs=1e-9)

    def test_requires_an_action(self, workdir, tmp_path, capsys):
        rc = main(["analyze", "--model", str(workdir / "model.d2m"),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "choose at least one" in capsys.readouterr().err

    def test_sensitivity_without_calib(self, workdir, tmp_path):
        rc = main(["analyze", "--model", str(workdir / "model.d2m"),
                   "--out-dir", str(tmp_path), "--sensitivity"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("layer", ["5", "-1"])
    def test_cka_layer_out_of_range_is_config_error(self, workdir, tmp_path, capsys, layer):
        rc = main(["analyze", "--model", str(workdir / "model.d2m"),
                   "--out-dir", str(tmp_path), "--cka", "--layer", layer])
        assert rc == EXIT_CONFIG
        assert f"--layer {layer} outside [0, 0]" in capsys.readouterr().err
        assert not (tmp_path / "cka.csv").exists()

    def test_non_numeric_frontier_is_config_error(self, workdir, tmp_path, capsys):
        rc = main(["analyze", "--model", str(workdir / "model.d2m"),
                   "--calib", str(workdir / "calib.d2m"),
                   "--out-dir", str(tmp_path), "--sensitivity", "--frontier", "0.5,abc"])
        assert rc == EXIT_CONFIG
        assert "--frontier expects comma-separated ratios" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # rejected before any table is written

    @pytest.mark.parametrize("tables", [["--sensitivity"], ["--cka", "--frontier", "0.5", "--sensitivity"]],
                             ids=["sensitivity", "all-three"])
    @pytest.mark.parametrize("limits, message", [(["--budget", "2"], "infeasible budget 2.0"),
                                                 (["--p-min", "0"], "p_min must be in (0, 1]")],
                             ids=["budget", "p-min"])
    def test_bad_allocation_limits_fail_before_the_scan(self, workdir, tmp_path, capsys, monkeypatch,
                                                        tables, limits, message):
        """--budget and --p-min are checked before anything is calibrated or
        built, and the out-dir is not made."""
        calls = []
        for name in ("compute_layer_stats", "build_compressed_layer"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name,
                                lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
        rc = main(["analyze", "--model", str(workdir / "model.d2m"), "--calib", str(workdir / "calib.d2m"),
                   "--out-dir", str(tmp_path / "an"), *tables, *limits])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "an").exists()


GOOD_PARAMS = {"n": 4, "m": 768, "k_top": 2, "p": 0.5, "s": 0.4,
               "original_static": 3072.0, "compressed_static": 1689.6,
               "original_active": 1536.0, "compressed_active": 844.8,
               "literal_static": 1689.6, "literal_active": 1075.2, "literal_differs": True,
               "census_static": 1632, "census_active_per_token": 832.0}


def report_with_params(**overrides) -> str:
    """A complete report whose one layer record has `overrides` in its params."""
    layer = {"record": "layer", "layer": 0, "rank": {"up": 4, "down": 4}, "fisher_fallback": 0,
             "trimmed": [], "weighted_errors": {"up": [0.0], "down": [0.0]},
             "params": {**GOOD_PARAMS, **overrides}}
    lines = [{"record": "meta", "version": "1", "seed": 0}, {"record": "config"},
             {"record": "loss", "loss_before": 1.0, "loss_after": 1.0}, layer]
    return "".join(json.dumps(line) + "\n" for line in lines)


class TestReportCommand:
    def test_pretty_print(self, workdir, tmp_path, capsys):
        report = tmp_path / "run.jsonl"
        run_ok(["compress", "--model", str(workdir / "model.d2m"),
                "--calib", str(workdir / "calib.d2m"),
                "--out", str(tmp_path / "o.d2m"), "--report", str(report)], capsys)
        out = run_ok(["report", "--report", str(report)], capsys)
        assert "version=" in out and "layer 0:" in out and "timing" in out

    def test_hand_written_params_of_the_declared_types_are_read(self, tmp_path, capsys):
        """A float field holds any number, so a JSON integer there is read."""
        good = tmp_path / "good.jsonl"
        good.write_text(report_with_params(original_static=3072), encoding="utf-8")
        out = run_ok(["report", "--report", str(good)], capsys)
        assert "static 3072->1690 (census 1632)" in out

    def test_corrupt_report_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        assert main(["report", "--report", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("text,message", [
        ('{"record":"meta","version":"1","seed":0}\n{"record":"timing"}\n',
         "report line 2: timing record is missing field 'stage'"),
        ('{"record":"meta","version":"1","seed":0}\n[1,2]\n',
         "report line 2 is not a JSON object"),
        ('{"record":"meta","version":"1"}\n', "report line 1: meta record is missing field 'seed'"),
        ('{"record":"layer","layer":0,"fisher_fallback":0}\n',
         "report line 1: layer record is missing field 'rank'"),
        ('{"record":"timing","stage":"merge","seconds":"fast"}\n',
         "report line 1: malformed timing record"),
        (report_with_params(original_static="many"),
         "report line 4: malformed layer record (params.original_static must be float"),
        (report_with_params(census_static=1632.5),
         "report line 4: malformed layer record (params.census_static must be int"),
        (report_with_params(n=True), "report line 4: malformed layer record (params.n must be int"),
        (report_with_params(p=False), "report line 4: malformed layer record (params.p must be float"),
        (report_with_params(literal_differs=1),
         "report line 4: malformed layer record (params.literal_differs must be bool"),
        (report_with_params(census_active_per_token=None),
         "report line 4: malformed layer record (params.census_active_per_token must be float"),
    ], ids=["timing-without-stage", "not-an-object", "meta-without-seed", "layer-without-rank",
            "timing-seconds-not-a-number", "params-float-is-a-string", "params-int-is-a-float",
            "params-int-is-a-bool", "params-float-is-a-bool", "params-bool-is-an-int",
            "params-float-is-null"])
    def test_valid_json_with_missing_or_bad_fields_is_config_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text, encoding="utf-8")
        assert main(["report", "--report", str(bad)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestRejectedBeforeCompute:
    """Bad settings exit 2 before calibration starts and write no output."""

    @pytest.fixture(autouse=True)
    def no_calibration(self, monkeypatch):
        def calibrated(*args, **kwargs):
            raise AssertionError("calibration ran")
        monkeypatch.setattr("d2moe.pipeline.compute_layer_stats", calibrated)

    def compress(self, model_dir, tmp_path, *flags):
        out = tmp_path / "out.d2m"
        rc = main(["compress", "--model", str(model_dir / "model.d2m"),
                   "--calib", str(model_dir / "calib.d2m"),
                   "--out", str(out), "--report", str(tmp_path / "run.jsonl"), *flags])
        assert not out.exists() and not (tmp_path / "run.jsonl").exists()
        return rc

    @pytest.mark.parametrize("flags", [
        ["--set", "epsilon=nan"],
        ["--set", "epsilon=inf"],
        ["--damping", "inf"],
        ["--damping", "nan"],
        ["--ratio-delta", "nan"],
        ["--rank-mode", "fixed", "--rank", "4", "--ratio-delta", "nan"],
        ["--rank-mode", "lossless", "--ratio-delta", "inf"],
    ])
    def test_non_finite_float(self, workdir, tmp_path, capsys, flags):
        assert self.compress(workdir, tmp_path, *flags) == EXIT_CONFIG
        assert "must be a finite number" in capsys.readouterr().err

    def test_too_many_per_layer_ratios(self, workdir, tmp_path, capsys):
        rc = self.compress(workdir, tmp_path, "--set", "per_layer_ratios=0.5,0.1,0.9")
        assert rc == EXIT_CONFIG
        assert "3 per-layer ratios for 1 layers" in capsys.readouterr().err

    def test_too_few_per_layer_ratios(self, tmp_path, capsys):
        run_ok(["gen-fixture", "--seed", "0", *SMALL, "--layers", "2",
                "--out-model", str(tmp_path / "model.d2m"),
                "--out-calib", str(tmp_path / "calib.d2m")], capsys)
        rc = self.compress(tmp_path, tmp_path, "--set", "per_layer_ratios=0.5")
        assert rc == EXIT_CONFIG
        assert "1 per-layer ratios for 2 layers" in capsys.readouterr().err

    def test_trim_above_expert_count(self, workdir, tmp_path, capsys):
        assert self.compress(workdir, tmp_path, "--trim", "5") == EXIT_CONFIG
        assert "trim count 5 outside [0, 4]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--frontier", "0.5,1.5"], "delta_ratio must lie in (0, 1], got 1.5"),
        (["--frontier", "0.5", "--trim", "5"], "trim count 5 outside [0, 4]"),
    ], ids=["ratio-above-one", "trim-above-expert-count"])
    def test_bad_frontier_point(self, workdir, tmp_path, capsys, flags, message):
        """Every point of the frontier is checked before its one calibration."""
        rc = main(["analyze", "--model", str(workdir / "model.d2m"),
                   "--calib", str(workdir / "calib.d2m"), "--out-dir", str(tmp_path), *flags])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "frontier.csv").exists()


class TestHeapTrim:
    """Every command ends by handing the C heap's free pages back to the
    operating system, after a success and after an error exit alike."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_found_with_glibc(self):
        assert cli._HEAP_TRIM is not None

    def test_each_command_ends_with_one_trim(self, workdir, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_HEAP_TRIM", calls.append)
        calib = str(workdir / "calib.d2m")
        assert main(["eval", "--model", str(workdir / "model.d2m"), "--calib", calib]) == EXIT_OK
        assert calls == [0]
        assert main(["eval", "--model", str(tmp_path / "nope.d2m"), "--calib", calib]) == EXIT_IO
        assert calls == [0, 0]

    def test_runs_without_one(self, workdir, monkeypatch):
        monkeypatch.setattr(cli, "_HEAP_TRIM", None)
        assert main(["eval", "--model", str(workdir / "model.d2m"),
                     "--calib", str(workdir / "calib.d2m")]) == EXIT_OK


class TestExitCodes:
    def test_missing_model_file_is_io(self, workdir, tmp_path, capsys):
        rc = main(["eval", "--model", str(tmp_path / "nope.d2m"),
                   "--calib", str(workdir / "calib.d2m")])
        assert rc == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_truncated_container_is_io(self, workdir, tmp_path):
        junk = tmp_path / "junk.d2m"
        junk.write_bytes(b"\x00\x01\x02definitely not a container")
        rc = main(["eval", "--model", str(junk),
                   "--calib", str(workdir / "calib.d2m")])
        assert rc == EXIT_IO

    def eval_container(self, workdir, tmp_path, tensors):
        path = tmp_path / "hostile.d2m"
        container_save(path, tensors)
        return main(["eval", "--model", str(path), "--calib", str(workdir / "calib.d2m")])

    def test_unknown_kind_is_io(self, workdir, tmp_path, capsys):
        tensors = container_load(workdir / "model.d2m")
        tensors["meta/kind"] = np.array([[7.0]])
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "unknown container kind" in capsys.readouterr().err

    def test_compressed_kind_without_tensors_is_io(self, workdir, tmp_path, capsys):
        tensors = {"meta/kind": np.array([[1.0]]), "layer0/meta": np.array([[2.0, 4.0, 0.0]])}
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer0/base_up/kept" in capsys.readouterr().err

    def test_dense_model_without_experts_is_io(self, workdir, tmp_path, capsys):
        tensors = {name: a for name, a in container_load(workdir / "model.d2m").items()
                   if "/expert" not in name}
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer0/expert0/up" in capsys.readouterr().err

    def test_dense_experts_of_different_shapes_are_io(self, workdir, tmp_path, capsys):
        tensors = container_load(workdir / "model.d2m")
        tensors["layer0/expert1/down"] = tensors["layer0/expert1/down"][:, :-1]
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer 0: down weights" in capsys.readouterr().err

    def test_short_meta_row_is_io(self, workdir, tmp_path, capsys):
        """A dense container relabelled compressed has 2-value layer meta rows."""
        tensors = container_load(workdir / "model.d2m")
        tensors["meta/kind"] = np.array([[1.0]])
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer0/meta" in capsys.readouterr().err

    def test_two_row_calibration_labels_are_io(self, workdir, tmp_path, capsys):
        tensors = container_load(workdir / "calib.d2m")
        tensors["calib/labels"] = np.vstack([tensors["calib/labels"]] * 2)
        container_save(tmp_path / "calib.d2m", tensors)
        rc = main(["eval", "--model", str(workdir / "model.d2m"),
                   "--calib", str(tmp_path / "calib.d2m")])
        assert rc == EXIT_IO
        captured = capsys.readouterr()
        assert "'calib/labels' has shape" in captured.err
        assert "loss=" not in captured.out

    def test_non_integral_meta_is_io(self, workdir, tmp_path, capsys):
        tensors = container_load(workdir / "model.d2m")
        tensors["layer0/meta"] = np.array([[2.5, 4.0]])
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "non-integral" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def compressed(self, workdir, tmp_path_factory):
        path = tmp_path_factory.mktemp("compressed") / "c.d2m"
        assert main(["compress", "--model", str(workdir / "model.d2m"),
                     "--calib", str(workdir / "calib.d2m"), "--merge", "mean",
                     "--out", str(path),
                     "--report", str(path.with_suffix(".jsonl"))]) == EXIT_OK
        return container_load(path)

    def test_short_kept_ids_is_io(self, workdir, compressed, tmp_path, capsys):
        tensors = dict(compressed)
        tensors["layer0/base_up/kept_ids"] = tensors["layer0/base_up/kept_ids"][:, :-1]
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer 0" in capsys.readouterr().err

    def test_kept_id_beyond_int64_is_io(self, workdir, compressed, tmp_path, capsys):
        """An integral id no int64 holds is a ManifestError, not an OverflowError."""
        tensors = dict(compressed)
        ids = tensors["layer0/base_up/kept_ids"].copy()
        ids[0, -1] = 3.0 * 2.0 ** 600
        tensors["layer0/base_up/kept_ids"] = ids
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer0/base_up/kept_ids" in capsys.readouterr().err

    def test_short_delta_factor_is_io(self, workdir, compressed, tmp_path, capsys):
        tensors = dict(compressed)
        tensors["layer0/expert0/up_u"] = tensors["layer0/expert0/up_u"][:-1]
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer 0" in capsys.readouterr().err

    def test_narrow_gate_is_io(self, workdir, compressed, tmp_path, capsys):
        tensors = dict(compressed)
        tensors["layer0/gate"] = tensors["layer0/gate"][:, :-1]
        assert self.eval_container(workdir, tmp_path, tensors) == EXIT_IO
        assert "layer 0" in capsys.readouterr().err

    def huge_model(self, workdir, tmp_path):
        """The fixture model with expert and head weights scaled so the logits overflow."""
        tensors = container_load(workdir / "model.d2m")
        for name in tensors:
            if "/expert" in name or name == "head":
                tensors[name] = tensors[name] * 1e150
        container_save(tmp_path / "huge.d2m", tensors)
        return tmp_path / "huge.d2m"

    def compress_huge(self, workdir, tmp_path, merge):
        return main(["compress", "--model", str(self.huge_model(workdir, tmp_path)),
                     "--calib", str(workdir / "calib.d2m"), "--merge", merge,
                     "--out", str(tmp_path / "o.d2m"), "--report", str(tmp_path / "r.jsonl")])

    def test_overflowing_logits_in_fisher_are_numerical(self, workdir, tmp_path, capsys):
        assert self.compress_huge(workdir, tmp_path, "fisher") == EXIT_NUMERICAL
        assert "not finite" in capsys.readouterr().err

    def test_overflowing_logits_in_mean_compress_are_numerical(self, workdir, tmp_path, capsys):
        assert self.compress_huge(workdir, tmp_path, "mean") == EXIT_NUMERICAL
        assert "logits are not finite" in capsys.readouterr().err
        assert not (tmp_path / "o.d2m").exists() and not (tmp_path / "r.jsonl").exists()

    def test_overflowing_logits_in_eval_are_numerical(self, workdir, tmp_path, capsys):
        huge = self.huge_model(workdir, tmp_path)
        rc = main(["eval", "--model", str(huge), "--calib", str(workdir / "calib.d2m")])
        assert rc == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "logits are not finite" in captured.err
        assert "loss=" not in captured.out

    @pytest.mark.parametrize("argv", [["compress", "--merge", "fisher"],
                                      ["compress", "--merge", "fisher-scalar"],
                                      ["compress", "--merge", "mean"],
                                      ["calibrate"]],
                             ids=["fisher", "fisher-scalar", "mean", "calibrate"])
    def test_overflowing_calibration_is_numerical(self, tmp_path, capsys, argv):
        """Input coordinate 0 at 1e200, which no gate row or Up column reads,
        keeps the forward finite but overflows layer 0's Up Gram: every
        merge, and the calibrate command, exit 4 naming the layer and role."""
        fx = gen_fixture(seed=0, n_experts=4, d_model=16, hidden=24, tokens=192, rank_noise=2)
        layer = fx.model.layers[0]
        gate, up = layer.gate.copy(), layer.weights[Role.UP].copy()
        gate[:, 0] = up[:, :, 0] = 0.0
        save_model(tmp_path / "model.d2m", MoEModel(
            layers=[MoELayer(gate=gate, top_k=layer.top_k,
                             weights={Role.UP: up, Role.DOWN: layer.weights[Role.DOWN]})],
            head=fx.model.head))
        tokens = fx.tokens.copy()
        tokens[0] = 1e200
        save_calibration(tmp_path / "calib.d2m", tokens, fx.labels)
        files = ["--model", str(tmp_path / "model.d2m"), "--calib", str(tmp_path / "calib.d2m")]
        outputs = (["--out", str(tmp_path / "o.d2m"), "--report", str(tmp_path / "r.jsonl")]
                   if argv[0] == "compress" else ["--out", str(tmp_path / "c.csv")])
        rc = main([argv[0], *files, *outputs, *argv[1:]])
        assert rc == EXIT_NUMERICAL
        assert "layer 0 up: calibration Grams or Fisher sums overflow" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in ("o.d2m", "r.jsonl", "c.csv"))

    def test_numerical_error_maps_to_4(self, workdir, monkeypatch):
        def blow_up(*args, **kwargs):
            raise NumericalError("synthetic instability")
        monkeypatch.setattr("d2moe.cli.evaluate", blow_up)
        rc = main(["eval", "--model", str(workdir / "model.d2m"),
                   "--calib", str(workdir / "calib.d2m")])
        assert rc == EXIT_NUMERICAL


class TestExtremeContainers:
    """Valid containers whose weights overflow somewhere in the pipeline:
    every command exits with its documented code and one `error:` line,
    never an uncaught exception or a numpy warning (the suite turns
    warnings into errors), and a failed command writes no output.
    `x1e80` scales one layer's expert weights by 1e80: the forward stays
    finite, but the whitened Down deltas' Gram overflows in every build.
    `x1e200` has two layers and scales layer 0's: its output overflows
    inside the network, which the loss passes and the Grams report.
    `never-routed` has one layer of 3 experts, top-1, whose equal gate rows
    send every token to expert 0; experts 1 and 2 have finite Up weights of
    1.5e308 that no token reaches, so calibration stays finite, but the mean
    merge's base overflows, and the other merges' whitened Up deltas
    overflow their Gram."""

    COMMANDS = {
        "compress-fisher": ["compress", "--merge", "fisher"],
        "compress-mean": ["compress", "--merge", "mean"],
        "compress-frequency": ["compress", "--merge", "frequency"],
        "eval": ["eval"],
        "calibrate": ["calibrate"],
        "sensitivity": ["analyze", "--sensitivity"],
        "frontier": ["analyze", "--frontier", "0.5"],
    }
    WHITENED = (EXIT_NUMERICAL, "layer 0 down: whitened deltas overflow")
    UP_WHITENED = (EXIT_NUMERICAL, "layer 0 up: whitened deltas overflow")
    EXPECTED = {
        "x1e80": {"compress-fisher": WHITENED, "compress-mean": WHITENED,
                  "compress-frequency": WHITENED, "eval": (EXIT_OK, None),
                  "calibrate": (EXIT_OK, None), "sensitivity": WHITENED, "frontier": WHITENED},
        "x1e200": {"compress-fisher": (EXIT_NUMERICAL, "not finite"),
                   "compress-mean": (EXIT_NUMERICAL, "logits are not finite"),
                   "compress-frequency": (EXIT_NUMERICAL, "logits are not finite"),
                   "eval": (EXIT_NUMERICAL, "logits are not finite"),
                   "calibrate": (EXIT_NUMERICAL, "layer 0 down: calibration Grams or Fisher sums overflow"),
                   "sensitivity": (EXIT_NUMERICAL, "not finite"),
                   "frontier": (EXIT_NUMERICAL, "not finite")},
        "never-routed": {"compress-fisher": UP_WHITENED,
                         "compress-mean": (EXIT_NUMERICAL, "layer 0 up: merged base or deltas overflow"),
                         "compress-frequency": UP_WHITENED, "eval": (EXIT_OK, None),
                         "calibrate": (EXIT_OK, None), "sensitivity": UP_WHITENED,
                         "frontier": UP_WHITENED},
    }

    @pytest.fixture(scope="class")
    def containers(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("extreme")
        for name, n_layers, scale in (("x1e80", 1, 1e80), ("x1e200", 2, 1e200)):
            fx = gen_fixture(seed=0, layers=n_layers)
            first = fx.model.layers[0]
            layers = [MoELayer(gate=first.gate, top_k=first.top_k,
                               weights={role: w * scale for role, w in first.weights.items()}),
                      *fx.model.layers[1:]]
            save_model(root / f"{name}.d2m", MoEModel(layers=layers, head=fx.model.head))
            save_calibration(root / f"{name}-calib.d2m", fx.tokens, fx.labels)
        fx = gen_fixture(seed=0, n_experts=3, d_model=8, hidden=16, tokens=256, top_k=1)
        layer = fx.model.layers[0]
        up = layer.weights[Role.UP].copy()
        up[1:] = 1.5e308
        save_model(root / "never-routed.d2m", MoEModel(
            layers=[MoELayer(gate=np.repeat(layer.gate[:1], 3, axis=0), top_k=1,
                             weights={Role.UP: up, Role.DOWN: layer.weights[Role.DOWN]})],
            head=fx.model.head))
        save_calibration(root / "never-routed-calib.d2m", fx.tokens, fx.labels)
        return root

    @staticmethod
    def argv(containers, tmp_path, container, command) -> list[str]:
        argv = TestExtremeContainers.COMMANDS[command]
        outputs = {"compress": ["--out", str(tmp_path / "o.d2m"), "--report", str(tmp_path / "r.jsonl")],
                   "calibrate": ["--out", str(tmp_path / "c.csv")],
                   "analyze": ["--out-dir", str(tmp_path / "an")], "eval": []}[argv[0]]
        return [argv[0], "--model", str(containers / f"{container}.d2m"),
                "--calib", str(containers / f"{container}-calib.d2m"), *outputs, *argv[1:]]

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("container", list(EXPECTED))
    def test_exits_with_the_documented_code(self, containers, tmp_path, capsys, container, command):
        rc = main(self.argv(containers, tmp_path, container, command))
        code, message = self.EXPECTED[container][command]
        captured = capsys.readouterr()
        assert rc == code, captured.err
        written = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        if code == EXIT_OK:
            assert captured.err == ""
            assert written or "loss=" in captured.out
        else:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ") and message in captured.err
            assert written == []
            assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("container", list(EXPECTED))
    def test_a_failing_table_leaves_no_earlier_one(self, containers, tmp_path, capsys, container):
        """cka.csv is computed first and succeeds; the frontier then fails,
        and neither the table nor the out-dir is written."""
        argv = self.argv(containers, tmp_path, container, "frontier")
        code, message = self.EXPECTED[container]["frontier"]
        assert main([*argv, "--cka"]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("command", ["eval", "compress-mean"])
    def test_one_stderr_line_from_the_command(self, containers, tmp_path, command):
        """Run as a command, outside the suite's warning filter, a failure
        prints its `error:` line and nothing else: no numpy warning first."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "d2moe.cli",
                               *self.argv(containers, tmp_path, "x1e200", command)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: logits are not finite")


class TestInconsistentCompressedContainer:
    """A compressed container whose factors, trimmed row or head disagree
    with the rest of the file fails to load: eval exits 3."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """The default 8-expert fixture with two layers, compressed."""
        root = tmp_path_factory.mktemp("two-layer")
        assert main(["gen-fixture", "--seed", "0", "--layers", "2",
                     "--out-model", str(root / "model.d2m"), "--out-calib", str(root / "calib.d2m")]) == EXIT_OK
        assert main(["compress", "--model", str(root / "model.d2m"), "--calib", str(root / "calib.d2m"),
                     "--merge", "mean", "--out", str(root / "c.d2m"),
                     "--report", str(root / "c.jsonl")]) == EXIT_OK
        return root, container_load(root / "c.d2m")

    def eval_with(self, files, tmp_path, capsys, drop=(), replace=None):
        """Exit code and stderr of eval on the compressed file less the
        tensors named in `drop`, with those in `replace` swapped in."""
        root, tensors = files
        tensors = {name: a for name, a in tensors.items() if name not in drop}
        tensors.update(replace or {})
        container_save(tmp_path / "damaged.d2m", tensors)
        capsys.readouterr()
        rc = main(["eval", "--model", str(tmp_path / "damaged.d2m"), "--calib", str(root / "calib.d2m")])
        return rc, capsys.readouterr().err

    def test_intact_file_loads(self, files, tmp_path, capsys):
        assert self.eval_with(files, tmp_path, capsys)[0] == EXIT_OK

    def test_head_too_narrow(self, files, tmp_path, capsys):
        rc, err = self.eval_with(files, tmp_path, capsys, replace={"head": np.ones((10, 5))})
        assert rc == EXIT_IO
        assert "head cols 5 != final layer output dim 32" in err

    def test_expert_without_factors_missing_from_trimmed_row(self, files, tmp_path, capsys):
        drop = [f"layer0/expert5/{name}" for name in ("up_u", "up_v", "down_u", "down_v")]
        rc, err = self.eval_with(files, tmp_path, capsys, drop=drop)
        assert rc == EXIT_IO
        assert "trimmed row [] != experts without factors [5]" in err

    def test_expert_with_only_down_factors(self, files, tmp_path, capsys):
        rc, err = self.eval_with(files, tmp_path, capsys, drop=["layer0/expert2/up_u", "layer0/expert2/up_v"])
        assert rc == EXIT_IO
        assert "layer0/expert2/up_u" in err

    def test_trimmed_row_names_an_expert_with_factors(self, files, tmp_path, capsys):
        rc, err = self.eval_with(files, tmp_path, capsys, replace={"layer0/meta": np.array([[2.0, 8.0, 1.0]]),
                                                                  "layer0/trimmed": np.array([[99.0]])})
        assert rc == EXIT_IO
        assert "trimmed row [99] != experts without factors []" in err
