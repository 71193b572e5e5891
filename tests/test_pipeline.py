"""End-to-end pipeline tests: calibration, compression, evaluation, frontier.

Determinism is the load-bearing property here: two runs with the same config
must produce byte-identical reports (timing records aside) and bit-equal
forward outputs, within one process and across processes. Everything else is
checked against either closed-form values (uniform logits -> ln C) or the
dense model evaluated through the same public entry points.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2moe import linalg, moe, pipeline
from d2moe.analysis import layer_sensitivity_scan
from d2moe.cli import EXIT_OK, main
from d2moe.config import CompressionConfig
from d2moe.errors import ConfigError, ParameterError, ShapeError
from d2moe.fixtures import gen_fixture
from d2moe.linalg import blas_threads
from d2moe.moe import MoELayer, MoEModel, Role, moe_forward_dense, silu
from d2moe.pipeline import (
    EvalResult,
    compress,
    compute_layer_stats,
    evaluate,
    ratio_frontier,
)
from d2moe.pruning import dynamic_mask
from d2moe.report import dumps_report, read_report, strip_timings
from d2moe.runtime import compressed_forward, compressed_model_forward


def small_fixture(seed=0, tokens=192):
    return gen_fixture(seed, n_experts=4, d_model=16, hidden=24,
                       tokens=tokens, rank_noise=2)


def report_lines_sans_timings(report):
    return [line for line in dumps_report(report).splitlines()
            if '"record":"timing"' not in line]


class TestEvaluate:
    def test_uniform_logits_give_log_num_classes(self):
        """Zero head -> identical logits -> loss is exactly ln(C)."""
        fx = small_fixture()
        model = MoEModel(layers=fx.model.layers, head=np.zeros_like(fx.model.head))
        res = evaluate(model, fx.tokens, fx.labels)
        assert res.loss == pytest.approx(np.log(model.head.shape[0]), abs=1e-12)

    def test_perplexity_is_exp_loss(self):
        fx = small_fixture()
        res = evaluate(fx.model, fx.tokens, fx.labels)
        assert res.perplexity == pytest.approx(np.exp(res.loss), rel=1e-15)
        assert res.n_tokens == fx.n_tokens

    def test_dense_loss_independent_of_batch_size(self):
        """Dense forward is per-token, so batching must not change the mean."""
        fx = small_fixture()
        a = evaluate(fx.model, fx.tokens, fx.labels, batch_size=7)
        b = evaluate(fx.model, fx.tokens, fx.labels, batch_size=512)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)

    def test_label_count_mismatch(self):
        fx = small_fixture()
        with pytest.raises(ShapeError, match="labels"):
            evaluate(fx.model, fx.tokens, fx.labels[:-1])

    def test_zero_tokens_rejected(self):
        fx = small_fixture()
        with pytest.raises(ShapeError, match="degenerate"):
            evaluate(fx.model, fx.tokens[:, :0], fx.labels[:0])

    def test_bad_batch_size_rejected(self):
        fx = small_fixture()
        with pytest.raises(ParameterError, match="batch_size"):
            evaluate(fx.model, fx.tokens, fx.labels, batch_size=0)

    def test_out_of_range_labels_rejected(self):
        fx = small_fixture()
        bad = fx.labels.copy()
        bad[0] = 10_000
        with pytest.raises(ParameterError, match="labels must lie"):
            evaluate(fx.model, fx.tokens, bad)


    @pytest.mark.parametrize("bad", [0.5, "a"])
    def test_non_integral_labels_rejected(self, bad):
        """evaluate and compress share one label check: a fractional or
        non-numeric label is a ParameterError, not an IndexError."""
        fx = small_fixture()
        labels = fx.labels.astype(object if isinstance(bad, str) else float)
        labels[5] = bad
        with pytest.raises(ParameterError, match="integral"):
            evaluate(fx.model, fx.tokens, labels)
        with pytest.raises(ParameterError, match="integral"):
            compress(CompressionConfig(merge_method="mean"), fx.model, fx.tokens, labels=labels)

    def test_integral_float_labels_accepted(self):
        fx = small_fixture()
        want = evaluate(fx.model, fx.tokens, fx.labels).loss
        assert evaluate(fx.model, fx.tokens, fx.labels.astype(float)).loss == want


class TestCompress:
    def test_report_losses_match_public_evaluate(self):
        fx = small_fixture()
        cfg = CompressionConfig(delta_ratio=0.5, sparsity=0.25)
        compressed, rep = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        dense = evaluate(fx.model, fx.tokens, fx.labels, batch_size=cfg.batch_size)
        comp = evaluate(compressed, fx.tokens, fx.labels, batch_size=cfg.batch_size)
        assert rep.loss_before == pytest.approx(dense.loss, abs=1e-12)
        assert rep.loss_after == pytest.approx(comp.loss, abs=1e-12)
        assert rep.config == cfg.to_dict()
        assert rep.seed == cfg.seed

    def test_two_runs_identical(self):
        """Same config, same inputs -> same report bytes and same logits."""
        fx = small_fixture()
        cfg = CompressionConfig(sparsity=0.4)
        m1, r1 = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        m2, r2 = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        assert report_lines_sans_timings(r1) == report_lines_sans_timings(r2)
        y1, _ = compressed_model_forward(m1, fx.tokens[:, :64])
        y2, _ = compressed_model_forward(m2, fx.tokens[:, :64])
        np.testing.assert_array_equal(y1, y2)

    def test_separate_processes_write_identical_bytes(self, tmp_path):
        """`d2moe compress --merge fisher` and `--merge mean` and `d2moe
        analyze --sensitivity` on the default fixture, in two interpreters
        with different hash seeds and OpenBLAS thread counts, write the same
        containers, the same reports once timing records are removed, and
        the same sensitivity.csv."""
        assert main(["gen-fixture", "--out-model", str(tmp_path / "model.d2m"),
                     "--out-calib", str(tmp_path / "calib.d2m")]) == EXIT_OK
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from d2moe.cli import main\n"
            "inputs = ['--model', sys.argv[1], '--calib', sys.argv[2]]\n"
            "for merge in ('fisher', 'mean'):\n"
            "    assert main(['compress', *inputs, '--merge', merge,\n"
            "                 '--out', merge + '.d2m', '--report', merge + '.jsonl']) == 0\n"
            "assert main(['analyze', *inputs, '--sensitivity', '--out-dir', '.']) == 0\n"
        )
        outputs = []
        for hash_seed, blas_threads in (("1", "1"), ("2", "2")):
            out = tmp_path / f"run{hash_seed}"
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed,
                       OPENBLAS_NUM_THREADS=blas_threads)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "model.d2m"), str(tmp_path / "calib.d2m")],
                cwd=out, env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            files = {"sensitivity.csv": (out / "sensitivity.csv").read_bytes()}
            for merge in ("fisher", "mean"):
                files[f"{merge}.d2m"] = (out / f"{merge}.d2m").read_bytes()
                report = strip_timings(read_report(out / f"{merge}.jsonl"))
                files[f"{merge}.jsonl"] = dumps_report(report).encode()
            outputs.append({name: hashlib.sha256(data).hexdigest() for name, data in files.items()})
        assert outputs[0] == outputs[1]

    def test_runs_on_one_blas_thread_and_restores_the_counts(self, monkeypatch):
        """Every pass inside compress (the dense calibration capture and the
        compressed pass over the calibration tokens) sees one OpenBLAS
        thread, and the counts in effect before the call are back once it
        returns, so the standalone forwards keep their threads."""
        def counts():
            return [get() for get, _ in linalg._BLAS_CONTROLS]

        seen = []

        def spy(real):
            def wrapped(*args, **kwargs):
                seen.append(counts())
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(pipeline, "_forward_chunks", spy(pipeline._forward_chunks))
        monkeypatch.setattr(pipeline, "capture_calibration", spy(pipeline.capture_calibration))
        fx = small_fixture()
        with blas_threads(2):
            before = counts()
            compress(CompressionConfig(), fx.model, fx.tokens, labels=fx.labels)
            assert counts() == before
        assert len(seen) == 2
        assert all(c == [1] * len(before) for c in seen)

    def test_lossless_config_preserves_loss(self):
        fx = small_fixture()
        cfg = CompressionConfig(rank_mode="lossless", sparsity=0.0)
        _, rep = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        assert abs(rep.loss_after - rep.loss_before) < 1e-9

    def test_no_fisher_fallback_on_healthy_fixture(self):
        fx = small_fixture()
        _, rep = compress(CompressionConfig(), fx.model, fx.tokens, labels=fx.labels)
        assert all(rec.fisher_fallback == 0 for rec in rep.layers)

    def test_trim_drops_rarest_experts_and_costs_loss(self):
        fx = small_fixture()
        base_cfg = CompressionConfig(delta_ratio=0.5)
        _, rep0 = compress(base_cfg, fx.model, fx.tokens, labels=fx.labels)
        cfg = CompressionConfig(delta_ratio=0.5, trim=2)
        _, rep = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        stats, _ = compute_layer_stats(fx.model, fx.tokens[:, :base_cfg.calib_samples],
                                       base_cfg, labels=fx.labels)
        for rec, st in zip(rep.layers, stats):
            assert len(rec.trimmed) == 2
            # trimmed experts are the least routed ones
            order = np.argsort(st.frequency, kind="stable")
            assert set(rec.trimmed) == set(int(i) for i in order[:2])
        assert rep.loss_after >= rep0.loss_after

    @pytest.mark.parametrize("labelled", [True, False])
    def test_active_census_counts_each_layer_on_its_own_input(self, labelled):
        """With trimmed experts the factor term depends on routing, so every
        layer's census must be counted on the input that layer sees in the
        compressed forward of the first batch_size calibration tokens. The
        oracle chains that forward and counts active base columns and the
        routed experts' factor entries by hand."""
        fx = gen_fixture(0, n_experts=6, d_model=16, hidden=24, layers=3,
                         tokens=192, rank_noise=2)
        cfg = CompressionConfig(merge_method="mean", sparsity=0.4, trim=3, batch_size=64)
        compressed, rep = compress(cfg, fx.model, fx.tokens, labels=fx.labels if labelled else None)
        h = fx.tokens[:, :cfg.batch_size]
        for layer, rec in zip(compressed.layers, rep.layers):
            up, down = layer.base[Role.UP], layer.base[Role.DOWN]
            active_up = dynamic_mask(up, h[up.kept_col_ids, :])
            hid = silu(up.kept[:, np.searchsorted(up.kept_col_ids, active_up)] @ h[active_up, :])
            active_down = dynamic_mask(down, hid[down.kept_col_ids, :])
            factors = 0
            for t in range(h.shape[1]):
                logits = layer.gate @ h[:, t]
                for i in sorted(range(layer.n_experts), key=lambda e: (-logits[e], e))[:layer.top_k]:
                    if i in layer.deltas:
                        factors += sum(f.u.size + f.v.size for f in layer.deltas[i].values())
            want = layer.hidden * active_up.size + layer.d_out * active_down.size + factors / h.shape[1]
            assert len(rec.trimmed) == 3
            assert rec.params.census_active_per_token == want
            h, _ = compressed_forward(layer, h)

    def test_data_label_fisher_requires_labels(self):
        fx = small_fixture()
        cfg = CompressionConfig(fisher_mode="data-label")
        with pytest.raises(ConfigError, match="labels"):
            compress(cfg, fx.model, fx.tokens, labels=None)

    def test_without_labels_losses_are_zero(self):
        fx = small_fixture()
        _, rep = compress(CompressionConfig(), fx.model, fx.tokens)
        assert rep.loss_before == 0.0 and rep.loss_after == 0.0

    def test_calib_samples_truncates_token_stream(self):
        """loss_before must come from the truncated calibration slice."""
        fx = small_fixture(tokens=256)
        cfg = CompressionConfig(calib_samples=96)
        _, rep = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        want = evaluate(fx.model, fx.tokens[:, :96], fx.labels[:96],
                        batch_size=cfg.batch_size)
        assert rep.loss_before == pytest.approx(want.loss, abs=1e-12)


class TestOneDensePass:
    """`compress`, `compute_layer_stats` (the `calibrate` command) and the
    sensitivity scan run the dense model over the calibration tokens once:
    every token row that `routed_forward` sends through a dense layer is
    counted, whichever module calls it."""

    @staticmethod
    def dense_columns(monkeypatch) -> list[int]:
        real = moe.routed_forward
        routed = []

        def counting(layer, x, fill_slots):
            if isinstance(layer, MoELayer):
                routed.append(x.shape[0])
            return real(layer, x, fill_slots)

        for name, module in list(sys.modules.items()):
            if name.startswith("d2moe") and getattr(module, "routed_forward", None) is real:
                monkeypatch.setattr(module, "routed_forward", counting)
        return routed

    @staticmethod
    def fixture():
        return gen_fixture(0, n_experts=4, d_model=16, hidden=24, layers=3,
                           tokens=192, rank_noise=2)

    @pytest.mark.parametrize("merge", ["fisher", "mean"])
    def test_compress(self, monkeypatch, merge):
        fx = self.fixture()
        cfg = CompressionConfig(merge_method=merge, calib_samples=160)
        routed = self.dense_columns(monkeypatch)
        compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        assert sum(routed) == len(fx.model.layers) * 160

    @pytest.mark.parametrize("merge", ["fisher", "mean"])
    def test_compute_layer_stats(self, monkeypatch, merge):
        fx = self.fixture()
        routed = self.dense_columns(monkeypatch)
        compute_layer_stats(fx.model, fx.tokens, CompressionConfig(merge_method=merge),
                            labels=fx.labels)
        assert sum(routed) == len(fx.model.layers) * fx.n_tokens

    @pytest.mark.parametrize("merge", ["fisher", "mean"])
    def test_sensitivity_scan(self, monkeypatch, merge):
        """One stats pass over every layer; each of the L probes then
        evaluates a hybrid whose other L - 1 layers are dense."""
        fx = self.fixture()
        n_layers = len(fx.model.layers)
        routed = self.dense_columns(monkeypatch)
        layer_sensitivity_scan(fx.model, fx.tokens, fx.labels, probe_ratio=0.5,
                               config=CompressionConfig(merge_method=merge, sparsity=0.0))
        assert sum(routed) == (n_layers + n_layers * (n_layers - 1)) * fx.n_tokens


class TestRatioFrontier:
    def test_stored_params_grow_with_ratio_and_quality_recovers(self):
        fx = small_fixture()
        cfg = CompressionConfig(sparsity=0.0)
        pts = ratio_frontier(fx.model, fx.tokens, fx.labels, cfg,
                             ratios=(0.125, 0.5, 1.0))
        ratios = [p[0] for p in pts]
        stored = [p[2] for p in pts]
        assert ratios == [0.125, 0.5, 1.0]
        assert stored[0] < stored[1] < stored[2]
        assert pts[-1][1] <= pts[0][1] + 1e-9
