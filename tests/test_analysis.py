"""Diagnostics tests: CKA, energy retention, sensitivity scan (which lives
in `pipeline`, on its one calibration), allocation.

CKA is verified against the textbook trace expression with an explicit
centering matrix rather than the summed elementwise products the module
uses internally.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from d2moe import pipeline
from d2moe.analysis import RatioAllocation, allocate_adaptive_ratios, cka, energy_retention
from d2moe.config import CompressionConfig
from d2moe.errors import ConfigError, DegenerateInputError, ParameterError, ShapeError
from d2moe.fixtures import gen_fixture
from d2moe.linalg import blas_threads
from d2moe.moe import MoELayer, MoEModel, Role, moe_forward_dense
from d2moe.pipeline import evaluate, layer_sensitivity_scan


def cka_oracle(w1, w2):
    n = w1.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    k, l = w1 @ w1.T, w2 @ w2.T
    num = np.trace(h @ k @ h @ l)
    den = math.sqrt(np.trace(h @ k @ h @ k) * np.trace(h @ l @ h @ l))
    return float(num / den)


class TestCka:
    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w1 = rng.normal(size=(7, 5))
            w2 = rng.normal(size=(7, 4))
            assert cka(w1, w2) == pytest.approx(cka_oracle(w1, w2), rel=1e-10)

    def test_self_similarity_is_exactly_one(self):
        w = np.random.default_rng(1).normal(size=(6, 6))
        assert cka(w, w) == 1.0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(2)
        w1, w2 = rng.normal(size=(8, 5)), rng.normal(size=(8, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert cka(w1 @ q, w2) == pytest.approx(cka(w1, w2), abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        w1, w2 = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        assert cka(3.0 * w1, w2) == pytest.approx(cka(w1, w2), abs=1e-10)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = cka(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
            assert 0.0 <= v <= 1.0

    def test_error_paths(self):
        with pytest.raises(ShapeError):
            cka(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(DegenerateInputError):
            cka(np.ones((3, 2)), np.random.default_rng(5).normal(size=(3, 2)))


class TestEnergyRetention:
    def test_exact_fractions(self):
        assert energy_retention([2.0, 1.0], 1) == pytest.approx(0.8)
        assert energy_retention([2.0, 1.0], 0) == 0.0
        assert energy_retention([2.0, 1.0], 2) == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            energy_retention([1.0, 2.0], 1)  # not descending
        with pytest.raises(ParameterError):
            energy_retention([2.0, -1.0], 1)
        with pytest.raises(ParameterError):
            energy_retention([2.0, 1.0], 3)
        with pytest.raises(DegenerateInputError):
            energy_retention([0.0, 0.0], 1)

    @pytest.mark.parametrize("sigma", [[1.0, np.nan], [np.inf, 1.0], [np.nan, np.nan]])
    def test_rejects_non_finite(self, sigma):
        """These used to return NaN."""
        with pytest.raises(ParameterError, match="finite"):
            energy_retention(sigma, 1)


def make_scan_model(seed=6, d=6, hidden=8, n_experts=4, classes=5, tokens=256):
    """Layer 0 has identical experts (zero deltas); layer 1 diverse ones."""
    rng = np.random.default_rng(seed)
    shared = {Role.UP: rng.normal(size=(hidden, d)) / np.sqrt(d),
              Role.DOWN: rng.normal(size=(d, hidden)) / np.sqrt(hidden)}
    uniform = MoELayer(
        gate=rng.normal(size=(n_experts, d)),
        weights={r: np.stack([w] * n_experts) for r, w in shared.items()},
        top_k=2)
    gate = rng.normal(size=(n_experts, d))
    ups, downs = zip(*[(rng.normal(size=(hidden, d)) / np.sqrt(d),
                        rng.normal(size=(d, hidden)) / np.sqrt(hidden)) for _ in range(n_experts)])
    diverse = MoELayer(gate=gate, weights={Role.UP: ups, Role.DOWN: downs}, top_k=2)
    model = MoEModel(layers=[uniform, diverse], head=rng.normal(size=(classes, d)))
    x = rng.normal(size=(d, tokens))
    logits, _ = moe_forward_dense(model, x)
    return model, x, np.argmax(logits, axis=0)


class TestSensitivityScan:
    def test_zero_delta_layer_scores_zero(self):
        model, x, labels = make_scan_model()
        prof = layer_sensitivity_scan(model, x, labels, probe_ratio=0.3)
        assert len(prof.increases) == 2
        assert abs(prof.increases[0]) <= 1e-9
        assert prof.increases[1] > max(prof.increases[0], 1e-5)

    def test_baseline_matches_direct_eval(self):
        model, x, labels = make_scan_model(seed=7)
        prof = layer_sensitivity_scan(model, x, labels, probe_ratio=0.5)
        direct = evaluate(model, x, labels, batch_size=128).loss
        assert prof.baseline_loss == pytest.approx(direct, rel=1e-12)
        assert prof.probe_config["delta_ratio"] == 0.5

    def test_probe_ratio_validated(self):
        model, x, labels = make_scan_model(seed=8)
        with pytest.raises(ParameterError):
            layer_sensitivity_scan(model, x, labels, probe_ratio=0.0)

    @pytest.mark.parametrize("merge", ["mean", "fisher"])
    def test_reads_the_first_calib_samples_tokens(self, merge):
        """Like `compress` and the frontier, the scan calibrates and probes
        on the first calib_samples tokens only."""
        model, x, labels = make_scan_model(seed=9, tokens=600)
        cfg = CompressionConfig(merge_method=merge, sparsity=0.0, calib_samples=200)
        whole = layer_sensitivity_scan(model, x, labels, probe_ratio=0.5, config=cfg)
        first = layer_sensitivity_scan(model, x[:, :200], labels[:200], probe_ratio=0.5, config=cfg)
        assert whole.baseline_loss == first.baseline_loss
        assert whole.increases == first.increases

    @pytest.mark.parametrize("merge,batch_size", [("mean", 50), ("fisher", 64), ("mean", 192)])
    def test_increases_are_those_of_the_whole_hybrids(self, merge, batch_size):
        """The scan carries each dense layer's output forward; the path it
        replaced stays here as the oracle: every probe evaluated as the dense
        model with only that layer compressed, over the same batches."""
        fx = gen_fixture(0, n_experts=4, d_model=16, hidden=24, layers=3, tokens=192, rank_noise=2)
        cfg = CompressionConfig(merge_method=merge, sparsity=0.0, batch_size=batch_size)
        profile = layer_sensitivity_scan(fx.model, fx.tokens, fx.labels, probe_ratio=0.5, config=cfg)
        cfg = replace(cfg, rank_mode="ratio", delta_ratio=0.5)
        with blas_threads(1):
            stats, x, labels, baseline, _ = pipeline._calibrate([cfg], fx.model, fx.tokens, fx.labels)
            want = []
            for l, layer in enumerate(fx.model.layers):
                probe = pipeline.build_compressed_layer(layer, stats[l], cfg, l).layer
                hybrid = MoEModel(layers=[*fx.model.layers[:l], probe, *fx.model.layers[l + 1:]],
                                  head=fx.model.head)
                losses, _ = pipeline._forward_chunks(hybrid, x, labels, batch_size)
                want.append(pipeline._batch_mean(losses, batch_size) - baseline)
        assert profile.baseline_loss == baseline
        assert profile.increases == tuple(want)

    def test_trim_beyond_the_experts_fails_before_calibrating(self, monkeypatch):
        model, x, labels = make_scan_model(seed=10)
        calls, real = [], pipeline.compute_layer_stats

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_layer_stats", counting)
        with pytest.raises(ConfigError, match="trim count 5"):
            layer_sensitivity_scan(model, x, labels, probe_ratio=0.5,
                                   config=CompressionConfig(merge_method="mean", trim=5))
        assert calls == []


class TestAllocation:
    def test_hand_example(self):
        alloc = allocate_adaptive_ratios([1.0, 2.0, 3.0], budget=0.5, p_min=0.1)
        np.testing.assert_allclose(alloc.ratios, [0.25, 0.5, 0.75], atol=1e-9)

    def test_budget_preserved(self):
        rng = np.random.default_rng(9)
        sens = rng.uniform(0.1, 5.0, size=6)
        alloc = allocate_adaptive_ratios(sens, budget=0.4, p_min=0.05)
        assert alloc.realized_ratio == pytest.approx(0.4, abs=1e-9)

    def test_weighted_budget_preserved(self):
        alloc = allocate_adaptive_ratios([1.0, 4.0], budget=0.5, p_min=0.05,
                                         layer_params=[100.0, 300.0])
        assert alloc.realized_ratio == pytest.approx(0.5, abs=1e-9)
        assert alloc.layer_params == (100.0, 300.0)

    def test_monotone_in_sensitivity(self):
        sens = [0.5, 3.0, 1.0, 2.0]
        alloc = allocate_adaptive_ratios(sens, budget=0.6, p_min=0.1)
        order = np.argsort(sens)
        ratios = np.asarray(alloc.ratios)[order]
        assert np.all(np.diff(ratios) >= -1e-12)

    def test_floor_and_negative_clamp(self):
        alloc = allocate_adaptive_ratios([-0.3, 0.0, 5.0], budget=0.4, p_min=0.1)
        assert alloc.ratios[0] == 0.1
        assert alloc.ratios[1] == 0.1

    def test_equal_sensitivities_give_uniform(self):
        alloc = allocate_adaptive_ratios([2.0, 2.0, 2.0], budget=0.7, p_min=0.05)
        assert alloc.ratios == (0.7, 0.7, 0.7)

    def test_infeasible_budgets(self):
        with pytest.raises(ParameterError):
            allocate_adaptive_ratios([1.0, 2.0], budget=0.05, p_min=0.1)
        with pytest.raises(ParameterError):
            allocate_adaptive_ratios([1.0, 2.0], budget=1.2, p_min=0.1)
        with pytest.raises(ParameterError):
            # zero-sensitivity layer pins half the mass at p_min
            allocate_adaptive_ratios([0.0, 1.0], budget=0.99, p_min=0.1)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            allocate_adaptive_ratios([1.0], budget=0.5, p_min=0.0)
        with pytest.raises(ParameterError):
            allocate_adaptive_ratios([1.0, 2.0], budget=0.5, p_min=0.1,
                                     layer_params=[1.0, -2.0])
        with pytest.raises(ShapeError):
            allocate_adaptive_ratios(np.ones((2, 2)), budget=0.5)

    @pytest.mark.parametrize("sens", [[0.1, np.nan], [np.inf, 0.2], [-np.inf, 0.2]])
    def test_rejects_non_finite_sensitivities(self, sens):
        """[0.1, nan] used to give the ratios (1.0, nan)."""
        with pytest.raises(ParameterError, match="finite"):
            allocate_adaptive_ratios(sens, 0.5)

    @pytest.mark.parametrize("params", [[1.0, np.inf], [np.nan, 1.0]])
    def test_rejects_non_finite_layer_params(self, params):
        """[1, inf] used to give (0.05, 0.05), far below the 0.5 budget."""
        with pytest.raises(ParameterError, match="finite"):
            allocate_adaptive_ratios([0.1, 0.2], 0.5, layer_params=params)
