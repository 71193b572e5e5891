"""Diagnostics tests: CKA, energy retention, sensitivity scan, allocation.

CKA is verified against the textbook trace expression with an explicit
centering matrix rather than the summed elementwise products the module
uses internally.
"""

import math

import numpy as np
import pytest

from d2moe.analysis import (
    RatioAllocation,
    allocate_adaptive_ratios,
    cka,
    energy_retention,
    layer_sensitivity_scan,
)
from d2moe.errors import DegenerateInputError, ParameterError, ShapeError
from d2moe.moe import MoELayer, MoEModel, Role, moe_forward_dense
from d2moe.pipeline import evaluate


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
        experts=[{r: shared[r].copy() for r in shared} for _ in range(n_experts)],
        top_k=2)
    diverse = MoELayer(
        gate=rng.normal(size=(n_experts, d)),
        experts=[{Role.UP: rng.normal(size=(hidden, d)) / np.sqrt(d),
                  Role.DOWN: rng.normal(size=(d, hidden)) / np.sqrt(hidden)}
                 for _ in range(n_experts)],
        top_k=2)
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
