"""Acceptance suite: ten end-to-end checks with stated tolerances and budgets.

Each check prints exactly one pass/fail line (run with -s to see them on
success) and enforces its runtime budget. Oracles are coded independently
of the library paths they judge: objectives are re-summed from scratch,
selections re-derived with python sorts, parameter counts re-counted from
the actual arrays, and gradients compared against central differences.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from scipy.linalg import qr, svdvals
from scipy.special import logsumexp

from d2moe.analysis import allocate_adaptive_ratios, cka, energy_retention
from d2moe.config import CompressionConfig
from d2moe.container import (
    ALIGNMENT,
    MAGIC,
    container_load,
    container_save,
    load_any,
    save_calibration,
    save_compressed_model,
    save_model,
)
from d2moe.errors import (
    BadMagicError,
    ManifestError,
    NonFinitePayloadError,
    OverlappingPayloadError,
    TruncatedPayloadError,
)
from d2moe.factorize import weighted_error, whitened_factors
from d2moe.fixtures import gen_fixture
from d2moe.merge import weighted_merge
from d2moe.moe import MoELayer, MoEModel, Role, _chained_forward, moe_forward_dense, silu
from d2moe.pipeline import (build_compressed_layer, compress, compute_layer_stats, evaluate,
                            layer_sensitivity_scan)
from d2moe.pruning import static_prune, dynamic_mask
from d2moe.runtime import compressed_model_forward, trim_deltas
from fisher_oracle import backward_logloss, static_metric, vanilla_svd_compress


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  ({time.perf_counter() - t0:6.2f}s) {name}")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < budget_s else "FAIL"
    print(f"criterion {number:02d} {verdict}  ({dt:6.2f}s of {budget_s:.0f}s) {name}")
    assert dt < budget_s, f"{name}: runtime {dt:.2f}s exceeded {budget_s:.0f}s budget"


# results shared between the default-fixture checks; built once on demand
_CACHE: dict = {}


def default_runs():
    if "fx" not in _CACHE:
        fx = gen_fixture(0)
        runs = {}
        for method in ("fisher", "frequency", "mean"):
            cfg = CompressionConfig(merge_method=method, delta_ratio=0.5, sparsity=0.4)
            runs[method] = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        _CACHE["fx"] = fx
        _CACHE["runs"] = runs
    return _CACHE["fx"], _CACHE["runs"]


def test_criterion_01_lossless_identity():
    """Any merge + full-rank factors + zero sparsity reproduces the dense model."""
    cases = [
        (1, 2, 8, 12, 1, "mean"),
        (2, 4, 16, 24, 2, "fisher"),
        (3, 5, 24, 20, 2, "frequency"),
        (4, 8, 32, 40, 2, "fisher-scalar"),
        (5, 8, 64, 48, 3, "fisher"),
    ]
    with criterion(1, "lossless identity across merge methods", 30.0):
        worst = 0.0
        for seed, n, d, hidden, top_k, method in cases:
            fx = gen_fixture(seed, n_experts=n, d_model=d, hidden=hidden,
                             top_k=top_k, tokens=128, rank_noise=2)
            cfg = CompressionConfig(merge_method=method, rank_mode="lossless",
                                    sparsity=0.0)
            compressed, _ = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
            dense, _ = moe_forward_dense(fx.model, fx.tokens)
            approx, _ = compressed_model_forward(compressed, fx.tokens)
            dev = np.linalg.norm(approx - dense, axis=0)
            ref = np.linalg.norm(dense, axis=0)
            worst = max(worst, float(np.max(dev / np.maximum(ref, 1e-300))))
        assert worst <= 1e-7, f"max per-token relative deviation {worst:.3e}"


def test_criterion_02_fisher_weighted_base_minimizes_objective():
    """The elementwise weighted base beats 1000 perturbed rivals per instance."""
    with criterion(2, "weighted-merge objective minimizer", 20.0):
        rng = np.random.default_rng(202)
        violations = 0
        for inst in range(20):
            n_ex = int(rng.integers(2, 6))
            m, n = int(rng.integers(4, 13)), int(rng.integers(4, 13))
            weights = [rng.normal(size=(m, n)) for _ in range(n_ex)]
            if inst % 7 == 3:  # equal information must reduce to the plain mean
                fishers = [np.full((m, n), float(rng.uniform(0.5, 2.0)))] * n_ex
                assert np.array_equal(weighted_merge(weights, fishers)[0],
                                      weighted_merge(weights, np.ones(n_ex))[0])
            else:
                fishers = [rng.lognormal(sigma=1.0, size=(m, n)) for _ in range(n_ex)]
                if inst % 7 == 5:  # dead entries exercise the mean fallback
                    dead = rng.random((m, n)) < 0.1
                    fishers = [np.where(dead, 0.0, f) for f in fishers]
            w_b = weighted_merge(weights, fishers)[0]

            def objective(cand):
                return sum(float(np.sum(f * (w - cand) ** 2))
                           for f, w in zip(fishers, weights))

            best = objective(w_b)
            for _ in range(1000):
                eps = 10.0 ** rng.uniform(-4.0, -0.5)
                rival = w_b + eps * rng.normal(size=(m, n))
                if best > objective(rival):  # tolerance zero
                    violations += 1
        assert violations == 0, f"{violations} rivals beat the weighted base"


def test_criterion_03_whitened_svd_dominates_vanilla():
    """Gram-whitened truncation never loses to plain SVD in weighted error."""
    with criterion(3, "whitened truncation dominance", 30.0):
        rng = np.random.default_rng(303)
        strict = 0
        anisotropic = 0
        for inst in range(50):
            m, n = int(rng.integers(6, 33)), int(rng.integers(6, 33))
            k = int(rng.integers(1, min(m, n)))
            delta = rng.normal(size=(m, n))
            iso = inst % 5 == 0
            if iso:
                gram = float(rng.uniform(0.5, 4.0)) * np.eye(n)
            else:
                anisotropic += 1
                q, _ = qr(rng.normal(size=(n, n)))
                lam = 10.0 ** rng.uniform(-1.5, 1.5, size=n)
                gram = (q * lam) @ q.T
                gram = 0.5 * (gram + gram.T)
            e_white = weighted_error(delta, whitened_factors([delta], [gram], k)[0][0], gram)
            e_plain = weighted_error(delta, vanilla_svd_compress(delta, k), gram)
            assert e_white <= e_plain + 1e-9, \
                f"instance {inst}: {e_white:.6e} > {e_plain:.6e}"
            if not iso and e_white < e_plain:
                strict += 1
        assert strict >= 0.8 * anisotropic, \
            f"strict wins {strict}/{anisotropic} below 80%"


def log_likelihood(model, x, y):
    logits, _ = moe_forward_dense(model, x[:, None])
    col = logits[:, 0]
    return float(col[y] - logsumexp(col))


def bumped(model, where, entry, h):
    """Clone of `model` with one parameter entry shifted by h."""
    layers = []
    for l, layer in enumerate(model.layers):
        gate = layer.gate.copy()
        weights = {r: w.copy() for r, w in layer.weights.items()}
        if where == ("gate", l):
            gate[entry] += h
        elif where[0] == "expert" and where[1] == l:
            weights[where[3]][where[2]][entry] += h
        layers.append(MoELayer(gate=gate, weights=weights, top_k=layer.top_k))
    head = model.head.copy()
    if where == ("head",):
        head[entry] += h
    return MoEModel(layers=layers, head=head)


def test_criterion_04_analytic_gradients_match_finite_differences():
    with criterion(4, "gradient fidelity vs central differences", 10.0):
        rng = np.random.default_rng(404)
        ups, downs = zip(*[(rng.normal(size=(6, 4)) / 2.0, rng.normal(size=(4, 6)) / 2.0)
                           for _ in range(2)])
        layer = MoELayer(gate=rng.normal(size=(2, 4)), weights={Role.UP: ups, Role.DOWN: downs},
                         top_k=2)
        model = MoEModel(layers=[layer], head=rng.normal(size=(3, 4)))
        x = rng.normal(size=4)
        y = 1
        grads = backward_logloss(model, x, y)
        h = 1e-5

        sites = [(("gate", 0), layer.gate.shape, grads.gate_grads[0])]
        for i in range(2):
            for role in (Role.UP, Role.DOWN):
                sites.append((("expert", 0, i, role), layer.weights[role][i].shape,
                              grads.expert_grads[0][role][i]))
        sites.append((("head",), model.head.shape, grads.head_grad))

        worst = 0.0
        for where, shape, analytic in sites:
            for entry in np.ndindex(shape):
                fd = (log_likelihood(bumped(model, where, entry, h), x, y)
                      - log_likelihood(bumped(model, where, entry, -h), x, y)) / (2 * h)
                worst = max(worst, abs(analytic[entry] - fd) / max(abs(fd), 1e-6))
        assert worst < 1e-4, f"max relative gradient error {worst:.3e}"


def test_criterion_05_pruning_count_law_and_selection():
    with criterion(5, "pruning count law + batch selection oracle", 10.0):
        rng = np.random.default_rng(505)
        w = rng.normal(size=(16, 64))
        x = rng.normal(size=(64, 200))
        metric = static_metric(w, x)
        pruned_by_s = {}
        for tenths in range(1, 10):
            s = tenths / 10.0
            pruned = static_prune(w, metric, s)
            removed = pruned.static_removed.size
            assert removed == math.floor(64 * s / 2)
            assert removed + pruned.dynamic_quota == math.floor(64 * s)
            pruned_by_s[tenths] = pruned

        for batch in range(100):
            pruned = pruned_by_s[(batch % 9) + 1]
            quota = pruned.dynamic_quota
            xb = rng.normal(size=(pruned.kept.shape[1], 16 + batch % 17))
            active = dynamic_mask(pruned, xb)
            # oracle: drop the quota lowest scores, ties to lower original id
            scores = (np.linalg.norm(pruned.kept, axis=0)
                      * np.linalg.norm(xb, axis=1))
            order = sorted(range(scores.size),
                           key=lambda pos: (scores[pos], pruned.kept_col_ids[pos]))
            keep = np.ones(scores.size, dtype=bool)
            keep[order[:quota]] = False
            expected = pruned.kept_col_ids[keep]
            assert np.array_equal(active, expected), f"batch {batch} selection"
            assert active.size == pruned.kept_col_ids.size - quota
            assert not np.intersect1d(active, pruned.static_removed).size


def test_criterion_06_parameter_census_matches_formulas():
    """Counted entries agree exactly with the closed formulas on a grid where
    the ratio arithmetic is dyadic, and the published shorthand is emitted
    alongside with its discrepancy flag."""
    with criterion(6, "parameter accounting census", 5.0):
        fx = gen_fixture(0)
        layer = fx.model.layers[0]
        cfg0 = CompressionConfig()
        stats = compute_layer_stats(fx.model, fx.tokens, cfg0, labels=fx.labels)[0][0]
        from d2moe.runtime import param_report
        x_census = fx.tokens[:, :128]
        n = layer.n_experts
        m = layer.hidden * layer.d_model + layer.d_model * layer.hidden
        for p in (0.46875, 0.9375):
            for s in (0.0, 0.5):
                cfg = dc_replace(cfg0, delta_ratio=p, sparsity=s)
                built = build_compressed_layer(layer, stats, cfg).layer
                rep = param_report(built, p, s, _chained_forward([built], x_census)[1][0])
                # census recounted from the arrays themselves
                stored = sum(built.base[r].kept.size for r in (Role.UP, Role.DOWN))
                stored += sum(f[r].u.size + f[r].v.size
                              for f in built.deltas.values()
                              for r in (Role.UP, Role.DOWN))
                assert rep.census_static == stored
                assert float(rep.census_static) == rep.compressed_static == n * p * m + (1 - s / 2) * m
                assert rep.census_active_per_token == rep.compressed_active
                assert rep.compressed_active == layer.top_k * p * m + (1 - s) * m
                assert rep.literal_static == (n * p + s / 2) * m
                assert rep.literal_active == (layer.top_k * p + s) * m
                assert rep.literal_differs  # shorthand books removed mass as stored


def test_criterion_07_merge_ordering_and_prune_only_baseline():
    """On the default fixture at the 40% operating point, the loss increases
    order fisher <= frequency <= mean (5% slack), and the full pipeline beats
    every per-expert prune-only variant at exactly equal stored parameters."""
    with criterion(7, "end-to-end merge ordering + equal-budget baseline", 120.0):
        fx, runs = default_runs()
        inc = {method: rep.loss_after - rep.loss_before
               for method, (_, rep) in runs.items()}
        slack = 0.05 * max(abs(v) for v in inc.values()) + 1e-5
        assert inc["fisher"] <= inc["frequency"] + slack, f"{inc} slack={slack:.2e}"
        assert inc["frequency"] <= inc["mean"] + slack, f"{inc} slack={slack:.2e}"

        census = sum(rec.params.census_static for rec in runs["fisher"][1].layers)
        layer = fx.model.layers[0]
        n, d, hidden = layer.n_experts, layer.d_model, layer.hidden
        assert census % n == 0
        budget = census // n  # stored entries available to each dense expert

        h_all = {i: silu(layer.weights[Role.UP][i] @ fx.tokens) for i in range(n)}
        variant_losses = []
        for u_keep in range(d + 1):
            rem = budget - hidden * u_keep
            if rem < 0 or rem % d:
                continue
            v_keep = rem // d
            if v_keep > hidden:
                continue
            weights = {r: w.copy() for r, w in layer.weights.items()}
            for i in range(n):
                up, down = weights[Role.UP][i], weights[Role.DOWN][i]  # views, pruned in place
                up_scores = static_metric(up, fx.tokens)
                down_scores = static_metric(down, h_all[i])
                up[:, np.argsort(up_scores, kind="stable")[:d - u_keep]] = 0.0
                down[:, np.argsort(down_scores, kind="stable")[:hidden - v_keep]] = 0.0
            pruned_model = MoEModel(
                layers=[MoELayer(gate=layer.gate, weights=weights, top_k=layer.top_k)],
                head=fx.model.head)
            variant_losses.append(
                evaluate(pruned_model, fx.tokens, fx.labels).loss)
        assert variant_losses, "no prune-only variant hits the exact budget"
        best_baseline = min(variant_losses)
        worst_method = max(rep.loss_after for _, rep in runs.values())
        assert worst_method <= best_baseline, \
            f"pipeline {worst_method:.5f} vs best of {len(variant_losses)} " \
            f"prune-only variants {best_baseline:.5f}"


def test_criterion_08_trimming_degrades_gradually():
    """Dropping delta factors expert by expert never improves the loss."""
    with criterion(8, "trim count monotonicity", 60.0):
        fx, runs = default_runs()
        compressed, _ = runs["fisher"]
        cfg = CompressionConfig(merge_method="fisher", delta_ratio=0.5, sparsity=0.4)
        freq = compute_layer_stats(fx.model, fx.tokens, cfg, labels=fx.labels)[0][0].frequency
        losses = []
        for t in range(fx.model.layers[0].n_experts + 1):
            trimmed = MoEModel(
                layers=[trim_deltas(compressed.layers[0], freq, t)],
                head=compressed.head)
            losses.append(evaluate(trimmed, fx.tokens, fx.labels).loss)
        diffs = np.diff(losses)
        assert np.all(diffs >= -1e-12), f"trim curve not monotone: {losses}"


def test_criterion_09_analysis_math():
    with criterion(9, "similarity, retention, and ratio allocation", 30.0):
        rng = np.random.default_rng(909)
        w1 = rng.normal(size=(16, 24))
        w2 = rng.normal(size=(16, 24))
        q, _ = qr(rng.normal(size=(24, 24)))
        base_val = cka(w1, w2)
        assert abs(cka(w1, w1) - 1.0) <= 1e-10
        assert abs(cka(w1 @ q, w2) - base_val) <= 1e-10
        assert abs(cka(3.7 * w1, 0.2 * w2) - base_val) <= 1e-10

        # deltas of the default fixture concentrate in rank_noise directions
        fx = gen_fixture(0)
        layer = fx.model.layers[0]
        worst = 1.0
        for role in (Role.UP, Role.DOWN):
            base = weighted_merge(layer.weights[role], np.ones(layer.n_experts))[0]
            for w in layer.weights[role]:
                sigma = svdvals(w - base)
                worst = min(worst, energy_retention(sigma, fx.rank_noise))
        assert worst >= 0.99, f"retention {worst:.4f}"

        uniform = allocate_adaptive_ratios([0.3, 0.3, 0.3], budget=0.5)
        assert uniform.ratios == (0.5, 0.5, 0.5)

        probe = gen_fixture(11, n_experts=4, d_model=16, hidden=24, layers=3,
                            tokens=192, rank_noise=2)
        profile = layer_sensitivity_scan(probe.model, probe.tokens, probe.labels,
                                         probe_ratio=0.5)
        alloc = allocate_adaptive_ratios(profile, budget=0.5, p_min=0.05)
        granule = (24 + 16) / (24 * 16)  # one rank step in ratio units
        assert abs(alloc.realized_ratio - 0.5) <= granule
        for i in range(3):
            for j in range(3):
                if profile.increases[i] < profile.increases[j]:
                    assert alloc.ratios[i] <= alloc.ratios[j] + 1e-12


def _blob(manifest: bytes, payload: bytes, magic: bytes = MAGIC,
          length: int | None = None) -> bytes:
    head = magic + (len(manifest) if length is None else length).to_bytes(8, "little")
    pad = b"\x00" * (ALIGNMENT - len(head) - len(manifest))
    return head + manifest + pad + payload


def test_criterion_10_container_round_trip_and_error_taxonomy():
    with criterion(10, "container byte round trip + malformed files", 5.0):
        import tempfile
        from pathlib import Path
        fx = gen_fixture(12, n_experts=4, d_model=16, hidden=24, tokens=64,
                         rank_noise=2)
        cfg = CompressionConfig(sparsity=0.5)
        compressed, _ = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_model(tmp / "m1", fx.model)
            save_calibration(tmp / "c1", fx.tokens, fx.labels)
            save_compressed_model(tmp / "z1", compressed)
            for name, saver in (("m", save_model), ("z", save_compressed_model)):
                loaded = load_any(tmp / f"{name}1")
                saver(tmp / f"{name}2", loaded)
                assert (tmp / f"{name}1").read_bytes() == (tmp / f"{name}2").read_bytes()
            container_save(tmp / "c2", container_load(tmp / "c1"))
            assert (tmp / "c1").read_bytes() == (tmp / "c2").read_bytes()

            payload = np.arange(4.0).tobytes()
            good = _blob(b"a 2 2 64\n", payload)
            (tmp / "good").write_bytes(good)
            assert container_load(tmp / "good")["a"].shape == (2, 2)

            bad = {
                BadMagicError: [_blob(b"a 2 2 64\n", payload, magic=b"XXXX0001")],
                ManifestError: [
                    MAGIC + b"\x01",                                  # no length field
                    _blob(b"a 2 2 64\n", payload, length=10 ** 6),    # runs off the end
                    _blob(b"\xff\xfe bad utf8 \xff\n", payload),
                    _blob(b"a 2 2\n", payload),                       # missing offset
                    _blob(b"b@d 2 2 64\n", payload),                  # bad name
                    _blob(b"a 2 2 sixty\n", payload),                 # non-integer
                    _blob(b"a 0 2 64\n", payload),                    # zero rows
                    _blob(b"a 2 2 64\na 2 2 128\n", payload * 2),     # duplicate
                ],
                OverlappingPayloadError: [
                    _blob(b"a 2 2 8\n", payload),                     # inside header
                    _blob(b"a 2 2 64\nb 2 2 80\n", payload * 2),      # tensors collide
                ],
                TruncatedPayloadError: [_blob(b"a 2 2 64\n", payload[:16])],
                NonFinitePayloadError: [_blob(b"a 2 2 64\n",
                                              np.full(4, np.nan).tobytes())],
            }
            exercised = 0
            for err, blobs in bad.items():
                for i, blob in enumerate(blobs):
                    path = tmp / f"bad_{err.__name__}_{i}"
                    path.write_bytes(blob)
                    with pytest.raises(err):
                        container_load(path)
                    exercised += 1
            assert exercised == 13
