"""The benchmark's numpy oracle agrees with the package's forward passes.

Run from the repository root:

    python3 -m pytest bench/test_oracle.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import d2moe  # noqa: E402
from oracle import CompressedOracle, DenseOracle, read_container, relative_error  # noqa: E402

TOL = 1e-9
BATCHES = ((0, 1), (5, 1), (17, 7), (0, 128), (128, 384))


@pytest.fixture(scope="module")
def default_fixture():
    return d2moe.gen_fixture(seed=0)


@pytest.fixture(scope="module")
def deep_fixture():
    return d2moe.gen_fixture(seed=3, layers=3, n_experts=10, tokens=384)


def _compressed_file(tmp_path, fx, merge, trim=0):
    cfg = d2moe.CompressionConfig(merge_method=merge, delta_ratio=0.5, sparsity=0.4, trim=trim)
    compressed, _ = d2moe.compress(cfg, fx.model, fx.tokens, labels=fx.labels)
    path = tmp_path / f"{merge}-{trim}.d2m"
    d2moe.save_compressed_model(path, compressed)
    return path


def test_reader_matches_container_load(tmp_path, default_fixture):
    path = tmp_path / "dense.d2m"
    d2moe.save_model(path, default_fixture.model)
    ours, theirs = read_container(path), d2moe.container_load(path)
    assert list(ours) == list(theirs)
    for name in ours:
        assert np.array_equal(ours[name], theirs[name])


@pytest.mark.parametrize("merge,trim", [("mean", 0), ("fisher", 0), ("mean", 3)])
def test_compressed_oracle_matches_runtime(tmp_path, default_fixture, merge, trim):
    path = _compressed_file(tmp_path, default_fixture, merge, trim)
    model, oracle = d2moe.load_any(path), CompressedOracle(path)
    assert len(oracle.layers[0][3]) == default_fixture.model.layers[0].n_experts - trim
    for start, size in BATCHES:
        x = default_fixture.tokens[:, start:start + size]
        got, _ = d2moe.compressed_model_forward(model, x)
        assert relative_error(got, oracle.logits(x)) <= TOL


def test_oracles_match_on_a_multi_layer_model(tmp_path, deep_fixture):
    dense_path = tmp_path / "dense.d2m"
    d2moe.save_model(dense_path, deep_fixture.model)
    path = _compressed_file(tmp_path, deep_fixture, "mean")
    compressed = d2moe.load_any(path)
    dense_oracle, comp_oracle = DenseOracle(dense_path), CompressedOracle(path)
    for start, size in BATCHES:
        x = deep_fixture.tokens[:, start:start + size]
        dense, _ = d2moe.moe_forward_dense(deep_fixture.model, x)
        assert relative_error(dense, dense_oracle.logits(x)) <= TOL
        got, _ = d2moe.compressed_model_forward(compressed, x)
        assert relative_error(got, comp_oracle.logits(x)) <= TOL


def test_oracle_detects_a_changed_delta_factor(tmp_path, default_fixture):
    path = _compressed_file(tmp_path, default_fixture, "mean")
    x = default_fixture.tokens[:, :128]
    want, _ = d2moe.compressed_model_forward(d2moe.load_any(path), x)
    tensors = d2moe.container_load(path)
    name = next(n for n in tensors if n.endswith("/down_u"))
    tensors[name] = tensors[name] * (1.0 + 1e-6)
    d2moe.container_save(path, tensors)
    assert relative_error(want, CompressedOracle(path).logits(x)) > TOL
