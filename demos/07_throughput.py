"""Inference throughput: the dense model against its compressed form.

Compresses a small fixture with the quick-start config (Fisher merge,
delta_ratio 0.5, sparsity 0.4) on its first 512 tokens, then times the
dense and the compressed forward over the held-out tokens at batch 1, 32,
128 and 1024, best of five passes each. The figures depend on the machine
and its BLAS threads (OPENBLAS_NUM_THREADS pins them); `bench/run.py` is
the measured benchmark, this is a quick look that runs in a few seconds.
"""

import time

from d2moe import CompressionConfig, compress, compressed_model_forward, gen_fixture, moe_forward_dense

CALIB = 512
HELD_OUT = 2048

fx = gen_fixture(seed=0, layers=2, d_model=32, hidden=64, n_experts=8, tokens=CALIB + HELD_OUT)
cfg = CompressionConfig(merge_method="fisher", delta_ratio=0.5, sparsity=0.4)
compressed, _ = compress(cfg, fx.model, fx.tokens[:, :CALIB], labels=fx.labels[:CALIB])
held = fx.tokens[:, CALIB:]


def tok_s(forward, model, batch: int, tokens: int) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for pos in range(0, tokens, batch):
            forward(model, held[:, pos:pos + batch])
        best = min(best, time.perf_counter() - start)
    return tokens / best


print(f"{'batch':>5}  {'dense tok/s':>11}  {'compressed tok/s':>16}  {'compressed/dense':>16}")
for batch in (1, 32, 128, 1024):
    tokens = 256 if batch == 1 else HELD_OUT
    dense = tok_s(moe_forward_dense, fx.model, batch, tokens)
    comp = tok_s(compressed_model_forward, compressed, batch, tokens)
    print(f"{batch:>5}  {dense:>11,.0f}  {comp:>16,.0f}  {comp / dense:>16.2f}")
