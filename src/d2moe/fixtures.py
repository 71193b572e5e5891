"""Seeded synthetic MoE fixtures with controlled expert structure.

The generator stands in for a text calibration corpus: the compression
method only needs token vectors with nontrivial covariance and a model
whose experts share structure, so both are built synthetically.

Token coordinates split into four groups: a few burst coords that are
zero except for rare high-amplitude firings, one always-on bias coord, a
dense block with geometrically decaying scales, and a near-dead tail
sized to the default pruning budget (so structured pruning has genuinely
disposable columns to find). Routing keys two generalist experts on the
bias coord and wakes the remaining experts in pairs on burst firings,
which gives the heavy-tailed traffic pattern the merge weightings care
about.

Expert construction per layer and role:

    W_i = W_common + A_i B + P_i

where B is a right factor shared by all experts of the role, confined to
the near-dead coords (large in parameter space, nearly silent on
calibration data), A_i are centered across experts, and P_i is small
centered dense individuality on the live coords, heavier for the two
generalists. Centering makes the plain mean of the W_i equal W_common
exactly, so mean-merge deltas are the known A_i B + P_i: a
rank-`rank_noise` signal carrying ~99% of the delta energy plus a dense
remainder. Burst coords carry identical base content in every expert, so
any sum-to-one merge reproduces them exactly and their fate rests on
pruning alone.

Labels are the model's own argmax predictions after the head is rescaled
to a fixed median logit margin, making calibration loss a
self-consistency measure with a stable scale across seeds.

`rank_noise=0` produces bit-identical experts (all divergence terms are
tied to it), so any merge yields zero deltas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import blas_threads
from .moe import MoELayer, MoEModel, Role, layer_forward_dense, token_chunks

DEFAULT_TOKENS = 512

# stream salt decorrelating public seeds from raw generator integers
_STREAM_SALT = 79

_BURST_RATE = 0.06     # per-coord firing probability
_BURST_AMP = 3.0       # firing amplitude before jitter
_BURST_JITTER = 0.3
_SHARED_BURST_STD = 0.065   # shared base content on burst coords
_DENSE_FLOOR = 0.35    # weakest dense coord scale
_DEAD_SCALE = 1e-3
_DOWN_SCALE = 0.03     # down-projection divergence relative to up
_SIG_GAIN = 12.0       # delta scale -> rank-noise amplitude
_DELTA_SCALE = 0.5     # rank-noise amplitude, in units of _SIG_GAIN
_DENSE_NOISE = 0.15    # dense individuality relative to the rank noise
_NOISE_SPREAD = 2.0    # generalist/specialist contrast of that individuality
_GATE_SPREAD = 2.0     # router temperature
_TARGET_MARGIN = 0.8   # median top-2 logit gap after head rescale


@dataclass(frozen=True)
class Fixture:
    """A generated model plus the calibration set used to compress it."""

    model: MoEModel
    tokens: np.ndarray   # (d_model, n_tokens)
    labels: np.ndarray   # (n_tokens,) int64, the model's own predictions
    seed: int
    rank_noise: int

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[1]


def _coord_layout(n_experts: int, d_model: int):
    """(n_burst, bias, dense0, dead0) split of the input coordinates."""
    n_burst = max(1, min((n_experts - 2) // 2, max(1, d_model // 8)))
    n_dead = min(int(0.4 * d_model), max(0, d_model - n_burst - 2))
    dead0 = d_model - n_dead
    return n_burst, n_burst, n_burst + 1, dead0


@blas_threads(1)
def gen_fixture(seed: int, n_experts: int = 8, d_model: int = 32, hidden: int = 64,
                layers: int = 1, rank_noise: int = 4, tokens: int = DEFAULT_TOKENS,
                top_k: int = 2, num_classes: int = 10) -> Fixture:
    """Generate a deterministic model + calibration pair for one seed.

    The noise and gate constants above are tuned so mean-merge deltas
    retain >=99% energy at k=rank_noise while the merge weightings still
    measurably disagree. Like `compress`, it runs with OpenBLAS pinned to
    one thread, so the fixture bytes do not depend on OPENBLAS_NUM_THREADS.
    The seed and every size must be integers (a bool is not), the seed
    non-negative; anything else is a ParameterError.
    """
    sizes = {"seed": seed, "n_experts": n_experts, "d_model": d_model, "hidden": hidden,
             "layers": layers, "rank_noise": rank_noise, "tokens": tokens, "top_k": top_k,
             "num_classes": num_classes}
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if rank_noise < 0 or rank_noise >= min(d_model, hidden):
        raise ParameterError(f"rank_noise must lie in [0, {min(d_model, hidden)}), got {rank_noise}")
    if min(n_experts, d_model, hidden, layers, tokens, top_k) < 1:
        raise ParameterError("fixture dimensions must be positive")
    if top_k > n_experts:
        raise ParameterError(f"top_k {top_k} exceeds n_experts {n_experts}")
    if num_classes < 2:
        raise ParameterError(f"need at least 2 classes, got {num_classes}")

    rng = np.random.default_rng(seed + _STREAM_SALT)
    n, d, h, r = n_experts, d_model, hidden, rank_noise
    n_burst, bias_c, dense0, dead0 = _coord_layout(n, d)
    n_dead = d - dead0
    live_d = dead0
    dead_h = int(0.41 * h)
    live_h = h - dead_h

    sig = _SIG_GAIN * _DELTA_SCALE
    person_std = 0.0071 * sig * (_DENSE_NOISE / 0.15)
    broad_amp = 0.75 * _NOISE_SPREAD
    loner_amp = 0.6 / _NOISE_SPREAD ** 2
    beta_broad = _GATE_SPREAD
    beta_burst = 3.0 * _GATE_SPREAD

    def expert_bank(m, k, scale, burst_cols, dormant):
        # One (n, m, k) weight stack. dormant=True confines the rank-r
        # factor B to the near-dead input coords; the down projection has
        # no such coords on its input side, so its divergence stays small
        # and dense instead.
        base_std = 1.0 / np.sqrt(k)
        w_common = rng.normal(0.0, base_std, size=(m, k))
        if burst_cols:
            w_common[:, :n_burst] = _SHARED_BURST_STD * rng.normal(size=(m, n_burst))
            w_common[:, dead0:] *= _DEAD_SCALE
            w_common[live_h:, :] *= _DEAD_SCALE
        if r == 0:
            return np.repeat(w_common[None], n, axis=0)
        if dormant:
            b = np.zeros((r, k))
            b[:, dead0:] = rng.normal(0.0, base_std, size=(r, n_dead))
            a = np.zeros((n, m, r))
            a[:, :live_h, :] = rng.normal(0.0, scale / np.sqrt(r), size=(n, live_h, r))
        else:
            b = np.zeros((r, k))
            b[:, :live_h] = rng.normal(0.0, base_std, size=(r, live_h))
            a = rng.normal(0.0, scale / np.sqrt(r), size=(n, m, r))
        a -= a.mean(axis=0)
        bank = w_common + a @ b
        if not burst_cols:
            return bank
        amps = np.full(n, loner_amp)
        amps[:2] = broad_amp
        p = np.zeros((n, m, k))
        p[:, :live_h, bias_c:dead0] = rng.normal(
            0.0, person_std, size=(n, live_h, dead0 - bias_c))
        p *= amps[:, None, None]
        p -= p.mean(axis=0)
        return bank + p

    model_layers = []
    for _ in range(layers):
        gate = np.zeros((n, d))
        for i in range(min(2, n)):
            row = np.zeros(live_d)
            row[bias_c] = 1.0
            row[dense0:] = 0.3 * rng.normal(size=live_d - dense0)
            gate[i, :live_d] = beta_broad * row
        for j in range(n - 2):
            gate[2 + j, j % n_burst] = beta_burst
        ups = expert_bank(h, d, sig, burst_cols=True, dormant=True)
        downs = expert_bank(d, h, sig * _DOWN_SCALE, burst_cols=False, dormant=False)
        model_layers.append(MoELayer(gate=gate, weights={Role.UP: ups, Role.DOWN: downs},
                                     top_k=top_k))
    head = rng.normal(0.0, 1.0 / np.sqrt(d), size=(num_classes, d))

    x = np.zeros((d, tokens))
    sgn = rng.integers(0, 2, size=(live_d, tokens)) * 2.0 - 1.0
    scales = np.geomspace(1.0, _DENSE_FLOOR, live_d)
    x[:live_d] = scales[:, None] * sgn
    mask = rng.random((n_burst, tokens)) < _BURST_RATE
    amp = _BURST_AMP * (1.0 + _BURST_JITTER * rng.random((n_burst, tokens)))
    x[:n_burst] = mask * amp * (rng.integers(0, 2, size=(n_burst, tokens)) * 2.0 - 1.0)
    x[bias_c] = 1.0 + 0.1 * rng.normal(size=tokens)
    x[dead0:] = _DEAD_SCALE * rng.normal(size=(n_dead, tokens))

    # one dense pass in token chunks: rescaling the head leaves the final
    # hidden state as it is; it is kept token-major, as a layer returns it
    final = np.empty((tokens, d))
    for cols in token_chunks(tokens):
        h = x[:, cols]
        for layer in model_layers:
            h, _ = layer_forward_dense(layer, h)
        final[cols] = h.T
    final = final.T
    srt = np.sort(head @ final, axis=0)
    gap = np.median(srt[-1] - srt[-2])
    head *= _TARGET_MARGIN / gap
    labels = (head @ final).argmax(axis=0).astype(np.int64)
    return Fixture(model=MoEModel(layers=model_layers, head=head), tokens=x, labels=labels,
                   seed=seed, rank_noise=r)
