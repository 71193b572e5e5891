"""Validated compression settings, file parsing, and presets."""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParameterError
from .factorize import RANK_MODES, rank_for_ratio
from .gradients import FISHER_MODES
from .linalg import DEFAULT_DAMPING
from .merge import DEFAULT_EPSILON, MERGE_METHODS

# two profiles: light base pruning for quality, heavy for speed
PRESETS = {
    "performance": {"sparsity": 0.1},
    "throughput": {"sparsity": 0.6},
}


@dataclass(frozen=True)
class CompressionConfig:
    """Everything a compression run needs, validated before any compute."""

    merge_method: str = "fisher"
    fisher_mode: str = "sampled-label"
    seed: int = 0
    calib_samples: int = 512
    batch_size: int = 128
    rank_mode: str = "ratio"
    delta_ratio: float = 0.5
    delta_rank: int = 1
    per_layer_ratios: tuple[float, ...] | None = None
    sparsity: float = 0.0
    trim: int = 0
    damping: float = DEFAULT_DAMPING
    epsilon: float = DEFAULT_EPSILON

    def validate(self) -> "CompressionConfig":
        if self.merge_method not in MERGE_METHODS:
            raise ConfigError(f"merge_method must be one of {MERGE_METHODS}, got {self.merge_method!r}")
        if self.fisher_mode not in FISHER_MODES:
            raise ConfigError(f"fisher_mode must be one of {FISHER_MODES}, got {self.fisher_mode!r}")
        for name in sorted(_INT_FIELDS):
            value = getattr(self, name)
            if type(value) is not int:  # bool, numpy integers and floats are rejected
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.calib_samples < 1:
            raise ConfigError(f"calib_samples must be positive, got {self.calib_samples}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.rank_mode not in RANK_MODES:
            raise ConfigError(f"rank_mode must be one of {RANK_MODES}, got {self.rank_mode!r}")
        for name in sorted(_FLOAT_FIELDS):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.rank_mode == "ratio" and not 0.0 < self.delta_ratio <= 1.0:
            raise ConfigError(f"delta_ratio must lie in (0, 1], got {self.delta_ratio}")
        if self.rank_mode == "fixed" and self.delta_rank < 1:
            raise ConfigError(f"delta_rank must be positive, got {self.delta_rank}")
        if self.per_layer_ratios is not None:
            if self.rank_mode != "ratio":
                raise ConfigError("per_layer_ratios requires rank_mode=ratio")
            if not isinstance(self.per_layer_ratios, Sequence):
                raise ConfigError(f"per_layer_ratios must be a sequence, got {self.per_layer_ratios!r}")
            for p in self.per_layer_ratios:  # the range check also rejects NaN and inf
                if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 < p <= 1.0:
                    raise ConfigError(f"per-layer ratio {p!r} is not a number in (0, 1]")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigError(f"sparsity must lie in [0, 1), got {self.sparsity}")
        if self.trim < 0:
            raise ConfigError(f"trim must be non-negative, got {self.trim}")
        if self.damping <= 0.0:
            raise ConfigError(f"damping must be positive, got {self.damping}")
        if self.epsilon < 0.0:
            raise ConfigError(f"epsilon must be non-negative, got {self.epsilon}")
        return self

    def delta_ratio_for(self, layer_index: int, m: int, n: int) -> float:
        """Retained-parameter fraction p of one layer's m x n deltas, as the report
        books it: the (per-layer) ratio, else the rank's own k(m+n)/(mn)."""
        if self.per_layer_ratios is not None:
            if layer_index >= len(self.per_layer_ratios):
                raise ConfigError(f"no per-layer ratio for layer {layer_index} "
                                  f"({len(self.per_layer_ratios)} listed)")
            return self.per_layer_ratios[layer_index]
        if self.rank_mode == "ratio":
            return self.delta_ratio
        return self.rank_for(layer_index, m, n) * (m + n) / (m * n)

    def rank_for(self, layer_index: int, m: int, n: int) -> int:
        """Truncation rank of one layer's m x n deltas."""
        if self.rank_mode == "fixed":
            if self.delta_rank > min(m, n):
                raise ParameterError(f"fixed rank {self.delta_rank} exceeds min(m,n)={min(m, n)}")
            return self.delta_rank
        if self.rank_mode == "lossless":
            return min(m, n)
        return rank_for_ratio(m, n, self.delta_ratio_for(layer_index, m, n))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["per_layer_ratios"] is not None:
            d["per_layer_ratios"] = list(d["per_layer_ratios"])
        return d


_INT_FIELDS = {"seed", "calib_samples", "batch_size", "delta_rank", "trim"}
_FLOAT_FIELDS = {"delta_ratio", "sparsity", "damping", "epsilon"}


def _coerce(key: str, raw) -> object:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if key in _INT_FIELDS:
            return int(text)
        if key in _FLOAT_FIELDS:
            return float(text)
        if key == "per_layer_ratios":
            if text.lower() in ("", "none"):
                return None
            return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={text!r}") from exc
    return text


def apply_overrides(cfg: CompressionConfig, overrides: dict) -> CompressionConfig:
    """Return a copy of `cfg` with `overrides` applied (values may be strings)."""
    known = {f.name for f in dataclasses.fields(CompressionConfig)}
    coerced = {}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        coerced[key] = _coerce(key, value)
    return dataclasses.replace(cfg, **coerced)


def apply_preset(cfg: CompressionConfig, name: str) -> CompressionConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return apply_overrides(cfg, PRESETS[name])


def parse_config_file(path) -> CompressionConfig:
    """Parse a flat key=value file; '#' starts a comment, blanks ignored."""
    cfg = CompressionConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    overrides = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key == "preset":
            cfg = apply_preset(cfg, value.strip())
            continue
        overrides[key] = value.strip()
    return apply_overrides(cfg, overrides)
