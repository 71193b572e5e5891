"""Line-delimited run reports and CSV analysis tables.

A report file is JSON-lines text. Every line is one record carrying a
`record` tag; the schema per tag:

    meta    {"record":"meta","version":str,"seed":int}
    config  {"record":"config", ...full config echo...}
    loss    {"record":"loss","loss_before":f,"loss_after":f,
             "perplexity_before":f,"perplexity_after":f}
    layer   {"record":"layer","layer":int,"rank":{role:int},
             "fisher_fallback":int,"trimmed":[int],
             "weighted_errors":{role:[f per expert]},
             "params":{...ParamReport fields...}}
    timing  {"record":"timing","stage":str,"seconds":f}

Records are serialized canonically (sorted keys, fixed separators), so a
parse followed by re-serialization is byte-identical. Wall-clock timings
live only in `timing` records; `strip_timings` removes them, which is how
determinism across runs is checked.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .runtime import ParamReport

REPORT_VERSION = "1"
_PARAM_TYPES = {"int": int, "float": (int, float), "bool": bool}  # ParamReport annotations


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class LayerRecord:
    """Everything the pipeline measured about one compressed layer."""

    layer: int
    rank: dict[str, int]
    fisher_fallback: int
    trimmed: tuple[int, ...]
    weighted_errors: dict[str, tuple[float, ...]]
    params: ParamReport

    def to_record(self) -> dict:
        params = {k: (bool(v) if isinstance(v, (bool, np.bool_)) else
                      int(v) if isinstance(v, (int, np.integer)) else float(v))
                  for k, v in asdict(self.params).items()}
        return {
            "record": "layer",
            "layer": int(self.layer),
            "rank": {k: int(v) for k, v in self.rank.items()},
            "fisher_fallback": int(self.fisher_fallback),
            "trimmed": [int(i) for i in self.trimmed],
            "weighted_errors": {k: [float(x) for x in v]
                                for k, v in self.weighted_errors.items()},
            "params": params,
        }

    @staticmethod
    def from_record(rec: dict) -> "LayerRecord":
        record = LayerRecord(
            layer=rec["layer"],
            rank=dict(rec["rank"]),
            fisher_fallback=rec["fisher_fallback"],
            trimmed=tuple(rec["trimmed"]),
            weighted_errors={k: tuple(v) for k, v in rec["weighted_errors"].items()},
            params=ParamReport(**rec["params"]),
        )
        for f in fields(ParamReport):  # an int field takes no bool, a float field any number
            value = getattr(record.params, f.name)
            if not isinstance(value, _PARAM_TYPES[f.type]) or (isinstance(value, bool) and f.type != "bool"):
                raise TypeError(f"params.{f.name} must be {f.type}, got {value!r}")
        return record


@dataclass(frozen=True)
class CompressionReport:
    config: dict
    seed: int
    loss_before: float
    loss_after: float
    layers: tuple[LayerRecord, ...]
    timings: tuple[tuple[str, float], ...] = ()
    version: str = REPORT_VERSION

    def to_lines(self) -> list[str]:
        lines = [canonical_json({"record": "meta", "version": self.version, "seed": self.seed}),
                 canonical_json({"record": "config", **self.config}),
                 canonical_json({"record": "loss",
                                 "loss_before": self.loss_before,
                                 "loss_after": self.loss_after,
                                 "perplexity_before": _safe_exp(self.loss_before),
                                 "perplexity_after": _safe_exp(self.loss_after)})]
        lines += [canonical_json(layer.to_record()) for layer in self.layers]
        lines += [canonical_json({"record": "timing", "stage": stage, "seconds": seconds})
                  for stage, seconds in self.timings]
        return lines


def _safe_exp(x: float) -> float:
    # strict JSON forbids inf; saturate the perplexity proxy instead
    try:
        return math.exp(x)
    except OverflowError:
        return 1.7976931348623157e308


def dumps_report(report: CompressionReport) -> str:
    return "".join(line + "\n" for line in report.to_lines())


def write_report(path, report: CompressionReport) -> None:
    Path(path).write_text(dumps_report(report), encoding="utf-8")


def parse_report(text: str) -> CompressionReport:
    """Parse report text; any malformed line or missing record is a ConfigError."""
    meta = None
    config = None
    loss = None
    layers = []
    timings = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"report line {line_no} is not valid JSON") from exc
        if not isinstance(rec, dict):
            raise ConfigError(f"report line {line_no} is not a JSON object")
        tag = rec.get("record")
        try:
            if tag == "meta":
                meta = (rec["version"], rec["seed"])
            elif tag == "config":
                config = {k: v for k, v in rec.items() if k != "record"}
            elif tag == "loss":
                loss = (float(rec["loss_before"]), float(rec["loss_after"]))
            elif tag == "layer":
                layers.append(LayerRecord.from_record(rec))
            elif tag == "timing":
                timings.append((str(rec["stage"]), float(rec["seconds"])))
            else:
                raise ConfigError(f"report line {line_no} has unknown record tag {tag!r}")
        except KeyError as exc:
            raise ConfigError(f"report line {line_no}: {tag} record is missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"report line {line_no}: malformed {tag} record ({exc})") from exc
    if meta is None or config is None or loss is None:
        raise ConfigError("report is missing meta, config, or loss records")
    return CompressionReport(config=config, seed=meta[1], loss_before=loss[0], loss_after=loss[1],
                             layers=tuple(layers), timings=tuple(timings), version=meta[0])


def read_report(path) -> CompressionReport:
    return parse_report(Path(path).read_text(encoding="utf-8"))


def strip_timings(report: CompressionReport) -> CompressionReport:
    return replace(report, timings=())


# ---------------------------------------------------------------------------
# CSV tables (schemas documented per file)
# ---------------------------------------------------------------------------

def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_cka_csv(path, matrix) -> None:
    """cka.csv: columns i,j,value over all expert pairs."""
    rows = [(i, j, float(matrix[i][j]))
            for i in range(len(matrix)) for j in range(len(matrix[i]))]
    _write_csv(path, "i,j,value", rows)


def write_sensitivity_csv(path, increases, ratios) -> None:
    """sensitivity.csv: columns layer,loss_increase,allocated_ratio."""
    if len(increases) != len(ratios):
        raise ConfigError(f"{len(increases)} sensitivities vs {len(ratios)} ratios")
    rows = [(layer, float(inc), float(ratio))
            for layer, (inc, ratio) in enumerate(zip(increases, ratios))]
    _write_csv(path, "layer,loss_increase,allocated_ratio", rows)


def write_frontier_csv(path, points) -> None:
    """frontier.csv: columns ratio,loss,params; one row per sweep point."""
    rows = [(float(ratio), float(loss), int(params)) for ratio, loss, params in points]
    _write_csv(path, "ratio,loss,params", rows)
