"""Command-line front end.

Subcommands: gen-fixture, calibrate, compress, eval, analyze, report.
Every subcommand reads an optional key=value config file plus overrides;
precedence is defaults, then --config, then --preset, then --set pairs,
then dedicated flags.

Exit codes: 0 success; 2 usage or configuration problems (also bad
shapes/values in inputs); 3 file and container problems; 4 numerical
failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from pathlib import Path

import numpy as np

from .analysis import allocate_adaptive_ratios, cka, layer_sensitivity_scan
from .config import CompressionConfig, apply_overrides, apply_preset, parse_config_file
from .container import load_any, save_calibration, save_compressed_model, save_model
from .errors import ConfigError, ContainerError, D2MoeError, NumericalError
from .fixtures import gen_fixture
from .linalg import blas_threads
from .moe import MoEModel, Role, capture_calibration, expert_frequency
from .pipeline import compress, evaluate, ratio_frontier
from .report import (
    read_report,
    write_cka_csv,
    write_frontier_csv,
    write_report,
    write_sensitivity_csv,
)
from .runtime import CompressedModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("configuration")
    g.add_argument("--config", help="key=value config file; '#' comments allowed")
    g.add_argument("--preset", help="named profile: performance (s=0.1) or throughput (s=0.6)")
    g.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    g.add_argument("--merge", dest="merge_method",
                   help="merge method: fisher | fisher-scalar | mean | frequency")
    g.add_argument("--fisher-mode", dest="fisher_mode",
                   help="fisher estimator: sampled-label | data-label")
    g.add_argument("--ratio-delta", dest="delta_ratio", type=float,
                   help="retained parameter fraction per delta factorization")
    g.add_argument("--rank-mode", dest="rank_mode", help="ratio | fixed | lossless")
    g.add_argument("--rank", dest="delta_rank", type=int, help="rank for rank-mode=fixed")
    g.add_argument("--sparsity", type=float, help="base column sparsity s in [0, 1)")
    g.add_argument("--trim", type=int, help="experts whose delta factors are dropped")
    g.add_argument("--seed", type=int, help="seed for sampled-label fisher draws")
    g.add_argument("--calib-samples", dest="calib_samples", type=int,
                   help="calibration tokens used (default 512)")
    g.add_argument("--batch-size", dest="batch_size", type=int,
                   help="evaluation/forward batch size (default 128)")
    g.add_argument("--damping", type=float, help="Gram Cholesky damping floor")


def _resolve_config(args: argparse.Namespace) -> CompressionConfig:
    cfg = parse_config_file(args.config) if args.config else CompressionConfig()
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    pairs = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    if pairs:
        cfg = apply_overrides(cfg, pairs)
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(CompressionConfig)
             if getattr(args, f.name, None) is not None}
    if flags:
        cfg = apply_overrides(cfg, flags)
    return cfg.validate()


def _load(path, kinds, complaint: str):
    """load_any, rejecting containers whose object is not one of `kinds`."""
    obj = load_any(path)
    if not isinstance(obj, kinds):
        raise ConfigError(f"{path} {complaint}")
    return obj


def _load_model_file(path) -> MoEModel:
    return _load(path, MoEModel, "is not a dense model container")


def _load_calib_file(path) -> tuple[np.ndarray, np.ndarray]:
    return _load(path, tuple, "is not a calibration container")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_fixture(args) -> int:
    # flags the user left out are absent from args, so gen_fixture's defaults apply
    fx = gen_fixture(**{name: getattr(args, name) for name in inspect.signature(gen_fixture).parameters
                        if hasattr(args, name)})
    save_model(args.out_model, fx.model)
    save_calibration(args.out_calib, fx.tokens, fx.labels)
    first = fx.model.layers[0]
    print(f"fixture seed={fx.seed} layers={len(fx.model.layers)} experts={first.n_experts} "
          f"d={first.d_model} hidden={first.hidden} tokens={fx.n_tokens}")
    print(f"wrote {args.out_model}")
    print(f"wrote {args.out_calib}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    cfg = _resolve_config(args)
    model = _load_model_file(args.model)
    tokens, _ = _load_calib_file(args.calib)
    n_use = min(cfg.calib_samples, tokens.shape[1])
    # the capture alone: the CSV holds frequencies and Gram traces, no Fisher block
    with blas_threads(1):
        _, captures = capture_calibration(model, tokens[:, :n_use])
    lines = ["layer,expert,frequency,gram_trace_up,gram_trace_down"]
    for l, cap in enumerate(captures):
        for i, freq in enumerate(expert_frequency(cap.trace)):
            tr_up = float(np.trace(cap.grams[Role.UP][i]))
            tr_down = float(np.trace(cap.grams[Role.DOWN][i]))
            lines.append(f"{l},{i},{float(freq)!r},{tr_up!r},{tr_down!r}")
    Path(args.out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {args.out} ({n_use} tokens)")
    return EXIT_OK


def _cmd_compress(args) -> int:
    cfg = _resolve_config(args)
    model = _load_model_file(args.model)
    tokens, labels = _load_calib_file(args.calib)
    compressed, rep = compress(cfg, model, tokens, labels=labels)
    save_compressed_model(args.out, compressed)
    write_report(args.report, rep)
    stored = sum(rec.params.census_static for rec in rep.layers)
    print(f"loss {rep.loss_before:.6f} -> {rep.loss_after:.6f}; "
          f"stored expert params {stored}")
    print(f"wrote {args.out}")
    print(f"wrote {args.report}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    model = _load(args.model, (MoEModel, CompressedModel), "holds calibration data, not a model")
    tokens, labels = _load_calib_file(args.calib)
    result = evaluate(model, tokens, labels, batch_size=cfg.batch_size)
    print(f"loss={result.loss!r} perplexity={result.perplexity!r} tokens={result.n_tokens}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _resolve_config(args)
    if args.frontier:
        try:
            ratios = [float(part) for part in args.frontier.split(",") if part.strip()]
        except ValueError:
            ratios = []
        if not ratios:
            raise ConfigError(f"--frontier expects comma-separated ratios, got {args.frontier!r}")
    if (args.sensitivity or args.frontier) and not args.calib:
        raise ConfigError("analyze: --sensitivity and --frontier require --calib")
    model = _load_model_file(args.model)
    if args.cka and not 0 <= args.layer < len(model.layers):
        raise ConfigError(f"--layer {args.layer} outside [0, {len(model.layers) - 1}]")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote_any = False

    if args.cka:
        w = model.layers[args.layer].weights[Role(args.role)]
        matrix = [[cka(a, b) for b in w] for a in w]
        write_cka_csv(out_dir / "cka.csv", matrix)
        print(f"wrote {out_dir / 'cka.csv'}")
        wrote_any = True

    if args.sensitivity:
        tokens, labels = _load_calib_file(args.calib)
        n_use = min(cfg.calib_samples, tokens.shape[1])
        profile = layer_sensitivity_scan(model, tokens[:, :n_use], labels[:n_use],
                                         probe_ratio=args.probe_ratio, config=cfg)
        # --budget is a parameter-weighted mean ratio; weights are relative to
        # layer 0's expert parameters, so equal-size layers weigh exactly 1
        sizes = [layer.n_experts * layer.hidden * (layer.d_model + layer.d_out) for layer in model.layers]
        alloc = allocate_adaptive_ratios(profile, budget=args.budget, p_min=args.p_min,
                                         layer_params=[size / sizes[0] for size in sizes])
        write_sensitivity_csv(out_dir / "sensitivity.csv", profile.increases, alloc.ratios)
        print(f"wrote {out_dir / 'sensitivity.csv'}")
        wrote_any = True

    if args.frontier:
        tokens, labels = _load_calib_file(args.calib)
        points = ratio_frontier(model, tokens, labels, cfg, ratios)
        write_frontier_csv(out_dir / "frontier.csv", points)
        print(f"wrote {out_dir / 'frontier.csv'}")
        wrote_any = True

    if not wrote_any:
        raise ConfigError("analyze: choose at least one of --cka, --sensitivity, --frontier")
    return EXIT_OK


def _cmd_report(args) -> int:
    rep = read_report(args.report)
    print(f"version={rep.version} seed={rep.seed}")
    print(f"loss_before={rep.loss_before!r} loss_after={rep.loss_after!r}")
    for rec in rep.layers:
        p = rec.params
        print(f"layer {rec.layer}: rank={rec.rank} static {p.original_static:.0f}->"
              f"{p.compressed_static:.0f} (census {p.census_static}) "
              f"active/token {p.compressed_active:.0f} trimmed={list(rec.trimmed)}")
    for stage, seconds in rep.timings:
        print(f"timing {stage}: {seconds:.3f}s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2moe",
        description="Compress mixture-of-experts models into a shared pruned base "
                    "plus low-rank per-expert deltas.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixture", help="generate a seeded synthetic model + calibration set",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--experts", dest="n_experts", type=int, metavar="EXPERTS")
    p.add_argument("--d-model", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--rank-noise", type=int,
                   help="rank of the shared-structure deviation per expert")
    p.add_argument("--tokens", type=int)
    p.add_argument("--top-k", type=int)
    p.add_argument("--classes", dest="num_classes", type=int, metavar="CLASSES")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-calib", required=True)
    p.set_defaults(func=_cmd_gen_fixture)

    p = sub.add_parser("calibrate",
                       help="capture routing frequencies and Gram traces to CSV "
                            "(columns: layer,expert,frequency,gram_trace_up,gram_trace_down)")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("compress", help="run the full compression pipeline")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True, help="compressed model container path")
    p.add_argument("--report", required=True, help="JSONL run report path")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("eval", help="mean cross-entropy of a dense or compressed model")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze",
                       help="similarity, sensitivity, and frontier tables "
                            "(cka.csv, sensitivity.csv, frontier.csv)")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", help="needed for --sensitivity / --frontier")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--cka", action="store_true", help="expert-pair CKA of one layer/role")
    p.add_argument("--layer", type=int, default=0, help="layer for --cka (default 0)")
    p.add_argument("--role", choices=("up", "down"), default="up", help="role for --cka")
    p.add_argument("--sensitivity", action="store_true",
                   help="per-layer loss increase at --probe-ratio plus allocated ratios")
    p.add_argument("--probe-ratio", type=float, default=0.5)
    p.add_argument("--budget", type=float, default=0.5,
                   help="parameter-weighted mean ratio for the allocation")
    p.add_argument("--p-min", type=float, default=0.05)
    p.add_argument("--frontier", metavar="R1,R2,...",
                   help="sweep these delta ratios and record loss/params")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ContainerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except D2MoeError as exc:  # ConfigError, ShapeError, ParameterError, DegenerateInputError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
