"""Benchmark for d2moe: compression wall time and compressed inference speed.

Usage (from the repository root):

    python3 bench/run.py --workload compress-fisher --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

Workloads (see BENCHMARK.json for why each exists, bench/METRICS.md for
what each metric means and what each per-module metric should move):

    compress-fisher  in-process `d2moe compress --merge fisher` (the README
                     quick-start config), repeated for --seconds and at least
                     six times, with the held-out stream run at batch 128
                     between the calls
    infer-b1         set-up also runs `compress --merge mean`; compressed,
                     then dense, forward of the held-out stream, one token
                     per call, closed loop with one client, in slices with a
                     mean-merge compress call between slices

Every workload generates `gen_fixture(seed, layers=4, d_model=64,
hidden=128, n_experts=16, top_k=2, tokens=8192)` through `d2moe gen-fixture`.
`compress` calibrates on the first 512 tokens; the other 7680 are a held-out
stream it never sees.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps the package's functions (bench/spans.py) and reports per-module
metrics instead. The benchmark never sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or D2MOE_THREADS: it records them, because BLAS thread
oversubscription is a measured property of the program. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; the
exit code is non-zero when any output check failed.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib
import ctypes
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from oracle import CompressedOracle, DenseOracle, relative_error

WORKLOADS = ("compress-fisher", "infer-b1")
FIXTURE_ARGS = ["--layers", "4", "--d-model", "64", "--hidden", "128", "--experts", "16",
                "--top-k", "2", "--tokens", "8192"]
COMPRESS_ARGS = ["--ratio-delta", "0.5", "--sparsity", "0.4"]
CALIB_SAMPLES = 512          # the `compress` default; checked against the report
TRACE_UNIT_TOKENS = 1024     # held-out tokens in one traced inference unit
SETUP_REPS = 3
MIN_COMPRESS = 6             # compress-fisher: timed compress calls per run, at least
EXTRA_COMPRESS = 11          # infer-b1: compress calls between inference slices
HELDOUT_PASSES = 3           # compress-fisher: passes over the held-out stream at batch 128
REL_TOL = 1e-9
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "D2MOE_THREADS")


@dataclass(frozen=True)
class Spec:
    merge: str                 # merge method of the compress calls
    batch: int = 128           # tokens per forward call
    chunk: int = 128           # tokens per compressed-then-dense alternation
    loss_tokens: int = 7680    # fixed held-out set that heldout_loss is measured on
    oracle_every: int = 15     # every n-th compressed/dense call is checked
    tail_block: int = 180      # consecutive compressed calls per latency-tail block


SPECS = {
    "compress-fisher": Spec(merge="fisher"),
    "infer-b1": Spec(merge="mean", batch=1, chunk=64, loss_tokens=4096, oracle_every=32,
                     tail_block=500),
}


class BenchError(Exception):
    """A step the benchmark cannot continue past."""


class Bench:
    def __init__(self, d2moe, workload: str, seed: int, seconds: float, work: Path, tracer=None):
        self.d2moe = d2moe
        self.workload = workload
        self.spec = SPECS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.samples: list[tuple] = []   # (x, compressed logits, dense logits)
        self.reference = None            # (container, report) of the first compress call

    # -- helpers -----------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)

    @contextlib.contextmanager
    def request(self, kind: str, phase: str, traced: bool):
        if traced:
            with self.tracer.request(kind, phase):
                yield
        else:
            yield

    def cli(self, argv: list, phase: str = "measured", traced: bool = False) -> float:
        """One in-process `d2moe` command; returns its wall time."""
        out = io.StringIO()
        with self.request(argv[0], phase, traced):
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = self.d2moe.cli.main([str(a) for a in argv])
            seconds = time.perf_counter() - start
        if rc != 0:
            raise BenchError(f"d2moe {argv[0]} exited {rc}: {out.getvalue().strip()}")
        return seconds

    # -- set-up --------------------------------------------------------------

    def set_up(self, rep: int, traced: bool = False) -> dict:
        """Fixture through `d2moe gen-fixture`, loaded; infer-* also compress and reload."""
        d = self.work / f"setup{rep}"
        d.mkdir(parents=True)
        state = {"model": d / "dense.d2m", "calib": d / "calib.d2m"}
        self.cli(["gen-fixture", "--seed", self.seed, *FIXTURE_ARGS,
                  "--out-model", state["model"], "--out-calib", state["calib"]], "setup", traced)
        with self.request("load", "setup", traced):
            tokens, labels = self.d2moe.load_any(state["calib"])
            state["dense"] = self.d2moe.load_any(state["model"])
        state["heldout"] = tokens[:, CALIB_SAMPLES:]
        state["heldout_labels"] = labels[CALIB_SAMPLES:]
        if self.workload.startswith("infer-"):
            state["compress_s"] = self.compress_once(state, f"setup{rep}", "setup", traced)
            if math.isnan(state["compress_s"]):
                raise BenchError("set-up compress failed")
            with self.request("load", "setup", traced):
                state["compressed"] = self.d2moe.load_any(self.reference[0])
        return state

    # -- compress ----------------------------------------------------------------

    def compress_once(self, state: dict, tag: str, phase: str = "measured",
                      traced: bool = False) -> float:
        """One timed compress call; later calls must match the first byte for byte."""
        out, report = self.work / f"{tag}.d2m", self.work / f"{tag}.jsonl"
        argv = ["compress", "--model", state["model"], "--calib", state["calib"],
                "--merge", self.spec.merge, *COMPRESS_ARGS, "--out", out, "--report", report]
        self.attempted += 1
        try:
            seconds = self.cli(argv, phase, traced)
        except BenchError as exc:
            self.fail(str(exc))
            return math.nan
        if self.reference is None:
            self.reference = (out, report)
            return seconds
        container, first_report = self.reference
        if out.read_bytes() != container.read_bytes():
            self.fail(f"compress {tag}: container bytes differ from the first compress call")
        if _stripped_report(report) != _stripped_report(first_report):
            self.fail(f"compress {tag}: report (timings stripped) differs from the first compress call")
        out.unlink()
        report.unlink()
        return seconds

    # -- inference -----------------------------------------------------------------

    def stream(self, compressed, dense, tokens: np.ndarray, result: dict | None = None,
               stop: int | None = None, seconds: float | None = None, chunks: int | None = None,
               traced: bool = False) -> dict:
        """Alternate chunks of compressed and dense calls over `tokens`.

        Compressed calls on a chunk run first, then dense calls on the same
        chunk, so both see the same machine conditions. The stream resumes
        where `result` left it and runs up to position `stop`, for `seconds`,
        for `chunks` chunks (across passes), or (given none) to the end of
        `tokens`. Logits of the first pass over the first `loss_tokens`
        tokens are kept for the held-out loss.
        """
        spec, d2moe = self.spec, self.d2moe
        if result is None:
            result = {"lat": {"compressed": [], "dense": []}, "loss_logits": [],
                      "dense_loss_logits": [], "calls": 0, "pos": 0, "lap": 0}
        usable = tokens.shape[1] - tokens.shape[1] % spec.chunk
        start, done = time.perf_counter(), 0
        while True:
            pos = result["pos"]
            batches = [tokens[:, pos + j:pos + j + spec.batch] for j in range(0, spec.chunk, spec.batch)]
            outputs = {}
            for kind, model, forward in (("compressed", compressed, "compressed_model_forward"),
                                         ("dense", dense, "moe_forward_dense")):
                outs = []
                for xb in batches:
                    self.attempted += 1
                    try:
                        with self.request(f"{kind}-forward", "measured", traced):
                            t0 = time.perf_counter()
                            logits, _ = getattr(d2moe, forward)(model, xb)
                            dt = time.perf_counter() - t0
                    except Exception:  # any program failure is a failed operation
                        self.fail(f"{kind} forward raised:\n{traceback.format_exc()}")
                        outs.append(None)
                        continue
                    result["lat"][kind].append(dt)
                    outs.append(logits)
                outputs[kind] = outs
            for j, xb in enumerate(batches):
                if (result["calls"] + j) % spec.oracle_every == 0:
                    self.samples.append((xb, outputs["compressed"][j], outputs["dense"][j]))
                if result["lap"] == 0 and pos + j * spec.batch < spec.loss_tokens:
                    result["loss_logits"].append(outputs["compressed"][j])
                    result["dense_loss_logits"].append(outputs["dense"][j])
            result["calls"] += len(batches)
            result["pos"] = pos + spec.chunk
            done += 1
            if result["pos"] >= usable:
                result["pos"], result["lap"] = 0, result["lap"] + 1
                if stop is None and seconds is None and chunks is None:
                    break
            if chunks is not None and done >= chunks:
                break
            if stop is not None and (result["pos"] >= stop or result["pos"] == 0):
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        return result

    def check_samples(self, state: dict) -> int:
        """Compare sampled logits with the numpy oracle; returns checks made."""
        comp_oracle = CompressedOracle(self.reference[0])
        dense_oracle = DenseOracle(state["model"])
        for x, c, d in self.samples:
            for name, got, oracle in (("compressed", c, comp_oracle), ("dense", d, dense_oracle)):
                if got is None:
                    continue
                err = relative_error(got, oracle.logits(x))
                if not err <= REL_TOL:
                    self.fail(f"{name} logits differ from the oracle: relative error {err:.3e} "
                              f"on a batch of {x.shape[1]}")
        checked = len(self.samples)
        self.samples = []
        return checked


def _stripped_report(path: Path) -> list:
    """Report lines without the wall-clock `timing` records."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if json.loads(line).get("record") != "timing"]


def _param_ratios(report: Path) -> tuple[float, float, int]:
    """(stored, active per token) census over original, and calib_samples."""
    stored = original = active = original_active = 0.0
    calib = -1
    for line in report.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec.get("record") == "config":
            calib = int(rec.get("calib_samples", -1))
        if rec.get("record") == "layer":
            p = rec["params"]
            stored += p["census_static"]
            original += p["original_static"]
            active += p["census_active_per_token"]
            original_active += p["original_active"]
    return stored / original, active / original_active, calib


def _heldout_loss(logits_list: list, labels: np.ndarray) -> float:
    if not logits_list or any(l is None for l in logits_list):
        return math.nan
    logits = np.concatenate(logits_list, axis=1)
    y = labels[:logits.shape[1]]
    top = logits.max(axis=0)
    lse = top + np.log(np.exp(logits - top).sum(axis=0))
    return float(np.mean(lse - logits[y, np.arange(y.size)]))


def _tail(samples: list, block: int) -> tuple[float, float, int]:
    """(percentile, value, blocks): the tail percentile of each block of
    `block` consecutive calls, median over the run's whole blocks.

    The percentile is the highest grid one with >= 10 calls of a block beyond
    it. One percentile over the whole run follows its few slowest seconds
    (see METRICS.md); the median of block tails does not.
    """
    q = max([p for p in TAIL_GRID if block * (1.0 - p / 100.0) >= 10.0], default=50.0)
    n = max(len(samples) // block, 1)
    tails = [np.percentile(samples[i * block:(i + 1) * block], q) for i in range(n)]
    return q, float(statistics.median(tails)), n


def _sustained_tok_s(samples: list, calls: int, batch: int) -> float:
    """Tokens per second that three quarters of the run's windows of `calls`
    consecutive calls reach: the first quartile of per-window throughput.

    The machine's speed switches between two levels about 1.5-2x apart for
    seconds at a time, and the share of fast time differs from run to run;
    the mean or median of a run follows that share, the first quartile stays
    on the slower level (see METRICS.md).
    """
    n = max(len(samples) // calls, 1)
    rates = [batch * len(w) / math.fsum(w) for w in (samples[i * calls:(i + 1) * calls] for i in range(n))]
    return float(np.percentile(rates, 25.0))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_threads() -> dict:
    """Effective OpenBLAS thread count of each bundled numpy/scipy library."""
    found = {}
    for pkg in ("numpy", "scipy"):
        spec = importlib.util.find_spec(pkg)
        if spec is None or not spec.submodule_search_locations:
            continue
        libdir = Path(list(spec.submodule_search_locations)[0]).parent / f"{pkg}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError as exc:
                found[lib.name] = f"unloadable: {exc}"
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else ref
    return ref


def environment(d2moe, root: Path) -> dict:
    import scipy
    try:
        workers = d2moe.pipeline.worker_count(4)
    except (AttributeError, d2moe.ConfigError) as exc:
        workers = f"unavailable: {exc}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "pipeline_worker_count": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_untraced(bench: Bench, import_s: float) -> tuple[dict, dict]:
    setup_times, compress_times, state = [], [], None
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        rep_state = bench.set_up(rep)
        setup_times.append(time.perf_counter() - t0)
        state = state or rep_state
        if "compress_s" in rep_state:
            compress_times.append(rep_state["compress_s"])
    info = {"setup_reps_s": setup_times}

    if bench.workload.startswith("compress-"):
        # Compress calls alternate with segments of the held-out passes at
        # batch 128, so both sets of timings spread over the whole run: the
        # passes are split evenly over the gaps after the first MIN_COMPRESS calls.
        segment = -(-HELDOUT_PASSES * (state["heldout"].shape[1] // bench.spec.chunk) // MIN_COMPRESS)
        result, compressed = None, None
        start = time.perf_counter()
        while True:
            more = len(compress_times) < MIN_COMPRESS or time.perf_counter() - start < bench.seconds
            passed = result is not None and result["lap"] >= HELDOUT_PASSES
            if not more and passed:
                break
            if more:
                compress_times.append(bench.compress_once(state, f"rep{len(compress_times)}"))
            if bench.reference is None:
                raise BenchError("the first compress call failed")
            if compressed is None:
                compressed = bench.d2moe.load_any(bench.reference[0])
            if not passed:
                result = bench.stream(compressed, state["dense"], state["heldout"], result, chunks=segment)
    else:
        # Inference slices alternate with compress calls for the same reason.
        result, slices = None, EXTRA_COMPRESS + 1
        for i in range(slices):
            result = bench.stream(state["compressed"], state["dense"], state["heldout"], result,
                                  seconds=bench.seconds / slices)
            if i < EXTRA_COMPRESS:
                compress_times.append(bench.compress_once(state, f"extra{i}"))
        if result["lap"] == 0 and result["pos"] < bench.spec.loss_tokens:
            result = bench.stream(state["compressed"], state["dense"], state["heldout"], result,
                                  stop=bench.spec.loss_tokens)
    compress_times = [t for t in compress_times if not math.isnan(t)]
    info["compress_reps_s"] = compress_times
    info["oracle_checks"] = bench.check_samples(state)

    stored, active, calib = _param_ratios(bench.reference[1])
    if calib != CALIB_SAMPLES:
        bench.fail(f"report says calib_samples={calib}, the held-out split assumes {CALIB_SAMPLES}")
    lat, dense_lat = result["lat"]["compressed"], result["lat"]["dense"]
    if not compress_times or not lat or not dense_lat:
        raise BenchError("no successful timed operation")
    tail_q, tail, tail_blocks = _tail(lat, bench.spec.tail_block)
    window = bench.spec.chunk // bench.spec.batch
    info.update(latency_tail_percentile=tail_q, latency_tail_blocks=tail_blocks,
                latency_samples=len(lat), throughput_window_calls=window,
                latency_ms_p50=1e3 * statistics.median(lat),
                latency_ms_mean=1e3 * statistics.fmean(lat),
                mean_tok_s=bench.spec.batch * len(lat) / math.fsum(lat),
                mean_dense_tok_s=bench.spec.batch * len(dense_lat) / math.fsum(dense_lat),
                dense_latency_samples=len(dense_lat),
                compressed_calls=result["calls"],
                heldout_tokens=sum(l.shape[1] for l in result["loss_logits"] if l is not None))
    # compress_s is a mean: one compress call takes 1.5-5 s depending on how
    # the program's BLAS threads collide, and a median of a dozen such calls
    # jumps between levels. The forward timings are quantiles that stay on
    # the machine's slower speed level (see _sustained_tok_s and METRICS.md).
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "compress_s": (statistics.fmean(compress_times), "s"),
        "tok_s": (_sustained_tok_s(lat, window, bench.spec.batch), "tok/s"),
        "dense_tok_s": (_sustained_tok_s(dense_lat, window, bench.spec.batch), "tok/s"),
        "latency_ms_p75": (1e3 * float(np.percentile(lat, 75.0)), "ms"),
        "latency_ms_tail": (1e3 * tail, "ms"),
        "stored_param_ratio": (stored, "ratio"),
        "active_param_ratio": (active, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    # Deterministic for a seed but spread widely across fixture seeds, so it
    # is reported beside the metrics rather than as one (see METRICS.md).
    info["heldout_loss"] = _heldout_loss(result["loss_logits"], state["heldout_labels"])
    info["dense_heldout_loss"] = _heldout_loss(result["dense_loss_logits"], state["heldout_labels"])
    if math.isnan(info["heldout_loss"]):
        bench.fail("held-out loss could not be computed")
    return metrics, info


def run_traced(bench: Bench) -> tuple[dict, dict]:
    """Traced set-up once, then alternating untraced and traced units of work.

    A unit is one compress call (compress-*) or one pass of compressed then
    dense calls over the first TRACE_UNIT_TOKENS held-out tokens (infer-*).
    Untraced units give the base for the tracing overhead.
    """
    tracer = bench.tracer
    tracer.install()
    try:
        state = bench.set_up(0, traced=True)
    finally:
        tracer.uninstall()
    unit_tokens = state["heldout"][:, :TRACE_UNIT_TOKENS]
    times = {False: [], True: []}
    start, i = time.perf_counter(), 0
    while not times[True] or time.perf_counter() - start < bench.seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                if bench.workload.startswith("compress-"):
                    bench.compress_once(state, f"unit{i}", traced=traced)
                else:
                    bench.stream(state["compressed"], state["dense"], unit_tokens, traced=traced)
                times[traced].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            i += 1
    if bench.reference is None:
        raise BenchError("no compress call succeeded")
    if bench.workload.startswith("compress-"):
        compressed = bench.d2moe.load_any(bench.reference[0])
        bench.stream(compressed, state["dense"], unit_tokens)
    checks = bench.check_samples(state)
    units = len(times[True])
    per_layer = spans.summarize(tracer, units)
    base = statistics.median(times[False])
    per_layer["trace.overhead_share"] = (statistics.median(times[True]) - base) / base
    info = {"units_traced": units, "units_untraced": len(times[False]),
            "unit_s_untraced": times[False], "unit_s_traced": times[True],
            "oracle_checks": checks, "absent": tracer.absent, "spans": len(tracer.spans),
            "observer_errors": tracer.observer_errors}
    return {name: (value, _per_layer_unit(name)) for name, value in per_layer.items()}, info


def _per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "s_per_token"):
        return "s"
    if last == "bytes":
        return "B"
    if "share" in name or last == "compressed_over_dense":
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def import_package(root: Path):
    """Import d2moe from this checkout's src/, never from an installed copy."""
    src = root / "src"
    if not (src / "d2moe" / "__init__.py").is_file():
        raise BenchError(f"no d2moe sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import d2moe
    import d2moe.cli
    import d2moe.pipeline
    if Path(d2moe.__file__).resolve().parent != (src / "d2moe").resolve():
        raise BenchError(f"imported d2moe from {d2moe.__file__}, expected {src / 'd2moe'}")
    return d2moe


def run_all(args) -> int:
    """Each workload in its own process; non-zero exit if any failed."""
    summary, ok = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(f"== {workload} (exit {proc.returncode})\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            summary["correct"] = False
            continue
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if ok and summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="fixture seed (default 0)")
    parser.add_argument("--seconds", type=float, default=12.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-module metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    root = Path(__file__).resolve().parent.parent
    try:
        d2moe = import_package(root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    bench = Bench(d2moe, args.workload, args.seed, args.seconds, work, tracer)
    env = environment(d2moe, root)
    try:
        if args.trace:
            metrics, info = run_traced(bench)
            tracer.write(root / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.tsv")
        else:
            metrics, info = run_untraced(bench, import_s)
    except BenchError as exc:
        bench.fail(str(exc))
        metrics, info = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = bench.failed == 0 and bool(metrics)
    error_rate = bench.failed / max(bench.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for note in bench.notes:
        print(f"failure: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    if "heldout_loss" in info:
        print(f"{'heldout_loss':48s} {info['heldout_loss']:.6g} nat "
              f"(dense {info['dense_heldout_loss']:.6g} nat; reported, not a metric)")
    print(f"{'error_rate':48s} {error_rate:.6g} ratio ({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
