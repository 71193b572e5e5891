"""In-memory span tracer that wraps d2moe's public functions from outside.

`Tracer.install()` rebinds each target name in every loaded `d2moe` module
that holds the original function object (so `route_batch`, bound in `moe`,
`runtime` and `gradients`, is wrapped everywhere it is called from), and
`uninstall()` puts the originals back. A target missing from the package is
recorded as absent instead of failing the run.

A span is (id, name, start, end, parent id, thread id, request id). The
benchmark opens one request per compress call or per forward call; spans
opened on pool threads inherit the span that was open on the submitting
thread, so per-layer work in `_map_layers` is attributed to its stage.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time
import traceback
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

# (module, function) pairs that get a span each.
SPAN_TARGETS = (
    ("gradients", "fisher_accumulate"),
    ("gradients", "backward_logloss"),
    ("moe", "route_batch"),
    ("moe", "capture_calibration"),
    ("moe", "layer_forward_dense"),
    ("moe", "moe_forward_dense"),
    ("factorize", "truncation_aware_svd"),
    ("factorize", "weighted_error"),
    ("linalg", "svd"),
    ("linalg", "cholesky_damped"),
    ("linalg", "solve_lower_triangular"),
    ("pruning", "dynamic_mask"),
    ("pruning", "static_prune"),
    ("runtime", "compressed_model_forward"),
    ("runtime", "compressed_forward"),
    ("runtime", "batch_active_columns"),
    ("merge", "fisher_merge"),
    ("merge", "mean_merge"),
    ("pipeline", "compress"),
    ("pipeline", "evaluate"),
    ("pipeline", "compute_layer_stats"),
    ("pipeline", "merge_layer"),
    ("pipeline", "factorize_layer"),
    ("pipeline", "prune_layer"),
    ("pipeline", "_map_layers"),
    ("container", "container_load"),
    ("container", "container_save"),
    ("report", "write_report"),
    ("cli", "main"),
    ("fixtures", "gen_fixture"),
)

# Called far too often for a span each; only counted.
COUNT_TARGETS = (
    ("linalg", "as_matrix"),
    ("pipeline", "worker_count"),
    ("merge", "fisher_fallback_entries"),
)

COMPRESSED_FORWARD = "runtime.compressed_model_forward"
DENSE_FORWARD = "moe.moe_forward_dense"


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.requests: dict[int, list] = {}   # id -> [kind, phase, start, end]
        self.counts = {"setup": defaultdict(float), "measured": defaultdict(float)}
        self.expert_counts: dict[int, np.ndarray] = {}  # measured routing, per router
        self.absent: list[str] = []
        self.observer_errors: dict[str, str] = {}  # target -> first traceback
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._saved: list[tuple] = []

    # -- context -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = [(0, 0)]
        return stack

    @contextmanager
    def request(self, kind: str, phase: str):
        """One user-visible operation; every span inside carries its id."""
        rid = next(self._ids)
        saved = self._stack()
        self._tls.stack = [(0, rid)]
        record = self.requests[rid] = [kind, phase, time.perf_counter(), None]
        try:
            yield rid
        finally:
            record[3] = time.perf_counter()
            self._tls.stack = saved

    def _phase(self) -> str:
        request = self.requests.get(self._stack()[-1][1])
        return request[1] if request is not None else "measured"

    def _add(self, key: str, value: float) -> None:
        self.counts[self._phase()][key] += value

    def _propagate(self, fn):
        """Run `fn` on another thread under the caller's current span."""
        context = self._stack()[-1]

        def run(*args, **kwargs):
            saved = getattr(self._tls, "stack", None)
            self._tls.stack = [context]
            try:
                return fn(*args, **kwargs)
            finally:
                self._tls.stack = saved
        return run

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, observe):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        forward = name == COMPRESSED_FORWARD
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent, rid = stack[-1]
            sid = next(ids)
            stack.append((sid, rid))
            if forward:
                tls.in_forward = getattr(tls, "in_forward", 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if forward:
                    tls.in_forward -= 1
                spans.append((sid, name, start, end, parent, threading.get_ident(), rid))
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _guard(self, name: str, observe):
        """An observer that stops counting, instead of failing the call, when
        the wrapped function's arguments or result change shape."""
        if observe is None:
            return None
        errors = self.observer_errors

        def guarded(args, kwargs, result):
            if name in errors:
                return
            try:
                observe(args, kwargs, result)
            except Exception:  # report and keep the program running
                errors[name] = traceback.format_exc()
        return guarded

    def _count_wrapper(self, name: str, fn, observe):
        add, tls = self._add, self._tls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if getattr(tls, "in_forward", 0):
                add(name + ".calls_in_forward", 1)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded d2moe module."""
        if self._saved:
            return
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "d2moe" or name.startswith("d2moe."))]
        replacements = {}
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for mod_name, fn_name in targets:
                name = f"{mod_name}.{fn_name}"
                try:
                    mod = importlib.import_module(f"d2moe.{mod_name}")
                except ImportError:
                    self.absent.append(name)
                    continue
                original = getattr(mod, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                replacements[id(original)] = (original, make(name, original, self._guard(name, self._observer(name))))
        tracer = self

        class PropagatingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._propagate(fn), *args, **kwargs)

        replacements[id(ThreadPoolExecutor)] = (ThreadPoolExecutor, PropagatingPool)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    # -- observers: counts read from arguments and results -------------------

    def _observer(self, name: str):
        add = self._add

        def route_batch(args, kwargs, result):
            gate_w, x = args[0], args[2]
            add("moe.route_batch.tokens", x.shape[1])
            if self._phase() == "measured":
                tally = np.bincount(np.asarray(result[0]).ravel(), minlength=gate_w.shape[0])
                prev = self.expert_counts.get(id(gate_w))
                self.expert_counts[id(gate_w)] = tally if prev is None else prev + tally

        def fisher_accumulate(args, kwargs, result):
            add("gradients.fisher.tokens", np.shape(args[1])[1])

        def svd(args, kwargs, result):
            # Golub-Van Loan estimate for a thin SVD with both singular-vector sets
            m, n = sorted(np.shape(args[0]), reverse=True)
            add("linalg.svd.flops_computed", 14 * m * n * n + 8 * n ** 3)

        default_damping = getattr(sys.modules.get("d2moe.linalg"), "DEFAULT_DAMPING", None)

        def cholesky_damped(args, kwargs, result):
            g = np.asarray(args[0])
            base = args[1] if len(args) > 1 else kwargs.get("base_damping", default_damping)
            lam0 = base * float(np.trace(g)) / g.shape[0]
            if lam0 > 0.0:
                add("linalg.cholesky_damped.doublings", round(math.log2(result[1] / lam0)))

        def batch_active_columns(args, kwargs, result):
            layer = args[0]
            for role, ids in result.items():
                add(f"pruning.active_col_share.{role.value}.sum", ids.size / layer.base[role].mask.total_cols)
                add(f"pruning.active_col_share.{role.value}.n", 1)

        def worker_count(args, kwargs, result):
            counts = self.counts[self._phase()]
            counts["pipeline.workers"] = max(counts["pipeline.workers"], result)

        def fisher_fallback_entries(args, kwargs, result):
            add("merge.fallback_entries", result)

        def container_save(args, kwargs, result):
            add("container.bytes", os.path.getsize(args[0]))

        return {
            "moe.route_batch": route_batch,
            "gradients.fisher_accumulate": fisher_accumulate,
            "linalg.svd": svd,
            "linalg.cholesky_damped": cholesky_damped,
            "runtime.batch_active_columns": batch_active_columns,
            "pipeline.worker_count": worker_count,
            "merge.fisher_fallback_entries": fisher_fallback_entries,
            "container.container_save": container_save,
        }.get(name)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as tab-separated lines: id name start end parent thread request kind phase."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\trequest\tkind\tphase\n")
            for sid, name, start, end, parent, thread, rid in self.spans:
                kind, phase = self.requests.get(rid, ("", ""))[:2]
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{thread}\t{rid}\t{kind}\t{phase}\n")


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one measured unit of work.

    Totals over set-up requests are added to totals over measured requests
    divided by `units`. Each share names its base: `share_of_compress` is a
    share of the wall time of the benchmark's compress requests, and
    `share_of_compressed_forward` / `share_of_dense_forward` a share of the
    outermost forward spans of the measured phase. The part is the union of
    the function's span intervals, so work on parallel threads is not
    counted twice.
    """
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    phase = {rid: req[1] for rid, req in tracer.requests.items()}
    kind = {rid: req[0] for rid, req in tracer.requests.items()}

    def ancestors(span) -> set:
        names, parent = set(), span[4]
        while parent in by_id:
            names.add(by_id[parent][1])
            parent = by_id[parent][4]
        return names

    agg = {"setup": defaultdict(lambda: [0, 0.0, 0.0]), "measured": defaultdict(lambda: [0, 0.0, 0.0])}
    for s in spans:
        dur = s[3] - s[2]
        covered = _union_length((max(a, s[2]), min(b, s[3]))
                                for a, b in children.get(s[0], ()) if b > s[2] and a < s[3])
        row = agg["setup" if phase.get(s[6]) == "setup" else "measured"][s[1]]
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered
    out: dict[str, float] = {}
    for mod_name, fn_name in SPAN_TARGETS:
        name = f"{mod_name}.{fn_name}"
        once, per_unit = agg["setup"].get(name, (0, 0.0, 0.0)), agg["measured"].get(name, (0, 0.0, 0.0))
        for i, field in enumerate(("calls", "s", "self_s")):
            out[f"{name}.{field}"] = once[i] + per_unit[i] / units

    setup, measured = tracer.counts["setup"], tracer.counts["measured"]

    def count(key: str) -> float:
        return setup.get(key, 0.0) + measured.get(key, 0.0) / units

    def both(key: str) -> float:
        return setup.get(key, 0.0) + measured.get(key, 0.0)

    fisher_tokens = count("gradients.fisher.tokens")
    out["gradients.fisher.s_per_token"] = (
        out["gradients.fisher_accumulate.s"] / fisher_tokens if fisher_tokens else 0.0)
    out["moe.route_batch.tokens"] = count("moe.route_batch.tokens")
    loads = [t.max() / t.sum() for t in tracer.expert_counts.values() if t.sum()]
    out["moe.expert_load.max_share"] = max(loads, default=0.0)
    out["linalg.svd.flops_computed"] = count("linalg.svd.flops_computed")
    out["linalg.cholesky_damped.doublings"] = count("linalg.cholesky_damped.doublings")
    forwards = sum(1 for s in spans if s[1] == COMPRESSED_FORWARD)
    out["linalg.as_matrix.calls_per_forward"] = (
        both("linalg.as_matrix.calls_in_forward") / forwards if forwards else 0.0)
    for role in ("up", "down"):
        n = both(f"pruning.active_col_share.{role}.n")
        out[f"pruning.active_col_share.{role}"] = (
            both(f"pruning.active_col_share.{role}.sum") / n if n else 0.0)
    out["merge.fallback_entries"] = count("merge.fallback_entries")
    out["pipeline.workers"] = max(setup.get("pipeline.workers", 0.0), measured.get("pipeline.workers", 0.0))
    out["container.bytes"] = count("container.bytes")

    compress_wall = sum(r[3] - r[2] for r in tracer.requests.values() if r[0] == "compress")
    for name in ("gradients.fisher_accumulate", "moe.capture_calibration",
                 "pipeline.factorize_layer", "linalg.svd"):
        part = _union_length((s[2], s[3]) for s in spans if s[1] == name and kind.get(s[6]) == "compress")
        out[f"{name}.share_of_compress"] = part / compress_wall if compress_wall else 0.0
    timed = [s for s in spans if phase.get(s[6]) == "measured"]
    base_totals = {}
    for base, label, parts in ((COMPRESSED_FORWARD, "compressed_forward",
                                ("moe.route_batch", "pruning.dynamic_mask", "runtime.batch_active_columns")),
                               (DENSE_FORWARD, "dense_forward", ("moe.route_batch",))):
        base_totals[base] = sum(s[3] - s[2] for s in timed if s[1] == base and base not in ancestors(s))
        for name in parts:
            part = _union_length((s[2], s[3]) for s in timed if s[1] == name and base in ancestors(s))
            out[f"{name}.share_of_{label}"] = part / base_totals[base] if base_totals[base] else 0.0
    out["runtime.compressed_over_dense"] = (
        base_totals[COMPRESSED_FORWARD] / base_totals[DENSE_FORWARD] if base_totals[DENSE_FORWARD] else 0.0)
    return out
