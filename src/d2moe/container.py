"""Binary tensor container and model/calibration serialization.

File layout:

    bytes 0-7    magic "D2MZ0001"
    bytes 8-15   uint64 little-endian byte length of the manifest
    manifest     UTF-8 text, one line per tensor: "name rows cols offset"
    payloads     raw little-endian IEEE-754 binary64, row-major, each
                 payload starting at a 64-byte-aligned absolute offset

Offsets in the manifest are absolute file offsets. Saving the mapping
returned by container_load reproduces the original file byte for byte.
Both directions stream: a save writes each payload from its array's own
buffer, and a load reads each payload straight into its new array, so
neither holds a second copy of the file; `load_any` reads each payload
when its loader asks, so a dense model's experts go straight into stacks.
"""
from __future__ import annotations

import os
import re
from contextlib import contextmanager

import numpy as np

from .errors import (
    BadMagicError,
    ManifestError,
    NonFinitePayloadError,
    OverlappingPayloadError,
    ParameterError,
    ShapeError,
    TruncatedPayloadError,
)
from .factorize import DeltaFactor
from .moe import ROLES, MoELayer, MoEModel, Role
from .pruning import PrunedBase
from .runtime import CompressedLayer

MAGIC = b"D2MZ0001"
ALIGNMENT = 64
_NAME_RE = re.compile(r"^[A-Za-z0-9_./-]+$")

KIND_DENSE_MODEL = 0.0
KIND_COMPRESSED_MODEL = 1.0
KIND_CALIBRATION = 2.0


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _manifest_text(names, shapes, offsets) -> str:
    return "".join(
        f"{name} {shape[0]} {shape[1]} {offset}\n"
        for name, shape, offset in zip(names, shapes, offsets)
    )


def container_save(path, tensors) -> None:
    """Write named float64 matrices to `path` in the container format. Every
    tensor is checked before the file is opened."""
    names = list(tensors)
    if len(set(names)) != len(names):
        raise ParameterError("tensor names must be unique")
    arrays = []
    for name in names:
        if not _NAME_RE.match(name or ""):
            raise ParameterError(f"invalid tensor name {name!r}")
        a = np.ascontiguousarray(tensors[name], dtype="<f8")
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"tensor {name!r} must be 2-D with positive shape, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ShapeError(f"tensor {name!r} contains non-finite entries")
        arrays.append(a)
    shapes = [a.shape for a in arrays]

    # Offsets are absolute, so manifest length and offsets are mutually
    # dependent; iterate to the (monotone, hence existing) fixed point.
    offsets = [0] * len(arrays)
    for _ in range(10):
        manifest = _manifest_text(names, shapes, offsets).encode("utf-8")
        cursor = _align(len(MAGIC) + 8 + len(manifest))
        new_offsets = []
        for a in arrays:
            new_offsets.append(cursor)
            cursor = _align(cursor + a.nbytes)
        if new_offsets == offsets:
            break
        offsets = new_offsets
    else:
        raise ParameterError("container layout failed to stabilize")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(manifest).to_bytes(8, "little"))
        fh.write(manifest)
        cursor = len(MAGIC) + 8 + len(manifest)
        for a, offset in zip(arrays, offsets):
            fh.write(b"\x00" * (offset - cursor))
            fh.write(a)
            cursor = offset + a.nbytes


def container_load(path) -> dict[str, np.ndarray]:
    """Read a container back into an ordered name -> matrix mapping. The
    framing is checked against the file size before any payload is read;
    each payload is then read into its own array."""
    with _open_container(path) as tensors:
        return {name: tensors[name] for name in tensors}


class _Payloads:
    """An open container's tensors by name, in manifest order; looking one
    up reads its payload into a new array and checks it."""

    def __init__(self, path, fh, entries):
        self.path, self.fh = path, fh
        self.entries = {name: (rows, cols, offset) for name, rows, cols, offset in entries}
        self.unread = dict.fromkeys(self.entries)

    def __contains__(self, name) -> bool:
        return name in self.entries

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, name: str) -> np.ndarray:
        rows, cols, offset = self.entries[name]
        a = np.empty((rows, cols), dtype="<f8")
        self.fh.seek(offset)
        if self.fh.readinto(a) != a.nbytes:
            raise TruncatedPayloadError(f"{self.path}: tensor {name!r} payload is truncated")
        a = a.astype(np.float64, copy=False)
        if not np.all(np.isfinite(a)):
            raise NonFinitePayloadError(f"{self.path}: tensor {name!r} contains NaN or Inf")
        self.unread.pop(name, None)
        return a


@contextmanager
def _open_container(path):
    """The container at `path` as `_Payloads`, its framing checked against
    the file size; the file stays open while the block runs."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 8)
        if len(head) < len(MAGIC) or head[: len(MAGIC)] != MAGIC:
            raise BadMagicError(f"{path}: not a tensor container (bad magic)")
        if len(head) < len(MAGIC) + 8:
            raise ManifestError(f"{path}: missing manifest length")
        size = os.fstat(fh.fileno()).st_size
        manifest_len = int.from_bytes(head[len(MAGIC):], "little")
        manifest_end = len(MAGIC) + 8 + manifest_len
        if manifest_end > size:
            raise ManifestError(f"{path}: manifest extends past end of file")
        try:
            manifest = fh.read(manifest_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: manifest is not valid UTF-8") from exc
        yield _Payloads(path, fh, _manifest_entries(path, manifest, manifest_end, size))


def _manifest_entries(path, manifest: str, manifest_end: int, size: int) -> list:
    """The manifest's (name, rows, cols, offset) entries, checked: well-formed
    lines, unique names, and payloads that lie past the manifest, inside
    the `size`-byte file and clear of each other."""
    entries = []
    for line_no, line in enumerate(manifest.splitlines(), 1):
        parts = line.split(" ")
        if len(parts) != 4:
            raise ManifestError(f"{path}: manifest line {line_no} malformed: {line!r}")
        name = parts[0]
        if not _NAME_RE.match(name):
            raise ManifestError(f"{path}: manifest line {line_no} has invalid name {name!r}")
        try:
            rows, cols, offset = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ManifestError(f"{path}: manifest line {line_no} has non-integer fields") from exc
        if rows < 1 or cols < 1 or offset < 0:
            raise ManifestError(f"{path}: manifest line {line_no} out of range")
        entries.append((name, rows, cols, offset))
    if len({e[0] for e in entries}) != len(entries):
        raise ManifestError(f"{path}: duplicate tensor names in manifest")

    spans = []
    for name, rows, cols, offset in entries:
        nbytes = rows * cols * 8
        if offset < manifest_end:
            raise OverlappingPayloadError(f"{path}: tensor {name!r} overlaps the manifest region")
        if offset + nbytes > size:
            raise TruncatedPayloadError(f"{path}: tensor {name!r} payload is truncated")
        spans.append((offset, offset + nbytes, name))
    for (s0, e0, n0), (s1, e1, n1) in zip(sorted(spans), sorted(spans)[1:]):
        if e0 > s1:
            raise OverlappingPayloadError(f"{path}: tensors {n0!r} and {n1!r} overlap")
    return entries


# ---------------------------------------------------------------------------
# object serialization on top of the raw container
# ---------------------------------------------------------------------------

def _scalar(value: float) -> np.ndarray:
    return np.array([[float(value)]])


def _row(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(1, -1)


def _present(tensors, name: str) -> str:
    """`name`, if the container holds it; a missing tensor is a ManifestError."""
    if name not in tensors:
        raise ManifestError(f"container is missing tensor {name!r}")
    return name


def _tensor(tensors, name: str) -> np.ndarray:
    """Look up one tensor a loader needs; a missing one is a ManifestError."""
    return tensors[_present(tensors, name)]


def _meta_row(tensors: dict[str, np.ndarray], name: str, length: int | None = None,
              n_int: int | None = None) -> list:
    """Read one metadata row: `length` values (any number if None), the first
    `n_int` of them (all if None) integral. Returns ints, then floats; a row of
    another shape, or a count that is fractional or at least 2^53 in magnitude
    (past the exact float64 integers), is a ManifestError."""
    row = _tensor(tensors, name)
    if row.shape[0] != 1 or (length is not None and row.shape[1] != length):
        want = "1 row" if length is None else f"1 row of {length} values"
        raise ManifestError(f"tensor {name!r} has shape {row.shape}, expected {want}")
    values = row[0]
    n_int = values.size if n_int is None else n_int
    if np.any(values[:n_int] != np.trunc(values[:n_int])):
        raise ManifestError(f"tensor {name!r} holds non-integral metadata")
    if np.any(np.abs(values[:n_int]) >= 2.0 ** 53):
        raise ManifestError(f"tensor {name!r} holds integral metadata of magnitude 2^53 or more")
    return [int(v) for v in values[:n_int]] + [float(v) for v in values[n_int:]]


@contextmanager
def _assembling(part: str):
    """Report a shape or parameter error raised while building model objects
    from loaded tensors as a ManifestError naming `part`."""
    try:
        yield
    except (ShapeError, ParameterError) as exc:
        raise ManifestError(f"{part}: {exc}") from exc


def save_model(path, model: MoEModel) -> None:
    tensors: dict[str, np.ndarray] = {"meta/kind": _scalar(KIND_DENSE_MODEL)}
    for l, layer in enumerate(model.layers):
        if not isinstance(layer, MoELayer):
            raise ParameterError(f"layer {l} is not dense; save_model serializes dense models only")
        tensors[f"layer{l}/meta"] = _row([layer.top_k, layer.n_experts])
        tensors[f"layer{l}/gate"] = layer.gate
        for j in range(layer.n_experts):
            for role in ROLES:
                tensors[f"layer{l}/expert{j}/{role.value}"] = layer.weights[role][j]
    tensors["head"] = model.head
    container_save(path, tensors)


def _expert_stack(tensors, l: int, role: Role, n_experts: int):
    """Layer l's `role` weights of all experts as one (E, m, n) stack, filled
    one tensor at a time, so a lazily read container never holds a layer
    twice. Every name is checked present first; a shape other than expert
    0's is a ShapeError, and no experts give [] for `MoELayer` to reject."""
    names = [_present(tensors, f"layer{l}/expert{j}/{role.value}") for j in range(n_experts)]
    stack = []
    for j, name in enumerate(names):
        a = tensors[name]
        if j == 0:
            stack = np.empty((len(names), *a.shape))
        elif a.shape != stack.shape[1:]:
            raise ShapeError(f"{role.value} weights: tensor {name!r} has shape {a.shape}, "
                             f"expert 0 {stack.shape[1:]}")
        stack[j] = a
    return stack


def load_model(tensors) -> MoEModel:
    layers = []
    l = 0
    while f"layer{l}/meta" in tensors:
        top_k, n_experts = _meta_row(tensors, f"layer{l}/meta", 2)
        with _assembling(f"layer {l}"):
            weights = {role: _expert_stack(tensors, l, role, n_experts) for role in ROLES}
            layers.append(MoELayer(gate=_tensor(tensors, f"layer{l}/gate"), weights=weights,
                                   top_k=top_k))
        l += 1
    if not layers:
        raise ManifestError("container holds no layers")
    with _assembling("model"):
        return MoEModel(layers=layers, head=_tensor(tensors, "head"))


def save_calibration(path, tokens: np.ndarray, labels: np.ndarray) -> None:
    tensors = {
        "meta/kind": _scalar(KIND_CALIBRATION),
        "calib/tokens": tokens,
        "calib/labels": _row(labels),
    }
    container_save(path, tensors)


def load_calibration(tensors: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    tokens = _tensor(tensors, "calib/tokens")
    raw = _tensor(tensors, "calib/labels")
    if raw.shape[0] != 1:
        raise ManifestError(f"tensor 'calib/labels' has shape {raw.shape}, expected 1 row")
    raw = raw[0]
    labels = raw.astype(np.int64)
    if np.any(labels != raw):
        raise ManifestError("calibration labels are not integral")
    if labels.size != tokens.shape[1]:
        raise ShapeError(f"{labels.size} labels for {tokens.shape[1]} tokens")
    return tokens, labels


def save_compressed_model(path, model: MoEModel) -> None:
    tensors: dict[str, np.ndarray] = {"meta/kind": _scalar(KIND_COMPRESSED_MODEL)}
    for l, layer in enumerate(model.layers):
        if not isinstance(layer, CompressedLayer):
            raise ParameterError(f"layer {l} is not compressed; hybrid models are not serialized")
        tensors[f"layer{l}/meta"] = _row([layer.top_k, layer.n_experts, len(layer.trimmed)])
        tensors[f"layer{l}/gate"] = layer.gate
        if layer.trimmed:
            tensors[f"layer{l}/trimmed"] = _row(layer.trimmed)
        for role in (Role.UP, Role.DOWN):
            base = layer.base[role]
            prefix = f"layer{l}/base_{role.value}"
            tensors[f"{prefix}/kept"] = base.kept
            tensors[f"{prefix}/kept_ids"] = _row(base.kept_col_ids)
            tensors[f"{prefix}/meta"] = _row([base.total_cols, base.target_sparsity])
        for j in sorted(layer.deltas):
            for role in (Role.UP, Role.DOWN):
                factor = layer.deltas[j][role]
                tensors[f"layer{l}/expert{j}/{role.value}_u"] = factor.u
                tensors[f"layer{l}/expert{j}/{role.value}_v"] = factor.v
    tensors["head"] = model.head
    container_save(path, tensors)


def _load_pruned_base(tensors: dict[str, np.ndarray], l: int, role: Role) -> PrunedBase:
    prefix = f"layer{l}/base_{role.value}"
    kept_ids = _meta_row(tensors, f"{prefix}/kept_ids")
    total_cols, sparsity = _meta_row(tensors, f"{prefix}/meta", 2, n_int=1)
    with _assembling(f"layer {l}: {prefix}/meta"):
        return PrunedBase(kept=_tensor(tensors, f"{prefix}/kept"), kept_col_ids=kept_ids,
                          total_cols=total_cols, target_sparsity=sparsity)


def load_compressed_model(tensors: dict[str, np.ndarray]) -> MoEModel:
    layers = []
    l = 0
    while f"layer{l}/meta" in tensors:
        top_k, n_experts, n_trimmed = _meta_row(tensors, f"layer{l}/meta", 3)
        trimmed = tuple(_meta_row(tensors, f"layer{l}/trimmed", n_trimmed)) if n_trimmed else ()
        with _assembling(f"layer {l}"):
            base = {role: _load_pruned_base(tensors, l, role) for role in (Role.UP, Role.DOWN)}
            gate = _tensor(tensors, f"layer{l}/gate")
            if n_experts != gate.shape[0]:
                raise ManifestError(f"layer {l}: meta declares {n_experts} experts, gate has {gate.shape[0]} rows")
            deltas = {}
            for j in range(n_experts):  # an expert stores all four factor tensors or none
                prefix = f"layer{l}/expert{j}"
                if any(f"{prefix}/{role.value}_{part}" in tensors for role in ROLES for part in "uv"):
                    deltas[j] = {role: DeltaFactor(u=_tensor(tensors, f"{prefix}/{role.value}_u"),
                                                   v=_tensor(tensors, f"{prefix}/{role.value}_v"))
                                 for role in ROLES}
            layers.append(CompressedLayer(gate=gate, base=base, deltas=deltas, top_k=top_k))
        if layers[-1].trimmed != trimmed:
            raise ManifestError(f"layer {l}: trimmed row {list(trimmed)} != experts without "
                                f"factors {list(layers[-1].trimmed)}")
        l += 1
    if not layers:
        raise ManifestError("container holds no layers")
    with _assembling("model"):
        return MoEModel(layers=layers, head=_tensor(tensors, "head"))


def load_any(path):
    """Load a container and rebuild whatever object kind it declares. Each
    payload is read when the loader asks for it, and the rest afterwards,
    so every payload is checked."""
    loaders = {KIND_DENSE_MODEL: load_model, KIND_COMPRESSED_MODEL: load_compressed_model,
               KIND_CALIBRATION: load_calibration}
    with _open_container(path) as tensors:
        if "meta/kind" not in tensors:
            raise ManifestError("container has no meta/kind tensor")
        kind = float(tensors["meta/kind"][0, 0])
        if kind not in loaders:
            raise ManifestError(f"unknown container kind {kind}")
        loaded = loaders[kind](tensors)
        for name in list(tensors.unread):
            tensors[name]
    return loaded
