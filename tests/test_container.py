"""Container format tests.

The byte layout is checked by hand-parsing files with int.from_bytes and
np.frombuffer only, so a format drift cannot hide behind the loader. Error
cases are crafted as raw byte strings, and damaged copies of valid files
are fuzzed through load_any.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2moe.container import (
    ALIGNMENT,
    KIND_CALIBRATION,
    KIND_COMPRESSED_MODEL,
    KIND_DENSE_MODEL,
    MAGIC,
    container_load,
    container_save,
    load_any,
    load_calibration,
    load_compressed_model,
    load_model,
    save_calibration,
    save_compressed_model,
    save_model,
)
from d2moe.errors import (
    BadMagicError,
    ContainerError,
    ManifestError,
    NonFinitePayloadError,
    OverlappingPayloadError,
    ParameterError,
    ShapeError,
    TruncatedPayloadError,
)
from d2moe.factorize import vanilla_svd_compress
from d2moe.merge import weighted_merge
from d2moe.moe import MoELayer, MoEModel, Role, moe_forward_dense
from d2moe.pruning import static_metric, static_prune
from d2moe.runtime import CompressedLayer, CompressedModel, compressed_forward


def craft(path, manifest: bytes, payload: bytes = b"", magic: bytes = MAGIC,
          manifest_len: int | None = None):
    length = len(manifest) if manifest_len is None else manifest_len
    path.write_bytes(magic + length.to_bytes(8, "little") + manifest + payload)
    return path


def make_model(seed=0, n_experts=3, d=5, hidden=7, layers=2, classes=4, top_k=2):
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(layers):
        experts = [{Role.UP: rng.normal(size=(hidden, d)),
                    Role.DOWN: rng.normal(size=(d, hidden))}
                   for _ in range(n_experts)]
        stack.append(MoELayer(gate=rng.normal(size=(n_experts, d)),
                              experts=experts, top_k=top_k))
    return MoEModel(layers=stack, head=rng.normal(size=(classes, d))), rng


def make_compressed(seed=1, s=0.5, trimmed=(2,)):
    model, rng = make_model(seed)
    x = rng.normal(size=(5, 30))
    comp_layers = []
    for layer in model.layers:
        up_w = np.stack([e[Role.UP] for e in layer.experts])
        down_w = np.stack([e[Role.DOWN] for e in layer.experts])
        base_up = weighted_merge(up_w, np.ones(len(up_w)))[0]
        base_down = weighted_merge(down_w, np.ones(len(down_w)))[0]
        deltas = {
            i: {Role.UP: vanilla_svd_compress(du, 2),
                Role.DOWN: vanilla_svd_compress(dd, 2)}
            for i, (du, dd) in enumerate(zip(up_w - base_up, down_w - base_down))
            if i not in trimmed
        }
        comp_layers.append(CompressedLayer(
            gate=layer.gate,
            base={Role.UP: static_prune(base_up, static_metric(base_up, x), s),
                  Role.DOWN: static_prune(base_down, np.arange(7.0), s)},
            deltas=deltas, top_k=layer.top_k))
    return CompressedModel(layers=comp_layers, head=model.head), rng


class TestRawContainer:
    def test_round_trip_preserves_values_and_order(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {"w/a": rng.normal(size=(3, 5)),
                   "w/b": rng.normal(size=(1, 1)),
                   "deep/nested/name-0": rng.normal(size=(7, 2))}
        path = tmp_path / "t.bin"
        container_save(path, tensors)
        loaded = container_load(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_resave_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        container_save(a, {"x": rng.normal(size=(4, 9)), "y": rng.normal(size=(2, 2))})
        container_save(b, container_load(a))
        assert a.read_bytes() == b.read_bytes()

    def test_byte_layout_parsed_by_hand(self, tmp_path):
        rng = np.random.default_rng(4)
        tensors = {"m0": rng.normal(size=(3, 4)), "m1": rng.normal(size=(5, 2))}
        path = tmp_path / "t.bin"
        container_save(path, tensors)
        raw = path.read_bytes()
        assert raw[:8] == b"D2MZ0001"
        mlen = int.from_bytes(raw[8:16], "little")
        lines = raw[16:16 + mlen].decode("utf-8").splitlines()
        assert len(lines) == 2
        for line, (name, src) in zip(lines, tensors.items()):
            got_name, rows, cols, offset = line.split(" ")
            assert got_name == name
            assert (int(rows), int(cols)) == src.shape
            assert int(offset) % ALIGNMENT == 0
            payload = np.frombuffer(raw, dtype="<f8", count=src.size,
                                    offset=int(offset)).reshape(src.shape)
            np.testing.assert_array_equal(payload, src)

    def test_save_input_validation(self, tmp_path):
        path = tmp_path / "t.bin"
        with pytest.raises(ParameterError):
            container_save(path, {"bad name": np.ones((1, 1))})
        with pytest.raises(ShapeError):
            container_save(path, {"x": np.ones(3)})
        with pytest.raises(ShapeError):
            container_save(path, {"x": np.array([[np.nan]])})


class TestLoadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            container_load(path)

    def test_manifest_length_past_eof(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"x 1 1 64\n", manifest_len=10_000)
        with pytest.raises(ManifestError):
            container_load(path)

    def test_manifest_not_utf8(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"\xff\xfe\xfd\xfc")
        with pytest.raises(ManifestError):
            container_load(path)

    def test_malformed_line(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"x 1 1\n", payload=b"\x00" * 128)
        with pytest.raises(ManifestError):
            container_load(path)

    def test_non_integer_fields(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"x 1 one 64\n", payload=b"\x00" * 128)
        with pytest.raises(ManifestError):
            container_load(path)

    def test_invalid_name_in_manifest(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"b@d 1 1 64\n", payload=b"\x00" * 128)
        with pytest.raises(ManifestError):
            container_load(path)

    def test_zero_dimension(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"x 0 1 64\n", payload=b"\x00" * 128)
        with pytest.raises(ManifestError):
            container_load(path)

    def test_duplicate_names(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"x 1 1 64\nx 1 1 128\n",
                     payload=b"\x00" * 256)
        with pytest.raises(ManifestError):
            container_load(path)

    def test_payload_inside_manifest_region(self, tmp_path):
        path = craft(tmp_path / "t.bin", b"x 1 1 4\n", payload=b"\x00" * 128)
        with pytest.raises(OverlappingPayloadError):
            container_load(path)

    def test_overlapping_payloads(self, tmp_path):
        manifest = b"x 2 2 64\ny 2 2 80\n"
        path = craft(tmp_path / "t.bin", manifest, payload=b"\x00" * 256)
        with pytest.raises(OverlappingPayloadError):
            container_load(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        container_save(path, {"x": np.ones((4, 4))})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(TruncatedPayloadError):
            container_load(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "t.bin"
        container_save(path, {"x": np.ones((2, 2))})
        raw = bytearray(path.read_bytes())
        mlen = int.from_bytes(raw[8:16], "little")
        offset = int(raw[16:16 + mlen].decode().split()[3])
        raw[offset:offset + 8] = np.float64("nan").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFinitePayloadError):
            container_load(path)


class TestModelSerialization:
    def test_dense_forward_bit_exact_after_reload(self, tmp_path):
        model, rng = make_model()
        path = tmp_path / "model.bin"
        save_model(path, model)
        tensors = container_load(path)
        assert float(tensors["meta/kind"][0, 0]) == KIND_DENSE_MODEL
        reloaded = load_model(tensors)
        x = rng.normal(size=(5, 20))
        ref, _ = moe_forward_dense(model, x)
        got, _ = moe_forward_dense(reloaded, x)
        assert np.array_equal(ref, got)

    def test_calibration_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(6, 50))
        labels = rng.integers(0, 4, size=50)
        path = tmp_path / "calib.bin"
        save_calibration(path, tokens, labels)
        tensors = container_load(path)
        assert float(tensors["meta/kind"][0, 0]) == KIND_CALIBRATION
        t2, l2 = load_calibration(tensors)
        np.testing.assert_array_equal(t2, tokens)
        np.testing.assert_array_equal(l2, labels)
        assert l2.dtype == np.int64

    def test_non_integral_labels_rejected(self, tmp_path):
        path = tmp_path / "calib.bin"
        save_calibration(path, np.ones((3, 4)), np.array([0.0, 1.5, 2.0, 0.0]))
        with pytest.raises(ManifestError):
            load_calibration(container_load(path))

    def test_label_rows_beyond_one_rejected(self, tmp_path):
        path = tmp_path / "calib.bin"
        container_save(path, {"meta/kind": [[KIND_CALIBRATION]],
                              "calib/tokens": np.ones((3, 4)),
                              "calib/labels": np.zeros((2, 4))})
        with pytest.raises(ManifestError, match="expected 1 row"):
            load_calibration(container_load(path))

    def test_label_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "calib.bin"
        container_save(path, {"meta/kind": [[KIND_CALIBRATION]],
                              "calib/tokens": np.ones((3, 4)),
                              "calib/labels": np.zeros((1, 3))})
        with pytest.raises(ShapeError):
            load_calibration(container_load(path))

    def test_compressed_forward_bit_exact_after_reload(self, tmp_path):
        model, rng = make_compressed()
        path = tmp_path / "comp.bin"
        save_compressed_model(path, model)
        tensors = container_load(path)
        assert float(tensors["meta/kind"][0, 0]) == KIND_COMPRESSED_MODEL
        reloaded = load_compressed_model(tensors)
        assert reloaded.layers[0].trimmed == (2,)
        assert reloaded.layers[0].base[Role.UP].target_sparsity == 0.5
        x = rng.normal(size=(5, 15))
        ref, _ = compressed_forward(model.layers[0], x)
        got, _ = compressed_forward(reloaded.layers[0], x)
        assert np.array_equal(ref, got)

    def test_hybrid_model_not_serialized(self, tmp_path):
        dense, _ = make_model()
        comp, _ = make_compressed()
        hybrid = CompressedModel(layers=[comp.layers[0], dense.layers[1]],
                                 head=dense.head)
        with pytest.raises(ParameterError):
            save_compressed_model(tmp_path / "h.bin", hybrid)

    def test_load_any_dispatches_on_kind(self, tmp_path):
        model, rng = make_model()
        comp, _ = make_compressed()
        save_model(tmp_path / "m.bin", model)
        save_compressed_model(tmp_path / "c.bin", comp)
        save_calibration(tmp_path / "x.bin", rng.normal(size=(4, 8)),
                         np.arange(8) % 3)
        assert isinstance(load_any(tmp_path / "m.bin"), MoEModel)
        assert isinstance(load_any(tmp_path / "c.bin"), CompressedModel)
        tokens, labels = load_any(tmp_path / "x.bin")
        assert tokens.shape == (4, 8)
        assert labels.shape == (8,)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.bin"
        container_save(path, {"meta/kind": [[9.0]]})
        with pytest.raises(ManifestError):
            load_any(path)

    def test_missing_kind_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        container_save(path, {"x": np.ones((1, 1))})
        with pytest.raises(ManifestError):
            load_any(path)


class TestHostileMeta:
    """Metadata values that would size a loop or an array are checked first."""

    def damaged(self, tmp_path, name, column, value):
        model, _ = make_compressed()
        path = tmp_path / "comp.bin"
        save_compressed_model(path, model)
        tensors = container_load(path)
        tensors[name] = tensors[name].copy()
        tensors[name][0, column] = value
        container_save(path, tensors)
        return path

    @pytest.mark.parametrize("column, value", [(0, 2.0 ** 40), (0, 3.0), (0, 9.0), (1, 1.0), (1, 7e307)])
    def test_base_meta_out_of_range(self, tmp_path, column, value):
        path = self.damaged(tmp_path, "layer0/base_up/meta", column, value)
        with pytest.raises(ManifestError, match="base_up/meta"):
            load_any(path)

    def test_expert_count_must_match_gate(self, tmp_path):
        path = self.damaged(tmp_path, "layer1/meta", 1, 2.0 ** 40)
        with pytest.raises(ManifestError, match="gate has 3 rows"):
            load_any(path)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Valid dense, calibration and compressed container bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    model, rng = make_model(seed=5)
    compressed, _ = make_compressed(seed=6)
    save_model(root / "dense.bin", model)
    save_calibration(root / "calibration.bin", rng.normal(size=(5, 9)), np.arange(9.0) % 4)
    save_compressed_model(root / "compressed.bin", compressed)
    return root, {kind: (root / f"{kind}.bin").read_bytes()
                  for kind in ("dense", "calibration", "compressed")}


def _payload_spans(data: bytes) -> list[tuple[int, int]]:
    """(offset, byte length) of every tensor payload, read from the manifest."""
    mlen = int.from_bytes(data[8:16], "little")
    spans = []
    for line in data[16:16 + mlen].decode().splitlines():
        _, rows, cols, offset = line.split(" ")
        spans.append((int(offset), int(rows) * int(cols) * 8))
    return spans


class TestFuzzLoad:
    """Truncated, bit-flipped and tensor-dropped copies of valid files either
    load or fail with a ContainerError; the only other error allowed is the
    calibration label-count ShapeError."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(kind=st.sampled_from(["dense", "calibration", "compressed"]),
           damage=st.sampled_from(["truncate", "flip", "flip-in-tensor", "drop"]),
           where=st.integers(min_value=0, max_value=2 ** 32), bit=st.integers(min_value=0, max_value=63))
    def test_damaged_file_fails_cleanly(self, fuzz_files, kind, damage, where, bit):
        root, originals = fuzz_files
        data = bytearray(originals[kind])
        path = root / "damaged.bin"
        if damage == "truncate":
            path.write_bytes(bytes(data[:where % len(data)]))
        elif damage == "flip":
            data[where % len(data)] ^= 1 << (bit % 8)
            path.write_bytes(bytes(data))
        elif damage == "flip-in-tensor":
            spans = _payload_spans(data)
            offset, nbytes = spans[where % len(spans)]
            element = offset + (where // len(spans)) % (nbytes // 8) * 8
            value = int.from_bytes(data[element:element + 8], "little") ^ (1 << bit)
            data[element:element + 8] = value.to_bytes(8, "little")
            path.write_bytes(bytes(data))
        else:
            (root / "original.bin").write_bytes(bytes(data))
            tensors = container_load(root / "original.bin")
            del tensors[list(tensors)[where % len(tensors)]]
            container_save(path, tensors)
        try:
            load_any(path)
        except ContainerError:
            pass
        except ShapeError as exc:
            assert kind == "calibration" and "labels for" in str(exc), exc
