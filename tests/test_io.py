import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from tenkit import FormatError, load_model, read_tnsr, save_model, write_tnsr
from tenkit.decomp import KruskalTensor, TTTensor, TuckerTensor, mpca, tt_svd, tucker_hosvd
from tenkit.io import load_manifest


def test_tnsr_roundtrip(tmp_path, rng):
    for shape in [(4,), (2, 3), (2, 3, 2), (1, 1, 5, 2)]:
        t = rng.standard_normal(shape)
        path = tmp_path / "t.tnsr"
        write_tnsr(path, t)
        back = read_tnsr(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)


def test_tnsr_header_layout(tmp_path):
    t = np.arange(6, dtype=float).reshape(2, 3)
    path = tmp_path / "t.tnsr"
    write_tnsr(path, t)
    raw = path.read_bytes()
    assert raw[0:4] == b"TNSR"
    assert struct.unpack("<H", raw[4:6])[0] == 1
    assert raw[6:8] == b"\x00\x00"
    assert struct.unpack("<Q", raw[8:16])[0] == 2
    assert struct.unpack("<2Q", raw[16:32]) == (2, 3)
    assert len(raw) == 32 + 6 * 8
    assert np.frombuffer(raw[32:], dtype="<f8")[0] == 0.0


def test_tnsr_bad_magic(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError, match="byte 0"):
        read_tnsr(path)


def test_tnsr_bad_version(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"TNSR" + struct.pack("<HHQ", 2, 0, 1) + struct.pack("<Q", 1) + b"\x00" * 8)
    with pytest.raises(FormatError, match="byte 4"):
        read_tnsr(path)


def test_tnsr_truncated_payload(tmp_path, rng):
    t = rng.standard_normal((2, 3))
    path = tmp_path / "t.tnsr"
    write_tnsr(path, t)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="expected 48") as exc:
        read_tnsr(path)
    assert "40" in str(exc.value)  # actual bytes present


def test_tnsr_oversized_payload(tmp_path, rng):
    t = rng.standard_normal((2, 3))
    path = tmp_path / "t.tnsr"
    write_tnsr(path, t)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(FormatError, match="expected 48"):
        read_tnsr(path)


def test_tnsr_shape_product_beyond_uint64(tmp_path):
    # 2**32 * 2**32 wraps to 0 in uint64, which would match the empty payload
    path = tmp_path / "huge.tnsr"
    path.write_bytes(b"TNSR" + struct.pack("<HHQ", 1, 0, 2) + struct.pack("<2Q", 2**32, 2**32))
    with pytest.raises(FormatError, match="payload at byte 32 has 0 bytes") as exc:
        read_tnsr(path)
    assert f"expected {8 * 2**64}" in str(exc.value)


def test_tnsr_read_holds_one_copy_of_the_payload(tmp_path, rng):
    t = rng.standard_normal((512, 512))  # a 2 MiB payload
    path = tmp_path / "t.tnsr"
    write_tnsr(path, t)
    tracemalloc.start()
    try:
        back = read_tnsr(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, t)
    assert peak < 1.5 * t.nbytes


def test_tnsr_huge_order_fails_before_reading_the_shape(tmp_path):
    path = tmp_path / "huge.tnsr"
    path.write_bytes(b"TNSR" + struct.pack("<HHQ", 1, 0, 2**61) + b"\x00" * 16)
    with pytest.raises(FormatError, match=f"expected {2**64} bytes of mode sizes, got 16"):
        read_tnsr(path)


def test_tnsr_reserved_bytes(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"TNSR" + struct.pack("<HHQ", 1, 7, 1) + struct.pack("<Q", 1) + b"\x00" * 8)
    with pytest.raises(FormatError, match="reserved"):
        read_tnsr(path)


def test_kruskal_manifest_roundtrip(tmp_path, rng):
    k = KruskalTensor(
        rng.uniform(0.5, 2.0, size=3),
        [rng.standard_normal((d, 3)) for d in (4, 5, 2)],
    )
    save_model(tmp_path / "model", k)
    back = load_model(tmp_path / "model")
    assert isinstance(back, KruskalTensor)
    assert np.allclose(back.weights, k.weights, atol=1e-15)
    assert all(np.array_equal(a, b) for a, b in zip(back.factors, k.factors))


def test_tucker_manifest_roundtrip(tmp_path, rng):
    t = tucker_hosvd(rng.standard_normal((4, 5, 3)), (2, 3, 2))
    save_model(tmp_path / "model", t)
    back = load_model(tmp_path / "model")
    assert isinstance(back, TuckerTensor)
    assert np.array_equal(back.core, t.core)
    assert np.array_equal(back.to_tensor(), t.to_tensor())


def test_tt_manifest_roundtrip(tmp_path, rng):
    t = tt_svd(rng.standard_normal((3, 4, 2)))
    save_model(tmp_path / "model", t)
    back = load_model(tmp_path / "model")
    assert isinstance(back, TTTensor)
    assert np.array_equal(back.to_tensor(), t.to_tensor())


def test_manifest_carries_metadata(tmp_path, rng):
    k = KruskalTensor(np.ones(2), [rng.standard_normal((3, 2))] * 2)
    save_model(tmp_path / "model", k)
    fmt, arrays, meta = load_manifest(tmp_path / "model")
    assert fmt == "kruskal"
    assert meta["mode_sizes"] == [3, 3]
    assert meta["rank"] == 2
    assert meta["weights"] == [1.0, 1.0]


def test_manifest_write_is_deterministic(tmp_path, rng):
    k = KruskalTensor(
        rng.uniform(0.5, 2.0, size=2), [rng.standard_normal((3, 2))] * 2
    )
    save_model(tmp_path / "a", k)
    save_model(tmp_path / "b", k)
    for name in ("manifest.json", "factors_00.tnsr", "factors_01.tnsr"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FormatError, match="manifest.json"):
        load_model(tmp_path / "empty")


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def test_missing_meta_key_is_format_error(tmp_path, rng):
    k = KruskalTensor(np.ones(2), [rng.standard_normal((3, 2))] * 2)
    save_model(tmp_path / "model", k)
    _edit_manifest(tmp_path / "model", lambda m: m.pop("weights"))
    with pytest.raises(FormatError, match="'weights'"):
        load_model(tmp_path / "model")


def test_missing_array_key_is_format_error(tmp_path, rng):
    save_model(tmp_path / "model", tucker_hosvd(rng.standard_normal((3, 4, 2)), (2, 2, 2)))
    _edit_manifest(tmp_path / "model", lambda m: m["files"].pop("core"))
    with pytest.raises(FormatError, match="'core'"):
        load_model(tmp_path / "model")


@pytest.mark.parametrize("entry", ["../x.tnsr", "/tmp/x.tnsr", "sub/x.tnsr", "..", ""])
def test_file_entry_outside_directory_is_format_error(tmp_path, rng, entry):
    save_model(tmp_path / "model", tt_svd(rng.standard_normal((3, 4, 2))))
    # the escaping target exists, so only the name check can refuse it
    write_tnsr(tmp_path / "x.tnsr", np.ones(3))

    def edit(m):
        m["files"]["cores"][1] = entry

    _edit_manifest(tmp_path / "model", edit)
    with pytest.raises(FormatError, match="plain file name"):
        load_manifest(tmp_path / "model")


@pytest.mark.parametrize("manifest", [[1, 2], {"format": "tt", "files": ["cores_00.tnsr"]}])
def test_manifest_of_wrong_json_type_is_format_error(tmp_path, rng, manifest):
    save_model(tmp_path / "model", tt_svd(rng.standard_normal((3, 4, 2))))
    (tmp_path / "model" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="not a JSON object"):
        load_model(tmp_path / "model")


def test_save_model_rejects_unsupported_type(tmp_path):
    with pytest.raises(TypeError, match="ndarray"):
        save_model(tmp_path / "model", np.ones(3))


@pytest.mark.parametrize(
    "model, key, value, expected",
    [
        ("kruskal", "mode_sizes", [3, 4], [3, 3]),
        ("kruskal", "rank", 3, 2),
        ("tucker", "ranks", [2, 3, 2], [2, 2, 2]),
        ("tucker", "mode_sizes", [3, 4], [3, 4, 2]),
    ],
)
def test_manifest_shape_metadata_must_match_the_arrays(tmp_path, rng, model, key, value, expected):
    if model == "kruskal":
        save_model(tmp_path / "model", KruskalTensor(np.ones(2), [rng.standard_normal((3, 2))] * 2))
    else:
        save_model(tmp_path / "model", tucker_hosvd(rng.standard_normal((3, 4, 2)), (2, 2, 2)))
    _edit_manifest(tmp_path / "model", lambda m: m.__setitem__(key, value))
    with pytest.raises(FormatError, match=f"'{key}'.*" + re.escape(f"expected {expected}, got {value}")):
        load_model(tmp_path / "model")


@pytest.mark.parametrize(
    "name, array, message",
    [
        ("projections_00.tnsr", np.ones(5), r"projection 0 must have 2 columns, got shape \(5,\)"),
        ("cores.tnsr", np.ones((2, 3)), "core order 2, 2 projections"),
        ("cores.tnsr", np.ones((2, 2, 7)), r"projection 1 must have 2 columns, got shape \(4, 3\)"),
    ],
    ids=["projection-not-a-matrix", "core-order", "core-mode-size"],
)
def test_mpca_model_with_inconsistent_arrays_is_value_error(tmp_path, rng, name, array, message):
    save_model(tmp_path / "model", mpca(rng.standard_normal((5, 4, 7)), (2, 3)))
    write_tnsr(tmp_path / "model" / name, array)
    with pytest.raises(ValueError, match=message):
        load_model(tmp_path / "model")
