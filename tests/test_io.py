import json
import re
import struct
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenkit import FormatError, load_model, read_tnsr, save_model, serialize, write_tnsr
from tenkit.cli import main
from tenkit.convfact import KruskalConvKernel, SeparableConvKernel, TuckerConvKernel
from tenkit.decomp import (
    KruskalTensor, MpcaResult, TTTensor, TuckerTensor, mpca, tt_svd, tucker_hosvd,
)
from tenkit.io import load_manifest
from tenkit.nn import PolyNet, TclLayer, TrlLayer, TTLinearLayer


def test_tnsr_roundtrip(tmp_path, rng):
    for shape in [(4,), (2, 3), (2, 3, 2), (1, 1, 5, 2)]:
        t = rng.standard_normal(shape)
        path = tmp_path / "t.tnsr"
        write_tnsr(path, t)
        back = read_tnsr(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)


def test_tnsr_write_refuses_complex_input(tmp_path):
    # the float64 cast used to drop the imaginary part: the file read back as ones
    path = tmp_path / "t.tnsr"
    with pytest.raises(ValueError, match="write_tnsr requires real entries, got complex128"):
        write_tnsr(path, np.ones((2, 2)) + 1j)
    assert not path.exists()


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


def test_tnsr_shorter_than_the_header(tmp_path):
    path = tmp_path / "short.tnsr"
    path.write_bytes(b"TNSR" + b"\x00" * 6)
    with pytest.raises(FormatError, match="expected at least 16 bytes, got 10"):
        read_tnsr(path)


def test_tnsr_order_zero(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"TNSR" + struct.pack("<HHQ", 1, 0, 0))
    with pytest.raises(FormatError, match="order at byte 8 must be >= 1, got 0"):
        read_tnsr(path)


def test_tnsr_zero_mode_size(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"TNSR" + struct.pack("<HHQ", 1, 0, 3) + struct.pack("<3Q", 2, 0, 4))
    with pytest.raises(FormatError, match="mode size at byte 24 must be positive"):
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


def test_mpca_manifest_roundtrip_keeps_scatter_trace(tmp_path, rng):
    m = mpca(rng.standard_normal((5, 4, 7)), (2, 3))
    save_model(tmp_path / "model", m)
    back = load_model(tmp_path / "model")
    assert isinstance(back, MpcaResult)
    assert back.scatters == m.scatters
    assert back.total_scatter == m.total_scatter
    assert np.array_equal(back.cores, m.cores)


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


def test_mpca_manifest_without_scatters_is_format_error(tmp_path, rng):
    save_model(tmp_path / "model", mpca(rng.standard_normal((5, 4, 7)), (2, 3)))
    _edit_manifest(tmp_path / "model", lambda m: m.pop("scatters"))
    with pytest.raises(FormatError, match="manifest lacks key 'scatters'"):
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


def _tt_model(tmp_path, rng):
    save_model(tmp_path / "model", tt_svd(rng.standard_normal((3, 4, 2))))
    return tmp_path / "model"


def test_manifest_invalid_json_names_the_offset(tmp_path, rng):
    model = _tt_model(tmp_path, rng)
    (model / "manifest.json").write_text('{"format": "tt",')
    with pytest.raises(FormatError, match=r"invalid JSON .*\(char 16\)"):
        load_manifest(model)


@pytest.mark.parametrize("key", ["format", "files"])
def test_manifest_without_format_or_files_is_format_error(tmp_path, rng, key):
    model = _tt_model(tmp_path, rng)
    _edit_manifest(model, lambda m: m.pop(key))
    with pytest.raises(FormatError, match=f"missing required key '{key}'"):
        load_manifest(model)


@pytest.mark.parametrize(
    "manifest, what",
    [([], "top level"), ({"format": "tt", "files": "cores_00.tnsr"}, "'files'")],
    ids=["top-level-array", "files-string"],
)
def test_manifest_of_wrong_json_type_names_the_key(tmp_path, rng, manifest, what):
    model = _tt_model(tmp_path, rng)
    (model / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"{what} is not a JSON object"):
        load_manifest(model)


def test_load_model_unknown_format(tmp_path, rng):
    model = _tt_model(tmp_path, rng)
    _edit_manifest(model, lambda m: m.__setitem__("format", "bogus"))
    with pytest.raises(FormatError, match="unknown manifest format 'bogus'"):
        load_model(model)


@pytest.mark.parametrize("fmt, key", [("conv_kernel", "form"), ("layer", "layer_type")])
def test_load_model_unknown_tag(tmp_path, rng, fmt, key):
    model = _tt_model(tmp_path, rng)
    _edit_manifest(model, lambda m: m.update({"format": fmt, key: "bogus"}))
    with pytest.raises(FormatError, match=f"unknown {key} 'bogus'"):
        load_model(model)


def test_load_model_constructor_type_error_is_format_error(tmp_path, rng):
    kernel = KruskalConvKernel(*[rng.standard_normal((s, 2)) for s in (3, 4, 3, 3)])
    save_model(tmp_path / "model", kernel)
    _edit_manifest(tmp_path / "model", lambda m: m["files"]["factors"].pop())
    with pytest.raises(FormatError, match="missing 1 required positional argument: 'u_w'"):
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


# ---------------------------------------------------------------------------
# hostile inputs: manifest values of the wrong type, and a fuzz of TNSR
# bytes and manifest values


def _one_model_of_every_type():
    rng = np.random.default_rng(0)

    def r(*shape):
        return rng.standard_normal(shape)

    return {
        KruskalTensor: KruskalTensor(np.ones(2), [r(3, 2), r(4, 2)]),
        TuckerTensor: TuckerTensor(r(2, 2), [r(3, 2), r(4, 2)]),
        TTTensor: tt_svd(r(3, 4, 2), ranks=2),
        MpcaResult: mpca(r(5, 4, 7), (2, 3)),
        KruskalConvKernel: KruskalConvKernel(r(4, 2), r(3, 2), r(3, 2), r(3, 2)),
        TuckerConvKernel: TuckerConvKernel(
            TuckerTensor(r(2, 2, 3, 3), [r(4, 2), r(3, 2), np.eye(3), np.eye(3)])
        ),
        SeparableConvKernel: SeparableConvKernel(np.ones(2), r(4, 2), r(3, 2), [r(3, 2)]),
        TclLayer: TclLayer([r(2, 3), r(2, 4)]),
        TrlLayer: TrlLayer(TuckerTensor(r(2, 2, 2), [r(3, 2), r(4, 2), r(5, 2)]), r(5)),
        TTLinearLayer: TTLinearLayer.from_matrix(r(6, 6), (2, 3), (3, 2), ranks=2),
        PolyNet: PolyNet([r(3, 2), r(3, 2)], r(4, 2), r(4)),
    }


@pytest.mark.parametrize(
    "kind, key, value, message",
    [
        (MpcaResult, "scatters", None, "scatters must be a list of numbers, got None"),
        (MpcaResult, "total_scatter", None, "total_scatter must be a number, got None"),
        (SeparableConvKernel, "weights", None, "weights must be a vector"),
        (TTLinearLayer, "in_shape", [1e400], r"in_shape must hold positive integers, got \(inf,\)"),
        (TTLinearLayer, "in_shape", [2.5, 3], r"in_shape must hold positive integers, got \(2.5, 3\)"),
    ],
    ids=["mpca-scatters", "mpca-total-scatter", "separable-weights", "tt-linear-inf", "tt-linear-fraction"],
)
def test_hostile_manifest_value_is_value_error_naming_the_key(tmp_path, kind, key, value, message):
    # each used to escape as TypeError, IndexError or OverflowError, or
    # (2.5) to load as mode size 2
    save_model(tmp_path / "model", _one_model_of_every_type()[kind])
    _edit_manifest(tmp_path / "model", lambda m: m.__setitem__(key, value))
    with pytest.raises(ValueError, match=message):
        load_model(tmp_path / "model")


@pytest.mark.parametrize("kind", [KruskalTensor, SeparableConvKernel])
def test_manifest_weights_given_as_strings_are_refused(tmp_path, kind):
    # the weights used to be parsed as numbers: ["2.5"] loaded as [2.5]
    save_model(tmp_path / "model", _one_model_of_every_type()[kind])
    _edit_manifest(tmp_path / "model", lambda m: m.__setitem__("weights", ["2.5", "1"]))
    with pytest.raises(ValueError, match="weights requires real entries, got <U3"):
        load_model(tmp_path / "model")


def test_file_entry_naming_no_file_is_format_error(tmp_path, rng):
    model = _tt_model(tmp_path, rng)
    _edit_manifest(model, lambda m: m["files"]["cores"].__setitem__(1, "gone.tnsr"))
    with pytest.raises(FormatError, match="file entry 'gone.tnsr' names no file"):
        load_manifest(model)


_TNSR_SHAPE = (2, 3, 2)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """Type -> (directory, manifest text) of one saved model of each type."""
    saved = {}
    for kind, model in _one_model_of_every_type().items():
        directory = tmp_path_factory.mktemp(kind.__name__)
        save_model(directory, model)
        saved[kind] = directory, (directory / "manifest.json").read_text()
    return saved


@st.composite
def mutated_tnsr(draw):
    """A valid TNSR file with one byte flipped, cut short, or with its
    order or one mode size overwritten by a drawn uint64."""
    header = struct.pack(f"<4sHHQ{len(_TNSR_SHAPE)}Q", b"TNSR", 1, 0, len(_TNSR_SHAPE), *_TNSR_SHAPE)
    data = bytearray(header + np.arange(12.0).astype("<f8").tobytes())
    how = draw(st.sampled_from(["flip", "truncate", "field"]))
    if how == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        field = draw(st.integers(0, len(_TNSR_SHAPE)))  # 0: the order
        value = draw(st.sampled_from([0, 1, 2, 3, 2**32, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1))
        struct.pack_into("<Q", data, 8 + 8 * field, value)
    return bytes(data)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutated_tnsr())
def test_fuzzed_tnsr_loads_or_is_format_error(fuzz_dir, data):
    path = fuzz_dir / "fuzzed.tnsr"
    path.write_bytes(data)
    try:
        read_tnsr(path)
    except FormatError:
        pass


@settings(max_examples=40, derandomize=True, deadline=None)
@given(mutated_tnsr())
def test_fuzzed_tnsr_through_info_exits_0_or_1_with_one_line(fuzz_dir, data):
    path = fuzz_dir / "fuzzed.tnsr"
    path.write_bytes(data)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["info", str(path)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue())


_JSON_SCALARS = st.sampled_from(
    [None, True, False, 0, 1, -1, 2, 2.5, 1e400, -1e400, "", "x"]
) | st.floats() | st.text(max_size=3)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=4,
)


@pytest.mark.parametrize("kind", list(serialize._MODELS), ids=lambda kind: kind.__name__)
@settings(max_examples=15, derandomize=True, deadline=None)
@given(value=_JSON_VALUES, picks=st.lists(st.integers(0, 9), max_size=3))
@example(value=None, picks=[0])
@example(value=[1e400], picks=[])
def test_fuzzed_manifest_loads_or_is_value_error(saved_models, kind, value, picks):
    # the drawn JSON value, and the list of the model's own file names
    # that picks selects, in place of each manifest value and each file
    # entry in turn
    directory, original = saved_models[kind]
    files = sorted(p.name for p in directory.glob("*.tnsr"))
    names = [files[i % len(files)] for i in picks]
    targets = json.loads(original)
    for path in [(k,) for k in targets] + [("files", k) for k in targets["files"]]:
        for v in (value, names):
            manifest = json.loads(original)
            parent = manifest["files"] if len(path) == 2 else manifest
            parent[path[-1]] = v
            (directory / "manifest.json").write_text(json.dumps(manifest))
            try:
                load_model(directory)
            except ValueError:  # FormatError included
                pass
