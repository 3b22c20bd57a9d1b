import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from tenkit import read_tnsr, write_tnsr
from tenkit.cli import main
from tenkit.decomp import KruskalTensor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    report = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        report[key] = value
    return report


def rank2_tensor(rng, shape=(5, 6, 4)):
    k = KruskalTensor(
        np.ones(2), [rng.standard_normal((s, 2)) for s in shape]
    )
    return k.to_tensor()


# ---------------------------------------------------------------------------
# info


def test_info_reports_shape(tmp_path, capsys, rng):
    path = tmp_path / "t.tnsr"
    write_tnsr(path, rng.standard_normal((2, 3, 2)))
    code, out, _ = run_cli(capsys, "info", str(path))
    report = parse_report(out)
    assert code == 0
    assert report["order"] == "3"
    assert report["shape"] == "2x3x2"


def test_info_zero_tensor(tmp_path, capsys):
    path = tmp_path / "z.tnsr"
    write_tnsr(path, np.zeros((3, 3)))
    code, out, _ = run_cli(capsys, "info", str(path))
    report = parse_report(out)
    assert float(report["frobenius_norm"]) == 0.0
    assert float(report["l0_density"]) == 0.0


def test_info_truncated_file_exit_code(tmp_path, capsys, rng):
    path = tmp_path / "t.tnsr"
    write_tnsr(path, rng.standard_normal((2, 2)))
    path.write_bytes(path.read_bytes()[:-4])
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 1
    assert "expected 32" in err and "28" in err


def test_info_bad_magic_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 1
    assert "byte 0" in err


def test_info_shape_product_beyond_uint64_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.tnsr"
    path.write_bytes(b"TNSR" + struct.pack("<HHQ", 1, 0, 2) + struct.pack("<2Q", 2**32, 2**32))
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "payload at byte 32" in err


def test_info_json(tmp_path, capsys, rng):
    path = tmp_path / "t.tnsr"
    write_tnsr(path, rng.standard_normal((4, 2)))
    code, out, _ = run_cli(capsys, "info", str(path), "--json")
    report = json.loads(out)
    assert report["order"] == 2
    assert report["shape"] == [4, 2]


def test_info_counts_non_finite_entries(tmp_path, capsys, rng):
    path = tmp_path / "t.tnsr"
    t = rng.standard_normal((3, 4))
    write_tnsr(path, t)
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0
    assert parse_report(out)["non_finite"] == "0"
    t[0, 1], t[2, 3] = np.nan, -np.inf
    write_tnsr(path, t)
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0
    assert parse_report(out)["non_finite"] == "2"
    code, out, _ = run_cli(capsys, "info", str(path), "--json")
    assert code == 0
    assert json.loads(out)["non_finite"] == 2


# ---------------------------------------------------------------------------
# decompose


def test_decompose_cp_on_rank2(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rank2_tensor(rng))
    code, out, _ = run_cli(
        capsys, "decompose", str(path), "--method", "cp", "--rank", "2",
        "--out", str(tmp_path / "model"),
    )
    report = parse_report(out)
    assert code == 0
    assert float(report["relative_error"]) < 1e-6
    assert (tmp_path / "model" / "manifest.json").exists()


def test_decompose_tt_tolerance(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((4, 4, 4)))
    code, out, _ = run_cli(
        capsys, "decompose", str(path), "--method", "tt", "--tol", "0.05",
        "--out", str(tmp_path / "model"),
    )
    assert code == 0
    assert float(parse_report(out)["relative_error"]) <= 0.05


@pytest.mark.parametrize("ranks", [["--ranks", "1,2,2,1"], ["--rank", "2"]])
def test_decompose_tt_tolerance_with_ranks_fails(tmp_path, capsys, rng, ranks):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((4, 4, 4)))
    code, out, err = run_cli(
        capsys, "decompose", str(path), "--method", "tt", "--tol", "0.5",
        *ranks, "--out", str(tmp_path / "model"),
    )
    assert code == 1
    assert out == ""
    assert err == "error: pass either ranks or tol, not both\n"


@pytest.mark.parametrize(
    "method, ranks",
    [("cp", ["--rank", "2"]), ("tucker", ["--ranks", "2,2,2"]), ("mpca", ["--ranks", "2,2"])],
)
def test_decompose_tol_outside_tt_fails(tmp_path, capsys, rng, method, ranks):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((4, 4, 4)))
    out = tmp_path / "model"
    code, stdout, err = run_cli(
        capsys, "decompose", str(path), "--method", method, *ranks,
        "--tol", "0.5", "--out", str(out),
    )
    assert code == 1
    assert stdout == ""
    assert err == "error: --tol applies only to --method tt\n"
    assert not out.exists()


@pytest.mark.parametrize("max_iters", ["1", "500", "-5"])
def test_decompose_max_iters_with_tt_fails(tmp_path, capsys, rng, max_iters):
    # the check comes before the input is read: the path does not exist
    out = tmp_path / "model"
    code, stdout, err = run_cli(
        capsys, "decompose", str(tmp_path / "missing.tnsr"), "--method", "tt",
        "--rank", "2", "--max-iters", max_iters, "--out", str(out),
    )
    assert code == 1
    assert stdout == ""
    assert err == "error: --max-iters applies only to --method cp, tucker and mpca\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "method, ranks",
    [("cp", ["--rank", "2"]), ("tucker", ["--ranks", "2,2,2"]), ("mpca", ["--ranks", "2,2"])],
)
def test_decompose_max_iters_defaults_to_500(tmp_path, capsys, rng, method, ranks):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((5, 4, 6)))
    reports = []
    for extra in ([], ["--max-iters", "500"]):
        code, stdout, _ = run_cli(
            capsys, "decompose", str(path), "--method", method, *ranks,
            *extra, "--out", str(tmp_path / "model"),
        )
        assert code == 0
        reports.append(strip_wall_time(stdout))
    assert reports[0] == reports[1]
    code, _, err = run_cli(
        capsys, "decompose", str(path), "--method", method, *ranks,
        "--max-iters", "-5", "--out", str(tmp_path / "bad"),
    )
    assert code == 1
    assert err == "error: max_iters must be positive\n"


def test_decompose_tucker_full_ranks(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((3, 4, 2)))
    code, out, _ = run_cli(
        capsys, "decompose", str(path), "--method", "tucker",
        "--ranks", "3,4,2", "--out", str(tmp_path / "model"),
    )
    assert code == 0
    assert float(parse_report(out)["relative_error"]) < 1e-10


def test_decompose_mpca(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((5, 5, 8)))
    code, out, _ = run_cli(
        capsys, "decompose", str(path), "--method", "mpca",
        "--ranks", "5,5", "--out", str(tmp_path / "model"),
    )
    assert code == 0
    assert float(parse_report(out)["relative_error"]) < 1e-10


def test_decompose_infeasible_rank_fails(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((2, 2, 2)))
    code, _, err = run_cli(
        capsys, "decompose", str(path), "--method", "tucker",
        "--ranks", "5,2,2", "--out", str(tmp_path / "model"),
    )
    assert code == 1
    assert "out of range" in err


def test_tucker_without_ranks_fails(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((3, 3, 3, 3)))
    for argv, text in (
        (("decompose", "--method", "tucker"), "tucker needs"),
        (("conv-compress", "--form", "tucker"), "tucker form needs"),
    ):
        code, _, err = run_cli(
            capsys, argv[0], str(path), *argv[1:],
            "--out", str(tmp_path / "model"),
        )
        assert code == 1
        assert err == f"error: {text} --ranks or --rank\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--method", "tt", "--rank", "2", "--ranks", "1,3,3,3,1"),
        ("decompose", "--method", "tucker", "--rank", "2", "--ranks", "2,3,3,2"),
        ("conv-compress", "--form", "tucker", "--rank", "2", "--ranks", "2,3,3,2"),
    ],
    ids=["decompose-tt", "decompose-tucker", "conv-compress-tucker"],
)
def test_rank_and_ranks_together_usage_error(tmp_path, rng, argv):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((3, 3, 3, 3)))
    out = tmp_path / "model"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(path), *argv[1:], "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_decompose_unknown_method_usage_error(tmp_path, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((2, 2)))
    with pytest.raises(SystemExit) as exc:
        main(["decompose", str(path), "--method", "qr", "--out", "o"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# rpca


def test_rpca_auto_lambda_small(tmp_path, capsys, rng):
    x = np.einsum("i,j,k->ijk", *(rng.standard_normal(s) for s in (10, 10, 3)))
    path = tmp_path / "x.tnsr"
    write_tnsr(path, x)
    code, out, _ = run_cli(
        capsys, "rpca", str(path), "--lambda", "auto",
        "--out", str(tmp_path / "parts"),
    )
    report = parse_report(out)
    assert code == 0
    assert float(report["lambda"]) == pytest.approx(1 / np.sqrt(10), rel=1e-12)
    assert float(report["feasibility_residual"]) < 1e-6
    assert float(report["sparse_ratio"]) < 1e-6  # clean input: S stays empty
    assert float(report["sparse_fraction"]) == 0.0
    l = read_tnsr(tmp_path / "parts" / "L.tnsr")
    assert np.linalg.norm(l - x) < 1e-5 * np.linalg.norm(x)


@pytest.mark.slow
def test_rpca_auto_lambda_100_100_3(tmp_path, capsys, rng):
    x = np.einsum(
        "i,j,k->ijk", *(rng.standard_normal(s) for s in (100, 100, 3))
    )
    path = tmp_path / "x.tnsr"
    write_tnsr(path, x)
    code, out, _ = run_cli(
        capsys, "rpca", str(path), "--lambda", "auto",
        "--out", str(tmp_path / "parts"),
    )
    report = parse_report(out)
    assert code == 0
    assert float(report["lambda"]) == pytest.approx(0.1, rel=1e-12)


def test_rpca_recovers_corrupted(tmp_path, capsys, rng):
    vecs = [rng.standard_normal(10) for _ in range(3)]
    low = np.einsum("i,j,k->ijk", *vecs)
    mask = rng.random(low.shape) < 0.05
    x = low + np.where(mask, 10 * np.abs(low).mean(), 0.0)
    path = tmp_path / "x.tnsr"
    write_tnsr(path, x)
    code, out, _ = run_cli(
        capsys, "rpca", str(path), "--out", str(tmp_path / "parts")
    )
    assert code == 0
    l = read_tnsr(tmp_path / "parts" / "L.tnsr")
    assert np.linalg.norm(l - low) < 1e-3 * np.linalg.norm(low)


def test_rpca_json_report(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rank2_tensor(rng))
    for max_iters, converged in (("1000", True), ("2", False)):
        code, out, _ = run_cli(
            capsys, "rpca", str(path), "--max-iters", max_iters, "--json",
            "--out", str(tmp_path / "parts"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is converged
        assert report["lambda"] == 1 / np.sqrt(6)


def test_rpca_non_finite_input_exit_code(tmp_path, capsys, rng):
    x = rng.standard_normal((4, 5, 3))
    x[2, 1, 0] = np.nan
    path = tmp_path / "x.tnsr"
    write_tnsr(path, x)
    code, out, err = run_cli(
        capsys, "rpca", str(path), "--out", str(tmp_path / "parts")
    )
    assert code == 1
    assert out == ""
    assert err == "error: trpca requires finite entries (1 of 60 are not)\n"
    assert not (tmp_path / "parts").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rpca", "--lambda", "nan"], "lambda must be positive and finite, got nan"),
        (["rpca", "--lambda", "inf"], "lambda must be positive and finite, got inf"),
        (["rpca", "--alpha", "nan,0.5,0.5"], "alpha weights must be non-negative and sum to 1"),
        (["decompose", "--method", "tt", "--tol", "nan"], "tol must be positive, got nan"),
    ],
    ids=["rpca-lambda-nan", "rpca-lambda-inf", "rpca-alpha-nan", "tt-tol-nan"],
)
def test_non_finite_parameter_fails_and_names_it(tmp_path, capsys, rng, argv, message):
    # NaN passes a check written as `value <= 0`; it used to fail deep in
    # eigh (rpca) or give an all-ones TT chain with exit 0 (tt)
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rng.standard_normal((4, 4, 4)))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# conv-compress


def _write_rank2_kernel(path, rng, dims=(4, 3, 3, 3)):
    k = KruskalTensor(
        np.ones(2), [rng.standard_normal((d, 2)) for d in dims]
    )
    write_tnsr(path, k.to_tensor())


def test_conv_compress_cp_rank2(tmp_path, capsys, rng):
    path = tmp_path / "k.tnsr"
    _write_rank2_kernel(path, rng)
    code, out, _ = run_cli(
        capsys, "conv-compress", str(path), "--form", "cp", "--rank", "2",
        "--out", str(tmp_path / "model"),
    )
    report = parse_report(out)
    assert code == 0
    assert float(report["max_pipeline_deviation"]) <= 1e-10
    assert float(report["relative_error"]) < 1e-6


def test_conv_compress_tucker_full_ranks_no_compression(tmp_path, capsys, rng):
    path = tmp_path / "k.tnsr"
    write_tnsr(path, rng.standard_normal((3, 3, 2, 2)))
    code, out, _ = run_cli(
        capsys, "conv-compress", str(path), "--form", "tucker",
        "--ranks", "3,3,2,2", "--out", str(tmp_path / "model"),
    )
    report = parse_report(out)
    assert code == 0
    assert float(report["compression_ratio"]) <= 1.0
    assert report["note"] == "no compression"


def test_conv_compress_param_count_64(tmp_path, capsys, rng):
    path = tmp_path / "k.tnsr"
    write_tnsr(path, rng.standard_normal((64, 64, 3, 3)))
    code, out, _ = run_cli(
        capsys, "conv-compress", str(path), "--form", "cp", "--rank", "16",
        "--max-iters", "25", "--out", str(tmp_path / "model"),
    )
    report = parse_report(out)
    assert code == 0
    assert report["params_after"] == "2144"
    assert report["params_before"] == "36864"


def test_conv_compress_rejects_non_order4(tmp_path, capsys, rng):
    path = tmp_path / "k.tnsr"
    write_tnsr(path, rng.standard_normal((3, 3, 3)))
    code, _, err = run_cli(
        capsys, "conv-compress", str(path), "--form", "cp", "--rank", "2",
        "--out", str(tmp_path / "model"),
    )
    assert code == 1
    assert "order-4" in err


# ---------------------------------------------------------------------------
# determinism


def strip_wall_time(out: str) -> str:
    return "\n".join(
        line for line in out.splitlines() if not line.startswith("wall_time_s=")
    )


def test_cli_reruns_are_byte_identical(tmp_path, capsys, rng):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, rank2_tensor(rng))
    out_dir = tmp_path / "model"
    outs, artifacts = [], []
    for _ in range(2):  # identical flags, including --out
        code, out, _ = run_cli(
            capsys, "decompose", str(path), "--method", "cp", "--rank", "2",
            "--seed", "42", "--out", str(out_dir),
        )
        assert code == 0
        outs.append(strip_wall_time(out))
        artifacts.append(
            {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        )
    assert outs[0] == outs[1]
    assert artifacts[0] == artifacts[1]


def test_cli_console_entry_point(tmp_path, rng):
    path = tmp_path / "t.tnsr"
    write_tnsr(path, rng.standard_normal((2, 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "tenkit.cli", "info", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "order=2" in proc.stdout
