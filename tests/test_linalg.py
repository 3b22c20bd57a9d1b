import os
import tempfile

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from tenkit import (
    DecompOptions,
    SVDResult,
    convfact,
    core,
    cp_als,
    decomp,
    linalg,
    lstsq,
    mpca,
    nn,
    soft_threshold,
    svd,
    svt,
    trpca,
    truncated_svd,
    tt_svd,
    tucker_hooi,
    write_tnsr,
)
from tenkit.linalg import (
    check_finite,
    column_signs,
    left_singular_basis,
    svt_with_spectrum,
)


def reconstruct(r: SVDResult) -> np.ndarray:
    return (r.U * r.S) @ r.V.T


def test_svd_diag():
    r = svd(np.diag([2.0, 1.0]))
    assert np.allclose(r.S, [2.0, 1.0])
    assert np.allclose(np.abs(r.U), np.eye(2), atol=1e-14)
    assert np.allclose(r.U, r.V, atol=1e-14)


def test_svd_rank_one(rng):
    u, v = rng.standard_normal(5), rng.standard_normal(3)
    r = svd(np.outer(u, v))
    assert r.S[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    assert np.all(r.S[1:] < 1e-12 * r.S[0])


def test_svd_reconstruction_random(rng):
    a = rng.standard_normal((5, 3))
    r = svd(a)
    assert np.linalg.norm(a - reconstruct(r)) < 1e-10 * np.linalg.norm(a)


def test_svd_invariants_200_random(rng):
    for _ in range(200):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((m, n))
        r = svd(a)
        k = min(m, n)
        assert r.S.shape == (k,)
        assert np.all(r.S >= 0)
        assert np.all(np.diff(r.S) <= 0)
        assert np.linalg.norm(a - reconstruct(r)) <= 1e-10 * max(np.linalg.norm(a), 1)
        assert np.abs(r.U.T @ r.U - np.eye(k)).max() < 1e-10
        assert np.abs(r.V.T @ r.V - np.eye(k)).max() < 1e-10
        # sign convention: largest-magnitude entry of each U column >= 0
        idx = np.argmax(np.abs(r.U), axis=0)
        assert np.all(r.U[idx, np.arange(k)] >= 0)


def test_svd_deterministic(rng):
    a = rng.standard_normal((6, 4))
    r1, r2 = svd(a), svd(a.copy())
    assert np.array_equal(r1.U, r2.U)
    assert np.array_equal(r1.S, r2.S)
    assert np.array_equal(r1.V, r2.V)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_check_finite_counts_bad_entries():
    a = np.array([[1.0, np.nan], [np.inf, -np.inf]])
    with pytest.raises(
        ValueError, match=r"solver requires finite entries \(3 of 4 are not\)"
    ):
        check_finite(a, "solver")
    ok = check_finite([[1, 2]], "solver")
    assert ok.dtype == np.float64
    assert np.array_equal(ok, [[1.0, 2.0]])


def _tnsr_bytes(tensor):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tnsr")
        write_tnsr(path, tensor)
        with open(path, "rb") as fh:
            return fh.read()


def _r(*shape):
    # fixed real entries for the arguments a table entry does not vary
    return np.arange(np.prod(shape)).reshape(shape) % 7 / 7 - 0.4


_TRL = nn.TrlLayer(decomp.TuckerTensor(_r(2, 2, 2), [_r(4, 2), _r(5, 2), _r(2, 2)]), _r(2))
_POLY = nn.PolyNet([_r(4, 2), _r(4, 2)], _r(3, 2), _r(3))
_KRUSKAL = convfact.KruskalConvKernel(_r(2, 2), _r(3, 2), _r(2, 2), _r(2, 2))
_TUCKER = convfact.TuckerConvKernel(
    decomp.TuckerTensor(_r(2, 2, 2, 1), [_r(2, 2), _r(3, 2), _r(2, 2), _r(2, 1)])
)
_SHORT = DecompOptions(max_iters=5)

# Every public function that takes arrays, as ``call(*arrays)``, with the
# shape of each array argument and the name its refusal gives: the
# function, the argument, or for an alias (nuclear, svt) what it aliases.
_ARRAY_ARGS = {
    "unfold": (lambda t: core.unfold(t, 1), [("unfold", (3, 4, 5))]),
    "fold": (lambda m: core.fold(m, 1, (3, 4, 5)), [("fold", (4, 15))]),
    "vectorize": (core.vectorize, [("vectorize", (3, 4, 5))]),
    "kronecker": (core.kronecker, [("kronecker", (2, 3)), ("kronecker", (3, 2))]),
    "khatri_rao": (
        lambda a, b: core.khatri_rao([a, b]), [("khatri_rao", (3, 2)), ("khatri_rao", (4, 2))]
    ),
    "mttkrp": (
        lambda t, a, b: core.mttkrp(t, {0: a, 2: b}),
        [("mttkrp", (3, 4, 5)), ("mttkrp", (3, 2)), ("mttkrp", (5, 2))],
    ),
    "hadamard": (core.hadamard, [("hadamard", (3, 4)), ("hadamard", (3, 4))]),
    "outer": (lambda a, b: core.outer([a, b]), [("outer", (3,)), ("outer", (4,))]),
    "mode_n_product": (
        lambda t, m: core.mode_n_product(t, m, 1),
        [("mode_n_product", (3, 4, 5)), ("mode_n_product", (2, 4))],
    ),
    "multi_mode_product": (
        lambda t, a, b: core.multi_mode_product(t, [a, b], modes=(0, 2)),
        [("multi_mode_product", shape) for shape in ((3, 4, 5), (2, 3), (2, 5))],
    ),
    "mode_n_vec_product": (
        lambda t, v: core.mode_n_vec_product(t, v, 1),
        [("mode_n_vec_product", (3, 4, 5)), ("mode_n_vec_product", (4,))],
    ),
    "inner": (core.inner, [("inner", (3, 4)), ("inner", (3, 4))]),
    "generalized_inner": (
        lambda x, y: core.generalized_inner(x, y, 2),
        [("generalized_inner", (2, 3, 4)), ("generalized_inner", (3, 4, 5))],
    ),
    "mode_n_conv1d": (
        lambda t, k: core.mode_n_conv1d(t, k, 2),
        [("mode_n_conv1d", (3, 4, 5)), ("mode_n_conv1d", (2,))],
    ),
    "norm_lp": (lambda t: core.norm_lp(t, 2.0), [("norm_lp", (3, 4, 5))]),
    "norm_l0": (core.norm_l0, [("norm_l0", (3, 4, 5))]),
    "frobenius": (core.frobenius, [("frobenius", (3, 4, 5))]),
    "schatten": (lambda m: core.schatten(m, 1.5), [("schatten", (4, 5))]),
    "nuclear": (core.nuclear, [("schatten", (4, 5))]),
    "check_finite": (lambda a: check_finite(a, "check_finite"), [("check_finite", (3, 4))]),
    "column_signs": (column_signs, [("column_signs", (4, 3))]),
    "svd": (svd, [("svd", (4, 5))]),
    "truncated_svd": (lambda a: truncated_svd(a, 2), [("truncated_svd", (4, 5))]),
    "left_singular_basis": (lambda a: left_singular_basis(a, 2), [("left_singular_basis", (4, 5))]),
    "soft_threshold": (lambda x: soft_threshold(x, 0.5), [("soft_threshold", (3, 4))]),
    "svt": (lambda a: svt(a, 0.5), [("svt_with_spectrum", (4, 5))]),
    "svt_with_spectrum": (lambda a: svt_with_spectrum(a, 0.5), [("svt_with_spectrum", (4, 5))]),
    "lstsq": (lstsq, [("lstsq", (4, 3)), ("lstsq", (4, 2))]),
    "KruskalTensor": (
        lambda w, a, b: decomp.KruskalTensor(w, [a, b]),
        [("weights", (2,)), ("factors", (3, 2)), ("factors", (4, 2))],
    ),
    "TuckerTensor": (
        lambda c, a, b: decomp.TuckerTensor(c, [a, b]),
        [("core", (2, 3)), ("factors", (4, 2)), ("factors", (5, 3))],
    ),
    "TTTensor": (
        lambda a, b: decomp.TTTensor([a, b]), [("cores", (1, 3, 2)), ("cores", (2, 4, 1))]
    ),
    "MpcaResult": (
        lambda p, c: decomp.MpcaResult([p], c), [("projections", (4, 2)), ("cores", (2, 5))]
    ),
    "cp_als": (lambda x: cp_als(x, 2, _SHORT), [("cp_als", (3, 4, 5))]),
    "tucker_hosvd": (lambda x: decomp.tucker_hosvd(x, (2, 2, 2)), [("tucker_hosvd", (3, 4, 5))]),
    "tucker_hooi": (lambda x: tucker_hooi(x, (2, 2, 2), _SHORT), [("tucker_hooi", (3, 4, 5))]),
    "tt_svd": (tt_svd, [("tt_svd", (3, 4, 5))]),
    "mpca": (lambda x: mpca(x, (2, 2), _SHORT), [("mpca", (3, 4, 5))]),
    "multifactor_analysis": (
        lambda x: decomp.multifactor_analysis(x, 2), [("multifactor_analysis", (3, 4, 5))]
    ),
    "trpca": (lambda x: trpca(x, max_iters=20), [("trpca", (3, 4, 5))]),
    "trpca_alpha": (lambda a: trpca(_r(3, 4, 5), alpha=a, max_iters=20), [("alpha", (3,))]),
    "tcl_forward": (
        lambda x, a, b: nn.tcl_forward(x, nn.TclLayer([a, b])),
        [("tcl_forward", (3, 4, 5)), ("factors", (2, 4)), ("factors", (2, 5))],
    ),
    "trl_forward": (
        lambda x, c, a, b, d, bias: nn.trl_forward(
            x, nn.TrlLayer(decomp.TuckerTensor(c, [a, b, d]), bias)
        ),
        [("TRL input", (3, 4, 5)), ("core", (2, 2, 2)), ("factors", (4, 2)), ("factors", (5, 2)),
         ("factors", (2, 2)), ("bias", (2,))],
    ),
    "trl_grad": (
        lambda x, up: nn.trl_grad(x, _TRL, up), [("TRL input", (3, 4, 5)), ("TRL upstream", (3, 2))]
    ),
    "tensorize_matrix": (
        lambda w: nn.tensorize_matrix(w, (2, 2), (2, 3)), [("tensorize_matrix", (6, 4))]
    ),
    "detensorize_matrix": (
        lambda t: nn.detensorize_matrix(t, (2, 2), (2, 3)), [("detensorize_matrix", (4, 6))]
    ),
    "tt_linear_forward": (
        lambda x, a, b: nn.tt_linear_forward(
            x, nn.TTLinearLayer((2, 2), (2, 3), decomp.TTTensor([a, b]))
        ),
        [("tt_linear_forward", (3, 4)), ("cores", (1, 4, 2)), ("cores", (2, 6, 1))],
    ),
    "polynet_forward": (
        lambda z, f, m, b: nn.polynet_forward(z, nn.PolyNet([f, f], m, b)),
        [("PolyNet input", (3, 4)), ("factors", (4, 2)), ("mix", (3, 2)), ("bias", (3,))],
    ),
    "polynet_grad": (
        lambda z, up: nn.polynet_grad(z, _POLY, up),
        [("PolyNet input", (3, 4)), ("PolyNet upstream", (3, 3))],
    ),
    "sgd_fit": (
        lambda x, y: nn.sgd_fit(_POLY, (x, y), 0.01, 2), [("sgd_fit", (3, 4)), ("sgd_fit", (3, 3))]
    ),
    "separable_convnd": (
        lambda x, w, uo, ui, k: convfact.separable_convnd(
            x, convfact.SeparableConvKernel(w, uo, ui, [k])
        ),
        [("separable_convnd", (3, 5)), ("weights", (2,)), ("u_out", (4, 2)), ("u_in", (3, 2)),
         ("spatial", (2, 2))],
    ),
    "kruskal_conv2d": (
        lambda x, a, b, c, d: convfact.kruskal_conv2d(x, convfact.KruskalConvKernel(a, b, c, d)),
        [("kruskal_conv2d", (3, 4, 5)), ("u_out", (2, 2)), ("u_in", (3, 2)), ("spatial", (2, 2)),
         ("spatial", (2, 2))],
    ),
    "tucker_conv2d": (lambda x: convfact.tucker_conv2d(x, _TUCKER), [("tucker_conv2d", (3, 4, 5))]),
    "conv_nd_direct": (
        convfact.conv_nd_direct, [("conv_nd_direct", (3, 4, 5)), ("conv_nd_direct", (2, 3, 2, 2))]
    ),
    "conv2d_direct": (
        convfact.conv2d_direct, [("conv2d_direct", (3, 4, 5)), ("conv2d_direct", (2, 3, 2, 2))]
    ),
    "conv1x1": (convfact.conv1x1, [("conv1x1", (3, 4, 5)), ("conv1x1", (2, 3))]),
    "transduce": (lambda e: convfact.transduce(_KRUSKAL, e), [("transduce", (2, 2))]),
    "decompose_kernel": (
        lambda k: convfact.decompose_kernel(k, "cp", 2, _SHORT), [("decompose_kernel", (2, 3, 2, 2))]
    ),
    "write_tnsr": (_tnsr_bytes, [("write_tnsr", (3, 4, 5))]),
}


def _refusing(call, args, i):
    # call with argument i made from the refused array, the others real
    return lambda bad: call(
        *(np.resize(bad, s) if j == i else np.ones(s) for j, (_, s) in enumerate(args))
    )


# the original entries below feed the first argument of these functions
_LISTED = {"trpca", "cp_als", "tucker_hooi", "mpca", "tt_svd", "svd", "left_singular_basis"}


@pytest.mark.parametrize(
    "name, call",
    [
        ("trpca", trpca),
        ("cp_als", lambda x: cp_als(x, 2)),
        ("tucker_hooi", lambda x: tucker_hooi(x, (2, 2, 2))),
        ("mpca", lambda x: mpca(x, (2, 2))),
        ("tt_svd", tt_svd),
        ("svd", lambda x: svd(x[0])),
        ("left_singular_basis", lambda x: left_singular_basis(x[0], 2)),
        *(
            pytest.param(name, _refusing(call, args, i), id=f"{key}-{i}")
            for key, (call, args) in _ARRAY_ARGS.items()
            for i, (name, _) in enumerate(args)
            if i or key not in _LISTED
        ),
    ],
)
def test_complex_input_is_refused_naming_the_caller(rng, name, call):
    # the float64 cast used to drop the imaginary part with a ComplexWarning,
    # which this suite raises as an error, and to parse strings as numbers,
    # so the check comes before it; an object array of complex numbers made
    # the cast raise a bare TypeError
    x = rng.standard_normal((3, 4, 5)) + 1j
    for dtype in ("complex128", "object", "<U"):
        with pytest.raises(ValueError, match=f"{name} requires real entries, got {dtype}"):
            call(x.astype(dtype))


_DTYPES = ("bool", "int8", "uint16", "int64", "float16", "float32", "float64")
_LAYOUTS = ("fortran", "strided", "read-only", "broadcast", "list")


def _lay_out(a, layout):
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "strided":  # every other entry of a larger array
        big = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
        big[..., ::2] = a
        return big[..., ::2]
    if layout == "read-only":
        a = a.copy()
        a.flags.writeable = False
        return a
    if layout == "broadcast":  # the first slab, repeated with stride 0
        return np.broadcast_to(a[:1], a.shape)
    return a.tolist()


def _bits(out):
    # an output as nested containers of (dtype, shape, bytes)
    if hasattr(out, "__dataclass_fields__"):
        out = vars(out)
    if isinstance(out, dict):
        return {k: _bits(v) for k, v in out.items()}
    if isinstance(out, (list, tuple)):
        return [_bits(v) for v in out]
    out = np.asarray(out)
    return out.dtype.str, out.shape, out.tobytes()


def _outcome(call, arrays):
    try:
        return _bits(call(*arrays))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("key", sorted(_ARRAY_ARGS))
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_prop_real_dtypes_and_layouts_match_the_float64_c_order_copy(key, data):
    # every public array argument, of any real dtype and in every layout,
    # gives output bit-identical to its float64 C-order copy
    call, args = _ARRAY_ARGS[key]
    arrays = []
    for _, shape in args:
        dtype = data.draw(st.sampled_from(_DTYPES))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        kind = np.dtype(dtype).kind  # signed integers from -3, others from 0
        a = rng.standard_normal(shape) if kind == "f" else rng.integers(-3 * (kind == "i"), 4, shape)
        arrays.append(a.astype(dtype))
    for layout in _LAYOUTS:
        laid = [_lay_out(a, layout) for a in arrays]
        copies = [np.array(a, dtype=np.float64, order="C") for a in laid]
        assert _outcome(call, laid) == _outcome(call, copies), layout


def test_check_finite_refuses_complex_even_with_zero_imaginary_part():
    with pytest.raises(ValueError, match="solver requires real entries, got complex64"):
        check_finite(np.ones(3, dtype=np.complex64), "solver")


def test_truncated_svd_full_rank_exact(rng):
    a = rng.standard_normal((4, 3))
    r = truncated_svd(a, 3)
    assert np.linalg.norm(a - reconstruct(r)) < 1e-10 * np.linalg.norm(a)


def test_truncated_svd_eckart_young():
    a = np.diag([3.0, 1.0])
    r = truncated_svd(a, 1)
    assert np.linalg.norm(a - reconstruct(r)) == pytest.approx(1.0, rel=1e-12)


def test_truncated_svd_error_identity(rng):
    a = rng.standard_normal((6, 5))
    s = svd(a).S
    for r in range(1, 6):
        err_sq = np.linalg.norm(a - reconstruct(truncated_svd(a, r))) ** 2
        assert err_sq == pytest.approx(np.sum(s[r:] ** 2), rel=1e-9, abs=1e-12)


def test_truncated_svd_monotone_in_rank(rng):
    a = rng.standard_normal((5, 5))
    errs = [
        np.linalg.norm(a - reconstruct(truncated_svd(a, r))) for r in range(1, 6)
    ]
    assert np.all(np.diff(errs) <= 1e-12)


def test_truncated_svd_rank_range(rng):
    a = rng.standard_normal((3, 4))
    with pytest.raises(ValueError):
        truncated_svd(a, 0)
    with pytest.raises(ValueError):
        truncated_svd(a, 4)


def test_soft_threshold():
    x = np.array([-3.0, 0.5, 2.0])
    assert np.array_equal(soft_threshold(x, 0.0), x)
    assert np.array_equal(soft_threshold(x, 1.0), np.array([-2.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        soft_threshold(x, -0.1)
    with pytest.raises(ValueError, match="threshold must be non-negative, got nan"):
        soft_threshold(x, np.nan)
    with pytest.raises(ValueError, match="threshold must be non-negative, got nan"):
        svt(np.diag(x), np.nan)


def test_soft_threshold_matches_sign_times_shrunk_magnitude(rng):
    # x - clip(x, -tau, tau) is the textbook form, up to the sign of zero
    x = np.concatenate([rng.standard_normal(200), [0.3, -0.3, 0.0, -0.0, np.inf, -np.inf]])
    for tau in (0.0, 0.3, 1.0, np.inf):
        with np.errstate(invalid="ignore"):
            want = np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
            got = soft_threshold(x, tau)
        assert np.array_equal(got, want, equal_nan=True)


def test_soft_threshold_shrinks_support(rng):
    x = rng.standard_normal((4, 4))
    out = soft_threshold(x, 0.3)
    assert np.count_nonzero(out) <= np.count_nonzero(x)


def test_svt_zero_threshold(rng):
    a = rng.standard_normal((4, 3))
    assert np.abs(svt(a, 0.0) - a).max() < 1e-10


def test_svt_kills_everything_past_sigma1(rng):
    a = rng.standard_normal((4, 3))
    s1 = svd(a).S[0]
    assert np.abs(svt(a, s1 + 1e-9)).max() < 1e-12


def test_svt_diag():
    got = svt(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_with_spectrum_matches_svt(rng):
    a = rng.standard_normal((5, 3))
    tau = 0.5
    m, spectrum = svt_with_spectrum(a, tau)
    assert np.array_equal(m, svt(a, tau))
    assert np.array_equal(spectrum, np.maximum(svd(a).S - tau, 0.0))
    # the shrunk spectrum is the spectrum of the result
    assert np.allclose(svd(m).S, spectrum, atol=1e-12)
    with pytest.raises(ValueError):
        svt_with_spectrum(a, -1.0)


def test_svt_is_nuclear_prox(rng):
    # svt(A, tau) must minimize 0.5 * ||X - A||_F^2 + tau * ||X||_*;
    # verify on 2x2 instances against a general-purpose optimizer.
    def objective(flat, a, tau):
        x = flat.reshape(2, 2)
        return 0.5 * np.sum((x - a) ** 2) + tau * np.linalg.svd(
            x, compute_uv=False
        ).sum()

    for trial in range(10):
        a = rng.standard_normal((2, 2))
        tau = float(rng.uniform(0.1, 2.0))
        ours = svt(a, tau)
        f_ours = objective(ours.reshape(-1), a, tau)
        best = f_ours
        for start in (a, ours, np.zeros((2, 2))):
            res = scipy.optimize.minimize(
                objective,
                start.reshape(-1) + rng.standard_normal(4) * 0.1,
                args=(a, tau),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000},
            )
            best = min(best, res.fun)
        assert f_ours <= best + 1e-6


def test_lstsq_invertible(rng):
    a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    b = rng.standard_normal((3, 2))
    assert np.allclose(lstsq(a, b), np.linalg.solve(a, b), atol=1e-10)


def test_lstsq_overdetermined_consistent(rng):
    a = rng.standard_normal((6, 3))
    x0 = rng.standard_normal((3, 2))
    b = a @ x0
    x = lstsq(a, b)
    assert np.linalg.norm(a @ x - b) < 1e-10


def test_lstsq_zero_matrix_gives_zero(rng):
    b = rng.standard_normal((3, 2))
    assert np.array_equal(lstsq(np.zeros((3, 3)), b), np.zeros((3, 2)))


def test_lstsq_minimum_norm(rng):
    # rank-deficient system: solution must match numpy's min-norm lstsq
    a = np.outer(rng.standard_normal(4), rng.standard_normal(3))
    b = rng.standard_normal((4, 1))
    x = lstsq(a, b)
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.allclose(x, expected, atol=1e-10)


def test_column_signs_make_largest_entry_non_negative():
    u = np.array([[1.0, -3.0, 2.0], [-2.0, 1.0, -2.0]])
    # the first of two tied largest entries decides, so column 2 keeps +
    assert np.array_equal(column_signs(u), [-1.0, -1.0, 1.0])
    fixed = u * column_signs(u)
    idx = np.argmax(np.abs(fixed), axis=0)
    assert np.all(fixed[idx, np.arange(3)] >= 0)


def test_svd_and_padded_basis_follow_column_signs(rng):
    a = rng.standard_normal((6, 4))
    r = svd(a)
    assert np.array_equal(column_signs(r.U), np.ones(4))
    # rank above min(a.shape): the orthonormal completion is sign-fixed too
    u = left_singular_basis(a[:, :2], 5)
    assert np.array_equal(column_signs(u), np.ones(5))
    assert np.allclose(u.T @ u, np.eye(5), atol=1e-12)


def planted(rng, shape, spectrum):
    # U diag(spectrum) V.T with random orthonormal U and V
    k = len(spectrum)
    u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
    return (u * spectrum) @ v.T


@pytest.mark.parametrize("shape", [(6, 40), (12, 12), (30, 9)])
def test_left_singular_basis_projector_matches_svd(rng, shape):
    k = min(shape)
    for a in (
        rng.standard_normal(shape),
        planted(rng, shape, np.linspace(10.0, 1.0, k)),
    ):
        u_ref = svd(a).U
        for rank in (1, k // 2, k):
            u = left_singular_basis(a, rank)
            assert u.shape == (shape[0], rank)
            proj = u_ref[:, :rank] @ u_ref[:, :rank].T
            assert np.abs(u @ u.T - proj).max() <= 1e-12


def test_left_singular_basis_completion_is_orthonormal_and_sign_fixed(rng):
    for a in (rng.standard_normal((7, 3)), planted(rng, (9, 4), [4.0, 3.0, 2.0, 1.0])):
        rows, cols = a.shape
        lead = svd(a).U
        for rank in range(cols + 1, rows + 1):
            u = left_singular_basis(a, rank)
            assert u.shape == (rows, rank)
            assert np.abs(u.T @ u - np.eye(rank)).max() <= 1e-12
            assert np.array_equal(column_signs(u), np.ones(rank))
            # the leading columns span the column space of a
            assert np.abs(u[:, :cols] @ u[:, :cols].T - lead @ lead.T).max() <= 1e-12


def spy_on_svd(monkeypatch):
    calls = []

    def spy(a):
        calls.append(np.shape(a))
        return svd(a)

    monkeypatch.setattr(linalg, "svd", spy)
    return calls


def test_left_singular_basis_falls_back_to_lapack_on_rank_deficiency(rng, monkeypatch):
    calls = spy_on_svd(monkeypatch)
    left_singular_basis(rng.standard_normal((6, 20)), 3)
    left_singular_basis(planted(rng, (8, 8), np.linspace(5.0, 1.0, 8)), 8)
    assert calls == []
    # a kept singular value of 0: the basis is LAPACK's
    a = planted(rng, (6, 20), [3.0, 1.0])
    u = left_singular_basis(a, 3)
    assert calls == [(6, 20)]
    assert np.array_equal(u, svd(a).U[:, :3])
    # the same with a completion: a is padded with zero columns
    a = planted(rng, (7, 3), [2.0, 1.0])
    u = left_singular_basis(a, 5)
    assert calls[1:] == [(7, 5)]
    assert np.abs(u.T @ u - np.eye(5)).max() <= 1e-12
    assert np.array_equal(column_signs(u), np.ones(5))
    # a tall input within its column count: the Gram would be the long side
    left_singular_basis(rng.standard_normal((30, 4)), 2)
    assert calls[2:] == [(30, 4)]


def test_left_singular_basis_of_zero_matrix():
    for shape, rank in (((4, 7), 3), ((5, 2), 4), ((3, 3), 3)):
        u = left_singular_basis(np.zeros(shape), rank)
        assert np.all(np.isfinite(u))
        assert np.abs(u.T @ u - np.eye(rank)).max() <= 1e-12


def test_left_singular_basis_is_deterministic(rng):
    for shape, rank in (((10, 50), 4), ((8, 3), 6)):
        a = rng.standard_normal(shape)
        assert np.array_equal(left_singular_basis(a, rank), left_singular_basis(a, rank))


def test_left_singular_basis_rejects_non_finite_input():
    a = np.ones((3, 4))
    a[1, 2] = np.nan
    with pytest.raises(ValueError, match="left_singular_basis requires finite entries"):
        left_singular_basis(a, 2)
