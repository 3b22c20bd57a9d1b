import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import def1_unfold, loop_conv1d, rel_err
from tenkit import (
    cp_als,
    fold,
    frobenius,
    generalized_inner,
    hadamard,
    inner,
    khatri_rao,
    kronecker,
    mode_n_conv1d,
    mode_n_product,
    mode_n_vec_product,
    mttkrp,
    norm_l0,
    multi_mode_product,
    norm_lp,
    nuclear,
    outer,
    schatten,
    unfold,
    vectorize,
)

T232 = np.arange(12, dtype=float).reshape(2, 3, 2)


# ---------------------------------------------------------------------------
# unfold / fold / vectorize


def test_unfold_matrix_mode0_is_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(unfold(m, 0), m)


def test_unfold_232_mode0():
    expected = np.array([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]], dtype=float)
    assert np.array_equal(unfold(T232, 0), expected)
    assert np.array_equal(unfold(T232, 0), def1_unfold(T232, 0))


def test_unfold_232_mode1_collects_fibers():
    got = unfold(T232, 1)
    assert got.shape == (3, 4)
    for r in range(3):
        assert np.array_equal(got[r].reshape(2, 2), T232[:, r, :])
    assert np.array_equal(got, def1_unfold(T232, 1))


def test_unfold_matches_enumeration_on_random(rng):
    for _ in range(20):
        order = rng.integers(1, 5)
        shape = tuple(rng.integers(1, 5, size=order))
        t = rng.standard_normal(shape)
        for mode in range(order):
            assert np.array_equal(unfold(t, mode), def1_unfold(t, mode))


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError):
        unfold(T232, 3)
    with pytest.raises(ValueError):
        unfold(T232, -1)


def test_fold_roundtrip_is_exact(rng):
    t = rng.standard_normal((3, 4, 2, 2))
    for mode in range(4):
        assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


def test_unfold_zero_size_mode_has_fold_shape():
    t = np.zeros((3, 0, 4))
    assert unfold(t, 0).shape == (3, 0)
    assert unfold(t, 1).shape == (0, 12)
    for mode in range(3):
        assert fold(unfold(t, mode), mode, t.shape).shape == t.shape


def test_fold_example_232():
    m = np.array([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]], dtype=float)
    assert np.array_equal(fold(m, 0, (2, 3, 2)), T232)


def test_fold_wrong_shape_errors():
    m = unfold(T232, 0)
    with pytest.raises(ValueError):
        fold(m, 0, (2, 3, 3))
    with pytest.raises(ValueError):
        fold(m, 1, (2, 3, 2))


def test_vectorize():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vectorize(v), v)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vectorize(m), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(vectorize(T232), T232.reshape(-1))


# ---------------------------------------------------------------------------
# products


def test_kronecker_identity_block_diagonal(rng):
    b = rng.standard_normal((2, 3))
    got = kronecker(np.eye(2), b)
    expected = np.block([[b, np.zeros((2, 3))], [np.zeros((2, 3)), b]])
    assert np.array_equal(got, expected)


def test_kronecker_hand_example():
    got = kronecker(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert np.array_equal(got, np.array([[3.0, 6.0], [4.0, 8.0]]))


def test_kronecker_mixed_product(rng):
    a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
    lhs = kronecker(a, b) @ kronecker(c, d)
    rhs = kronecker(a @ c, b @ d)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_khatri_rao_single_matrix(rng):
    a = rng.standard_normal((3, 2))
    assert np.array_equal(khatri_rao([a]), a)


def test_khatri_rao_columnwise_kronecker(rng):
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    got = khatri_rao([a, b])
    assert got.shape == (4, 2)
    for r in range(2):
        assert np.array_equal(got[:, r], np.kron(a[:, r], b[:, r]))


def test_khatri_rao_three_matrices_associative(rng):
    mats = [rng.standard_normal((d, 3)) for d in (2, 3, 2)]
    direct = np.stack(
        [np.kron(np.kron(mats[0][:, r], mats[1][:, r]), mats[2][:, r]) for r in range(3)],
        axis=1,
    )
    assert np.allclose(khatri_rao(mats), direct, atol=1e-14)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao([np.ones((2, 2)), np.ones((2, 3))])


# ---------------------------------------------------------------------------
# mttkrp


@pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5), (2, 3, 4, 5), (3, 2, 4, 2, 3)])
def test_mttkrp_matches_unfolding_times_khatri_rao(rng, shape):
    x = rng.standard_normal(shape)
    mats = [rng.standard_normal((s, 3)) for s in shape]
    for n in range(len(shape)):
        others = [k for k in range(len(shape)) if k != n]
        got = mttkrp(x, {k: mats[k] for k in others})
        ref = unfold(x, n) @ khatri_rao([mats[k] for k in others])
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5), (3, 2, 4, 2, 3)])
def test_mttkrp_shared_partial_gives_every_mode_of_its_half(rng, shape):
    x = rng.standard_normal(shape)
    mats = [rng.standard_normal((s, 2)) for s in shape]
    order = len(shape)
    lead, trail = range(order // 2), range(order // 2, order)
    for own, other in ((lead, trail), (trail, lead)):
        partial = mttkrp(x, {k: mats[k] for k in other})
        assert partial.shape == tuple(shape[k] for k in own) + (2,)
        for n in own:
            rest = {k - own.start: mats[k] for k in own if k != n}
            got = mttkrp(partial, rest, ranked=True)
            ref = unfold(x, n) @ khatri_rao([m for k, m in enumerate(mats) if k != n])
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_mttkrp_on_an_inner_mode_only(rng):
    x = rng.standard_normal((3, 4, 5))
    u = rng.standard_normal((4, 2))
    ref = np.einsum("ijk,jr->ikr", x, u)
    assert np.abs(mttkrp(x, {1: u}) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize(
    "shape, modes, spec",
    [
        ((64, 64, 3, 3), (2, 3), "abij,ir,jr->abr"),  # a trailing run
        ((3, 2, 50, 40), (0, 1), "ijab,ir,jr->abr"),  # a leading run
        ((2, 3, 20, 4), (0, 1, 2), "ijka,ir,jr,kr->ar"),  # the run up to a large axis
        ((2, 3, 20, 4), (0, 1, 3), "ijal,ir,jr,lr->ar"),  # small last axis, no run
        ((4, 2, 3), (1, 2), "ajk,jr,kr->ar"),
    ],
)
def test_mttkrp_contracts_a_small_end_run_in_one_step(rng, shape, modes, spec):
    x = rng.standard_normal(shape)
    mats = [rng.standard_normal((shape[k], 16)) for k in modes]
    ref = np.einsum(spec, x, *mats)
    got = mttkrp(x, dict(zip(modes, mats)))
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_mttkrp_small_end_run_keeps_the_partial_small(rng):
    x = rng.standard_normal((64, 64, 3, 3))
    mats = {k: rng.standard_normal((3, 16)) for k in (2, 3)}
    tracemalloc.start()
    try:
        got = mttkrp(x, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (64, 64, 16)
    assert peak < 1.5 * got.nbytes


def test_mttkrp_without_modes_returns_the_tensor(rng):
    x = rng.standard_normal((3, 4))
    assert np.array_equal(mttkrp(x, {}), x)


@pytest.mark.parametrize(
    "matrices, ranked",
    [
        ({3: np.ones((5, 2))}, False),
        ({1: np.ones((5, 2))}, False),
        ({0: np.ones((3, 2)), 1: np.ones((4, 3))}, False),
        ({1: np.ones((1, 2))}, False),  # no broadcasting of a size-1 mode
        ({2: np.ones((5, 5))}, True),  # the last axis is the rank axis
        ({0: np.ones((3, 2))}, True),  # a rank axis of 5, not 2
    ],
)
def test_mttkrp_rejects_matrices_that_do_not_fit(matrices, ranked):
    x = np.ones((3, 4, 5))
    k = list(matrices)[-1]
    with pytest.raises(ValueError, match=f"does not fit mode {k} of a"):
        mttkrp(x, matrices, ranked)


def test_hadamard():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(hadamard(a, np.ones((2, 2))), a)
    assert np.array_equal(hadamard(a, np.zeros((2, 2))), np.zeros((2, 2)))
    b = np.array([[2.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(hadamard(a, b), np.array([[2.0, 0.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        hadamard(a, np.ones((2, 3)))


def test_outer_single_vector():
    v = np.array([1.0, 2.0])
    assert np.array_equal(outer([v]), v)


def test_outer_hand_example():
    got = outer([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    assert np.array_equal(got, np.array([[3.0, 4.0], [6.0, 8.0]]))


def test_outer_element_formula(rng):
    vecs = [rng.standard_normal(d) for d in (2, 3, 2)]
    got = outer(vecs)
    for idx in np.ndindex(*got.shape):
        expected = vecs[0][idx[0]] * vecs[1][idx[1]] * vecs[2][idx[2]]
        assert got[idx] == pytest.approx(expected, abs=1e-14)


def test_outer_has_cp_rank_one(rng):
    vecs = [rng.standard_normal(d) + 2.0 for d in (3, 4, 2)]
    t = outer(vecs)
    k = cp_als(t, 1)
    assert np.linalg.norm(k.to_tensor() - t) < 1e-10 * np.linalg.norm(t)


def test_mode_n_product_identity(rng):
    t = rng.standard_normal((2, 3, 4))
    assert np.allclose(mode_n_product(t, np.eye(3), 1), t, atol=1e-15)


def test_mode_n_product_composition(rng):
    t = rng.standard_normal((2, 3, 4))
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((2, 5))
    lhs = mode_n_product(mode_n_product(t, a, 1), b, 1)
    rhs = mode_n_product(t, b @ a, 1)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mode_n_product_unfold_identity(rng):
    t = rng.standard_normal((2, 3, 4))
    m = rng.standard_normal((5, 3))
    got = unfold(mode_n_product(t, m, 1), 1)
    assert np.allclose(got, m @ unfold(t, 1), atol=1e-12)


def test_mode_n_product_dim_mismatch(rng):
    t = rng.standard_normal((2, 3, 4))
    with pytest.raises(ValueError):
        mode_n_product(t, np.ones((2, 5)), 1)
    with pytest.raises(ValueError):
        mode_n_product(t, np.ones((2, 3)), 5)


def _tensordot_mode_product(t, m, mode):
    """The n-mode product as ``tensordot`` followed by ``moveaxis``: a
    reference that shares no code with the reshape-and-GEMM product."""
    return np.moveaxis(np.tensordot(m, t, axes=([1], [mode])), 0, mode)


@pytest.mark.parametrize(
    "shape", [(5,), (4, 6), (3, 4, 5), (2, 3, 4, 5), (2, 3, 1, 4, 3)]
)
def test_mode_n_product_matches_tensordot_and_is_c_contiguous(rng, shape):
    big = rng.standard_normal(tuple(2 * s for s in shape))
    c_order = rng.standard_normal(shape)
    layouts = {
        "C": c_order,
        "Fortran": np.asfortranarray(c_order),
        "strided": big[tuple(slice(None, None, 2) for _ in shape)],
    }
    for mode in range(len(shape)):
        matrices = {
            "3 rows": rng.standard_normal((3, shape[mode])),
            "1 row": rng.standard_normal((1, shape[mode])),
            "transposed": rng.standard_normal((shape[mode], 3)).T,
        }
        for layout, t in layouts.items():
            for kind, m in matrices.items():
                got = mode_n_product(t, m, mode)
                ref = _tensordot_mode_product(t, m, mode)
                via_unfold = fold(m @ unfold(t, mode), mode, ref.shape)
                where = f"{layout} input, {kind}, mode {mode}"
                assert got.flags.c_contiguous, where
                assert got.shape == ref.shape, where
                scale = np.abs(ref).max()
                assert np.abs(got - ref).max() <= 1e-14 * scale, where
                assert np.abs(got - via_unfold).max() <= 1e-14 * scale, where


@pytest.mark.parametrize(
    "shape, mode",
    [
        ((0, 3, 4), 1),  # zero-size mode before the product mode
        ((3, 0, 4), 1),  # at the product mode
        ((3, 4, 0), 1),  # after it
        ((0, 3), 1),
        ((3, 0), 0),
        ((0,), 0),
    ],
)
def test_mode_n_product_zero_size_mode(shape, mode):
    t = np.ones(shape)
    got = mode_n_product(t, np.ones((5, shape[mode])), mode)
    expected = shape[:mode] + (5,) + shape[mode + 1 :]
    assert got.shape == expected
    # an empty contraction (size 0 at the product mode) sums to zero
    assert np.array_equal(got, np.zeros(expected))
    assert got.flags.c_contiguous


def test_multi_mode_product_takes_a_generator_of_matrices(rng):
    x = rng.standard_normal((3, 4, 5))
    fs = [rng.standard_normal((2, s)) for s in x.shape]
    from_list = multi_mode_product(x, fs)
    from_gen = multi_mode_product(x, (f for f in fs))
    assert from_list.shape == (2, 2, 2)
    assert np.array_equal(from_gen, from_list)


def test_mode_n_vec_product_basis_selects_slice(rng):
    t = rng.standard_normal((2, 3, 4))
    e1 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(mode_n_vec_product(t, e1, 1), t[:, 1, :], atol=1e-15)


def test_mode_n_vec_product_matrix_case(rng):
    m = rng.standard_normal((3, 4))
    v = rng.standard_normal(4)
    assert np.allclose(mode_n_vec_product(m, v, 1), m @ v, atol=1e-14)


def test_mode_n_vec_product_equals_row_matrix_then_squeeze(rng):
    t = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal(3)
    via_matrix = np.squeeze(mode_n_product(t, v[None, :], 1), axis=1)
    assert np.array_equal(mode_n_vec_product(t, v, 1), via_matrix)


def test_mode_n_vec_product_chain_is_multilinear_form(rng):
    t = rng.standard_normal((2, 3, 2))
    vs = [rng.standard_normal(d) for d in (2, 3, 2)]
    out = t
    for v in vs:
        out = mode_n_vec_product(out, v, 0)
    brute = sum(
        t[i, j, k] * vs[0][i] * vs[1][j] * vs[2][k]
        for i in range(2)
        for j in range(3)
        for k in range(2)
    )
    assert float(out) == pytest.approx(brute, rel=1e-12)


def test_inner_is_squared_frobenius(rng):
    x = rng.standard_normal((3, 4, 2))
    assert inner(x, x) == pytest.approx(frobenius(x) ** 2, rel=1e-12)


def test_inner_shape_mismatch(rng):
    with pytest.raises(ValueError):
        inner(rng.standard_normal((2, 3)), rng.standard_normal((3, 2)))


def test_generalized_inner_full_overlap(rng):
    x = rng.standard_normal((2, 3, 4))
    y = rng.standard_normal((2, 3, 4))
    got = generalized_inner(x[None], y[..., None], 3)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(inner(x, y), rel=1e-12)


def test_generalized_inner_vs_unfold_oracle(rng):
    x = rng.standard_normal((2, 2, 3))
    y = rng.standard_normal((2, 3, 4))
    got = generalized_inner(x, y, 2)
    oracle = x.reshape(2, 6) @ y.reshape(6, 4)
    assert np.allclose(got, oracle, atol=1e-12)


def test_generalized_inner_shape_mismatch(rng):
    with pytest.raises(ValueError):
        generalized_inner(rng.standard_normal((2, 3)), rng.standard_normal((4, 2)), 1)


# ---------------------------------------------------------------------------
# mode-wise convolution


def test_conv1d_unit_kernel(rng):
    t = rng.standard_normal((2, 4))
    assert np.allclose(mode_n_conv1d(t, np.array([1.0]), 1), t, atol=1e-15)


def test_conv1d_shift_select():
    t = np.array([[1.0, 2.0, 3.0]])
    got = mode_n_conv1d(t, np.array([0.0, 1.0]), 1)
    assert np.array_equal(got, np.array([[2.0, 3.0]]))


def test_conv1d_matches_loop_oracle(rng):
    sig = rng.standard_normal(5)
    ker = rng.standard_normal(3)
    got = mode_n_conv1d(sig.reshape(1, 5), ker, 1)
    assert np.allclose(got[0], loop_conv1d(sig, ker), atol=1e-13)
    t = rng.standard_normal((5, 9, 7))
    for mode in range(3):
        ref = np.apply_along_axis(loop_conv1d, mode, t, ker)
        assert rel_err(mode_n_conv1d(t, ker, mode), ref) <= 1e-15


def test_conv1d_kernel_too_long(rng):
    with pytest.raises(ValueError):
        mode_n_conv1d(rng.standard_normal((2, 3)), np.ones(4), 1)
    # an empty kernel would give an output one longer than the mode
    with pytest.raises(ValueError, match="mode 1"):
        mode_n_conv1d(rng.standard_normal((6, 6, 6)), np.ones(0), 1)


# ---------------------------------------------------------------------------
# norms


def test_norms_of_zero():
    z = np.zeros((2, 3))
    assert norm_lp(z, 1) == 0.0
    assert frobenius(z) == 0.0
    assert norm_l0(z) == 0


def test_norm_345():
    assert norm_lp(np.array([3.0, 4.0]), 2) == pytest.approx(5.0, rel=1e-15)
    assert frobenius(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-15)


def test_norm_lp_2_matches_the_power_sum(rng):
    # p = 2 takes a dot product; it must agree with the power sum that
    # every other p uses, on contiguous and strided inputs alike
    x = rng.standard_normal((20, 20, 20))
    for t in (x, x[::2, :, 1:].transpose(2, 0, 1), -x[:1]):
        power = float(np.sum(np.abs(t) ** 2.0) ** 0.5)
        assert norm_lp(t, 2) == pytest.approx(power, rel=1e-15)
        assert norm_lp(t, 2.0) == norm_lp(t, 2) == frobenius(t)
        assert norm_lp(t, 2.5) == float(np.sum(np.abs(t) ** 2.5) ** 0.4)


def test_norm_l0_counts():
    assert norm_l0(np.array([0.0, 1.0, 0.0, 2.0])) == 2


def test_norm_lp_rejects_small_p():
    with pytest.raises(ValueError):
        norm_lp(np.ones(3), 0.5)


def test_schatten_identity():
    assert nuclear(np.eye(4)) == pytest.approx(4.0, rel=1e-12)


def test_schatten_rank_one(rng):
    u, v = rng.standard_normal(4), rng.standard_normal(3)
    got = nuclear(np.outer(u, v))
    assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)


def test_schatten_diag():
    assert schatten(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ValueError):
        schatten(np.eye(2), 0.5)


# ---------------------------------------------------------------------------
# property-based invariants

shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)
elements = st.floats(-10, 10, allow_nan=False, width=64)


def tensors(shape_strategy=shapes):
    return shape_strategy.flatmap(
        lambda s: hnp.arrays(np.float64, s, elements=elements)
    )


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_prop_fold_unfold_roundtrip(t, data):
    mode = data.draw(st.integers(0, t.ndim - 1))
    assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


@settings(max_examples=40, deadline=None)
@given(tensors(), st.data())
def test_prop_unfold_linearity(x, data):
    y = data.draw(hnp.arrays(np.float64, x.shape, elements=elements))
    a = data.draw(st.floats(-5, 5, allow_nan=False, width=64))
    b = data.draw(st.floats(-5, 5, allow_nan=False, width=64))
    mode = data.draw(st.integers(0, x.ndim - 1))
    lhs = unfold(a * x + b * y, mode)
    rhs = a * unfold(x, mode) + b * unfold(y, mode)
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(tensors(), st.data())
def test_prop_mode_product_unfold_consistency(t, data):
    mode = data.draw(st.integers(0, t.ndim - 1))
    rows = data.draw(st.integers(1, 4))
    m = data.draw(
        hnp.arrays(np.float64, (rows, t.shape[mode]), elements=elements)
    )
    lhs = unfold(mode_n_product(t, m, mode), mode)
    rhs = m @ unfold(t, mode)
    bound = 1e-12 * max(np.linalg.norm(m) * np.linalg.norm(t), 1.0)
    assert np.abs(lhs - rhs).max() <= bound


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5).map(tuple), st.data())
def test_prop_mode_product_unfold_identity_with_zero_size_modes(shape, data):
    mode = data.draw(st.integers(0, len(shape) - 1))
    rows = data.draw(st.integers(0, 4))
    t = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    m = data.draw(hnp.arrays(np.float64, (rows, shape[mode]), elements=elements))
    got = unfold(mode_n_product(t, m, mode), mode)
    want = m @ unfold(t, mode)
    assert got.shape == want.shape
    # each entry is one dot product of length I_mode, so both sides
    # round within a few ulp of |m| @ |unfold(t)|
    scale = np.abs(m) @ np.abs(unfold(t, mode))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple).flatmap(
        lambda s: hnp.arrays(np.float64, s, elements=elements)
    ),
    st.data(),
)
def test_prop_mode_product_commutes_across_modes(t, data):
    m1 = data.draw(st.integers(0, t.ndim - 1))
    m2 = data.draw(st.integers(0, t.ndim - 1).filter(lambda k: k != m1))
    a = data.draw(hnp.arrays(np.float64, (2, t.shape[m1]), elements=elements))
    b = data.draw(hnp.arrays(np.float64, (3, t.shape[m2]), elements=elements))
    lhs = mode_n_product(mode_n_product(t, a, m1), b, m2)
    rhs = mode_n_product(mode_n_product(t, b, m2), a, m1)
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(tensors())
def test_prop_inner_is_squared_norm(x):
    assert inner(x, x) == pytest.approx(frobenius(x) ** 2, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_prop_khatri_rao_columns(i, j, r, data):
    a = data.draw(hnp.arrays(np.float64, (i, r), elements=elements))
    b = data.draw(hnp.arrays(np.float64, (j, r), elements=elements))
    got = khatri_rao([a, b])
    for c in range(r):
        assert np.array_equal(got[:, c], np.kron(a[:, c], b[:, c]))
