import warnings

import numpy as np
import pytest

from conftest import rel_err
from tenkit import (
    DecompOptions,
    KruskalTensor,
    TTTensor,
    TuckerTensor,
    cp_als,
    mpca,
    multifactor_analysis,
    multi_mode_product,
    outer,
    tt_svd,
    tucker_hooi,
    tucker_hosvd,
    unfold,
)
from tenkit.decomp import tt_max_ranks
from tenkit.linalg import svd


def random_kruskal(rng, shape, rank, positive=False):
    if positive:
        factors = [rng.uniform(0.5, 1.5, size=(s, rank)) for s in shape]
    else:
        factors = [rng.standard_normal((s, rank)) for s in shape]
    return KruskalTensor(rng.uniform(0.5, 2.0, size=rank), factors)


# ---------------------------------------------------------------------------
# reconstructions


def test_kruskal_to_tensor_rank_one():
    k = KruskalTensor(np.ones(1), [np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
    assert np.array_equal(k.to_tensor(), np.array([[3.0, 4.0], [6.0, 8.0]]))
    assert np.array_equal(k.to_tensor(), outer([np.array([1.0, 2.0]), np.array([3.0, 4.0])]))


def test_kruskal_to_tensor_elementwise(rng):
    k = random_kruskal(rng, (2, 3, 2), 2)
    t = k.to_tensor()
    for idx in np.ndindex(*t.shape):
        val = sum(
            k.weights[r] * np.prod([k.factors[n][idx[n], r] for n in range(3)])
            for r in range(2)
        )
        assert t[idx] == pytest.approx(val, rel=1e-12)


def test_kruskal_unfolding_khatri_rao_identity(rng):
    # pins the factor ordering: the mode-n unfolding of a Kruskal tensor
    # is U_n diag(w) krp(U_0, ..skip n.., U_{N-1})^T with the remaining
    # factors taken in increasing mode order
    from tenkit import khatri_rao

    k = random_kruskal(rng, (3, 4, 2), 2)
    x = k.to_tensor()
    for n in range(3):
        others = [f for m, f in enumerate(k.factors) if m != n]
        expected = (k.factors[n] * k.weights) @ khatri_rao(others).T
        assert np.allclose(unfold(x, n), expected, atol=1e-12)


def test_tucker_identity_factors_returns_core(rng):
    core = rng.standard_normal((2, 3, 2))
    t = TuckerTensor(core, [np.eye(2), np.eye(3), np.eye(2)])
    assert np.allclose(t.to_tensor(), core, atol=1e-15)


def test_tt_full_rank_matrix_exact(rng):
    m = rng.standard_normal((2, 2))
    t = tt_svd(m)
    assert rel_err(t.to_tensor(), m) < 1e-12


def test_tt_to_tensor_matches_core_product(rng):
    t = tt_svd(rng.standard_normal((3, 2, 4)))
    dense = t.to_tensor()
    for idx in np.ndindex(*dense.shape):
        prod = t.cores[0][:, idx[0], :]
        for k in range(1, 3):
            prod = prod @ t.cores[k][:, idx[k], :]
        assert dense[idx] == pytest.approx(prod[0, 0], rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# CP-ALS


def test_cp_rank_one_exact(rng):
    t = outer([rng.standard_normal(4), rng.standard_normal(5)])
    k = cp_als(t, 1)
    assert rel_err(k.to_tensor(), t) < 1e-8


def test_cp_exact_recovery_rank3(rng):
    truth = random_kruskal(rng, (6, 7, 8), 3)
    x = truth.to_tensor()
    k = cp_als(x, 3, DecompOptions(init="hosvd", seed=0))
    assert rel_err(k.to_tensor(), x) < 1e-6


def test_cp_rejects_rank_zero(rng):
    with pytest.raises(ValueError):
        cp_als(rng.standard_normal((2, 2)), 0)


def test_cp_fit_monotone(rng):
    x = rng.standard_normal((4, 5, 3))
    _, info = cp_als(x, 3, return_info=True)
    assert np.all(np.diff(info["fits"]) >= -1e-12)


def test_cp_normalized_output(rng):
    truth = random_kruskal(rng, (4, 4, 4), 2)
    k = cp_als(truth.to_tensor(), 2)
    assert np.all(k.weights >= 0)
    for f in k.factors:
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-10)


def test_cp_deterministic(rng):
    x = rng.standard_normal((4, 3, 3))
    opts = DecompOptions(seed=123, init="random")
    k1 = cp_als(x, 2, opts)
    k2 = cp_als(x, 2, opts)
    assert np.array_equal(k1.weights, k2.weights)
    for a, b in zip(k1.factors, k2.factors):
        assert np.array_equal(a, b)


def test_cp_overparametrized_warns(rng):
    x = rng.standard_normal((2, 2, 2))
    with pytest.warns(RuntimeWarning, match="over-parametrized"):
        _, info = cp_als(x, 5, return_info=True)
    assert info["over_parametrized"]


def test_cp_rank_above_mode_size_does_not_warn(rng):
    # a CP rank may exceed a mode size: rank 16 on a 64x64x3x3 kernel
    # stays below every unfolding's column count (size // I_n)
    x = rng.standard_normal((64, 64, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, info = cp_als(x, 16, DecompOptions(max_iters=2), return_info=True)
    assert not info["over_parametrized"]


# ---------------------------------------------------------------------------
# Tucker


def test_hosvd_full_ranks_exact(rng):
    x = rng.standard_normal((3, 4, 5))
    t = tucker_hosvd(x, (3, 4, 5))
    assert rel_err(t.to_tensor(), x) < 1e-10


def test_hosvd_recovers_embedded_low_rank(rng):
    core = rng.standard_normal((2, 2, 2))
    factors = [np.linalg.qr(rng.standard_normal((5, 2)))[0] for _ in range(3)]
    x = TuckerTensor(core, factors).to_tensor()
    t = tucker_hosvd(x, (2, 2, 2))
    assert rel_err(t.to_tensor(), x) < 1e-8


def test_hosvd_error_monotone_in_rank(rng):
    x = rng.standard_normal((4, 4, 4))
    errs = [
        np.linalg.norm(tucker_hosvd(x, (r, 2, 2)).to_tensor() - x)
        for r in range(1, 5)
    ]
    assert np.all(np.diff(errs) <= 1e-10)


def test_hosvd_rank_out_of_range(rng):
    x = rng.standard_normal((3, 3, 3))
    with pytest.raises(ValueError):
        tucker_hosvd(x, (4, 3, 3))
    with pytest.raises(ValueError):
        tucker_hosvd(x, (0, 3, 3))


def test_hosvd_factors_orthonormal(rng):
    t = tucker_hosvd(rng.standard_normal((5, 6, 4)), (3, 2, 2))
    for f in t.factors:
        assert np.abs(f.T @ f - np.eye(f.shape[1])).max() < 1e-10


def test_hosvd_truncation_energy_bound(rng):
    x = rng.standard_normal((5, 4, 6))
    ranks = (2, 2, 3)
    t = tucker_hosvd(x, ranks)
    err_sq = np.linalg.norm(x - t.to_tensor()) ** 2
    bound = sum(
        np.sum(svd(unfold(x, n)).S[r:] ** 2) for n, r in enumerate(ranks)
    )
    assert err_sq <= bound * (1 + 1e-10)


def test_hooi_converges_fast_on_exact_rank(rng):
    core = rng.standard_normal((2, 2, 2))
    factors = [np.linalg.qr(rng.standard_normal((6, 2)))[0] for _ in range(3)]
    x = TuckerTensor(core, factors).to_tensor()
    t, info = tucker_hooi(x, (2, 2, 2), return_info=True)
    assert info["iterations"] <= 2
    assert rel_err(t.to_tensor(), x) < 1e-10


def test_hooi_at_least_as_good_as_hosvd(rng):
    x = rng.standard_normal((4, 5, 6))
    e_hosvd = np.linalg.norm(tucker_hosvd(x, (2, 2, 2)).to_tensor() - x)
    e_hooi = np.linalg.norm(tucker_hooi(x, (2, 2, 2)).to_tensor() - x)
    assert e_hooi <= e_hosvd + 1e-12


def test_hooi_full_ranks_exact(rng):
    x = rng.standard_normal((3, 4, 2))
    t = tucker_hooi(x, (3, 4, 2))
    assert rel_err(t.to_tensor(), x) < 1e-10


def test_hooi_fit_monotone(rng):
    x = rng.standard_normal((5, 5, 5))
    _, info = tucker_hooi(x, (2, 3, 2), return_info=True)
    assert np.all(np.diff(info["fits"]) >= -1e-12)


def test_hooi_core_is_projection_on_returned_factors(rng):
    x = rng.standard_normal((5, 6, 4))
    for max_iters in (1, 3, 500):
        t = tucker_hooi(x, (2, 3, 2), DecompOptions(max_iters=max_iters))
        assert np.array_equal(
            t.core, multi_mode_product(x, t.factors, transpose=True)
        )


def test_mpca_core_is_projection_on_returned_factors(rng):
    x = rng.standard_normal((5, 6, 7))
    for max_iters in (1, 3, 500):
        m = mpca(x, (2, 3), DecompOptions(max_iters=max_iters))
        assert len(m.scatters) <= max_iters
        assert np.array_equal(
            m.cores,
            multi_mode_product(x, m.projections, transpose=True),
        )


# ---------------------------------------------------------------------------
# Tensor-Train


def test_tt_full_ranks_exact(rng):
    x = rng.standard_normal((3, 4, 5, 2))
    assert rel_err(tt_svd(x).to_tensor(), x) < 1e-10


def test_tt_recovery_from_constructed_cores(rng):
    cores = [
        rng.standard_normal((1, 2, 2)),
        rng.standard_normal((2, 2, 2)),
        rng.standard_normal((2, 2, 1)),
    ]
    x = TTTensor(cores).to_tensor()
    t = tt_svd(x, ranks=(1, 2, 2, 1))
    assert t.ranks == (1, 2, 2, 1)
    assert rel_err(t.to_tensor(), x) < 1e-8


def test_tt_tolerance_honored(rng):
    for tol in (0.3, 0.1):
        x = rng.standard_normal((4, 4, 4))
        t = tt_svd(x, tol=tol)
        assert rel_err(t.to_tensor(), x) <= tol


def test_tt_infeasible_chain(rng):
    x = rng.standard_normal((2, 3, 2))
    with pytest.raises(ValueError, match="infeasible"):
        tt_svd(x, ranks=(1, 5, 2, 1))
    with pytest.raises(ValueError):
        tt_svd(x, ranks=(2, 2, 2, 2))
    # feasible against the shape alone but not against the earlier ranks
    y = rng.standard_normal((2, 4, 4, 2))
    with pytest.raises(ValueError, match="infeasible"):
        tt_svd(y, ranks=(1, 1, 8, 4, 1))


def test_tt_chain_invariant_random_shapes(rng):
    for _ in range(10):
        order = rng.integers(1, 5)
        shape = tuple(rng.integers(1, 5, size=order))
        t = tt_svd(rng.standard_normal(shape))
        ranks = t.ranks
        assert ranks[0] == ranks[-1] == 1
        for k, core in enumerate(t.cores):
            assert core.shape == (ranks[k], shape[k], ranks[k + 1])
        assert all(
            r <= m for r, m in zip(ranks, tt_max_ranks(shape))
        )


def test_tt_rejects_both_policies(rng):
    with pytest.raises(ValueError):
        tt_svd(rng.standard_normal((2, 2)), ranks=2, tol=0.1)
    with pytest.raises(ValueError):
        tt_svd(rng.standard_normal((2, 2)), ranks=0)
    with pytest.raises(ValueError):
        tt_svd(rng.standard_normal((2, 2)), tol=-0.1)


def test_tt_rejects_nan_with_value_error(rng):
    x = rng.standard_normal((3, 4, 2))
    x[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        tt_svd(x)


def test_tt_rejects_nan_on_order_one():
    # an order-1 tensor needs no SVD, so the check must not rely on one
    with pytest.raises(ValueError, match="finite"):
        tt_svd([1.0, 1.0, np.nan, 1.0, 1.0])


# ---------------------------------------------------------------------------
# MPCA


def test_mpca_full_ranks_preserve_scatter(rng):
    x = rng.standard_normal((4, 5, 10))  # 10 samples of 4x5
    res = mpca(x, (4, 5))
    assert res.scatters[-1] == pytest.approx(res.total_scatter, rel=1e-10)
    assert rel_err(res.reconstruct(), x) < 1e-10


def test_mpca_recovers_multilinear_subspace(rng):
    u = [np.linalg.qr(rng.standard_normal((8, 2)))[0] for _ in range(2)]
    cores = rng.standard_normal((2, 2, 20))
    clean = np.einsum("ia,jb,abm->ijm", u[0], u[1], cores)
    x = clean + 1e-6 * rng.standard_normal(clean.shape)
    res = mpca(x, (2, 2))
    assert rel_err(res.reconstruct(), x) < 1e-4


def test_mpca_single_sample_matches_hosvd(rng):
    sample = rng.standard_normal((5, 6))
    x = sample[:, :, None]
    res = mpca(x, (5, 6))
    hosvd = tucker_hosvd(sample, (5, 6))
    for u, v in zip(res.projections, hosvd.factors):
        assert np.allclose(u, v, atol=1e-10)


def test_mpca_scatter_monotone(rng):
    x = rng.standard_normal((6, 6, 12))
    res = mpca(x, (2, 3))
    assert np.all(np.diff(res.scatters) >= -1e-9 * res.total_scatter)


def test_mpca_projections_orthonormal(rng):
    res = mpca(rng.standard_normal((5, 4, 7)), (2, 2))
    for u in res.projections:
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-10


def test_mpca_rank_out_of_range(rng):
    with pytest.raises(ValueError):
        mpca(rng.standard_normal((3, 3, 5)), (4, 2))


def test_mpca_rejects_nan_on_padded_basis():
    # 5 features x 1 sample at rank 2: the basis needs an orthonormal
    # completion past the single singular vector
    x = np.ones((5, 1))
    x[2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        mpca(x, (2,))


# ---------------------------------------------------------------------------
# multifactor analysis


def _people_lights_pixels(rng):
    mixing = rng.standard_normal((3, 2, 6))
    basis = np.linalg.qr(rng.standard_normal((16, 6)))[0]
    return np.einsum("plr,xr->plx", mixing, basis)


def test_multifactor_exact_at_true_ranks(rng):
    x = _people_lights_pixels(rng)
    t = multifactor_analysis(x, pixel_mode=2, ranks=(3, 2, 6))
    assert rel_err(t.to_tensor(), x) < 1e-10


def test_multifactor_single_person(rng):
    x = rng.standard_normal((1, 2, 16))
    t = multifactor_analysis(x, pixel_mode=2)
    people = t.factors[0]
    assert people.shape == (1, 1)
    assert abs(abs(people[0, 0]) - 1.0) < 1e-12


def test_multifactor_permutation_equivariance(rng):
    x = _people_lights_pixels(rng)
    perm = np.array([2, 0, 1])
    t1 = multifactor_analysis(x, pixel_mode=2, ranks=(3, 2, 6))
    t2 = multifactor_analysis(x[perm], pixel_mode=2, ranks=(3, 2, 6))
    assert np.allclose(t2.factors[0], t1.factors[0][perm], atol=1e-10)


def test_multifactor_pixel_mode_range(rng):
    with pytest.raises(ValueError):
        multifactor_analysis(rng.standard_normal((2, 2, 4)), pixel_mode=3)
