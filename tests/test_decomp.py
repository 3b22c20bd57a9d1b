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
    khatri_rao,
    mpca,
    multifactor_analysis,
    multi_mode_product,
    outer,
    tt_svd,
    tucker_hooi,
    tucker_hosvd,
    unfold,
)
from tenkit import decomp, linalg
from tenkit.core import frobenius, mode_n_product, mttkrp
from tenkit.decomp import _solve_normal, kruskal_to_tensor, tt_max_ranks
from tenkit.linalg import column_signs, left_singular_basis, lstsq, svd


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


def test_kruskal_tensor_refuses_an_empty_factor_list():
    # KruskalTensor([1.0], []) used to be accepted, and to_tensor() then
    # raised IndexError
    with pytest.raises(ValueError, match="KruskalTensor needs at least one factor"):
        KruskalTensor([1.0], [])


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


def reference_cp_als(x, rank, sweeps, seed=0):
    # textbook ALS: HOSVD init, a Khatri-Rao MTTKRP and a pseudo-inverse
    # solve per mode, the dense fit, then the sign convention
    rng = np.random.default_rng(seed)
    factors = []
    for n, size in enumerate(x.shape):
        k = min(rank, size)
        u = left_singular_basis(unfold(x, n), k)
        factors.append(np.hstack([u, rng.standard_normal((size, rank - k))]))
    fits = []
    for _ in range(sweeps):
        for n in range(x.ndim):
            others = [f for k, f in enumerate(factors) if k != n]
            gram = np.prod([f.T @ f for f in others], axis=0)
            f = lstsq(gram, (unfold(x, n) @ khatri_rao(others)).T).T
            weights = np.linalg.norm(f, axis=0)
            factors[n] = f / np.where(weights > 0, weights, 1.0)
        resid = x - KruskalTensor(weights, factors).to_tensor()
        fits.append(1.0 - np.linalg.norm(resid) / np.linalg.norm(x))
    total = np.ones(rank)
    for f in factors[:-1]:
        signs = column_signs(f)
        f *= signs
        total *= signs
    factors[-1] *= total
    return KruskalTensor(weights, factors), fits


@pytest.mark.parametrize(
    "shape, rank, sweeps",
    [((7, 8, 9), 3, 20), ((5, 6), 2, 10), ((64, 64, 3, 3), 16, 100)],
)
def test_cp_matches_khatri_rao_pseudo_inverse_reference(rng, shape, rank, sweeps):
    x = rng.standard_normal(shape)
    opts = DecompOptions(max_iters=sweeps, tol=1e-300)
    got, info = cp_als(x, rank, opts, return_info=True)
    # a matrix reaches its best rank-2 fit, where the fit stops changing
    assert info["iterations"] == sweeps or len(shape) == 2
    ref, fits = reference_cp_als(x, rank, info["iterations"])
    assert np.abs(np.array(info["fits"]) - fits).max() <= 1e-12
    assert np.abs(got.weights - ref.weights).max() <= 1e-10 * ref.weights.max()
    for a, b in zip(got.factors, ref.factors):
        assert np.abs(a - b).max() <= 1e-10


def test_cp_gram_fit_matches_dense_fit(monkeypatch):
    # every fit cp_als returns, from the last MTTKRP and the Grams or from
    # the guard's dense path, is within 1e-12 of the dense fit; exact and
    # near-exact low-rank inputs end on the dense path
    fit, records = decomp._fit, []

    def spy(x, norm_x, resid_sq, model):
        dense_calls = []
        got = fit(x, norm_x, resid_sq, lambda: dense_calls.append(1) or model())
        records.append((got, 1.0 - frobenius(x - model()) / norm_x, bool(dense_calls)))
        return got

    monkeypatch.setattr(decomp, "_fit", spy)
    opts = DecompOptions(max_iters=30, tol=1e-300)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for shape, rank in (((9, 7), 3), ((6, 7, 8), 3), ((3, 4, 5), 5), ((4, 5, 3, 4), 3)):
            clean = random_kruskal(rng, shape, rank).to_tensor()
            for noise in (0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0):
                x = 10.0 ** (seed - 3) * (clean + noise * rng.standard_normal(shape))
                records.clear()
                _, info = cp_als(x, rank, opts, return_info=True)
                got, dense, took_dense = map(np.array, zip(*records))
                assert list(got) == info["fits"]
                assert np.abs(got - dense).max() <= 1e-12, (seed, shape, noise)
                near = (1.0 - dense) ** 2 < 1e-6  # the guard
                assert np.array_equal(took_dense, near), (seed, shape, noise)
                assert np.array_equal(got[near], dense[near])
                if noise == 0.0 and rank <= min(shape):
                    assert took_dense[-1], (seed, shape)


def test_cp_fit_builds_no_dense_tensor_away_from_an_exact_fit(rng, monkeypatch):
    calls = []

    def spy(k):
        calls.append(1)
        return kruskal_to_tensor(k)

    x = random_kruskal(rng, (8, 9, 7), 3).to_tensor() + 0.1 * rng.standard_normal((8, 9, 7))
    monkeypatch.setattr(decomp, "kruskal_to_tensor", spy)
    _, info = cp_als(x, 3, DecompOptions(max_iters=8, tol=1e-300), return_info=True)
    assert info["iterations"] == 8 and info["fits"][-1] < 0.99
    assert not calls


def test_cp_singular_gram_falls_back_to_pseudo_inverse(rng, monkeypatch):
    # rank 5 on 2x2x2: every Gram is a Hadamard product of two rank-2
    # Grams, so it is singular and Cholesky cannot be trusted
    calls = []

    def counted(a, b):
        calls.append(a.shape)
        return lstsq(a, b)

    monkeypatch.setattr(linalg, "lstsq", counted)
    x = rng.standard_normal((2, 2, 2))
    with pytest.warns(RuntimeWarning, match="over-parametrized"):
        k, info = cp_als(x, 5, return_info=True)
    assert calls
    assert info["over_parametrized"]
    assert np.all(np.isfinite(k.weights)) and np.all(k.weights >= 0)
    assert all(np.all(np.isfinite(f)) for f in k.factors)
    assert rel_err(k.to_tensor(), x) < 1e-6


def test_cp_normal_solve_below_the_cutoff_is_the_pseudo_inverse():
    # nearly equal factor columns: Cholesky succeeds, but its smallest
    # squared pivot is ~5e-15 of the largest, and its solution is ~1e13
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 3))
    a[:, 2] = a[:, 1] + 1e-7 * rng.standard_normal(6)
    gram, rhs = a.T @ a, rng.standard_normal((4, 3))
    got = _solve_normal(gram, rhs)
    assert np.array_equal(got, lstsq(gram, rhs.T).T)
    assert np.abs(got).max() < 1.0


def test_cp_normal_solve_is_exact_on_a_well_conditioned_gram(rng):
    a = rng.standard_normal((20, 4))
    gram, rhs = a.T @ a, rng.standard_normal((5, 4))
    assert np.abs(_solve_normal(gram, rhs) @ gram - rhs).max() <= 1e-13


def test_cp_order_one_splits_the_vector(rng):
    x = rng.standard_normal(6)
    with pytest.warns(RuntimeWarning, match="over-parametrized"):
        k, info = cp_als(x, 3, return_info=True)
    assert np.allclose(k.to_tensor(), x, atol=1e-14)
    assert info["fits"][-1] == pytest.approx(1.0, abs=1e-14)
    assert info["converged"] and info["iterations"] == 2


def test_cp_order_two_recovers_low_rank_matrix(rng):
    x = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))
    k, info = cp_als(x, 2, return_info=True)
    assert rel_err(k.to_tensor(), x) < 1e-8
    assert np.all(np.diff(info["fits"]) >= -1e-12)


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


def test_hooi_converges_fast_on_exact_rank_for_every_seed():
    # near fit 1 the fit must not come from ||X||^2 - ||core||^2, whose
    # rounding noise (about sqrt(eps)) exceeds the stopping tolerance
    for seed in range(200):
        rng = np.random.default_rng(seed)
        core = rng.standard_normal((2, 2, 2))
        factors = [np.linalg.qr(rng.standard_normal((6, 2)))[0] for _ in range(3)]
        x = TuckerTensor(core, factors).to_tensor()
        t, info = tucker_hooi(x, (2, 2, 2), return_info=True)
        err = rel_err(t.to_tensor(), x)
        assert info["iterations"] <= 2, seed
        assert err < 1e-10, seed
        assert abs(info["fits"][-1] - (1.0 - err)) < 1e-12, seed


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


@pytest.mark.parametrize("ranks", [(2, 6, 4), (5, 2, 4), (5, 6, 2), (5, 6, 4)])
def test_hooi_with_at_most_one_swept_mode_stops_after_one_sweep(rng, ranks):
    # the HOSVD is then optimal, so a second sweep cannot move the fit
    x = rng.standard_normal((5, 6, 4))
    t, info = tucker_hooi(x, ranks, return_info=True)
    assert info["iterations"] == 1
    assert info["converged"] is True
    again = tucker_hooi(x, ranks, DecompOptions(max_iters=2, tol=1e-300))
    assert rel_err(t.to_tensor(), again.to_tensor()) <= 1e-13


def test_mpca_with_one_swept_mode_stops_after_one_sweep(rng):
    x = rng.standard_normal((5, 6, 4, 9))
    m = mpca(x, (2, 6, 4))
    assert len(m.scatters) == 1


def test_hooi_sweep_cap_is_not_convergence(rng):
    # one swept mode, but the cap of one sweep ends the loop first
    x = rng.standard_normal((5, 6, 4))
    _, info = tucker_hooi(x, (2, 6, 4), DecompOptions(max_iters=1), return_info=True)
    assert (info["iterations"], info["converged"]) == (1, False)
    # two swept modes keep sweeping until the fit settles
    _, info = tucker_hooi(x, (2, 3, 4), return_info=True)
    assert info["iterations"] > 1
    assert info["converged"] is True


def _leave_one_out_sweep(x, factors, ranks):
    # reference HOOI sweep: every partial recomputed from x, its modes
    # multiplied in increasing order, then the core as a fresh projection
    modes = range(len(factors))
    for n in modes:
        partial = x
        for k in modes:
            if k != n:
                partial = mode_n_product(partial, factors[k].T, k)
        factors[n] = left_singular_basis(unfold(partial, n), ranks[n])
    return multi_mode_product(x, factors, transpose=True)


@pytest.mark.parametrize(
    "shape, ranks",
    [((7, 6), (3, 2)), ((5, 6, 4, 3), (2, 3, 2, 2)), ((4, 5, 3, 4, 3), (2, 2, 2, 3, 2))],
)
def test_hooi_sweep_matches_leave_one_out_loop_bit_for_bit(rng, shape, ranks):
    x = rng.standard_normal(shape)
    factors = decomp._hosvd_bases(x, ranks)
    expected = list(factors)
    sweeps = decomp._hooi_sweeps(x, factors, ranks)
    for _ in range(2):
        assert np.array_equal(next(sweeps), _leave_one_out_sweep(x, expected, ranks))
        assert all(np.array_equal(f, e) for f, e in zip(factors, expected))


def test_mpca_matches_leave_one_out_loop_bit_for_bit(rng):
    x = rng.standard_normal((5, 4, 6, 9))
    ranks, opts = (2, 3, 2), DecompOptions(max_iters=4, tol=1e-300)
    projections = decomp._hosvd_bases(x, ranks)
    expected = [_leave_one_out_sweep(x, projections, ranks) for _ in range(4)]
    m = mpca(x, ranks, opts)
    assert np.array_equal(m.cores, expected[-1])
    assert all(np.array_equal(p, e) for p, e in zip(m.projections, projections))
    assert m.scatters == [frobenius(c) ** 2 for c in expected]


@pytest.mark.parametrize(
    "shape, ranks, calls",
    [
        pytest.param((5, 6, 4), (2, 2, 2), 6, id="shape0-6"),
        pytest.param((5, 6, 4, 3), (2, 2, 2, 2), 10, id="shape1-10"),
        pytest.param((10, 8, 3, 3), (4, 2, 3, 3), 5, id="two-square-modes-5"),
        pytest.param((5, 6, 4), (2, 6, 4), 3, id="one-swept-mode-3"),
    ],
)
def test_hooi_sweep_mode_product_count(rng, monkeypatch, shape, ranks, calls):
    # S(S-1)/2 products extend the partials of the S modes whose rank is
    # below their size, and N the prefix
    x = rng.standard_normal(shape)
    sweeps = decomp._hooi_sweeps(x, decomp._hosvd_bases(x, ranks), ranks)
    count = []

    def spy(*args):
        count.append(1)
        return mode_n_product(*args)

    monkeypatch.setattr("tenkit.core.mode_n_product", spy)
    monkeypatch.setattr("tenkit.decomp.mode_n_product", spy)
    next(sweeps)
    assert len(count) == calls


def test_hooi_sweep_refits_only_the_modes_below_full_rank(rng, monkeypatch):
    # the scaled-down layers kernel at ranks 4,2,3,3: modes 2 and 3 keep
    # their square HOSVD bases, so only modes 0 and 1 take a basis
    x = rng.standard_normal((10, 8, 3, 3))
    ranks = (4, 2, 3, 3)
    sweeps = decomp._hooi_sweeps(x, decomp._hosvd_bases(x, ranks), ranks)
    rows = []

    def spy(a, rank):
        rows.append((a.shape[0], rank))
        return left_singular_basis(a, rank)

    monkeypatch.setattr(linalg, "left_singular_basis", spy)
    for _ in range(3):
        next(sweeps)
    assert rows == [(10, 4), (8, 2)] * 3


def _all_modes_hooi(x, ranks, sweeps):
    # HOOI that refits every mode, square ones included
    factors = decomp._hosvd_bases(x, ranks)
    for _ in range(sweeps):
        core = _leave_one_out_sweep(x, factors, ranks)
    return core, factors


@pytest.mark.parametrize(
    "shape, ranks",
    [((12, 10, 3, 3), (4, 3, 3, 3)), ((5, 6, 4), (2, 6, 4)), ((5, 6, 4), (5, 2, 3))],
)
@pytest.mark.parametrize("sweeps", [1, 3, 20])
def test_hooi_with_square_modes_matches_an_all_modes_loop(rng, shape, ranks, sweeps):
    x = rng.standard_normal(shape)
    t = tucker_hooi(x, ranks, DecompOptions(max_iters=sweeps, tol=1e-300))
    core, factors = _all_modes_hooi(x, ranks, sweeps)
    assert rel_err(t.to_tensor(), multi_mode_product(core, factors)) <= 1e-13
    assert abs(frobenius(t.core) - frobenius(core)) <= 1e-13 * frobenius(core)
    assert np.array_equal(t.core, multi_mode_product(x, t.factors, transpose=True))
    for f in t.factors:
        if f.shape[0] == f.shape[1]:
            assert np.abs(f.T @ f - np.eye(f.shape[0])).max() <= 1e-14
            assert np.abs(f @ f.T - np.eye(f.shape[0])).max() <= 1e-14


@pytest.mark.parametrize("sweeps", [1, 3, 20])
def test_mpca_with_square_modes_matches_an_all_modes_loop(rng, sweeps):
    x = rng.standard_normal((5, 6, 4, 9))
    ranks = (2, 6, 4)
    m = mpca(x, ranks, DecompOptions(max_iters=sweeps, tol=1e-300))
    cores, projections = _all_modes_hooi(x, ranks, sweeps)
    expected = multi_mode_product(cores, projections)
    assert rel_err(m.reconstruct(), expected) <= 1e-13
    assert abs(frobenius(m.cores) - frobenius(cores)) <= 1e-13 * frobenius(cores)
    assert np.array_equal(m.cores, multi_mode_product(x, m.projections, transpose=True))
    for p in m.projections[1:]:
        assert np.abs(p.T @ p - np.eye(p.shape[0])).max() <= 1e-14


# ---------------------------------------------------------------------------
# the shared sweep loop, against the three solver loops it replaced


def _reference_cp_init(x, rank, opts, rng):
    factors = []
    for n in range(x.ndim):
        if opts.init == "random":
            factors.append(rng.standard_normal((x.shape[n], rank)))
            continue
        k = min(rank, x.shape[n])
        u = left_singular_basis(unfold(x, n), k)
        if rank > k:
            u = np.hstack([u, rng.standard_normal((x.shape[n], rank - k))])
        factors.append(u)
    return factors


def _reference_cp_als(x, rank, opts):
    factors = _reference_cp_init(x, rank, opts, np.random.default_rng(opts.seed))
    grams = [f.T @ f for f in factors]
    weights = np.ones(rank)
    norm_x = frobenius(x)
    fits = []
    converged = False
    lead, trail = range(x.ndim // 2), range(x.ndim // 2, x.ndim)
    for sweep in range(opts.max_iters):
        for own, other in ((lead, trail), (trail, lead)):
            partial = mttkrp(x, {k: factors[k] for k in other})
            for n in own:
                if not other:
                    factors[n] = np.tile(x[:, None], (1, rank)) / rank
                else:
                    rest = {k - own.start: factors[k] for k in own if k != n}
                    gram = np.prod([g for k, g in enumerate(grams) if k != n], axis=0)
                    m = mttkrp(partial, rest, ranked=True)
                    factors[n] = _solve_normal(gram, m)
                norms = np.linalg.norm(factors[n], axis=0)
                factors[n] = factors[n] / np.where(norms > 0, norms, 1.0)
                grams[n] = factors[n].T @ factors[n]
                weights = norms
        # ||X - Xhat||^2 = ||X||^2 - 2 <X, Xhat> + ||Xhat||^2, from the last
        # mode's MTTKRP and the Grams; densely near an exact fit
        if x.ndim == 1:
            m = np.tile(x[:, None], (1, rank))
        inner = weights @ np.einsum("ir,ir->r", m, factors[-1])
        resid_sq = norm_x**2 - 2.0 * inner + weights @ np.prod(grams, axis=0) @ weights
        if norm_x == 0:
            fit = 1.0
        elif resid_sq < 1e-6 * norm_x**2:
            resid = frobenius(x - KruskalTensor(weights, factors).to_tensor())
            fit = 1.0 - resid / norm_x
        else:
            fit = 1.0 - np.sqrt(resid_sq) / norm_x
        fits.append(fit)
        if sweep > 0 and abs(fits[-1] - fits[-2]) < opts.tol:
            converged = True
            break
    total = np.ones(rank)
    for f in factors[:-1]:
        signs = column_signs(f)
        f *= signs
        total *= signs
    factors[-1] *= total
    over = any(rank > x.size // s for s in x.shape)
    info = {"fits": fits, "iterations": len(fits), "converged": converged,
            "over_parametrized": over}
    return KruskalTensor(weights, factors), info


def _reference_hooi(x, ranks, opts):
    factors = decomp._hosvd_bases(x, ranks)
    norm_x = frobenius(x)
    fits = []
    converged = False
    sweeps = decomp._hooi_sweeps(x, factors, ranks)
    for sweep, core in zip(range(opts.max_iters), sweeps):
        fits.append(decomp._tucker_fit(x, norm_x, core, factors))
        if sweep > 0 and abs(fits[-1] - fits[-2]) < opts.tol:
            converged = True
            break
    return TuckerTensor(core, factors), {
        "fits": fits, "iterations": len(fits), "converged": converged,
    }


def _reference_mpca(x, ranks, opts):
    projections = decomp._hosvd_bases(x, ranks)
    total = frobenius(x) ** 2
    scatters = []
    sweeps = decomp._hooi_sweeps(x, projections, ranks)
    for sweep, cores in zip(range(opts.max_iters), sweeps):
        scatters.append(frobenius(cores) ** 2)
        if sweep > 0 and abs(scatters[-1] - scatters[-2]) <= opts.tol * max(total, 1.0):
            break
    return projections, cores, scatters, total


@pytest.mark.parametrize(
    "shape, rank", [((6,), 3), ((5, 4), 5), ((4, 5, 3), 4), ((3, 4, 2, 3), 3)]
)
@pytest.mark.parametrize("init", ["hosvd", "random"])
@pytest.mark.parametrize("max_iters", [1, 2, 500])
def test_cp_als_matches_reference_loop_bit_for_bit(rng, shape, rank, init, max_iters):
    # each rank exceeds some mode size, so the HOSVD init draws padding
    x = rng.standard_normal(shape)
    opts = DecompOptions(max_iters=max_iters, init=init, seed=5)
    init_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for got, ref in zip(
        decomp._cp_init(x, rank, opts, init_rng), _reference_cp_init(x, rank, opts, ref_rng)
    ):
        assert np.array_equal(got, ref)
    assert init_rng.random() == ref_rng.random()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        k, info = cp_als(x, rank, opts, return_info=True)
    ref, ref_info = _reference_cp_als(x, rank, opts)
    assert np.array_equal(k.weights, ref.weights)
    assert all(np.array_equal(f, r) for f, r in zip(k.factors, ref.factors))
    assert info == ref_info
    assert type(info["converged"]) is bool


@pytest.mark.parametrize(
    "shape, ranks", [((6, 5, 4), (2, 3, 2)), ((5, 4, 3, 4), (2, 2, 2, 3))]
)
@pytest.mark.parametrize("max_iters", [1, 2, 500])
def test_tucker_hooi_matches_reference_loop_bit_for_bit(rng, shape, ranks, max_iters):
    x = rng.standard_normal(shape)
    opts = DecompOptions(max_iters=max_iters)
    t, info = tucker_hooi(x, ranks, opts, return_info=True)
    ref, ref_info = _reference_hooi(x, ranks, opts)
    assert np.array_equal(t.core, ref.core)
    assert all(np.array_equal(f, r) for f, r in zip(t.factors, ref.factors))
    assert info == ref_info
    assert info["converged"] is (max_iters == 500)
    assert type(info["converged"]) is bool


@pytest.mark.parametrize(
    "shape, ranks", [((6, 5, 9), (2, 3)), ((7, 12), (3,)), ((5, 4, 3, 8), (2, 3, 2))]
)
def test_mpca_matches_reference_loop_bit_for_bit(rng, shape, ranks):
    x = 3.0 * rng.standard_normal(shape)
    opts = DecompOptions(max_iters=200)
    m = mpca(x, ranks, opts)
    projections, cores, scatters, total = _reference_mpca(x, ranks, opts)
    assert len(scatters) < opts.max_iters  # the stop fired before the cap
    assert all(np.array_equal(p, r) for p, r in zip(m.projections, projections))
    assert np.array_equal(m.cores, cores)
    assert m.scatters == scatters
    assert m.total_scatter == total


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


def _svd_tt(x, chain=None, tol=None):
    # reference TT-SVD: one full LAPACK SVD per split, S V^T carried on
    budget_sq = None if tol is None else (tol * frobenius(x)) ** 2 / max(x.ndim - 1, 1)
    cores, current, r_prev = [], x, 1
    for k in range(x.ndim - 1):
        f = svd(current.reshape(r_prev * x.shape[k], -1))
        if tol is not None:
            tail = np.cumsum(f.S[::-1] ** 2)[::-1]
            r = max(int(np.sum(tail > budget_sq)), 1)
        else:
            r = chain[k + 1]
        cores.append(f.U[:, :r].reshape(r_prev, x.shape[k], r))
        current = f.S[:r, None] * f.V[:, :r].T
        r_prev = r
    cores.append(current.reshape(r_prev, x.shape[-1], 1))
    return TTTensor(cores)


_TT_SHAPES = {2: (5, 7), 3: (4, 6, 5), 4: (3, 4, 5, 3), 5: (3, 2, 4, 3, 2)}


def _tt_input(rng, order, kind, scale):
    shape = _TT_SHAPES[order]
    if kind == "gaussian":
        return scale * rng.standard_normal(shape)
    # exact TT-rank 2 at every internal split
    chain = [1] + [2] * (order - 1) + [1]
    cores = [rng.standard_normal((chain[k], s, chain[k + 1])) for k, s in enumerate(shape)]
    return scale * TTTensor(cores).to_tensor()


def _tt_policies(shape):
    feasible = tt_max_ranks(shape)
    chains = [feasible, tuple(min(2, f) for f in feasible), tuple(min(3, f) for f in feasible)]
    return [{"tol": t} for t in (0.5, 0.2, 0.05, 1e-3, 1e-6, 1e-10)] + [
        {"chain": c} for c in chains
    ]


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("kind", ["gaussian", "exact"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_tt_svd_matches_a_full_svd_per_split(order, kind, scale):
    rng = np.random.default_rng([order, len(kind), int(np.log10(scale)) + 8])
    x = _tt_input(rng, order, kind, scale)
    for policy in _tt_policies(x.shape):
        tol, chain = policy.get("tol"), policy.get("chain")
        got = tt_svd(x, ranks=chain, tol=tol)
        ref = _svd_tt(x, chain, tol)
        assert got.ranks == ref.ranks, policy
        assert rel_err(got.to_tensor(), ref.to_tensor()) <= 1e-12, policy
        if tol is not None:
            assert rel_err(got.to_tensor(), x) <= tol, policy


def _spy_tt_splits(monkeypatch, x, **policy):
    # (rows, cols, rank) of each left_singular_basis call and the shape of
    # each LAPACK SVD that tt_svd runs
    bases, svds = [], []
    spy_basis, spy_svd = linalg.left_singular_basis, linalg.svd

    def basis(a, rank):
        bases.append((*a.shape, rank))
        return spy_basis(a, rank)

    def lapack(a):
        svds.append(np.shape(a))
        return spy_svd(a)

    monkeypatch.setattr(linalg, "left_singular_basis", basis)
    monkeypatch.setattr(linalg, "svd", lapack)
    tt_svd(x, **policy)
    return bases, svds


@pytest.mark.parametrize("policy", [{"tol": 0.1}, {"ranks": (1, 2, 3, 1)}, {}])
def test_tt_short_wide_splits_take_the_gram_basis_and_no_svd(rng, monkeypatch, policy):
    # both splits (2 x 24, then at most 6 x 8) are short-wide and
    # well conditioned
    x = rng.standard_normal((2, 3, 8))
    bases, svds = _spy_tt_splits(monkeypatch, x, **policy)
    assert [b[:2] for b in bases] == [(2, 24), (bases[1][0], 8)]
    assert bases[1][0] <= 6
    assert svds == []


@pytest.mark.parametrize("policy", [{"tol": 1e-6}, {}])
def test_tt_rank_deficient_split_falls_back_to_the_svd(rng, monkeypatch, policy):
    # TT-rank 2 at the 3 x 48 first split: a kept Gram eigenvalue is zero
    cores = [rng.standard_normal(s) for s in ((1, 3, 2), (2, 4, 2), (2, 12, 1))]
    x = TTTensor(cores).to_tensor()
    bases, svds = _spy_tt_splits(monkeypatch, x, **policy)
    assert len(bases) == 2
    assert svds[0] == (3, 48)


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
    # R_2 = 3 fits the preceding rank (4 * 3) but not the tail product 2
    with pytest.raises(ValueError, match=r"R_2 = 3 exceeds the maximum 2 "):
        tt_svd(rng.standard_normal((4, 3, 2)), ranks=(1, 4, 3, 1))


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
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        tt_svd(rng.standard_normal((2, 2)), tol=np.nan)


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
def test_decomp_options_rejects_a_tol_that_is_not_positive(tol):
    # a NaN tol would never stop a solver before its sweep cap
    with pytest.raises(ValueError, match="tol must be positive"):
        DecompOptions(tol=tol)


@pytest.mark.parametrize("max_iters", [np.nan, 2.5, 3.0, "3", True])
def test_decomp_options_rejects_a_max_iters_that_is_not_an_integer(max_iters):
    # the solvers' range(max_iters) would fail with a TypeError instead
    with pytest.raises(ValueError, match="max_iters must be a positive integer"):
        DecompOptions(max_iters=max_iters)
    assert DecompOptions(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x: tt_svd(x, ranks=2.7), "rank cap must be a positive integer, got 2.7"),
        (lambda x: tt_svd(x, ranks=np.inf), "rank cap must be a positive integer, got inf"),
        (lambda x: tt_svd(x, ranks=(1, 2.5, 2, 1)), "rank R_1 must be a positive integer"),
        (lambda x: tucker_hooi(x, (2.5, 2, 2)), "rank for mode 0 must be a positive integer"),
        (lambda x: tucker_hosvd(x, (2, 0, 2)), "rank for mode 1 must be a positive integer"),
        (lambda x: mpca(x, (2, 2.5)), "rank for mode 1 must be a positive integer"),
        (lambda x: cp_als(x, 2.5), "rank must be a positive integer, got 2.5"),
        (lambda x: cp_als(x, True), "rank must be a positive integer, got True"),
        (lambda x: tucker_hooi(x, (2, True, 2)), "rank for mode 1 must be a positive integer, got True"),
    ],
    ids=["tt-cap", "tt-cap-inf", "tt-chain", "hooi", "hosvd-zero", "mpca", "cp", "cp-bool", "hooi-bool"],
)
def test_a_rank_that_is_not_a_positive_integer_is_refused(rng, call, message):
    # int() would truncate 2.7 to 2 and overflow on inf, and True counted as 1
    with pytest.raises(ValueError, match=message):
        call(rng.standard_normal((4, 5, 3)))


@pytest.mark.parametrize("cap", [np.array(2), np.array(2.5)])
def test_tt_svd_refuses_a_0d_array_rank_cap(rng, cap):
    # np.isscalar misses a 0-d array, which then failed with
    # "TypeError: iteration over a 0-d array"
    with pytest.raises(ValueError, match="rank cap must be a positive integer"):
        tt_svd(rng.standard_normal((4, 5, 3)), ranks=cap)


def test_tt_rejects_order_zero():
    with pytest.raises(ValueError, match="order 1 or more"):
        tt_svd(np.float64(3.0))


def test_cp_als_rejects_a_zero_size_tensor():
    with pytest.raises(ValueError, match=r"every mode of size 1 or more, got \(3, 0, 2\)"):
        cp_als(np.ones((3, 0, 2)), 2)


@pytest.mark.parametrize("policy", [{}, {"tol": 0.1}, {"ranks": 2}], ids=["maximal", "tol", "ranks"])
def test_tt_rejects_a_zero_size_tensor(policy):
    # the first split used to fail in numpy's reshape of a size-0 array
    with pytest.raises(ValueError, match=r"every mode of size 1 or more, got \(0, 3\)"):
        tt_svd(np.ones((0, 3)), **policy)


@pytest.mark.parametrize("seed", [-1, 1.5, np.nan, "3", False])
def test_decomp_options_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        DecompOptions(seed=seed)
    assert DecompOptions(seed=np.int64(3)).seed == 3


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


def _tensor_with_one_nan():
    x = np.arange(24.0).reshape(3, 4, 2)
    x[1, 2, 1] = np.nan
    return x


def test_cp_als_rejects_nan_naming_itself():
    with pytest.raises(ValueError, match=r"^cp_als requires finite entries \(1 of 24"):
        cp_als(_tensor_with_one_nan(), 2)


def test_cp_als_random_init_rejects_nan_naming_itself():
    # random init never reaches an SVD
    opts = DecompOptions(init="random", seed=0)
    with pytest.raises(ValueError, match=r"^cp_als requires finite entries \(1 of 24"):
        cp_als(_tensor_with_one_nan(), 2, opts)


def test_tucker_hooi_rejects_nan_naming_itself():
    with pytest.raises(ValueError, match=r"^tucker_hooi requires finite entries \(1 of 24"):
        tucker_hooi(_tensor_with_one_nan(), (2, 2, 2))


def test_tucker_hosvd_rejects_nan_naming_itself():
    with pytest.raises(ValueError, match=r"^tucker_hosvd requires finite entries \(1 of 24"):
        tucker_hosvd(_tensor_with_one_nan(), (2, 2, 2))


def test_multifactor_analysis_rejects_nan_naming_itself():
    with pytest.raises(
        ValueError, match=r"^multifactor_analysis requires finite entries \(1 of 24"
    ):
        multifactor_analysis(_tensor_with_one_nan(), pixel_mode=2)


def test_cp_als_rejects_order_zero():
    with pytest.raises(ValueError, match="order 1 or more"):
        cp_als(np.float64(3.0), 1)


def test_mpca_rejects_nan_naming_itself():
    with pytest.raises(ValueError, match=r"^mpca requires finite entries \(1 of 24"):
        mpca(_tensor_with_one_nan(), (2, 2))


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


@pytest.mark.parametrize("size", [2.5, True, -2, 0])
def test_tt_max_ranks_refuses_a_size_that_is_not_a_positive_integer(size):
    # (2.5, 3) used to give (1, 2.5, 1), (True, 3) (1, 1, 1) and (-2, 3) (-6, -2, -6)
    with pytest.raises(ValueError, match=f"size of mode 0 must be a positive integer, got {size}"):
        tt_max_ranks((size, 3))
    assert tt_max_ranks((np.int64(2), 3)) == (1, 2, 1)


def test_cp_and_hooi_fit_the_zero_tensor_exactly():
    x = np.zeros((3, 4, 5))
    kt, cp_info = cp_als(x, 2, return_info=True)
    tt, hooi_info = tucker_hooi(x, (2, 2, 2), return_info=True)
    assert cp_info["fits"][-1] == 1.0
    assert hooi_info["fits"][-1] == 1.0
    assert np.array_equal(kt.to_tensor(), x)
    assert np.array_equal(tt.to_tensor(), x)
