import numpy as np
import pytest
import scipy.optimize

from tenkit import SVDResult, linalg, lstsq, soft_threshold, svd, svt, truncated_svd
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
