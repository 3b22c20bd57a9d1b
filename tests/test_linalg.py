import numpy as np
import pytest
import scipy.optimize

from tenkit import SVDResult, lstsq, soft_threshold, svd, svt, truncated_svd
from tenkit.linalg import column_signs, left_singular_basis


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
