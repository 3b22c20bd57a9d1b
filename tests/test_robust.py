import functools

import numpy as np
import pytest

from conftest import rel_err
from tenkit import default_lambda, fold, robust, trpca, unfold
from tenkit.linalg import soft_threshold, svt, svt_with_spectrum


def spiked_low_rank(rng, shape=(10, 10, 10), frac=0.05, magnitude=10.0):
    vecs = [rng.standard_normal(s) for s in shape]
    low = np.einsum("i,j,k->ijk", *vecs)
    scale = np.abs(low).mean()
    mask = rng.random(shape) < frac
    spikes = np.where(
        mask, magnitude * scale * np.sign(rng.standard_normal(shape)), 0.0
    )
    return low, spikes, mask


def test_default_lambda_values():
    assert default_lambda((100, 100, 3)) == pytest.approx(0.1, rel=1e-12)
    assert default_lambda((4, 4)) == pytest.approx(0.5, rel=1e-12)


def test_default_lambda_depends_only_on_max_mode():
    assert default_lambda((25, 3)) == default_lambda((25, 25, 25))
    with pytest.raises(ValueError):
        default_lambda(())


def test_trpca_large_lambda_keeps_everything_low_rank(rng):
    low, _, _ = spiked_low_rank(rng)
    res = trpca(low, lam=100.0)
    assert np.linalg.norm(res.sparse) < 1e-6 * np.linalg.norm(low)
    assert rel_err(res.low_rank, low) < 1e-6


def test_trpca_small_lambda_pushes_into_sparse(rng):
    low, _, _ = spiked_low_rank(rng)
    res = trpca(low, lam=1e-6)
    assert np.linalg.norm(res.low_rank) < 1e-3 * np.linalg.norm(low)
    assert rel_err(res.sparse, low) < 1e-3


def test_trpca_recovers_spiked_synthetic(rng):
    low, spikes, mask = spiked_low_rank(rng)
    res = trpca(low + spikes)
    assert rel_err(res.low_rank, low) < 1e-3
    assert np.all(res.sparse[mask] != 0)  # support contains the truth
    feas = np.linalg.norm(low + spikes - res.low_rank - res.sparse)
    assert feas <= 1e-6 * np.linalg.norm(low + spikes)


def test_trpca_feasible_at_return(rng):
    x = rng.standard_normal((6, 7, 5))
    res = trpca(x)
    assert (
        np.linalg.norm(x - res.low_rank - res.sparse)
        <= 1e-6 * np.linalg.norm(x)
    )


def test_trpca_iteration_cap_sets_flag(rng):
    low, spikes, _ = spiked_low_rank(rng)
    res = trpca(low + spikes, max_iters=3)
    assert not res.converged
    assert res.iterations == 3


def test_trpca_parameter_validation(rng):
    x = rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        trpca(x, lam=-1.0)
    with pytest.raises(ValueError):
        trpca(x, alpha=[0.5, 0.6])
    with pytest.raises(ValueError):
        trpca(x, alpha=[-0.5, 1.5])
    with pytest.raises(ValueError):
        trpca(x, alpha=[1.0])
    # NaN fails every comparison, so each check is written to fail on it
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            trpca(x, lam=lam)
    with pytest.raises(ValueError, match="alpha weights"):
        trpca(x, alpha=[np.nan, 1.0])
    for tol in (np.nan, 0.0, -1e-7):
        with pytest.raises(ValueError, match="tol must be positive"):
            trpca(x, tol=tol)


def test_trpca_rejects_non_finite_input(rng):
    x = rng.standard_normal((4, 5, 3))
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[1, 2, 0] = bad
        with pytest.raises(ValueError, match="trpca requires finite entries"):
            trpca(y)


def test_trpca_rejects_non_positive_max_iters(rng):
    x = rng.standard_normal((4, 5, 3))
    for max_iters in (0, -1):
        with pytest.raises(ValueError, match="max_iters must be positive"):
            trpca(x, max_iters=max_iters)


def test_trpca_objective_trace_has_one_entry_per_iteration(rng):
    low, spikes, _ = spiked_low_rank(rng)
    done = trpca(low + spikes)
    capped = trpca(low + spikes, max_iters=5)
    assert done.converged and not capped.converged
    assert len(done.objective_trace) == done.iterations
    assert len(capped.objective_trace) == capped.iterations == 5


def test_trpca_objective_trace_ends_at_model_objective(rng):
    # at convergence every M_n is L up to the tolerance, so the
    # split-variable trace must agree with the model objective at (L, S)
    low, spikes, _ = spiked_low_rank(rng)
    res = trpca(low + spikes)
    assert res.converged
    model = sum(
        a * np.linalg.svd(unfold(res.low_rank, n), compute_uv=False).sum()
        for n, a in enumerate(res.alpha)
    ) + res.lam * np.abs(res.sparse).sum()
    assert res.objective_trace[-1] == pytest.approx(model, rel=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated objective monotonicity cannot hold for this ADMM: the "
        "iterates leave the feasible set, where the objective can drop "
        "below the constrained optimum, so any convergent trace must "
        "later increase; kept as documentation of the gap"
    ),
)
def test_trpca_objective_monotone_as_stated(rng):
    low, spikes, _ = spiked_low_rank(rng)
    res = trpca(low + spikes)
    obj = np.asarray(res.objective_trace)
    assert np.all(np.diff(obj) <= 1e-9 * max(obj[0], 1.0))


def test_trpca_objective_settles_at_convergence(rng):
    # the trace is monitored; at convergence it must have stabilized
    low, spikes, _ = spiked_low_rank(rng)
    res = trpca(low + spikes)
    obj = np.asarray(res.objective_trace)
    assert res.converged
    tail = obj[-10:]
    assert (tail.max() - tail.min()) <= 1e-5 * obj[-1]


def _matrix_rpca_reference(x, lam, max_iters=1000, tol=1e-7):
    # the same ADMM specialized by hand to matrices with alpha = (1/2, 1/2):
    # auxiliary M1 for the matrix itself, M2 for its transpose
    norm_x = np.linalg.norm(x)
    rho, cap = 1e-2, 1e6
    low = np.zeros_like(x)
    sparse = np.zeros_like(x)
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    g1 = np.zeros_like(x)
    g2 = np.zeros_like(x)
    z = np.zeros_like(x)
    for _ in range(max_iters):
        m1 = svt(low - g1, 0.5 / rho)
        m2 = svt((low - g2).T, 0.5 / rho).T
        sparse = soft_threshold(x - low + z, lam / rho)
        low_prev = low
        low = (m1 + g1 + m2 + g2 + x - sparse + z) / 3.0
        r1, r2, rf = m1 - low, m2 - low, x - low - sparse
        g1 += r1
        g2 += r2
        z += rf
        primal = np.sqrt(sum(np.sum(r**2) for r in (r1, r2, rf)))
        dual = rho * np.sqrt(3) * np.linalg.norm(low - low_prev)
        if max(primal, dual) < tol * norm_x:
            break
        if primal > 10 * dual and rho * 1.5 <= cap:
            rho *= 1.5
            g1 /= 1.5
            g2 /= 1.5
            z /= 1.5
        elif dual > 10 * primal:
            rho /= 1.5
            g1 *= 1.5
            g2 *= 1.5
            z *= 1.5
    return low, sparse


def test_trpca_matches_matrix_specialization(rng):
    u = rng.standard_normal((12, 2))
    v = rng.standard_normal((9, 2))
    low = u @ v.T
    mask = rng.random(low.shape) < 0.05
    x = low + np.where(mask, 5 * np.abs(low).mean(), 0.0)
    lam = default_lambda(x.shape)
    res = trpca(x, lam=lam, alpha=(0.5, 0.5))
    ref_l, ref_s = _matrix_rpca_reference(x, lam)
    assert rel_err(res.low_rank, ref_l) < 1e-6
    assert np.linalg.norm(res.sparse - ref_s) < 1e-6 * max(
        np.linalg.norm(ref_s), 1.0
    )


def test_trpca_iteration_cap_returns_best_iterate(rng):
    # a dense Gaussian tensor is far from low-rank plus sparse, so ten
    # iterations do not converge; the best residual seen never grows
    x = rng.standard_normal((6, 7, 5))
    worst = []
    for max_iters in range(1, 11):
        res = trpca(x, max_iters=max_iters)
        assert not res.converged
        assert res.iterations == max_iters
        worst.append(max(res.primal_residual, res.dual_residual))
    assert all(b <= a for a, b in zip(worst, worst[1:]))


def test_trpca_of_the_zero_tensor_is_zero():
    x = np.zeros((3, 4, 5))
    result = trpca(x)
    assert np.array_equal(result.low_rank, x)
    assert np.array_equal(result.sparse, x)
    assert result.converged is True
    assert result.iterations == 0


def _assert_svt_mode_matches_exact(y, n, tau):
    got, spec = robust._svt_mode(y, n, tau)
    want, want_spec = svt_with_spectrum(unfold(y, n), tau)
    want = fold(want, n, y.shape)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(y).max()
    assert abs(spec.sum() - want_spec.sum()) <= 1e-13 * want_spec.sum()


@pytest.mark.parametrize("shape", [(6, 7, 8), (10, 10, 10), (4, 3, 5, 2)])
@pytest.mark.parametrize("frac", [0.1, 0.3, 0.6])
def test_svt_mode_matches_exact_svt_on_every_mode(rng, shape, frac):
    # wide and square unfoldings, and an order-4 tensor whose size-5 mode
    # is still the short side of its 5 x 24 unfolding
    y = rng.standard_normal(shape)
    for n in range(y.ndim):
        smax = np.linalg.norm(unfold(y, n), 2)
        _assert_svt_mode_matches_exact(y, n, frac * smax)


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_svt_mode_matches_exact_svt_on_planted_rank_2(rng, noise):
    # without noise every mode is rank-deficient: ten of its twelve
    # Gram eigenvalues are rounding, and some can be negative
    vecs = [rng.standard_normal((12, 2)) for _ in range(3)]
    y = np.einsum("ir,jr,kr->ijk", *vecs)
    y += noise * rng.standard_normal(y.shape)
    for n in range(3):
        s = np.linalg.svd(unfold(y, n), compute_uv=False)
        # between the planted pair and the noise, and inside the pair
        for tau in (0.5 * s[1], 0.5 * (s[0] + s[1])):
            _assert_svt_mode_matches_exact(y, n, tau)


def test_svt_mode_above_the_spectrum_is_zero(rng):
    y = rng.standard_normal((5, 6, 7))
    for n in range(3):
        smax = np.linalg.norm(unfold(y, n), 2)
        got, spec = robust._svt_mode(y, n, 1.01 * smax)
        assert np.array_equal(got, np.zeros(y.shape))
        assert spec.sum() == 0.0


@pytest.fixture
def svt_calls(monkeypatch):
    calls = []

    def spy(a, tau):
        calls.append(np.shape(a))
        return svt_with_spectrum(a, tau)

    monkeypatch.setattr(robust, "svt_with_spectrum", spy)
    return calls


def test_svt_mode_short_side_runs_no_svd(rng, svt_calls):
    y = rng.standard_normal((9, 9, 9))
    for n in range(3):
        tau = 0.1 * np.linalg.norm(unfold(y, n), 2)
        _assert_svt_mode_matches_exact(y, n, tau)
    assert svt_calls == []


def test_svt_mode_long_side_takes_the_exact_svd(rng, svt_calls):
    # mode 0 of a 30 x 4 x 5 tensor is the long side: 30^2 > 600 entries
    y = rng.standard_normal((30, 4, 5))
    for n in range(3):
        tau = 0.1 * np.linalg.norm(unfold(y, n), 2)
        _assert_svt_mode_matches_exact(y, n, tau)
    assert svt_calls == [(30, 20)]


def test_svt_mode_tiny_threshold_takes_the_exact_svd(rng, svt_calls):
    # below sqrt(eps) * sigma_max a kept singular value could sit inside
    # the Gram's rounding, so the exact SVD runs instead
    y = rng.standard_normal((6, 7, 8))
    smax = np.linalg.norm(unfold(y, 0), 2)
    tau = 0.5 * np.sqrt(np.finfo(np.float64).eps) * smax
    _assert_svt_mode_matches_exact(y, 0, tau)
    assert svt_calls == [(6, 56)]


def _trpca_exact_svt_reference(x, lam, max_iters=1000, tol=1e-7):
    # trpca's ADMM with every SVT taken by the exact SVD of the mode
    # unfolding, as the loop ran before the Gram SVT
    n_modes = x.ndim
    alpha = np.full(n_modes, 1.0 / n_modes)
    norm_x = np.linalg.norm(x)
    rho, rho_cap = 1e-2, 1e6
    low = np.zeros_like(x)
    duals = np.zeros((n_modes + 1, *x.shape))
    best = None
    for iterations in range(1, max_iters + 1):
        aux = [
            fold(svt_with_spectrum(unfold(low - duals[n], n), alpha[n] / rho)[0],
                 n, x.shape)
            for n in range(n_modes)
        ]
        sparse = soft_threshold(x - low + duals[-1], lam / rho)
        low_prev = low
        low = (
            sum(m + d for m, d in zip(aux, duals)) + x - sparse + duals[-1]
        ) / (n_modes + 1)
        gaps = [m - low for m in aux] + [x - low - sparse]
        duals += gaps
        primal = np.sqrt(sum(float(np.sum(g**2)) for g in gaps))
        dual = rho * np.sqrt(n_modes + 1) * np.linalg.norm(low - low_prev)
        if best is None or max(primal, dual) < best[0]:
            best = (max(primal, dual), low, sparse)
        if max(primal, dual) < tol * norm_x:
            return iterations, True, low, sparse
        if primal > 10 * dual and rho * 1.5 <= rho_cap:
            rho *= 1.5
            duals /= 1.5
        elif dual > 10 * primal:
            rho /= 1.5
            duals *= 1.5
    return iterations, False, best[1], best[2]


def _assert_trpca_matches_exact_svt(x, lam):
    res = trpca(x, lam=lam)
    iterations, converged, low, sparse = _trpca_exact_svt_reference(x, lam)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert np.abs(res.low_rank - low).max() <= 1e-10 * np.abs(low).max()
    assert np.abs(res.sparse - sparse).max() <= 1e-10 * np.abs(sparse).max()


@pytest.mark.parametrize("shape", [(10, 10, 10), (12, 12, 12)])
@pytest.mark.parametrize("seed", range(8))
def test_trpca_matches_exact_svt_admm_on_planted_tensors(shape, seed):
    rng = np.random.default_rng(seed)
    low, spikes, _ = spiked_low_rank(rng, shape)
    for lam in (0.5 * default_lambda(shape), default_lambda(shape)):
        _assert_trpca_matches_exact_svt(low + spikes, lam)


@pytest.mark.parametrize("shape", [(24, 4, 5), (6, 5, 4, 3)])
def test_trpca_matches_exact_svt_admm_long_side_and_order_4(rng, shape):
    # mode 0 of 24 x 4 x 5 is the long side of its unfolding
    low = functools.reduce(np.multiply.outer, [rng.standard_normal(s) for s in shape])
    spikes = np.where(rng.random(shape) < 0.05, 10 * np.abs(low).mean(), 0.0)
    _assert_trpca_matches_exact_svt(low + spikes, 0.5 * default_lambda(shape))
