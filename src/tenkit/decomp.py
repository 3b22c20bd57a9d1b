"""Tensor decompositions: CP (ALS), Tucker (HOSVD / HOOI), Tensor-Train
(TT-SVD), multilinear PCA, and multifactor (label x pixel) analysis.

All solvers are deterministic given their options (fixed seed, fixed
iteration policy); random initialization flows from an explicit
``numpy.random.Generator`` seeded from ``DecompOptions.seed``.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .core import (
    fold,
    frobenius,
    khatri_rao,
    mode_n_product,
    mttkrp,
    multi_mode_product,
    unfold,
)
from .linalg import _as_float64, _check_count, _check_mode

__all__ = [
    "KruskalTensor",
    "TuckerTensor",
    "TTTensor",
    "DecompOptions",
    "MpcaResult",
    "kruskal_to_tensor",
    "tucker_to_tensor",
    "tt_to_tensor",
    "cp_als",
    "tucker_hosvd",
    "tucker_hooi",
    "tt_svd",
    "tt_max_ranks",
    "mpca",
    "multifactor_analysis",
]


@dataclass
class KruskalTensor:
    """CP/Kruskal format: ``sum_r weights[r] * outer(factors[:, r])``.

    ``factors[n]`` has shape ``(I_n, R)``; all factors share the column
    count ``R``. After normalization every factor column has unit l2
    norm and the magnitudes live in ``weights``.
    """

    weights: np.ndarray
    factors: list

    def __post_init__(self):
        self.weights = _as_float64(self.weights, "weights")
        self.factors = [_as_float64(f, "factors") for f in self.factors]
        if not self.factors:
            raise ValueError("KruskalTensor needs at least one factor")
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")
        r = self.weights.shape[0]
        for n, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != r:
                raise ValueError(
                    f"factor {n} must have {r} columns, got shape {f.shape}"
                )

    @property
    def rank(self) -> int:
        return self.weights.shape[0]

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)

    def to_tensor(self) -> np.ndarray:
        return kruskal_to_tensor(self)


@dataclass
class TuckerTensor:
    """Tucker format: core multiplied by one factor matrix per mode.

    ``core`` has shape ``(R_0, ..., R_{N-1})`` and ``factors[n]`` has
    shape ``(I_n, R_n)``.
    """

    core: np.ndarray
    factors: list

    def __post_init__(self):
        self.core = _as_float64(self.core, "core")
        self.factors = [_as_float64(f, "factors") for f in self.factors]
        if len(self.factors) != self.core.ndim:
            raise ValueError(
                f"need one factor per core mode: core order "
                f"{self.core.ndim}, {len(self.factors)} factors"
            )
        for n, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != self.core.shape[n]:
                raise ValueError(
                    f"factor {n} must have {self.core.shape[n]} columns, "
                    f"got shape {f.shape}"
                )

    @property
    def ranks(self) -> tuple:
        return self.core.shape

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)

    def to_tensor(self) -> np.ndarray:
        return tucker_to_tensor(self)


@dataclass
class TTTensor:
    """Tensor-Train format: a chain of third-order cores.

    ``cores[k]`` has shape ``(R_k, I_k, R_{k+1})`` with the boundary
    ranks ``R_0 = R_N = 1``.
    """

    cores: list

    def __post_init__(self):
        self.cores = [_as_float64(c, "cores") for c in self.cores]
        if not self.cores:
            raise ValueError("TTTensor needs at least one core")
        for k, c in enumerate(self.cores):
            if c.ndim != 3:
                raise ValueError(f"core {k} must be third-order")
            if k + 1 < len(self.cores) and c.shape[2] != self.cores[k + 1].shape[0]:
                raise ValueError(
                    f"rank chain broken between cores {k} and {k + 1}: "
                    f"{c.shape[2]} vs {self.cores[k + 1].shape[0]}"
                )
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise ValueError("boundary TT-ranks must be 1")

    @property
    def ranks(self) -> tuple:
        return tuple(c.shape[0] for c in self.cores) + (1,)

    @property
    def shape(self) -> tuple:
        return tuple(c.shape[1] for c in self.cores)

    def to_tensor(self) -> np.ndarray:
        return tt_to_tensor(self)


@dataclass
class DecompOptions:
    """Iteration policy shared by the alternating solvers.

    CP-ALS, HOOI and MPCA run at most ``max_iters`` sweeps and stop once
    the change over one sweep falls below ``tol``: the change in fit for
    :func:`cp_als` and :func:`tucker_hooi`, and the change in captured
    scatter divided by ``max(total scatter, 1)`` for :func:`mpca`.
    ``init`` and ``seed`` only affect :func:`cp_als`; the Tucker, TT and
    MPCA solvers are deterministic SVD-based procedures.
    """

    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 0
    init: str = "hosvd"

    def __post_init__(self):
        _check_count(self.max_iters, "max_iters")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.init not in ("hosvd", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        _check_count(self.seed, "seed", least=0)


def kruskal_to_tensor(k: KruskalTensor) -> np.ndarray:
    """Dense tensor from a Kruskal representation."""
    if len(k.factors) == 1:
        return k.factors[0] @ k.weights
    lead = k.factors[0] * k.weights
    rest = khatri_rao(k.factors[1:])
    return fold(lead @ rest.T, 0, k.shape)


def tucker_to_tensor(t: TuckerTensor) -> np.ndarray:
    """Dense tensor from a Tucker representation."""
    return multi_mode_product(t.core, t.factors)


def tt_to_tensor(t: TTTensor) -> np.ndarray:
    """Dense tensor from a TT representation."""
    out = t.cores[0]
    for core in t.cores[1:]:
        out = np.tensordot(out, core, axes=([-1], [0]))
    return out.reshape(t.shape)


def _cp_init(x, rank, opts, rng):
    if opts.init == "random":
        return [rng.standard_normal((s, rank)) for s in x.shape]
    # HOSVD bases, each mode padded with random columns up to the rank
    factors = _hosvd_bases(x, [min(rank, s) for s in x.shape])
    for n, s in enumerate(x.shape):
        if rank > s:
            factors[n] = np.hstack([factors[n], rng.standard_normal((s, rank - s))])
    return factors


def _fit(x, norm_x, resid_sq, model):
    # 1 - ||X - Xhat|| / ||X||; densely from the model() tensor where a
    # resid_sq from a norm identity, below 1e-6 ||X||^2, is cancellation
    if not norm_x:
        return 1.0
    if resid_sq < 1e-6 * norm_x**2:
        return 1.0 - frobenius(x - model()) / norm_x
    return 1.0 - np.sqrt(resid_sq) / norm_x


def _iterate(steps, measure, done, max_iters):
    # at most max_iters steps, until done(fits); range leads zip, so no step runs
    # past the one returned, and steps that end early have nothing left to improve
    fits = []
    for _, state in zip(range(max_iters), steps):
        fits.append(measure(state))
        if done(fits):
            break
    converged = len(fits) < max_iters or bool(done(fits))
    return state, {"fits": fits, "iterations": len(fits), "converged": converged}


def _fit_change_below(tol):
    return lambda fits: len(fits) > 1 and abs(fits[-1] - fits[-2]) < tol


def _solve_normal(gram, rhs):
    # F with F @ gram = rhs by Cholesky, its two triangular solves taken
    # as products with the inverse factor (one LAPACK call, not two); the
    # pseudo-inverse when the Gram is singular to its cutoff
    try:
        low = np.linalg.cholesky(gram)
        pivots = np.diag(low) ** 2
        if pivots.min() >= linalg.PINV_CUTOFF * pivots.max():
            inv = np.linalg.inv(low)
            return (rhs @ inv.T) @ inv
    except np.linalg.LinAlgError:
        pass
    return linalg.lstsq(gram, rhs.T).T


def _als_sweeps(x, factors, rank):
    # CP-ALS sweeps: each refits every factor in place, with unit columns,
    # and yields the last one's column norms (weights), MTTKRP and all Grams' product
    grams = [f.T @ f for f in factors]
    lead, trail = range(x.ndim // 2), range(x.ndim // 2, x.ndim)
    while True:
        for own, other in ((lead, trail), (trail, lead)):
            partial = mttkrp(x, {k: factors[k] for k in other})
            for n in own:
                gram = np.prod([g for k, g in enumerate(grams) if k != n], axis=0)
                if not other:  # order-1: any split of x across components
                    m = np.tile(x[:, None], (1, rank))
                    factors[n] = m / rank
                else:
                    rest = {k - own.start: factors[k] for k in own if k != n}
                    m = mttkrp(partial, rest, ranked=True)
                    factors[n] = _solve_normal(gram, m)
                norms = np.linalg.norm(factors[n], axis=0)
                safe = np.where(norms > 0, norms, 1.0)
                factors[n] = factors[n] / safe
                grams[n] = factors[n].T @ factors[n]
        yield norms, m, gram * grams[-1]


def cp_als(x, rank: int, opts: DecompOptions | None = None, return_info: bool = False):
    """CP decomposition by alternating least squares.

    Each sweep solves, for every mode in turn, the linear least-squares
    problem for that factor with all others fixed, then renormalizes the
    factor columns into ``weights``. Before each half of the modes is
    updated, ``x`` is contracted once with the other half's factors, and
    each mode of the half contracts that small partial with the rest of
    its half, so no Khatri-Rao matrix is built (Phan, Tichavsky &
    Cichocki 2013). The normal equations, from cached factor Grams, are
    solved by Cholesky, or by the pseudo-inverse when the Gram is
    singular to ``linalg.PINV_CUTOFF``. The fit ``1 - ||X - Xhat|| / ||X||``
    is non-decreasing across sweeps; it comes from the last MTTKRP and the
    Grams (Kolda & Bader 2009), and from a dense ``Xhat`` only where the
    squared residual, below ``1e-6 ||X||^2``, cancels. Iteration stops when
    it changes by less than ``opts.tol`` or after ``opts.max_iters`` sweeps.

    With ``return_info=True`` also returns a dict with the fit trace,
    iteration count, convergence flag, and an over-parametrization flag
    (set, with a warning, when ``rank`` exceeds the column count
    ``size // I_n`` of some mode-``n`` unfolding; a CP rank may exceed
    the mode sizes themselves).
    """
    x = linalg.check_finite(x, "cp_als")
    if x.ndim < 1:
        raise ValueError("cp_als needs a tensor of order 1 or more")
    if not x.size:
        raise ValueError(f"cp_als needs every mode of size 1 or more, got {x.shape}")
    rank = _check_count(rank, "rank")
    opts = opts or DecompOptions()
    rng = np.random.default_rng(opts.seed)

    size = x.size
    over = any(rank > size // s for s in x.shape)
    if over:
        warnings.warn(
            f"rank {rank} exceeds the column count of some unfolding of "
            f"shape {x.shape}; the model is over-parametrized",
            RuntimeWarning,
            stacklevel=2,
        )

    factors = _cp_init(x, rank, opts, rng)
    norm_x = frobenius(x)

    def fit(state):
        weights, m, gram = state
        inner = weights @ np.einsum("ir,ir->r", m, factors[-1])
        resid_sq = norm_x**2 - 2.0 * inner + weights @ gram @ weights
        return _fit(x, norm_x, resid_sq, KruskalTensor(weights, factors).to_tensor)

    (weights, _, _), info = _iterate(
        _als_sweeps(x, factors, rank), fit, _fit_change_below(opts.tol), opts.max_iters
    )

    # flip each column of every factor but the last so its
    # largest-magnitude entry is positive; compensate in the last factor
    total = np.ones(rank)
    for f in factors[:-1]:
        signs = linalg.column_signs(f)
        f *= signs
        total *= signs
    factors[-1] *= total
    result = KruskalTensor(weights, factors)
    if not return_info:
        return result
    info["over_parametrized"] = over
    return result, info


def _check_tucker_ranks(shape, ranks):
    ranks = tuple(_check_count(r, f"rank for mode {n}") for n, r in enumerate(ranks))
    if len(ranks) != len(shape):
        raise ValueError(
            f"need one rank per mode: shape {shape}, ranks {ranks}"
        )
    for n, (r, s) in enumerate(zip(ranks, shape)):
        if r > s:
            raise ValueError(
                f"rank {r} out of range [1, {s}] for mode {n}"
            )
    return ranks


def _hosvd_bases(x, ranks):
    # leading left singular vectors of the first len(ranks) unfoldings
    return [
        linalg.left_singular_basis(unfold(x, n), r)
        for n, r in enumerate(ranks)
    ]


def _hooi_sweeps(x, factors, ranks):
    # Higher-order orthogonal iteration over the modes that ``factors``
    # covers (the leading ones); later modes are never projected. Each
    # sweep refits, in place, every factor whose rank is below its mode
    # size, from ``x`` projected onto the other such factors, then yields
    # the core. A square factor keeps its HOSVD basis: it only rotates the
    # other unfoldings (Tucker-2, Kim et al. 2016). The partials extend a
    # prefix, projected onto every factor before the mode in mode order.
    # With at most one mode swept the HOSVD is optimal: one sweep, then stop.
    swept = [n for n in range(len(factors)) if ranks[n] < x.shape[n]]
    while True:
        prefix = x
        for n in range(len(factors)):
            if n in swept:
                rest = {k: factors[k].T for k in swept if k > n}
                partial = multi_mode_product(prefix, rest.values(), rest)
                factors[n] = linalg.left_singular_basis(unfold(partial, n), ranks[n])
            prefix = mode_n_product(prefix, factors[n].T, n)
        yield prefix
        if len(swept) < 2:
            return


def _tucker_fit(x, norm_x, core, factors):
    # with orthonormal factors the squared residual is ||X||^2 - ||core||^2
    resid_sq = norm_x**2 - frobenius(core) ** 2
    return _fit(x, norm_x, resid_sq, TuckerTensor(core, factors).to_tensor)


def tucker_hosvd(x, ranks) -> TuckerTensor:
    """Truncated higher-order SVD.

    Factor ``n`` holds the top ``ranks[n]`` left singular vectors of the
    mode-``n`` unfolding; the core is the projection of ``x`` onto those
    bases. Factors are column-orthonormal.
    """
    x = linalg.check_finite(x, "tucker_hosvd")
    ranks = _check_tucker_ranks(x.shape, ranks)
    factors = _hosvd_bases(x, ranks)
    core = multi_mode_product(x, factors, transpose=True)
    return TuckerTensor(core, factors)


def tucker_hooi(
    x, ranks, opts: DecompOptions | None = None, return_info: bool = False
):
    """Tucker decomposition by higher-order orthogonal iteration.

    Starts from the HOSVD and alternately re-optimizes each factor as
    the dominant subspace of the partially projected tensor, so the fit
    never drops below the HOSVD fit; a mode whose rank is its size keeps
    its HOSVD basis (Tucker-2). The fit's squared residual is
    ``||X||^2 - ||core||^2``, guarded as in :func:`cp_als`. Stops when the
    fit change falls below ``opts.tol`` or after ``opts.max_iters`` sweeps.
    """
    x = linalg.check_finite(x, "tucker_hooi")
    ranks = _check_tucker_ranks(x.shape, ranks)
    opts = opts or DecompOptions()
    factors = _hosvd_bases(x, ranks)
    norm_x = frobenius(x)
    core, info = _iterate(
        _hooi_sweeps(x, factors, ranks),
        lambda core: _tucker_fit(x, norm_x, core, factors),
        _fit_change_below(opts.tol),
        opts.max_iters,
    )
    result = TuckerTensor(core, factors)
    return (result, info) if return_info else result


def tt_max_ranks(shape) -> tuple:
    """Maximal feasible TT-rank chain (including the boundary 1s)."""
    shape = tuple(_check_count(s, f"size of mode {n}") for n, s in enumerate(shape))
    n = len(shape)
    left = [1]
    for s in shape:
        left.append(left[-1] * s)
    right = [1]
    for s in reversed(shape):
        right.append(right[-1] * s)
    right.reverse()
    return tuple(min(left[k], right[k]) for k in range(n + 1))


def tt_svd(x, ranks=None, tol: float | None = None) -> TTTensor:
    """Tensor-Train decomposition by sequential truncated SVDs: each split
    takes its basis ``U`` from :func:`linalg.left_singular_basis` and
    carries ``U.T @ mat`` (rows ``s_i v_i^T``) on. One policy applies:

    * ``ranks``: a full chain ``(R_0, ..., R_N)`` with ``R_0 = R_N = 1``
      (or a single int capping every internal rank). Requested ranks
      beyond what the chain can carry raise ``ValueError``.
    * ``tol``: relative error budget ``eps``; each of the ``N - 1``
      truncation steps keeps enough singular values that the final
      error satisfies ``||X - Xhat|| <= eps * ||X||``: the energy each
      split discards, the tail sum of its carried rows' squared norms,
      stays within ``(eps * ||X||)**2 / (N - 1)``.
    * neither: maximal ranks, i.e. an exact representation.
    """
    x = linalg.check_finite(x, "tt_svd")
    n = x.ndim
    if n < 1:
        raise ValueError("tt_svd needs a tensor of order 1 or more")
    if not x.size:
        raise ValueError(f"tt_svd needs every mode of size 1 or more, got {x.shape}")
    if ranks is not None and tol is not None:
        raise ValueError("pass either ranks or tol, not both")
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    feasible = tt_max_ranks(x.shape)
    if ranks is not None:
        if np.ndim(ranks) == 0:
            cap = _check_count(ranks, "rank cap")
            chain = tuple(min(cap, f) for f in feasible)
        else:
            chain = tuple(_check_count(r, f"rank R_{k}") for k, r in enumerate(ranks))
            if len(chain) != n + 1:
                raise ValueError(
                    f"rank chain must have length {n + 1}, got {len(chain)}"
                )
            if chain[0] != 1 or chain[-1] != 1:
                raise ValueError("boundary TT-ranks must be 1")
            # split k can carry at most min(R_{k-1} * I_{k-1}, feasible[k])
            # singular values
            for k in range(1, n + 1):
                cap = min(chain[k - 1] * x.shape[k - 1], feasible[k])
                if chain[k] > cap:
                    raise ValueError(
                        f"infeasible rank chain: R_{k} = {chain[k]} exceeds "
                        f"the maximum {cap} for shape {x.shape} given the "
                        f"preceding ranks"
                    )
    else:
        chain = feasible

    budget_sq = None
    if tol is not None:
        budget_sq = (tol * frobenius(x)) ** 2 / max(n - 1, 1)

    cores = []
    current = x
    r_prev = 1
    for k in range(n - 1):
        mat = current.reshape(r_prev * x.shape[k], -1)
        r = min(mat.shape) if tol is not None else chain[k + 1]
        u = linalg.left_singular_basis(mat, r)
        full = u.T @ mat  # row i is s_i v_i^T
        if tol is not None:  # tail energies: what each truncation discards
            tail = np.cumsum(np.sum(full[::-1] ** 2, axis=1))[::-1]
            r = max(int(np.sum(tail > budget_sq)), 1)
        cores.append(u[:, :r].reshape(r_prev, x.shape[k], r))
        current = full[:r]
        r_prev = r
    cores.append(current.reshape(r_prev, x.shape[-1], 1))
    return TTTensor(cores)


@dataclass
class MpcaResult:
    """Projections and projected cores from multilinear PCA.

    ``projections[n]`` is the ``I_n x R_n`` column-orthonormal basis for
    feature mode ``n``; ``cores`` stacks the projected samples along the
    last mode (shape ``R_0 x ... x R_{N-2} x M``). ``scatters`` traces
    the captured scatter per sweep.
    """

    projections: list
    cores: np.ndarray
    scatters: list = field(default_factory=list)
    total_scatter: float = 0.0

    def __post_init__(self):
        self.cores = _as_float64(self.cores, "cores")
        self.projections = [_as_float64(p, "projections") for p in self.projections]
        if self.cores.ndim != len(self.projections) + 1:
            raise ValueError(
                f"need one projection per core mode but the last: core "
                f"order {self.cores.ndim}, {len(self.projections)} projections"
            )
        for n, p in enumerate(self.projections):
            if p.ndim != 2 or p.shape[1] != self.cores.shape[n]:
                raise ValueError(
                    f"projection {n} must have {self.cores.shape[n]} "
                    f"columns, got shape {p.shape}"
                )
        if not isinstance(self.total_scatter, numbers.Real):
            raise ValueError(
                f"total_scatter must be a number, got {self.total_scatter!r}"
            )
        if not isinstance(self.scatters, list) or not all(
            isinstance(s, numbers.Real) for s in self.scatters
        ):
            raise ValueError(
                f"scatters must be a list of numbers, got {self.scatters!r}"
            )

    def reconstruct(self) -> np.ndarray:
        return multi_mode_product(self.cores, self.projections)


def mpca(x, ranks, opts: DecompOptions | None = None) -> MpcaResult:
    """Multilinear PCA of a sample set stacked along the last mode.

    Alternately maximizes the captured scatter
    ``sum_m ||X_m x_0 U0.T ... x_{N-2} U_{N-2}.T||^2`` over
    column-orthonormal projections, one per feature mode (the sample mode
    is never projected). Each update of a mode below full rank takes the
    dominant left singular subspace of the partially projected unfolding,
    so the captured scatter is non-decreasing per sweep.
    """
    x = linalg.check_finite(x, "mpca")
    if x.ndim < 2:
        raise ValueError("mpca needs at least one feature mode plus samples")
    n_feat = x.ndim - 1
    ranks = _check_tucker_ranks(x.shape[:n_feat], ranks)
    opts = opts or DecompOptions()

    projections = _hosvd_bases(x, ranks)
    total = frobenius(x) ** 2
    cores, info = _iterate(
        _hooi_sweeps(x, projections, ranks),
        lambda cores: frobenius(cores) ** 2,
        _fit_change_below(opts.tol * max(total, 1.0)),
        opts.max_iters,
    )
    return MpcaResult(projections, cores, info["fits"], total)


def multifactor_analysis(x, pixel_mode: int, ranks=None) -> TuckerTensor:
    """Orthonormal multifactor model of a label-arranged data tensor.

    The input is arranged with one mode per known source of variation
    plus one mode (``pixel_mode``) holding the vectorized measurements.
    Returns the HOSVD: a mixing core plus one orthonormal factor matrix
    per mode, truncated to ``ranks`` when given (default: full).
    """
    x = linalg.check_finite(x, "multifactor_analysis")
    _check_mode(pixel_mode, x.ndim, "pixel_mode")
    if ranks is None:
        ranks = x.shape
    return tucker_hosvd(x, ranks)
