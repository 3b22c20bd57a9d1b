"""Tensor decompositions: CP (ALS), Tucker (HOSVD / HOOI), Tensor-Train
(TT-SVD), multilinear PCA, and multifactor (label x pixel) analysis.

All solvers are deterministic given their options (fixed seed, fixed
iteration policy); random initialization flows from an explicit
``numpy.random.Generator`` seeded from ``DecompOptions.seed``.
"""

from __future__ import annotations

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
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
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
        self.core = np.asarray(self.core, dtype=np.float64)
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
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
        self.cores = [np.asarray(c, dtype=np.float64) for c in self.cores]
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.init not in ("hosvd", "random"):
            raise ValueError(f"unknown init {self.init!r}")


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


def _iterate(sweeps, measure, opts, scale=1.0):
    # the alternating solvers' outer loop: at most opts.max_iters sweeps,
    # stopping once measure(state) moves by less than opts.tol * scale;
    # range comes first in zip, so no sweep runs past the one returned
    fits = []
    for _, state in zip(range(opts.max_iters), sweeps):
        fits.append(measure(state))
        converged = len(fits) > 1 and bool(abs(fits[-1] - fits[-2]) < opts.tol * scale)
        if converged:
            break
    return state, {"fits": fits, "iterations": len(fits), "converged": converged}


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
    # and yields the last one's column norms as the weights
    grams = [f.T @ f for f in factors]
    lead, trail = range(x.ndim // 2), range(x.ndim // 2, x.ndim)
    while True:
        for own, other in ((lead, trail), (trail, lead)):
            partial = mttkrp(x, {k: factors[k] for k in other})
            for n in own:
                if not other:  # order-1: any split of x across components
                    factors[n] = np.tile(x[:, None], (1, rank)) / rank
                else:
                    rest = {k - own.start: factors[k] for k in own if k != n}
                    gram = np.prod([g for k, g in enumerate(grams) if k != n], axis=0)
                    factors[n] = _solve_normal(gram, mttkrp(partial, rest, ranked=True))
                norms = np.linalg.norm(factors[n], axis=0)
                safe = np.where(norms > 0, norms, 1.0)
                factors[n] = factors[n] / safe
                grams[n] = factors[n].T @ factors[n]
        yield norms


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
    singular to ``linalg.PINV_CUTOFF``. The fit
    ``1 - ||X - Xhat|| / ||X||`` is non-decreasing across sweeps;
    iteration stops when its change drops below ``opts.tol`` or after
    ``opts.max_iters`` sweeps.

    With ``return_info=True`` also returns a dict with the fit trace,
    iteration count, convergence flag, and an over-parametrization flag
    (set, with a warning, when ``rank`` exceeds the column count
    ``size // I_n`` of some mode-``n`` unfolding; a CP rank may exceed
    the mode sizes themselves).
    """
    x = linalg.check_finite(x, "cp_als")
    if x.ndim < 1:
        raise ValueError("cp_als needs a tensor of order 1 or more")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
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

    def fit(weights):
        if norm_x == 0:
            return 1.0
        resid = frobenius(x - kruskal_to_tensor(KruskalTensor(weights, factors)))
        return 1.0 - resid / norm_x

    weights, info = _iterate(_als_sweeps(x, factors, rank), fit, opts)

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
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise ValueError(
            f"need one rank per mode: shape {shape}, ranks {ranks}"
        )
    for n, (r, s) in enumerate(zip(ranks, shape)):
        if not 1 <= r <= s:
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
    # sweep refits every factor, in place, as the dominant subspace of
    # ``x`` projected onto all the other factors, then yields the core.
    # The partials come from one running prefix, in mode order: ``x``
    # projected onto the factors refitted so far, which after the last
    # mode is the core. Products run in increasing mode order throughout.
    modes = range(len(factors))
    while True:
        prefix = x
        for n in modes:
            partial = multi_mode_product(
                prefix, factors[n + 1:], modes[n + 1:], transpose=True
            )
            factors[n] = linalg.left_singular_basis(unfold(partial, n), ranks[n])
            prefix = mode_n_product(prefix, factors[n].T, n)
        yield prefix


def _tucker_fit(x, norm_x, core, factors):
    # 1 - ||X - Xhat|| / ||X||. With orthonormal factors the residual is
    # ||X||^2 - ||core||^2; below 1e3 eps ||X||^2 that difference is
    # rounding noise, so the residual is then taken densely.
    if not norm_x:
        return 1.0
    resid_sq = norm_x**2 - frobenius(core) ** 2
    if resid_sq < 1e3 * np.finfo(np.float64).eps * norm_x**2:
        resid_sq = frobenius(x - multi_mode_product(core, factors)) ** 2
    return 1.0 - np.sqrt(resid_sq) / norm_x


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
    never drops below the HOSVD fit. Stops when the fit change falls
    below ``opts.tol`` or after ``opts.max_iters`` sweeps.
    """
    x = linalg.check_finite(x, "tucker_hooi")
    ranks = _check_tucker_ranks(x.shape, ranks)
    opts = opts or DecompOptions()
    factors = _hosvd_bases(x, ranks)
    norm_x = frobenius(x)
    core, info = _iterate(
        _hooi_sweeps(x, factors, ranks),
        lambda core: _tucker_fit(x, norm_x, core, factors),
        opts,
    )
    result = TuckerTensor(core, factors)
    return (result, info) if return_info else result


def tt_max_ranks(shape) -> tuple:
    """Maximal feasible TT-rank chain (including the boundary 1s)."""
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
    """Tensor-Train decomposition by sequential truncated SVDs.

    Exactly one truncation policy applies:

    * ``ranks``: a full chain ``(R_0, ..., R_N)`` with ``R_0 = R_N = 1``
      (or a single int capping every internal rank). Requested ranks
      beyond what the chain can carry raise ``ValueError``.
    * ``tol``: relative error budget ``eps``; each of the ``N - 1``
      truncation steps keeps enough singular values that the final
      error satisfies ``||X - Xhat|| <= eps * ||X||`` (per-step budget
      ``eps * ||X|| / sqrt(N - 1)``).
    * neither: maximal ranks, i.e. an exact representation.
    """
    x = linalg.check_finite(x, "tt_svd")
    n = x.ndim
    if ranks is not None and tol is not None:
        raise ValueError("pass either ranks or tol, not both")
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    feasible = tt_max_ranks(x.shape)
    if ranks is not None:
        if np.isscalar(ranks):
            if int(ranks) < 1:
                raise ValueError(f"rank cap must be positive, got {ranks}")
            chain = tuple(min(int(ranks), f) for f in feasible)
        else:
            chain = tuple(int(r) for r in ranks)
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
                if not 1 <= chain[k] <= cap:
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
        f = linalg.svd(mat)
        if tol is not None:
            tail = np.cumsum(f.S[::-1] ** 2)[::-1]
            keep = int(np.sum(tail > budget_sq))
            r = max(keep, 1)
        else:
            r = chain[k + 1]
        cores.append(f.U[:, :r].reshape(r_prev, x.shape[k], r))
        current = (f.S[:r, None] * f.V[:, :r].T)
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
        self.cores = np.asarray(self.cores, dtype=np.float64)
        self.projections = [
            np.asarray(p, dtype=np.float64) for p in self.projections
        ]
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

    def reconstruct(self) -> np.ndarray:
        return multi_mode_product(self.cores, self.projections)


def mpca(x, ranks, opts: DecompOptions | None = None) -> MpcaResult:
    """Multilinear PCA of a sample set stacked along the last mode.

    Alternately maximizes the captured scatter
    ``sum_m ||X_m x_0 U0.T ... x_{N-2} U_{N-2}.T||^2`` over
    column-orthonormal projections, one per feature mode (the sample
    mode is never projected). Each update takes the dominant left
    singular subspace of the partially projected unfolding, so the
    captured scatter is non-decreasing per sweep.
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
        opts,
        scale=max(total, 1.0),
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
    if not 0 <= pixel_mode < x.ndim:
        raise ValueError(
            f"pixel_mode {pixel_mode} out of range for order-{x.ndim} tensor"
        )
    if ranks is None:
        ranks = x.shape
    return tucker_hosvd(x, ranks)
