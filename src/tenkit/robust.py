"""Convex robust tensor PCA: split a tensor into a low-rank part plus a
sparse part by ADMM.

The model minimizes ``sum_n alpha_n * ||L_(n)||_* + lambda * ||S||_1``
subject to ``X = L + S``, with one auxiliary low-rank variable per mode
tied to ``L``. Each iteration applies singular value thresholding to
every mode unfolding (threshold ``alpha_n / rho``), soft thresholding to
the sparse part (threshold ``lambda / rho``), an averaging update for
``L``, and dual ascent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import fold, frobenius, unfold
from .linalg import soft_threshold, svt

__all__ = ["RpcaResult", "trpca", "default_lambda"]


@dataclass
class RpcaResult:
    """Outcome of :func:`trpca`.

    ``low_rank + sparse`` reproduces the input up to the feasibility
    residual. ``converged`` is False when the iteration cap was hit, in
    which case the best iterate seen (lowest combined residual) is
    returned instead of the last one.
    """

    low_rank: np.ndarray
    sparse: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    lam: float
    alpha: np.ndarray
    objective_trace: list = field(default_factory=list)

    @property
    def L(self) -> np.ndarray:
        return self.low_rank

    @property
    def S(self) -> np.ndarray:
        return self.sparse


def default_lambda(shape) -> float:
    """Sparsity weight heuristic ``1 / sqrt(max mode size)``."""
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise ValueError(f"invalid shape {shape}")
    return float(1.0 / np.sqrt(max(shape)))


def _objective(l, s, lam, alpha):
    nuc = sum(
        a * np.linalg.svd(unfold(l, n), compute_uv=False).sum()
        for n, a in enumerate(alpha)
    )
    return nuc + lam * np.abs(s).sum()


def trpca(
    x,
    lam: float | None = None,
    alpha=None,
    max_iters: int = 1000,
    tol: float = 1e-7,
    track_objective: bool = True,
) -> RpcaResult:
    """Robust tensor PCA via ADMM.

    Parameters
    ----------
    x : array
        Input tensor.
    lam : float, optional
        Sparsity weight; defaults to :func:`default_lambda`.
    alpha : sequence, optional
        Non-negative per-mode weights summing to 1; defaults to
        ``1/N`` each.
    max_iters : int
        Iteration cap; hitting it returns the best iterate seen (lowest
        ``max(primal, dual)`` residual) with ``converged=False``.
    tol : float
        Stop when ``max(primal, dual)`` residual drops below
        ``tol * ||X||``.
    track_objective : bool
        Record the objective at every iterate (costs one extra SVD per
        mode per iteration).
    """
    x = np.asarray(x, dtype=np.float64)
    n_modes = x.ndim
    if lam is None:
        lam = default_lambda(x.shape)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if alpha is None:
        alpha = np.full(n_modes, 1.0 / n_modes)
    else:
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape != (n_modes,):
            raise ValueError(
                f"alpha must have one weight per mode ({n_modes}), "
                f"got shape {alpha.shape}"
            )
        if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-9:
            raise ValueError("alpha weights must be non-negative and sum to 1")

    norm_x = frobenius(x)
    if norm_x == 0:
        zero = np.zeros_like(x)
        return RpcaResult(zero, zero.copy(), 0, 0.0, 0.0, True, lam, alpha)

    rho = 1e-2
    rho_cap = 1e6
    low = np.zeros_like(x)
    sparse = np.zeros_like(x)
    aux = [np.zeros_like(x) for _ in range(n_modes)]          # M_n = L
    dual_aux = [np.zeros_like(x) for _ in range(n_modes)]     # scaled duals
    dual_fit = np.zeros_like(x)                               # for X = L + S
    trace = []
    primal = dual = np.inf
    iterations = 0
    converged = False
    best = None  # (residual, low, sparse, primal, dual) of the best iterate

    for it in range(1, max_iters + 1):
        iterations = it
        for n in range(n_modes):
            target = unfold(low - dual_aux[n], n)
            aux[n] = fold(svt(target, alpha[n] / rho), n, x.shape)
        sparse = soft_threshold(x - low + dual_fit, lam / rho)

        low_prev = low
        low = (sum(m + d for m, d in zip(aux, dual_aux)) + x - sparse + dual_fit) / (
            n_modes + 1
        )

        fit_gap = x - low - sparse
        gaps = [m - low for m in aux]
        for n in range(n_modes):
            dual_aux[n] += gaps[n]
        dual_fit += fit_gap

        primal = np.sqrt(
            sum(float(np.sum(g**2)) for g in gaps) + float(np.sum(fit_gap**2))
        )
        dual = rho * np.sqrt(n_modes + 1) * frobenius(low - low_prev)

        if track_objective:
            trace.append(_objective(low, sparse, lam, alpha))

        if best is None or max(primal, dual) < best[0]:
            best = (max(primal, dual), low.copy(), sparse.copy(), primal, dual)

        if max(primal, dual) < tol * norm_x:
            converged = True
            break

        if primal > 10 * dual and rho * 1.5 <= rho_cap:
            rho *= 1.5
            for n in range(n_modes):
                dual_aux[n] /= 1.5
            dual_fit /= 1.5
        elif dual > 10 * primal:
            rho /= 1.5
            for n in range(n_modes):
                dual_aux[n] *= 1.5
            dual_fit *= 1.5

    if not converged and best is not None:
        _, low, sparse, primal, dual = best
    return RpcaResult(
        low_rank=low,
        sparse=sparse,
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        converged=converged,
        lam=lam,
        alpha=alpha,
        objective_trace=trace,
    )
