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
from .linalg import check_finite, soft_threshold, svt_with_spectrum

__all__ = ["RpcaResult", "trpca", "default_lambda"]


@dataclass
class RpcaResult:
    """Outcome of :func:`trpca`.

    ``low_rank + sparse`` reproduces the input up to the feasibility
    residual. ``converged`` is False when the iteration cap was hit, in
    which case the best iterate seen (lowest combined residual) is
    returned instead of the last one. ``objective_trace`` has one
    split-variable objective per iteration (see :func:`trpca`).
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


def trpca(
    x,
    lam: float | None = None,
    alpha=None,
    max_iters: int = 1000,
    tol: float = 1e-7,
) -> RpcaResult:
    """Robust tensor PCA via ADMM.

    Parameters
    ----------
    x : array
        Input tensor; every entry must be finite.
    lam : float, optional
        Sparsity weight; defaults to :func:`default_lambda`.
    alpha : sequence, optional
        Non-negative per-mode weights summing to 1; defaults to
        ``1/N`` each.
    max_iters : int
        Iteration cap (at least 1); hitting it returns the best iterate
        seen (lowest ``max(primal, dual)`` residual) with
        ``converged=False``.
    tol : float
        Stop when ``max(primal, dual)`` residual drops below
        ``tol * ||X||``.

    The objective trace holds the split-variable objective
    ``sum_n alpha_n * ||M_n||_* + lambda * ||S||_1`` of every iteration,
    summed from the spectra that SVT shrinks (no extra SVD); at
    feasibility (every ``M_n = L``) it is the model objective.
    """
    x = check_finite(x, "trpca")
    n_modes = x.ndim
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
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
    # scaled duals: one per M_n = L, the last for X = L + S
    duals = np.zeros((n_modes + 1, *x.shape))
    trace = []
    # (residual, low, sparse, primal, dual) of the best iterate; low and
    # sparse are rebound every iteration, never written in place
    best = None

    for iterations in range(1, max_iters + 1):
        shrunk = [  # M_n and its spectrum, tied to L
            svt_with_spectrum(unfold(low - duals[n], n), alpha[n] / rho)
            for n in range(n_modes)
        ]
        aux = [fold(m, n, x.shape) for n, (m, _) in enumerate(shrunk)]
        nuclear = sum(a * s.sum() for a, (_, s) in zip(alpha, shrunk))
        sparse = soft_threshold(x - low + duals[-1], lam / rho)

        low_prev = low
        low = (
            sum(m + d for m, d in zip(aux, duals)) + x - sparse + duals[-1]
        ) / (n_modes + 1)

        gaps = [m - low for m in aux] + [x - low - sparse]
        duals += gaps
        primal = np.sqrt(sum(float(np.sum(g**2)) for g in gaps))
        dual = rho * np.sqrt(n_modes + 1) * frobenius(low - low_prev)
        trace.append(nuclear + lam * np.abs(sparse).sum())

        if best is None or max(primal, dual) < best[0]:
            best = (max(primal, dual), low, sparse, primal, dual)
        if max(primal, dual) < tol * norm_x:
            break

        if primal > 10 * dual and rho * 1.5 <= rho_cap:
            rho *= 1.5
            duals /= 1.5
        elif dual > 10 * primal:
            rho /= 1.5
            duals *= 1.5

    converged = bool(max(primal, dual) < tol * norm_x)
    if not converged:
        _, low, sparse, primal, dual = best
    return RpcaResult(
        low, sparse, iterations, primal, dual, converged, lam, alpha, trace
    )
