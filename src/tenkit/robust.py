"""Convex robust tensor PCA: split a tensor into a low-rank part plus a
sparse part by ADMM.

The model minimizes ``sum_n alpha_n * ||L_(n)||_* + lambda * ||S||_1``
subject to ``X = L + S``, with one auxiliary low-rank variable per mode
tied to ``L``. Each iteration applies singular value thresholding to
every mode unfolding (threshold ``alpha_n / rho``), soft thresholding to
the sparse part (threshold ``lambda / rho``), an averaging update for
``L``, and dual ascent.

The SVT of a mode whose size ``I_n`` is at most the product of the
others comes from ``eigh`` of the ``I_n x I_n`` mode Gram ``Y_(n) Y_(n)^T``,
applied to ``Y`` as a mode-n product, with no unfolding and no SVD.
It falls back to the exact :func:`~tenkit.linalg.svt_with_spectrum` on
the unfolding for a long-side mode, and when the threshold is below
``sqrt(eps) * sigma_max``, where a kept singular value could be lost in
the Gram's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import fold, frobenius, mode_n_product, unfold
from .linalg import GRAM_CUTOFF, check_finite, soft_threshold, svt_with_spectrum

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


def default_lambda(shape) -> float:
    """Sparsity weight heuristic ``1 / sqrt(max mode size)``."""
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise ValueError(f"invalid shape {shape}")
    return float(1.0 / np.sqrt(max(shape)))


def _svt_mode(y, n: int, tau: float) -> tuple:
    """``fold(svt_with_spectrum(unfold(y, n), tau), n, y.shape)``: the SVT
    of mode ``n`` and its spectrum, from the mode Gram when that is the
    short side and the threshold is well above its rounding."""
    if y.shape[n] ** 2 <= y.size:
        others = [m for m in range(y.ndim) if m != n]
        lam, u = np.linalg.eigh(np.tensordot(y, y, axes=(others, others)))
        s = np.sqrt(np.maximum(lam, 0.0))
        if tau >= GRAM_CUTOFF * s[-1]:
            keep = s > tau
            u, s = u[:, keep], s[keep]
            return mode_n_product(y, (u * (1.0 - tau / s)) @ u.T, n), s - tau
    m, s = svt_with_spectrum(unfold(y, n), tau)
    return fold(m, n, y.shape), s


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
        Positive, finite sparsity weight; defaults to :func:`default_lambda`.
    alpha : sequence, optional
        Non-negative per-mode weights summing to 1; defaults to
        ``1/N`` each.
    max_iters : int
        Iteration cap (at least 1); hitting it returns the best iterate
        seen (lowest ``max(primal, dual)`` residual) with
        ``converged=False``.
    tol : float
        Positive; stop when ``max(primal, dual)`` residual drops below
        ``tol * ||X||``.

    Each mode's SVT is taken from ``eigh`` of its mode Gram, with no
    unfolding and no SVD, except on a mode longer than the product of
    the others or when the threshold is below ``sqrt(eps)`` times the
    largest singular value; those two cases take the exact SVD of the
    unfolding. Outputs therefore agree with an all-SVD loop to rounding,
    not bit for bit.

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
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if alpha is None:
        alpha = np.full(n_modes, 1.0 / n_modes)
    else:
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape != (n_modes,):
            raise ValueError(
                f"alpha must have one weight per mode ({n_modes}), "
                f"got shape {alpha.shape}"
            )
        if not (np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= 1e-9):
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
            _svt_mode(low - duals[n], n, alpha[n] / rho)
            for n in range(n_modes)
        ]
        aux = [m for m, _ in shrunk]
        nuclear = sum(a * s.sum() for a, (_, s) in zip(alpha, shrunk))
        sparse = soft_threshold(x - low + duals[-1], lam / rho)

        low_prev = low
        low = (
            sum(m + d for m, d in zip(aux, duals)) + x - sparse + duals[-1]
        ) / (n_modes + 1)

        gaps = [m - low for m in aux] + [x - low - sparse]
        duals += gaps
        primal = np.sqrt(sum(float(np.vdot(g, g)) for g in gaps))
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
