"""Convex robust tensor PCA: split a tensor into a low-rank part plus a
sparse part by ADMM.

The model minimizes ``sum_n alpha_n * ||L_(n)||_* + lambda * ||S||_1``
subject to ``X = L + S`` as a consensus ADMM: the N + 1 split variables,
``M_n`` per mode and ``X - S``, are tied to ``L``. Each mode split has the
penalty ``rho`` and the sparse split ``N * rho``, so the sparse split
weighs as much as the N mode splits together, as the two equal splits of
matrix RPCA do; this scaling moves the iterates, not the optimum, and
takes fewer iterations. It runs in its Douglas-Rachford form, whose whole
state is one stack ``w`` with ``w_n = L - U_n`` for the scaled dual
``U_n`` of split n. Each iteration thresholds the singular values of
mode n of ``w_n`` at ``alpha_n / rho`` (a mode of weight 0 is not
thresholded: its split is its state) and soft-thresholds the sparse part
``X - w_N`` at ``lambda / (N * rho)``. The duals start at zero and their
penalty-weighted sum stays zero, so the new ``L`` is half the mean of the
mode splits plus half of ``X - S``, and the state moves to
``w + (L_new - L) - (M - L_new)``. The dual residual is
``rho * sqrt(N + N^2) * ||L_new - L||``.

The SVT of a mode whose size ``I_n`` is at most the product of the
others comes from ``eigh`` of the ``I_n x I_n`` mode Gram ``Y_(n) Y_(n)^T``,
with no SVD. Its ``k`` kept singular vectors ``U`` and weights ``W`` give
the result as the rank-k product ``U (W U^T Y_(n))`` when ``2k <= I_n``,
and through the ``I_n x I_n`` matrix ``U W U^T`` otherwise. It falls back
to the exact :func:`~tenkit.linalg.svt_with_spectrum` on the unfolding
for a long-side mode, and when the threshold is below
``sqrt(eps) * sigma_max``, where a kept singular value could be lost in
the Gram's rounding. Outputs therefore agree with an all-SVD loop to
rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _mode_view, frobenius
from .decomp import _iterate
from .linalg import (
    GRAM_CUTOFF, _as_float64, _check_count, check_finite, soft_threshold, svt_with_spectrum
)

__all__ = ["RpcaResult", "trpca", "default_lambda"]


@dataclass
class RpcaResult:
    """Outcome of :func:`trpca`.

    ``low_rank + sparse`` reproduces the input up to the feasibility
    residual. The returned iterate is always the best one seen (lowest
    ``max(primal, dual)`` residual); for a converged solve that is the
    last one, and ``converged`` is False when the iteration cap was hit
    first. Both residuals are those of the returned iterate:
    ``primal_residual`` is the norm of every split's gap
    ``M_n - L`` and ``X - S - L``, and ``dual_residual`` is
    ``rho * sqrt(N + N^2) * ||L - L_prev||``, the dual step of N mode
    splits of penalty ``rho`` and one sparse split of ``N * rho``.
    ``objective_trace`` has one split-variable objective per iteration
    (see :func:`trpca`).
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
    shape = tuple(_check_count(s, f"size of mode {n}") for n, s in enumerate(shape))
    if not shape:
        raise ValueError(f"invalid shape {shape}")
    return float(1.0 / np.sqrt(max(shape)))


def _svt_view(a, tau: float, out) -> np.ndarray:
    """Write the SVT of the middle mode of the ``(pre, I, post)`` array
    ``a`` into ``out`` and return its kept spectrum ``s - tau``.

    The mode's fibers are the columns of ``f``: a view for the first or
    last mode, a transposed copy for an inner one. ``eigh`` of ``f f^T``
    gives the ``k`` kept singular vectors ``U`` and weights ``W``, and the
    result ``U W U^T f`` is taken as ``U (W U^T f)`` when ``2k <= I`` and
    as ``(U W U^T) f`` otherwise. A long side, or a threshold in the
    Gram's rounding, takes the exact SVD of ``f``.
    """
    pre, size, post = a.shape
    f = a.transpose(1, 0, 2).reshape(size, -1)
    if size <= pre * post:
        evals, u = np.linalg.eigh(f @ f.T)
        s = np.sqrt(np.maximum(evals, 0.0))
        if tau >= GRAM_CUTOFF * s[-1]:
            cut = np.searchsorted(s, tau, side="right")
            u, s = u[:, cut:], s[cut:]
            wu = u * (1.0 - tau / s)
            left, right = (u, wu.T @ f) if 2 * s.size <= size else (wu @ u.T, f)
            # np.dot: matmul took 3x as long for a k = 1 product into 20 x 400
            # (numpy 2.4, OpenBLAS 0.3.31, one thread)
            if pre == 1:
                np.dot(left, right, out=out[0])
            elif post == 1:
                np.dot(right.T, left.T, out=out[:, :, 0])
            else:
                out[...] = np.dot(left, right).reshape(size, pre, post).transpose(1, 0, 2)
            return s - tau
    m, s = svt_with_spectrum(f, tau)
    out[...] = m.reshape(size, pre, post).transpose(1, 0, 2)
    return s


def _admm_steps(x, lam, alpha):
    # trpca's ADMM: yields the best (residual, L, S, primal, dual) so far and the objective
    n_modes = x.ndim
    rho = 1e-2
    rho_cap = 1e6
    dual_scale = np.sqrt(n_modes + n_modes**2)
    # the state w_n = L - U_n and the split M_n of each split variable
    state = np.zeros((n_modes + 1, *x.shape))
    splits = np.empty_like(state)
    views = [(_mode_view(state[n], n), _mode_view(splits[n], n)) for n in range(n_modes)]
    low = np.zeros_like(x)
    best = (np.inf, None, None)

    while True:
        nuclear = 0.0
        for n, (w_n, m_n) in enumerate(views):
            if alpha[n]:
                nuclear += alpha[n] * _svt_view(w_n, alpha[n] / rho, m_n).sum()
            else:
                m_n[...] = w_n  # the SVT at threshold 0 is the identity
        sparse = soft_threshold(x - state[-1], lam / (n_modes * rho))
        np.subtract(x, sparse, out=splits[-1])

        low_prev = low
        low = (np.add.reduce(splits[:-1], axis=0) / n_modes + splits[-1]) * 0.5
        step = low - low_prev
        gaps = splits  # M - L_new, in place
        gaps -= low
        # w + (L_new - L) - (M - L_new)
        state -= gaps
        state += step
        primal = np.sqrt(np.vdot(gaps, gaps))
        dual = rho * dual_scale * np.sqrt(np.vdot(step, step))
        if max(primal, dual) < best[0]:
            best = (max(primal, dual), low, sparse, primal, dual)
        yield best, nuclear + lam * np.abs(sparse).sum()

        if primal > 10 * dual and rho * 1.5 <= rho_cap:
            c = 1.5
        elif dual > 10 * primal:
            c = 1 / 1.5
        else:
            continue
        # rho * c scales the duals by 1 / c: w = L + (w - L) / c
        rho *= c
        state -= low
        state /= c
        state += low


def trpca(
    x,
    lam: float | None = None,
    alpha=None,
    max_iters: int = 1000,
    tol: float = 1e-7,
) -> RpcaResult:
    """Robust tensor PCA via consensus ADMM; the module docstring gives
    the splits, the state and each iteration's updates.

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
        Iteration cap (at least 1); hitting it gives ``converged=False``.
        The returned iterate is always the best one seen (lowest
        ``max(primal, dual)`` residual); for a converged solve that is
        the last one, the first below ``tol * ||X||``.
    tol : float
        Positive; stop when ``max(primal, dual)`` residual drops below
        ``tol * ||X||``.

    The objective trace holds the split-variable objective
    ``sum_n alpha_n * ||M_n||_* + lambda * ||S||_1`` of every iteration,
    summed from the spectra that SVT shrinks (no extra SVD); at
    feasibility (every ``M_n = L``) it is the model objective.
    """
    x = check_finite(x, "trpca")
    n_modes = x.ndim
    max_iters = _check_count(max_iters, "max_iters")
    if lam is None:
        lam = default_lambda(x.shape)
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if alpha is None:
        alpha = np.full(n_modes, 1.0 / n_modes)
    else:
        alpha = _as_float64(alpha, "alpha")
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

    ((_, low, sparse, primal, dual), _), info = _iterate(
        _admm_steps(x, lam, alpha),
        lambda step: (step[0][0], step[1]),
        lambda trace: trace[-1][0] < tol * norm_x,
        max_iters,
    )
    trace = [objective for _, objective in info["fits"]]
    return RpcaResult(
        low, sparse, info["iterations"], primal, dual, info["converged"], lam, alpha, trace
    )
