"""Matrix kernels used by the decompositions.

Thin, deterministic wrappers over LAPACK via ``numpy.linalg``, plus the
proximal operators (soft thresholding, singular value thresholding) and
a minimum-norm least-squares solve. ``left_singular_basis`` takes the
leading left singular subspace from ``eigh`` of the short-side Gram
``A @ A.T``, with the LAPACK SVD as its fallback; ``svd``, ``svt`` and
``lstsq`` are exact LAPACK paths.

Determinism: ``svd`` post-processes the LAPACK output with a fixed sign
convention (in each column of U the largest-magnitude entry is made
non-negative, first such entry on ties, V adjusted to match), so
repeated calls on identical input are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SVDResult",
    "check_finite",
    "column_signs",
    "svd",
    "truncated_svd",
    "soft_threshold",
    "svt",
    "svt_with_spectrum",
    "lstsq",
]

# relative cutoff for treating singular values as zero in pseudo-inverses
PINV_CUTOFF = 1e-12
# smallest singular value, relative to the largest, that a Gram's eigenpairs
# still resolve: sqrt(eps) = 2**-26, so its square is eps exactly
GRAM_CUTOFF = np.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SVDResult:
    """Thin SVD ``A = U @ diag(S) @ V.T``.

    ``U`` and ``V`` have orthonormal columns and ``S`` is non-negative,
    sorted descending.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return self.S.shape[0]


def check_finite(a, name: str) -> np.ndarray:
    """``a`` as float64; ``ValueError`` naming ``name`` and the count of
    NaN or infinite entries if there are any."""
    a = np.asarray(a, dtype=np.float64)
    bad = a.size - np.count_nonzero(np.isfinite(a))
    if bad:
        raise ValueError(
            f"{name} requires finite entries ({bad} of {a.size} are not)"
        )
    return a


def column_signs(u) -> np.ndarray:
    """Per-column signs (+1 or -1) that make the largest-magnitude entry
    of each column of ``u`` non-negative, the first such entry on ties.

    Multiplying paired factor columns (U and V of an SVD, or the factors
    of a Kruskal tensor) by these signs fixes their sign ambiguity.
    """
    u = np.asarray(u)
    # np.argmax picks the first maximal entry, which breaks ties by
    # lowest row index.
    idx = np.argmax(np.abs(u), axis=0)
    return np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def svd(a) -> SVDResult:
    """Deterministic thin SVD of a real matrix.

    Raises ``ValueError`` on non-finite input; LAPACK convergence
    failures propagate as ``numpy.linalg.LinAlgError``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("svd expects a matrix")
    check_finite(a, "svd")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    signs = column_signs(u)
    return SVDResult(U=u * signs, S=s, V=vh.T * signs)


def truncated_svd(a, rank: int) -> SVDResult:
    """Leading-``rank`` part of the SVD (the best rank-``rank``
    approximation, by Eckart-Young)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("truncated_svd expects a matrix")
    k = min(a.shape)
    if not 1 <= rank <= k:
        raise ValueError(f"rank must be in [1, {k}], got {rank}")
    full = svd(a)
    return SVDResult(
        U=full.U[:, :rank], S=full.S[:rank], V=full.V[:, :rank]
    )


def left_singular_basis(a, rank: int) -> np.ndarray:
    """First ``rank`` left singular vectors, padded with an orthonormal
    completion when ``rank`` exceeds ``min(a.shape)``, sign-fixed with
    :func:`column_signs`. Requires ``rank <= a.shape[0]``.

    The basis is the leading eigenvectors of the short-side Gram
    ``A @ A.T``, whose trailing eigenvectors are the completion (Halko,
    Martinsson & Tropp 2011). When a kept singular value is below
    ``sqrt(eps) * s_max``, where the Gram's eigenvectors lose accuracy,
    and for a tall ``a`` with ``rank <= a.shape[1]``, whose Gram would be
    the long side, the basis comes from the LAPACK SVD instead.
    """
    a = check_finite(a, "left_singular_basis")
    rows, cols = a.shape
    if not 1 <= rank <= rows:
        raise ValueError(f"rank must be in [1, {rows}], got {rank}")
    if not rank <= cols < rows:
        lam, v = np.linalg.eigh(a @ a.T)
        if lam[-min(rank, cols)] >= GRAM_CUTOFF**2 * lam[-1]:
            u = v[:, : -rank - 1 : -1]
            return u * column_signs(u)
    if rank > cols:  # zero columns make LAPACK's thin U the completion
        a = np.pad(a, ((0, 0), (0, rank - cols)))
    return svd(a).U[:, :rank]


def soft_threshold(x, tau: float) -> np.ndarray:
    """Element-wise shrinkage ``sign(x) * max(|x| - tau, 0)``."""
    if not tau >= 0:
        raise ValueError(f"threshold must be non-negative, got {tau}")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def svt(a, tau: float) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum.

    This is the proximal operator of ``tau * ||.||_*``, i.e. the unique
    minimizer of ``0.5 * ||X - A||_F^2 + tau * ||X||_*``.
    """
    return svt_with_spectrum(a, tau)[0]


def svt_with_spectrum(a, tau: float) -> tuple:
    """:func:`svt` and its result's spectrum ``max(s - tau, 0)``, whose
    sum is the result's nuclear norm."""
    if not tau >= 0:
        raise ValueError(f"threshold must be non-negative, got {tau}")
    r = svd(a)
    s = np.maximum(r.S - tau, 0.0)
    return (r.U * s) @ r.V.T, s


def lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``A @ X = B``.

    Computed via the SVD pseudo-inverse with singular values below
    ``1e-12 * sigma_max`` treated as zero, so rank-deficient and even
    all-zero ``A`` are handled (returning the minimum-norm solution).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("lstsq expects matrices")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"row mismatch: A has {a.shape[0]} rows, B has {b.shape[0]}"
        )
    r = svd(a)
    cutoff = PINV_CUTOFF * (r.S[0] if r.S.size else 0.0)
    inv = np.where(r.S > cutoff, 1.0 / np.where(r.S > 0, r.S, 1.0), 0.0)
    return (r.V * inv) @ (r.U.T @ b)
