"""Matrix kernels used by the decompositions.

Thin, deterministic wrappers over LAPACK via ``numpy.linalg``, plus the
proximal operators (soft thresholding, singular value thresholding) and
a minimum-norm least-squares solve. ``left_singular_basis`` takes the
leading left singular subspace from ``eigh`` of the short-side Gram
``A @ A.T``, with the LAPACK SVD as its fallback, and gives every
truncated basis in ``decomp``; ``svd``, ``svt`` and ``lstsq`` are exact
LAPACK paths.

Determinism: ``svd`` post-processes the LAPACK output with a fixed sign
convention (in each column of U the largest-magnitude entry is made
non-negative, first such entry on ties, V adjusted to match), so
repeated calls on identical input are bit-identical.

Input gate: every public entry point of the package admits its array
arguments through ``_as_float64``, which casts bool, integer and float
dtypes to float64 and refuses any other dtype (complex, object, string,
datetime, void) with ``ValueError`` naming the argument or its caller,
its counts through ``_check_count`` and its mode indices through
``_check_mode``: integers, never bools or floats, and a mode in
``[0, N)``. A list of factor matrices tied by a column count (CP,
Tucker, MPCA, separable kernels, contraction layers, polynomial
networks) goes through ``_check_matrices``, which refuses an entry that
is not a matrix or has the wrong column count, naming ``name[n]``.
The solvers' gate ``check_finite`` also returns C order, so no solver
result depends on the memory layout of its input.
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


def _as_float64(a, name: str) -> np.ndarray:
    """``a`` as a float64 array if its dtype is bool, integer or float
    (no copy when it already is float64); ``ValueError`` naming ``name``
    and the dtype otherwise. A plain float64 cast would drop an imaginary
    part with only a warning and parse strings as numbers."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} requires real entries, got {a.dtype}")
    return a.astype(np.float64, copy=False)


def _check_count(value, name: str, least: int = 1) -> int:
    """``value`` as an ``int`` if it is an integer, numpy's included, of
    at least ``least``; ``ValueError`` naming ``name`` otherwise. A bool is
    not a count, and a float is refused: ``int()`` would truncate 2.5 and
    overflow on inf."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int or value < least:
        kind = "a positive" if least else "a non-negative"
        raise ValueError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def _check_mode(mode, order, name: str = "mode") -> int:
    """``mode`` as an ``int`` if it is an integer, numpy's included, in
    ``[0, order)``; ``ValueError`` naming ``name`` otherwise. A bool is not
    a mode, and a float is refused rather than indexing as the integer it
    rounds to or failing with ``TypeError``. With ``order=None`` only the
    type is checked, for a caller that reports the range itself."""
    if not isinstance(mode, (int, np.integer)) or isinstance(mode, bool):
        raise ValueError(f"{name} must be an integer, got {mode!r}")
    if order is not None and not 0 <= mode < order:
        raise ValueError(f"{name} {mode} out of range for order-{order} tensor")
    return int(mode)


def _check_matrices(mats, cols, name: str) -> list:
    """The entries of ``mats`` as float64 matrices (see
    :func:`_as_float64`, cast under ``name``), each with ``cols`` columns:
    one ``int`` for every entry, one count per entry (which also fixes
    the number of entries) or ``None`` for any; ``ValueError`` naming
    ``name[n]`` and its shape otherwise."""
    mats = [_as_float64(m, name) for m in mats]
    if cols is None or isinstance(cols, int):
        cols = [cols] * len(mats)
    elif len(cols) != len(mats):
        raise ValueError(f"{name} must have length {len(cols)}, got {len(mats)}")
    for n, (m, c) in enumerate(zip(mats, cols)):
        if m.ndim != 2 or c is not None and m.shape[1] != c:
            want = "be a matrix" if c is None else f"have {c} columns"
            raise ValueError(f"{name}[{n}] must {want}, got shape {m.shape}")
    return mats


def check_finite(a, name: str) -> np.ndarray:
    """``a`` as a C-ordered float64 array (see :func:`_as_float64`), so
    that a solver's result does not depend on the memory layout of its
    input; ``ValueError`` naming ``name`` if it is not real, or with the
    count of NaN or infinite entries if there are any."""
    a = np.asarray(_as_float64(a, name), order="C")
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
    u = _as_float64(u, "column_signs")
    # np.argmax picks the first maximal entry, which breaks ties by
    # lowest row index.
    idx = np.argmax(np.abs(u), axis=0)
    return np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def svd(a) -> SVDResult:
    """Deterministic thin SVD of a real matrix.

    Raises ``ValueError`` on non-finite input; LAPACK convergence
    failures propagate as ``numpy.linalg.LinAlgError``.
    """
    a = check_finite(a, "svd")
    if a.ndim != 2:
        raise ValueError("svd expects a matrix")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    signs = column_signs(u)
    return SVDResult(U=u * signs, S=s, V=vh.T * signs)


def truncated_svd(a, rank: int) -> SVDResult:
    """Leading-``rank`` part of the SVD (the best rank-``rank``
    approximation, by Eckart-Young)."""
    a = _as_float64(a, "truncated_svd")
    if a.ndim != 2:
        raise ValueError("truncated_svd expects a matrix")
    k = min(a.shape)
    if _check_count(rank, "rank") > k:
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
    if _check_count(rank, "rank") > rows:
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
    """Element-wise shrinkage ``sign(x) * max(|x| - tau, 0)``, computed as
    ``x - clip(x, -tau, tau)``."""
    if not tau >= 0:
        raise ValueError(f"threshold must be non-negative, got {tau}")
    x = _as_float64(x, "soft_threshold")
    return x - np.clip(x, -tau, tau)


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
    r = svd(_as_float64(a, "svt_with_spectrum"))
    s = np.maximum(r.S - tau, 0.0)
    return (r.U * s) @ r.V.T, s


def lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``A @ X = B``.

    Computed via the SVD pseudo-inverse with singular values below
    ``1e-12 * sigma_max`` treated as zero, so rank-deficient and even
    all-zero ``A`` are handled (returning the minimum-norm solution).
    """
    a, b = _as_float64(a, "lstsq"), _as_float64(b, "lstsq")
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
