"""Dense tensor algebra: unfolding, multilinear products, and norms.

Tensors are plain ``numpy.ndarray`` values, float64, in C (row-major)
order. Modes are numbered from 0, like numpy axes, so the mode-0
unfolding of a matrix is the matrix itself.

The unfolding convention is the row-major one: element
``(i_0, ..., i_{N-1})`` of a tensor with shape ``(I_0, ..., I_{N-1})``
lands in row ``i_n`` and column
``sum_{k != n} i_k * prod_{m > k, m != n} I_m``
of the mode-``n`` unfolding. Equivalently, ``unfold(T, n)`` is
``moveaxis(T, n, 0).reshape(I_n, -1)``.

No function broadcasts: shape mismatches raise ``ValueError``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import linalg

__all__ = [
    "unfold",
    "fold",
    "vectorize",
    "kronecker",
    "khatri_rao",
    "mttkrp",
    "hadamard",
    "outer",
    "mode_n_product",
    "multi_mode_product",
    "mode_n_vec_product",
    "inner",
    "generalized_inner",
    "mode_n_conv1d",
    "norm_lp",
    "norm_l0",
    "frobenius",
    "schatten",
    "nuclear",
]


def _as_tensor(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_mode(tensor: np.ndarray, mode: int) -> None:
    if not 0 <= mode < tensor.ndim:
        raise ValueError(
            f"mode {mode} out of range for order-{tensor.ndim} tensor"
        )


def unfold(tensor, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding (matricization) of a tensor.

    Returns the ``I_mode x prod(other dims)`` matrix whose columns are
    the mode-``mode`` fibers, ordered row-major over the remaining
    indices (see module docstring for the exact index map).
    """
    tensor = _as_tensor(tensor)
    _check_mode(tensor, mode)
    rest = tensor.shape[:mode] + tensor.shape[mode + 1 :]
    cols = int(np.prod(rest, dtype=np.int64))  # -1 fails when I_mode is 0
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], cols)


def fold(matrix, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild a tensor of ``shape`` from its
    mode-``mode`` unfolding. Exact (bit-level) roundtrip."""
    matrix = _as_tensor(matrix)
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    expected = (shape[mode], int(np.prod(rest, dtype=np.int64)))
    if matrix.ndim != 2 or matrix.shape != expected:
        raise ValueError(
            f"cannot fold matrix of shape {matrix.shape} into shape "
            f"{shape} at mode {mode}; expected {expected}"
        )
    return np.moveaxis(matrix.reshape((shape[mode],) + rest), 0, mode)


def vectorize(tensor) -> np.ndarray:
    """Row-major flattening of a tensor into a vector."""
    return _as_tensor(tensor).reshape(-1)


def kronecker(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kronecker expects two matrices")
    return np.kron(a, b)


def khatri_rao(matrices) -> np.ndarray:
    """Column-wise Kronecker product of matrices sharing a column count.

    Column ``r`` of the result is the Kronecker product of the ``r``-th
    columns of the inputs, taken left to right.
    """
    mats = [_as_tensor(m) for m in matrices]
    if not mats:
        raise ValueError("khatri_rao needs at least one matrix")
    cols = mats[0].shape[1] if mats[0].ndim == 2 else -1
    for m in mats:
        if m.ndim != 2 or m.shape[1] != cols:
            raise ValueError(
                "khatri_rao inputs must be matrices with equal column counts"
            )

    def kr2(a, b):
        return np.einsum("ir,jr->ijr", a, b).reshape(-1, cols)

    return reduce(kr2, mats)


def mttkrp(tensor, matrices: dict, ranked: bool = False) -> np.ndarray:
    """Contract each mode ``k`` in ``matrices`` with ``matrices[k]``,
    column by column: element ``(..., r)`` sums ``tensor[...] *
    prod_k matrices[k][i_k, r]``, and the other modes stay, in order,
    followed by the rank axis. All modes but ``n`` give
    ``unfold(tensor, n) @ khatri_rao(others)`` without the Khatri-Rao
    matrix. With ``ranked=True`` the tensor already ends in the rank
    axis (a partial result). Without it, the first contraction is one
    GEMM, on the last or the first axis when either is listed, so a
    C-ordered tensor is not copied. When that end axis is smaller than
    the rank, the GEMM takes the whole run of listed axes at that end,
    against their Khatri-Rao product, rather than writing a partial that
    holds the run's other axes times the rank.
    """
    tensor = _as_tensor(tensor)
    mats = {k: _as_tensor(m) for k, m in matrices.items()}
    rank = next(iter(mats.values())).shape[-1] if mats else None
    for k, m in mats.items():
        if not 0 <= k < tensor.ndim - ranked or m.shape != (tensor.shape[k], rank) or (
            ranked and tensor.shape[-1] != rank
        ):
            raise ValueError(
                f"matrix of shape {m.shape} does not fit mode {k} of a "
                f"{'ranked ' if ranked else ''}tensor of shape {tensor.shape}"
            )
    if mats and not ranked:
        last = tensor.ndim - 1
        n = last if last in mats else min(mats)
        run = [n]
        if tensor.shape[n] < rank and n in (0, last):
            # an end axis smaller than the rank: take the whole run of
            # listed axes at that end, so the partial does not grow
            step = -1 if n == last else 1
            while run[-1] + step in mats:
                run.append(run[-1] + step)
            run.sort()
        u = mats.pop(n) if len(run) == 1 else khatri_rao([mats.pop(k) for k in run])
        rest = [s for k, s in enumerate(tensor.shape) if k not in run] + [rank]
        if n == 0:  # U.T @ x.reshape(rows, -1), taken transposed
            tensor = tensor.reshape(u.shape[0], -1).T @ u
        else:  # a view, not a copy, when the run ends at the last axis
            tensor = np.moveaxis(tensor, n, -1).reshape(-1, u.shape[0]) @ u
        tensor = tensor.reshape(rest)
        mats = {k - sum(j < k for j in run): m for k, m in mats.items()}
    if mats:
        axes = list(range(tensor.ndim))
        operands = [tensor, axes]
        for k, m in mats.items():
            operands += [m, [k, axes[-1]]]
        tensor = np.einsum(*operands, [a for a in axes if a not in mats])
    return tensor


def hadamard(a, b) -> np.ndarray:
    """Element-wise product; shapes must match exactly."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def outer(vectors) -> np.ndarray:
    """Outer product of one or more vectors: a rank-one tensor with
    element ``(i_0, ..., i_{N-1}) = prod_n v_n[i_n]``."""
    vecs = [_as_tensor(v) for v in vectors]
    if not vecs:
        raise ValueError("outer needs at least one vector")
    for v in vecs:
        if v.ndim != 1:
            raise ValueError("outer expects vectors")
    return reduce(np.multiply.outer, vecs)


def mode_n_product(tensor, matrix, mode: int) -> np.ndarray:
    """n-mode product ``T x_mode M``: contracts mode ``mode`` of the
    tensor with the columns of ``matrix``.

    ``matrix`` must have ``T.shape[mode]`` columns; mode ``mode`` of the
    result has ``matrix.shape[0]`` entries. Satisfies
    ``unfold(mode_n_product(T, M, n), n) == M @ unfold(T, n)``.

    One GEMM on ``T`` viewed as ``pre x I_mode x post`` (a batched one
    over the ``pre`` slabs for an inner mode), with no unfolding and no
    transpose: the result is C-contiguous.
    """
    tensor, matrix = _as_tensor(tensor), _as_tensor(matrix)
    _check_mode(tensor, mode)
    if matrix.ndim != 2:
        raise ValueError("mode_n_product expects a matrix")
    if matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns but mode {mode} has "
            f"size {tensor.shape[mode]}"
        )
    shape = tensor.shape
    pre = int(np.prod(shape[:mode], dtype=np.int64))
    post = int(np.prod(shape[mode + 1 :], dtype=np.int64))
    if post == 1:
        out = tensor.reshape(pre, shape[mode]) @ matrix.T
    else:
        out = matrix @ tensor.reshape(pre, shape[mode], post)
    return out.reshape(shape[:mode] + (matrix.shape[0],) + shape[mode + 1 :])


def multi_mode_product(tensor, matrices, modes=None, transpose=False) -> np.ndarray:
    """Chain of n-mode products, one matrix per listed mode.

    With ``transpose=True`` each matrix is applied transposed, which is
    the usual projection onto factor subspaces.
    """
    tensor = _as_tensor(tensor)
    matrices = list(matrices)
    if modes is None:
        modes = range(len(matrices))
    out = tensor
    for mode, matrix in zip(modes, matrices):
        m = _as_tensor(matrix)
        out = mode_n_product(out, m.T if transpose else m, mode)
    return out


def mode_n_vec_product(tensor, vector, mode: int) -> np.ndarray:
    """Contract mode ``mode`` with a vector; the order drops by one."""
    tensor, vector = _as_tensor(tensor), _as_tensor(vector)
    _check_mode(tensor, mode)
    if vector.ndim != 1 or vector.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"vector of length {vector.shape} does not match mode {mode} "
            f"of size {tensor.shape[mode]}"
        )
    return np.tensordot(vector, tensor, axes=([0], [mode]))


def inner(x, y) -> float:
    """Inner product of two same-shaped tensors (sum of element products)."""
    x, y = _as_tensor(x), _as_tensor(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.dot(x.reshape(-1), y.reshape(-1)))


def generalized_inner(x, y, n_shared: int) -> np.ndarray:
    """Generalized inner product along ``n_shared`` modes.

    ``x`` has shape ``(D_x, I_1, ..., I_N)`` and ``y`` has shape
    ``(I_1, ..., I_N, D_y)``; the trailing ``N = n_shared`` modes of
    ``x`` are contracted with the leading ``N`` modes of ``y``, giving a
    ``D_x x D_y`` matrix.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if n_shared < 1:
        raise ValueError("n_shared must be at least 1")
    if x.ndim != n_shared + 1 or y.ndim != n_shared + 1:
        raise ValueError(
            "generalized_inner expects one free mode on each argument"
        )
    if x.shape[1:] != y.shape[:-1]:
        raise ValueError(
            f"shared modes disagree: {x.shape[1:]} vs {y.shape[:-1]}"
        )
    return np.tensordot(
        x, y, axes=(list(range(1, n_shared + 1)), list(range(n_shared)))
    )


def _correlate(x, kernel, axes, product) -> np.ndarray:
    # valid correlation along ``axes`` with the trailing kernel modes: the
    # sum over offsets o of product(kernel[..., o], x shifted by o), in
    # offset order and in place after the first; callers check extents
    ks = kernel.shape[kernel.ndim - len(axes) :]
    window = [slice(None)] * x.ndim
    out = 0.0
    for offset in np.ndindex(*ks):
        for axis, o, k in zip(axes, offset, ks):
            window[axis] = slice(o, o + x.shape[axis] - k + 1)
        out += product(kernel[(..., *offset)], x[tuple(window)])
    return out


def mode_n_conv1d(tensor, kernel, mode: int) -> np.ndarray:
    """Valid 1-D cross-correlation along one mode.

    ``out[..., i, ...] = sum_k kernel[k] * T[..., i + k, ...]`` with the
    output extent ``I_mode - K + 1`` (no padding).
    """
    tensor, kernel = _as_tensor(tensor), _as_tensor(kernel)
    _check_mode(tensor, mode)
    if kernel.ndim != 1:
        raise ValueError("kernel must be a vector")
    k = kernel.shape[0]
    if k == 0:
        raise ValueError(f"empty kernel for mode {mode}")
    if k > tensor.shape[mode]:
        raise ValueError(
            f"kernel of length {k} longer than mode {mode} "
            f"(size {tensor.shape[mode]})"
        )
    return _correlate(tensor, kernel, (mode,), np.multiply)


def norm_lp(tensor, p: float) -> float:
    """Element-wise l_p norm, ``p >= 1``."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = _as_tensor(tensor)
    if p == 2:
        return float(np.sqrt(np.vdot(x, x)))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def norm_l0(tensor) -> int:
    """Number of nonzero elements (l_0 pseudo-norm)."""
    return int(np.count_nonzero(_as_tensor(tensor)))


def frobenius(tensor) -> float:
    """Frobenius norm; identical to ``norm_lp(tensor, 2)``."""
    return norm_lp(tensor, 2.0)


def schatten(matrix, p: float) -> float:
    """Schatten-p norm: the l_p norm of the singular values."""
    matrix = _as_tensor(matrix)
    if matrix.ndim != 2:
        raise ValueError("schatten norm is defined for matrices")
    return norm_lp(linalg.svd(matrix).S, p)


def nuclear(matrix) -> float:
    """Nuclear norm: sum of singular values (Schatten-1)."""
    return schatten(matrix, 1.0)
