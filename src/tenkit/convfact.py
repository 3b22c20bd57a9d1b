"""Multichannel convolution and its factorized pipelines.

The reference operation is valid-extent, stride-1 cross-correlation of
a ``C x D_1 x ... x D_N`` input with a ``T x C x K_1 x ... x K_N``
kernel. Factorizing the kernel turns the convolution into a pipeline of
1x1 (channel) contractions and cheap depthwise / small convolutions:

* Separable form: 1x1 conv down to the rank, one depthwise 1-D conv
  per spatial mode, 1x1 conv up to the output channels, with an
  explicit component-weight vector; adding one more 1-D factor
  transduces it to an extra dimension.
* Kruskal form: the 2-D separable form with unit weights.
* Tucker form: 1x1 conv down, one regular (small) convolution with the
  spatial factors absorbed into the core, 1x1 conv up.

Every pipeline is numerically equivalent to the direct convolution with
the kernel reconstructed from its factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _correlate, mode_n_product, multi_mode_product
from .decomp import DecompOptions, TuckerTensor, cp_als, tucker_hooi

__all__ = [
    "KruskalConvKernel",
    "TuckerConvKernel",
    "SeparableConvKernel",
    "conv_nd_direct",
    "conv2d_direct",
    "conv1x1",
    "kruskal_conv2d",
    "tucker_conv2d",
    "separable_convnd",
    "transduce",
    "decompose_kernel",
    "direct_multiply_count",
    "kruskal_multiply_count",
]

# einsum subscript pool; 't', 'c', 'r' are reserved for channels/rank
_LETTERS = "abdefghijklmnopq"


@dataclass
class TuckerConvKernel:
    """Tucker form of a 4th-order conv kernel: core plus 4 factors."""

    tucker: TuckerTensor

    def __post_init__(self):
        if self.tucker.core.ndim != 4:
            raise ValueError("Tucker conv kernel needs a 4th-order core")

    def reconstruct(self) -> np.ndarray:
        return self.tucker.to_tensor()

    def param_count(self) -> int:
        return int(
            self.tucker.core.size + sum(f.size for f in self.tucker.factors)
        )


@dataclass
class SeparableConvKernel:
    """Fully separable form of an N-D conv kernel.

    ``weights`` holds the per-component scales, ``u_out``/``u_in`` the
    channel factors, and ``spatial[i]`` the ``K_i x R`` bank of 1-D
    kernels for spatial mode ``i``.
    """

    weights: np.ndarray
    u_out: np.ndarray
    u_in: np.ndarray
    spatial: list

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.u_out = np.asarray(self.u_out, dtype=np.float64)
        self.u_in = np.asarray(self.u_in, dtype=np.float64)
        self.spatial = [np.asarray(m, dtype=np.float64) for m in self.spatial]
        r = self.weights.shape[0]
        mats = [self.u_out, self.u_in, *self.spatial]
        if any(m.ndim != 2 or m.shape[1] != r for m in mats):
            raise ValueError("all separable factors must share the rank")

    @property
    def rank(self) -> int:
        return self.weights.shape[0]

    def reconstruct(self) -> np.ndarray:
        letters = _LETTERS[: len(self.spatial)]
        spec = "r,tr,cr," + ",".join(c + "r" for c in letters) + "->tc" + letters
        mats = [self.weights, self.u_out, self.u_in, *self.spatial]
        return np.einsum(spec, *mats, optimize=True)

    def param_count(self) -> int:
        mats = [self.weights, self.u_out, self.u_in, *self.spatial]
        return int(sum(m.size for m in mats))


class KruskalConvKernel(SeparableConvKernel):
    """Rank-R Kruskal form of a 4th-order conv kernel: the 2-D separable
    kernel with unit component weights.

    Factor columns are indexed by the CP rank: ``u_out`` is ``T x R``,
    ``u_in`` is ``C x R``, ``u_h`` is ``H x R`` and ``u_w`` is ``W x R``.
    Component weights are absorbed into ``u_out``, so the unit
    ``weights`` are not counted as parameters.
    """

    def __init__(self, u_out, u_in, u_h, u_w):
        u_out = np.asarray(u_out, dtype=np.float64)
        rank = u_out.shape[1] if u_out.ndim == 2 else 0
        super().__init__(np.ones(rank), u_out, u_in, [u_h, u_w])

    @property
    def u_h(self) -> np.ndarray:
        return self.spatial[0]

    @property
    def u_w(self) -> np.ndarray:
        return self.spatial[1]

    def param_count(self) -> int:
        return super().param_count() - self.rank


def conv_nd_direct(x, kernel) -> np.ndarray:
    """Direct N-D multichannel cross-correlation (valid extent).

    ``x`` is ``C x D_1 x ... x D_N``, ``kernel`` is
    ``T x C x K_1 x ... x K_N``; the output is ``T`` by
    ``D_i - K_i + 1`` along each spatial mode.

    One BLAS channel contraction per kernel offset, added into the
    output ("kn2row"): the extra memory is about one output, not the
    ``K_1 ... K_N``-fold window copy of im2col.
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != x.ndim + 1:
        raise ValueError(
            f"kernel of order {kernel.ndim} does not match input of order "
            f"{x.ndim}"
        )
    if kernel.shape[1] != x.shape[0]:
        raise ValueError(
            f"kernel expects {kernel.shape[1]} input channels, got "
            f"{x.shape[0]}"
        )
    _check_kernel_extents(x.shape[1:], kernel.shape[2:])
    return _correlate(
        x, kernel, range(1, x.ndim), lambda w, xs: np.tensordot(w, xs, axes=1)
    )


def _check_kernel_extents(dims, ks) -> None:
    for i, (d, k) in enumerate(zip(dims, ks)):
        if not 1 <= k <= d:
            raise ValueError(
                f"kernel size {k} on spatial mode {i} must be between 1 "
                f"and the input extent {d}"
            )


def conv2d_direct(x, kernel) -> np.ndarray:
    """Direct 2-D multichannel cross-correlation (valid extent)."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ValueError("conv2d_direct expects C x H x W input and "
                         "T x C x H x W kernel")
    return conv_nd_direct(x, kernel)


def conv1x1(x, weight) -> np.ndarray:
    """Pointwise (1x1) convolution: a contraction of the channel mode."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ValueError(
            f"weight of shape {weight.shape} does not match "
            f"{x.shape[0]} channels"
        )
    return mode_n_product(x, weight, 0)


def kruskal_conv2d(x, kernel: KruskalConvKernel) -> np.ndarray:
    """2-D convolution through the Kruskal pipeline.

    The 2-D case of :func:`separable_convnd`: 1x1 conv down to the rank,
    depthwise convs over height then width, 1x1 conv up to the output
    channels. Matches ``conv2d_direct(x, kernel.reconstruct())``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("kruskal_conv2d expects a C x H x W input")
    return separable_convnd(x, kernel)


def tucker_conv2d(x, kernel: TuckerConvKernel) -> np.ndarray:
    """2-D convolution through the Tucker pipeline.

    1x1 conv down to rank R2, a regular R2 -> R1 convolution with the
    spatial factors absorbed into the core, then a 1x1 conv up to the
    output channels. Matches ``conv2d_direct`` on the reconstruction.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("tucker_conv2d expects a C x H x W input")
    core, (u_out, u_in, u_h, u_w) = kernel.tucker.core, kernel.tucker.factors
    z = conv1x1(x, u_in.T)
    absorbed = multi_mode_product(core, (u_h, u_w), modes=(2, 3))
    z = conv_nd_direct(z, absorbed)
    return conv1x1(z, u_out)


def separable_convnd(x, kernel: SeparableConvKernel) -> np.ndarray:
    """Fully separable N-D convolution.

    Contract the input channels down to the rank, run one depthwise 1-D
    convolution per spatial mode, and expand to the output channels with
    the component weights applied. Matches ``conv_nd_direct`` on the
    reconstructed kernel.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != len(kernel.spatial) + 1:
        raise ValueError(
            f"input of order {x.ndim} needs {x.ndim - 1} spatial factors, "
            f"got {len(kernel.spatial)}"
        )
    _check_kernel_extents(x.shape[1:], [len(bank) for bank in kernel.spatial])
    z = conv1x1(x, kernel.u_in.T)
    for i, bank in enumerate(kernel.spatial):
        # depthwise: column r of the K x R bank scales channel r
        scales = bank.T.reshape(kernel.rank, *[1] * (x.ndim - 1), len(bank))
        z = _correlate(z, scales, (i + 1,), np.multiply)
    return conv1x1(z, kernel.u_out * kernel.weights)


def transduce(kernel: SeparableConvKernel, extra_factor) -> SeparableConvKernel:
    """Extend a separable kernel to one more spatial dimension by
    appending a single 1-D factor bank."""
    extra = np.asarray(extra_factor, dtype=np.float64)
    if extra.ndim != 2 or extra.shape[1] != kernel.rank:
        raise ValueError(
            f"extra factor must have {kernel.rank} columns, got shape "
            f"{extra.shape}"
        )
    return SeparableConvKernel(
        weights=kernel.weights.copy(),
        u_out=kernel.u_out.copy(),
        u_in=kernel.u_in.copy(),
        spatial=[m.copy() for m in kernel.spatial] + [extra],
    )


def decompose_kernel(kernel, form: str, ranks, opts: DecompOptions | None = None):
    """Factorize a 4th-order conv kernel into the requested form.

    ``form`` is ``"cp"`` (one int rank -> Kruskal form) or ``"tucker"``
    (4 ranks -> Tucker form). Returns ``(factorized, info)`` where
    ``info`` reports the relative reconstruction error and parameter
    counts before/after.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 4:
        raise ValueError(
            f"expected an order-4 T x C x H x W kernel, got order {kernel.ndim}"
        )
    opts = opts or DecompOptions()
    if form == "cp":
        if not isinstance(ranks, (int, np.integer)):
            raise ValueError(f"cp form takes one int rank, got {ranks!r}")
        k = cp_als(kernel, ranks, opts)
        fact = KruskalConvKernel(k.factors[0] * k.weights, *k.factors[1:])
    elif form == "tucker":
        fact = TuckerConvKernel(tucker_hooi(kernel, ranks, opts))
    else:
        raise ValueError(f"unknown form {form!r}")
    recon = fact.reconstruct()
    denom = np.linalg.norm(kernel)
    err = float(np.linalg.norm(kernel - recon) / denom) if denom else 0.0
    info = {
        "relative_error": err,
        "params_before": int(kernel.size),
        "params_after": fact.param_count(),
    }
    return fact, info


def direct_multiply_count(kernel_shape, in_shape) -> int:
    """Fused multiply-adds of the direct 2-D convolution."""
    t, c, h, w = kernel_shape
    _, hi, wi = in_shape
    ho, wo = hi - h + 1, wi - w + 1
    return int(t * c * h * w * ho * wo)


def kruskal_multiply_count(kernel_shape, rank, in_shape) -> dict:
    """Per-stage fused multiply-adds of the Kruskal pipeline."""
    t, c, h, w = kernel_shape
    _, hi, wi = in_shape
    ho, wo = hi - h + 1, wi - w + 1
    stages = {
        "conv1x1_in": rank * c * hi * wi,
        "depthwise_h": rank * h * ho * wi,
        "depthwise_w": rank * w * ho * wo,
        "conv1x1_out": t * rank * ho * wo,
    }
    stages["total"] = sum(stages.values())
    return stages
