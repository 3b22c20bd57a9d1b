"""Tensorized neural building blocks.

Contraction layers, low-rank tensor regression layers, TT-parametrized
dense layers, dropout on decomposition components, and polynomial
expansion networks, plus analytic gradients and a minimal full-batch
SGD trainer. Everything is float64 numpy; randomness always comes from
an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .core import generalized_inner, mode_n_product, multi_mode_product
from .decomp import KruskalTensor, TTTensor, TuckerTensor, tt_svd
from .linalg import _as_float64, _check_count

__all__ = [
    "TclLayer",
    "TrlLayer",
    "TrlGrads",
    "TTLinearLayer",
    "PolyNet",
    "tcl_forward",
    "tcl_param_count",
    "trl_forward",
    "trl_grad",
    "trl_param_count",
    "fc_param_count",
    "tensorize_matrix",
    "detensorize_matrix",
    "tt_linear_forward",
    "tt_linear_param_count",
    "cp_dropout",
    "tucker_dropout",
    "polynet_forward",
    "polynet_grad",
    "sgd_fit",
]


# ---------------------------------------------------------------------------
# tensor contraction layer


@dataclass
class TclLayer:
    """Contraction layer: one ``R_n x I_n`` factor per non-batch mode."""

    factors: list

    def __post_init__(self):
        self.factors = [_as_float64(f, "factors") for f in self.factors]
        for f in self.factors:
            if f.ndim != 2:
                raise ValueError("TCL factors must be matrices")


def tcl_forward(x, layer: TclLayer) -> np.ndarray:
    """Contract every mode of the batch tensor except the first.

    ``x`` has shape ``(S, I_1, ..., I_N)``; the output has shape
    ``(S, R_1, ..., R_N)``. Equivalent to the fully-connected layer with
    weight ``(V_1 kron ... kron V_N).T`` applied to the flattened batch.
    """
    x = _as_float64(x, "tcl_forward")
    if x.ndim != len(layer.factors) + 1:
        raise ValueError(
            f"input of order {x.ndim} needs {x.ndim - 1} factors, "
            f"got {len(layer.factors)}"
        )
    return multi_mode_product(x, layer.factors, modes=range(1, x.ndim))


def tcl_param_count(in_dims, ranks) -> int:
    """Parameters of a TCL: ``sum_n I_n * R_n``."""
    in_dims, ranks = _mode_sizes(in_dims, "in_dims"), _mode_sizes(ranks, "ranks")
    return sum(i * r for i, r in zip(in_dims, ranks, strict=True))


def fc_param_count(in_dims, ranks) -> int:
    """Parameters of the dense layer matching a TCL: ``prod_n I_n * R_n``."""
    in_dims, ranks = _mode_sizes(in_dims, "in_dims"), _mode_sizes(ranks, "ranks")
    out = 1
    for i, r in zip(in_dims, ranks, strict=True):
        out *= i * r
    return out


# ---------------------------------------------------------------------------
# tensor regression layer


@dataclass
class TrlLayer:
    """Regression layer with a Tucker-structured weight tensor.

    ``weight.factors[:-1]`` are the ``I_n x R_n`` input-mode factors,
    ``weight.factors[-1]`` is the ``d x R_out`` output factor, and
    ``bias`` has length ``d``.
    """

    weight: TuckerTensor
    bias: np.ndarray

    def __post_init__(self):
        self.bias = _as_float64(self.bias, "bias")
        if self.bias.ndim != 1:
            raise ValueError("bias must be a vector")
        if self.weight.factors[-1].shape[0] != self.bias.shape[0]:
            raise ValueError(
                "output factor rows must match the bias length"
            )

    @property
    def in_shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.weight.factors[:-1])

    @property
    def out_dim(self) -> int:
        return self.bias.shape[0]


@dataclass
class TrlGrads:
    core: np.ndarray
    factors: list
    bias: np.ndarray


def _trl_pass(x, layer: TrlLayer):
    """One forward pass: ``(output, backward)``. ``backward(upstream)``
    gives the :class:`TrlGrads` from the intermediates the pass kept."""
    x = _as_float64(x, "TRL input")
    if x.shape[1:] != layer.in_shape:
        raise ValueError(
            f"input modes {x.shape[1:]} do not match layer {layer.in_shape}"
        )
    n_in = x.ndim - 1
    core = layer.weight.core
    u_in, u_out = layer.weight.factors[:-1], layer.weight.factors[-1]
    # Input factor n's gradient needs x projected onto every other input
    # factor: the projection keeps its prefixes x, x x_1 U_1^T, ..., z in
    # mode order, and backward projects prefixes[n] on the factors after n.
    prefixes = [x]
    for n in range(n_in):
        prefixes.append(mode_n_product(prefixes[n], u_in[n].T, n + 1))
    z = prefixes[-1]                                 # (S, R_1..R_N)
    t = generalized_inner(z, core, n_in)             # (S, R_out)

    def backward(upstream) -> TrlGrads:
        upstream = _as_float64(upstream, "TRL upstream")
        a = upstream @ u_out                             # (S, R_out)
        b = np.moveaxis(np.tensordot(core, a, axes=([n_in], [1])), -1, 0)
        g_factors = []
        for n in range(n_in):
            modes = range(n + 2, x.ndim)                 # those of u_in[n + 1:]
            partial = multi_mode_product(prefixes[n], u_in[n + 1:], modes, transpose=True)
            # contract everything except input mode n
            axes = [0] + [k + 1 for k in range(n_in) if k != n]
            g_factors.append(np.tensordot(partial, b, axes=(axes, axes)))
        g_factors.append(upstream.T @ t)                 # (d, R_out)
        g_core = np.tensordot(z, a, axes=([0], [0]))     # (R_1..R_N, R_out)
        return TrlGrads(core=g_core, factors=g_factors, bias=upstream.sum(axis=0))

    return t @ u_out.T + layer.bias, backward


def trl_forward(x, layer: TrlLayer) -> np.ndarray:
    """Per-sample inner product with the low-rank weight, plus bias.

    ``x`` has shape ``(S, I_1, ..., I_N)`` and the output has shape
    ``(S, d)``. The weight tensor is never materialized: the input is
    contracted with the factors, then with the core.
    """
    return _trl_pass(x, layer)[0]


def trl_grad(x, layer: TrlLayer, upstream) -> TrlGrads:
    """Analytic gradients of ``trl_forward`` for every parameter.

    ``upstream`` is the loss gradient at the output, shape ``(S, d)``.
    """
    return _trl_pass(x, layer)[1](upstream)


def trl_param_count(in_dims, ranks, out_dim: int) -> int:
    """Parameters of a TRL: core, input factors, and output factor.

    ``ranks`` has one entry per input mode plus one for the output
    mode: ``prod(ranks) + sum_n R_n * I_n + R_out * d``.
    """
    in_dims, ranks = _mode_sizes(in_dims, "in_dims"), _mode_sizes(ranks, "ranks")
    if len(ranks) != len(in_dims) + 1:
        raise ValueError("need one rank per input mode plus the output rank")
    core = 1
    for r in ranks:
        core *= r
    out_dim = _check_count(out_dim, "out_dim")
    return core + sum(r * i for r, i in zip(ranks[:-1], in_dims)) + ranks[-1] * out_dim


# ---------------------------------------------------------------------------
# TT-parametrized dense layer


def _mode_sizes(shape, name) -> tuple:
    # _check_count on every size, reported for the whole shape
    shape = tuple(shape)
    try:
        return tuple(_check_count(s, name) for s in shape)
    except ValueError:
        raise ValueError(f"{name} must hold positive integers, got {shape}") from None


def tensorize_matrix(w, in_shape, out_shape) -> np.ndarray:
    """Reshape a dense ``(prod(out) x prod(in))`` weight matrix into the
    merged-mode tensor used by TT layers.

    Mode ``k`` of the result has size ``I_k * J_k`` where ``I_k`` is
    ``in_shape[k]`` and ``J_k`` is ``out_shape[k]``; the merged index is
    ``i_k * J_k + j_k``. This is a pure re-indexing and
    :func:`detensorize_matrix` inverts it exactly.
    """
    w = _as_float64(w, "tensorize_matrix")
    in_shape = _mode_sizes(in_shape, "in_shape")
    out_shape = _mode_sizes(out_shape, "out_shape")
    if len(in_shape) != len(out_shape):
        raise ValueError("in_shape and out_shape must have the same length")
    n = len(in_shape)
    if w.ndim != 2 or w.shape != (
        int(np.prod(out_shape)),
        int(np.prod(in_shape)),
    ):
        raise ValueError(
            f"matrix shape {w.shape} does not factor as "
            f"{out_shape} x {in_shape}"
        )
    t = w.reshape(out_shape + in_shape)
    order = []
    for k in range(n):
        order.extend([n + k, k])  # (i_k, j_k) pairs, input-major
    t = t.transpose(order)
    return t.reshape(tuple(i * j for i, j in zip(in_shape, out_shape)))


def detensorize_matrix(t, in_shape, out_shape) -> np.ndarray:
    """Inverse of :func:`tensorize_matrix`."""
    t = _as_float64(t, "detensorize_matrix")
    in_shape = _mode_sizes(in_shape, "in_shape")
    out_shape = _mode_sizes(out_shape, "out_shape")
    n = len(in_shape)
    merged = tuple(i * j for i, j in zip(in_shape, out_shape))
    if t.shape != merged:
        raise ValueError(f"tensor shape {t.shape} does not match {merged}")
    pairs = []
    for i, j in zip(in_shape, out_shape):
        pairs.extend([i, j])
    t = t.reshape(tuple(pairs))
    order = [2 * k + 1 for k in range(n)] + [2 * k for k in range(n)]
    return t.transpose(order).reshape(
        int(np.prod(out_shape)), int(np.prod(in_shape))
    )


@dataclass
class TTLinearLayer:
    """Dense layer whose weight lives in TT format over merged modes."""

    in_shape: tuple
    out_shape: tuple
    cores: TTTensor

    def __post_init__(self):
        for name in ("in_shape", "out_shape"):
            setattr(self, name, _mode_sizes(getattr(self, name), name))
        if len(self.in_shape) != len(self.out_shape):
            raise ValueError(
                "in_shape and out_shape must have the same length"
            )
        merged = tuple(i * j for i, j in zip(self.in_shape, self.out_shape))
        if self.cores.shape != merged:
            raise ValueError(
                f"TT cores over {self.cores.shape} do not match merged "
                f"modes {merged}"
            )

    @classmethod
    def from_matrix(cls, w, in_shape, out_shape, ranks=None, tol=None):
        t = tensorize_matrix(w, in_shape, out_shape)
        return cls(in_shape, out_shape, tt_svd(t, ranks=ranks, tol=tol))

    def to_matrix(self) -> np.ndarray:
        return detensorize_matrix(
            self.cores.to_tensor(), self.in_shape, self.out_shape
        )


def tt_linear_forward(x, layer: TTLinearLayer) -> np.ndarray:
    """Apply the TT-parametrized dense layer to a batch of vectors.

    ``x`` has shape ``(S, prod(in_shape))``; the output is
    ``(S, prod(out_shape))``. The weight matrix is never reconstructed:
    the input is contracted with one core at a time.
    """
    x = _as_float64(x, "tt_linear_forward")
    if x.ndim != 2 or x.shape[1] != int(np.prod(layer.in_shape)):
        raise ValueError(
            f"input of shape {x.shape} does not match input width "
            f"{int(np.prod(layer.in_shape))}"
        )
    s = x.shape[0]
    n = len(layer.in_shape)
    # running shape: (S, R_k, I_k, ..., I_N, J_1, ..., J_{k-1})
    acc = x.reshape((s, 1) + layer.in_shape)
    for k in range(n):
        core = layer.cores.cores[k]
        r_in, _, r_out = core.shape
        core4 = core.reshape(r_in, layer.in_shape[k], layer.out_shape[k], r_out)
        acc = np.tensordot(acc, core4, axes=([1, 2], [0, 1]))
        acc = np.moveaxis(acc, -1, 1)
    return acc.reshape(s, -1)


def tt_linear_param_count(layer: TTLinearLayer) -> int:
    """Total entries in the TT cores."""
    return int(sum(c.size for c in layer.cores.cores))


# ---------------------------------------------------------------------------
# dropout on decompositions


def cp_dropout(k: KruskalTensor, theta: float, rng) -> KruskalTensor:
    """Bernoulli dropout on the rank-1 components of a Kruskal tensor.

    Each component is kept with probability ``theta``; kept weights are
    rescaled by ``1/theta`` so the reconstruction is unbiased.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    mask = rng.random(k.rank) < theta
    weights = k.weights * mask / theta
    return KruskalTensor(weights, [f.copy() for f in k.factors])


def tucker_dropout(t: TuckerTensor, theta: float, rng) -> TuckerTensor:
    """Bernoulli dropout in the latent subspace of a Tucker tensor.

    The core is contracted along each mode with a diagonal Bernoulli
    sketch, rescaled by ``1/theta`` per mode for unbiasedness.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    core = t.core.copy()
    for n, r in enumerate(t.core.shape):
        lam = (rng.random(r) < theta) / theta
        shape = [1] * core.ndim
        shape[n] = r
        core = core * lam.reshape(shape)
    return TuckerTensor(core, [f.copy() for f in t.factors])


# ---------------------------------------------------------------------------
# polynomial expansion network


@dataclass
class PolyNet:
    """Degree-N polynomial map from shared-factor expansion weights.

    ``factors[n]`` is ``d x k``; ``mix`` is the ``o x k`` output mixing
    matrix and ``bias`` has length ``o``. The forward recursion
    multiplies in one factor per step, so the output coordinates are
    polynomials of degree at most ``len(factors)`` in the input.
    """

    factors: list
    mix: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.factors = [_as_float64(f, "factors") for f in self.factors]
        self.mix = _as_float64(self.mix, "mix")
        self.bias = _as_float64(self.bias, "bias")
        if not self.factors:
            raise ValueError("PolyNet needs at least one factor")
        for f in self.factors:
            if f.ndim != 2 or f.shape != self.factors[0].shape:
                raise ValueError("all factors must share the same d x k shape")
        k = self.factors[0].shape[1]
        if self.mix.ndim != 2 or self.mix.shape[1] != k:
            raise ValueError(f"mix must have {k} columns")
        if self.bias.shape != (self.mix.shape[0],):
            raise ValueError("bias length must match mix rows")

    @property
    def order(self) -> int:
        return len(self.factors)


def _check_polynet_input(z, net):
    z = _as_float64(z, "PolyNet input")
    d = net.factors[0].shape[0]
    if z.ndim not in (1, 2) or z.shape[-1] != d:
        raise ValueError(
            f"input of shape {z.shape} is neither (d,) nor (S, d) with d = {d}"
        )
    return z


def _polynet_pass(z, net: PolyNet):
    """One forward pass of ``net`` on ``z``: ``(output, backward)``, as
    :func:`_trl_pass`; ``backward`` returns a :class:`PolyNet`."""
    z = _check_polynet_input(z, net)
    s = [z @ f for f in net.factors]
    xs = [s[0]]
    for n in range(1, net.order):
        xs.append(s[n] * xs[-1] + xs[-1])

    def backward(upstream) -> PolyNet:
        # one (d,) input is a batch of one
        up = _as_float64(upstream, "PolyNet upstream")
        z2, up, x_last = np.atleast_2d(z, up, xs[-1])
        g_mix = up.T @ x_last
        g_bias = up.sum(axis=0)
        g = up @ net.mix
        g_factors = [None] * net.order
        for n in range(net.order - 1, 0, -1):
            g_factors[n] = z2.T @ (g * xs[n - 1])
            g = g * s[n] + g
        g_factors[0] = z2.T @ g
        return PolyNet(g_factors, g_mix, g_bias)

    return xs[-1] @ net.mix.T + net.bias, backward


def polynet_forward(z, net: PolyNet) -> np.ndarray:
    """Evaluate the polynomial network at one input vector ``(d,)`` or a
    batch of them ``(S, d)``; the output is ``(o,)`` or ``(S, o)``."""
    return _polynet_pass(z, net)[0]


def polynet_grad(z, net: PolyNet, upstream) -> PolyNet:
    """Gradients of ``polynet_forward`` w.r.t. every parameter.

    ``upstream`` has the shape of the output. For a batch the gradients
    are summed over the samples. Returned as a :class:`PolyNet` with the
    same shapes (gradient of each factor, of ``mix``, and of ``bias``).
    """
    return _polynet_pass(z, net)[1](upstream)


# ---------------------------------------------------------------------------
# minimal trainer


def _polynet_arrays(net):
    return [*net.factors, net.mix, net.bias]


# trainable type -> (pass(x, model) returning (output, backward),
# parameter arrays of a model, the same arrays of its gradient)
_TRAINABLE = {
    TrlLayer: (
        _trl_pass,
        lambda m: [m.weight.core, *m.weight.factors, m.bias],
        lambda g: [g.core, *g.factors, g.bias],
    ),
    PolyNet: (_polynet_pass, _polynet_arrays, _polynet_arrays),
}


def sgd_fit(model, dataset, lr: float, epochs: int):
    """Full-batch gradient descent on mean squared error.

    ``dataset`` is ``(inputs, targets)``, and ``targets`` must have the
    shape of the model's output on ``inputs``. The input model is copied,
    not mutated. Returns ``(trained_model, losses)`` where ``losses`` has
    one mean-squared-error entry per epoch, recorded after that epoch's
    update. Deterministic: the updates are full-batch.
    """
    if not 0 <= lr < np.inf:
        raise ValueError(f"learning rate must be non-negative and finite, got {lr}")
    _check_count(epochs, "epochs", least=0)
    if type(model) not in _TRAINABLE:
        raise TypeError(f"cannot train a {type(model).__name__}")
    run, params, grad_arrays = _TRAINABLE[type(model)]
    inputs, targets = dataset
    inputs = _as_float64(inputs, "sgd_fit")
    targets = _as_float64(targets, "sgd_fit")
    model = copy.deepcopy(model)
    losses = []
    pred, backward = run(inputs, model)
    if pred.shape != targets.shape:
        raise ValueError(
            f"targets of shape {targets.shape} do not match the model's "
            f"output shape {pred.shape}"
        )
    for _ in range(epochs):
        err = pred - targets
        grads = backward(2.0 * err / err.size)
        for p, g in zip(params(model), grad_arrays(grads), strict=True):
            p -= lr * g
        # the post-update pass also starts the next epoch
        pred, backward = run(inputs, model)
        losses.append(float(np.mean((pred - targets) ** 2)))
    return model, losses
