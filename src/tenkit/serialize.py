"""Typed save/load of factorized models on top of the manifest format.

Decomposition results, factorized convolution kernels (with a ``form``
tag), and network layers (with a ``layer_type`` tag) all round-trip
through :func:`save_model` / :func:`load_model`. One table describes
every model type, so saving and loading cannot drift apart.
"""

from __future__ import annotations

from .convfact import KruskalConvKernel, SeparableConvKernel, TuckerConvKernel
from .decomp import KruskalTensor, MpcaResult, TTTensor, TuckerTensor
from .io import FormatError, load_manifest, save_manifest
from .nn import PolyNet, TclLayer, TrlLayer, TTLinearLayer

__all__ = ["save_model", "load_model"]

# manifest formats that hold several model types, and the meta key whose
# value (the tag) tells them apart
_TAG_KEYS = {"conv_kernel": "form", "layer": "layer_type"}


def _floats(values):
    return [float(v) for v in values]


def _kruskal_conv_factors(m):
    return [m.u_out, m.u_in, m.u_h, m.u_w]


def _shape_ranks(m):
    return {"mode_sizes": list(m.shape), "ranks": list(m.ranks)}


# exact model type -> (format, tag, arrays(model), meta(model),
# constructor(arrays, meta)). Keyed by exact type, not isinstance: a
# KruskalConvKernel is also a SeparableConvKernel.
_MODELS = {
    KruskalTensor: (
        "kruskal",
        None,
        lambda m: {"factors": m.factors},
        lambda m: {
            "mode_sizes": list(m.shape),
            "rank": m.rank,
            "weights": _floats(m.weights),
        },
        lambda a, meta: KruskalTensor(meta["weights"], a["factors"]),
    ),
    TuckerTensor: (
        "tucker",
        None,
        lambda m: {"core": m.core, "factors": m.factors},
        _shape_ranks,
        lambda a, meta: TuckerTensor(a["core"], a["factors"]),
    ),
    TTTensor: (
        "tt",
        None,
        lambda m: {"cores": m.cores},
        _shape_ranks,
        lambda a, meta: TTTensor(a["cores"]),
    ),
    MpcaResult: (
        "mpca",
        None,
        lambda m: {"projections": m.projections, "cores": m.cores},
        lambda m: {
            "mode_sizes": [int(p.shape[0]) for p in m.projections],
            "ranks": [int(p.shape[1]) for p in m.projections],
            "scatters": _floats(m.scatters),
            "total_scatter": float(m.total_scatter),
        },
        lambda a, meta: MpcaResult(
            a["projections"], a["cores"], meta["scatters"], meta["total_scatter"]
        ),
    ),
    KruskalConvKernel: (
        "conv_kernel",
        "kruskal",
        lambda m: {"factors": _kruskal_conv_factors(m)},
        lambda m: {
            "mode_sizes": [int(f.shape[0]) for f in _kruskal_conv_factors(m)],
            "rank": m.rank,
        },
        lambda a, meta: KruskalConvKernel(*a["factors"]),
    ),
    TuckerConvKernel: (
        "conv_kernel",
        "tucker",
        lambda m: {"core": m.tucker.core, "factors": m.tucker.factors},
        lambda m: _shape_ranks(m.tucker),
        lambda a, meta: TuckerConvKernel(TuckerTensor(a["core"], a["factors"])),
    ),
    SeparableConvKernel: (
        "conv_kernel",
        "separable",
        lambda m: {
            "channel_factors": [m.u_out, m.u_in],
            "spatial_factors": m.spatial,
        },
        lambda m: {"rank": m.rank, "weights": _floats(m.weights)},
        lambda a, meta: SeparableConvKernel(
            meta["weights"],
            *a["channel_factors"],
            a["spatial_factors"],
        ),
    ),
    TclLayer: (
        "layer",
        "tcl",
        lambda m: {"factors": m.factors},
        lambda m: {},
        lambda a, meta: TclLayer(a["factors"]),
    ),
    TrlLayer: (
        "layer",
        "trl",
        lambda m: {
            "core": m.weight.core,
            "factors": m.weight.factors,
            "bias": m.bias,
        },
        lambda m: {"ranks": list(m.weight.ranks)},
        lambda a, meta: TrlLayer(
            TuckerTensor(a["core"], a["factors"]), a["bias"]
        ),
    ),
    TTLinearLayer: (
        "layer",
        "tt_linear",
        lambda m: {"cores": m.cores.cores},
        lambda m: {
            "in_shape": list(m.in_shape),
            "out_shape": list(m.out_shape),
            "ranks": list(m.cores.ranks),
        },
        lambda a, meta: TTLinearLayer(
            tuple(meta["in_shape"]),
            tuple(meta["out_shape"]),
            TTTensor(a["cores"]),
        ),
    ),
    PolyNet: (
        "layer",
        "polynet",
        lambda m: {"factors": m.factors, "mix": m.mix, "bias": m.bias},
        lambda m: {"order": m.order},
        lambda a, meta: PolyNet(a["factors"], a["mix"], a["bias"]),
    ),
}

# (format, tag) -> (meta(model), constructor)
_LOADERS = {(fmt, tag): (meta, build) for fmt, tag, _, meta, build in _MODELS.values()}


def save_model(directory, model) -> None:
    """Write any supported factorized model into a manifest directory."""
    entry = _MODELS.get(type(model))
    if entry is None:
        raise TypeError(f"cannot serialize a {type(model).__name__}")
    fmt, tag, arrays, meta, _ = entry
    meta = meta(model)
    if tag is not None:
        meta[_TAG_KEYS[fmt]] = tag
    save_manifest(directory, fmt, arrays(model), meta)


def load_model(directory):
    """Inverse of :func:`save_model`. The manifest's ``mode_sizes``,
    ``ranks`` and ``rank`` must match the loaded arrays."""
    fmt, arrays, meta = load_manifest(directory)
    tag_key = _TAG_KEYS.get(fmt) if isinstance(fmt, str) else None
    tag = meta.get(tag_key)
    try:
        describe, build = _LOADERS[fmt, tag]
    except (KeyError, TypeError):  # unknown, or an unhashable JSON value
        what = f"{tag_key} {tag!r}" if tag_key else f"manifest format {fmt!r}"
        raise FormatError(f"{directory}: unknown {what}") from None
    try:
        model = build(arrays, meta)
    except KeyError as exc:
        raise FormatError(f"{directory}: manifest lacks key {exc}") from None
    except TypeError as exc:  # e.g. the wrong number of factor files
        raise FormatError(f"{directory}: {exc}") from None
    derived = describe(model)  # the shape metadata the arrays imply
    for key in ("mode_sizes", "ranks", "rank"):
        if key in derived and meta.get(key) != derived[key]:
            raise FormatError(
                f"{directory}: manifest {key!r} does not match the arrays: "
                f"expected {derived[key]}, got {meta.get(key)!r}"
            )
    return model
