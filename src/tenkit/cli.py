"""Command-line front end.

Subcommands: ``info`` (inspect a TNSR file), ``decompose`` (CP, Tucker,
TT, or MPCA to a manifest directory), ``rpca`` (low-rank + sparse
split), and ``conv-compress`` (factorize a 4th-order kernel and verify
pipeline equivalence on a seeded probe).

Reports are line-oriented ``key=value`` pairs on stdout; ``--json``
emits a single JSON object instead. All randomness flows from
``--seed`` (default 0), so identical invocations produce byte-identical
artifacts and reports (apart from ``wall_time_s``).

Exit codes: 0 on success, 1 on any documented failure (bad file,
infeasible ranks, ...), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import convfact, robust
from .core import frobenius, norm_l0
from .decomp import DecompOptions, cp_als, mpca, tt_svd, tucker_hooi
from .io import FormatError, read_tnsr, write_tnsr
from .serialize import save_model


def _sanitize(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _emit(report: dict, as_json: bool) -> None:
    report = {k: _sanitize(v) for k, v in report.items()}
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, float):
            value = repr(float(value))
        elif isinstance(value, (list, tuple)):
            value = "x".join(str(v) for v in value)
        print(f"{key}={value}")


def _parse_ranks(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ranks must be comma-separated integers, got {text!r}"
        ) from None


def _tucker_ranks(args, ndim: int, what: str) -> list:
    ranks = args.ranks if args.ranks else [args.rank] * ndim
    if None in ranks:
        raise ValueError(f"{what} needs --ranks or --rank")
    return ranks


def cmd_info(args) -> dict:
    tensor = read_tnsr(args.path)
    norm = frobenius(tensor)
    nnz = norm_l0(tensor)
    return {
        "command": "info",
        "input": args.path,
        "order": tensor.ndim,
        "shape": list(tensor.shape),
        "frobenius_norm": norm,
        "l0_density": nnz / tensor.size,
        "nonzeros": nnz,
        "non_finite": tensor.size - np.count_nonzero(np.isfinite(tensor)),
    }


def cmd_decompose(args) -> dict:
    tensor = read_tnsr(args.path)
    opts = DecompOptions(max_iters=args.max_iters, seed=args.seed)
    norm = frobenius(tensor)
    report = {
        "command": "decompose",
        "input": args.path,
        "method": args.method,
    }

    if args.method == "cp":
        if args.rank is None:
            raise ValueError("cp needs --rank")
        model, info = cp_als(tensor, args.rank, opts, return_info=True)
        report["rank"] = args.rank
        report["iterations"] = info["iterations"]
    elif args.method == "tucker":
        ranks = _tucker_ranks(args, tensor.ndim, "tucker")
        model, info = tucker_hooi(tensor, ranks, opts, return_info=True)
        report["ranks"] = ranks
        report["iterations"] = info["iterations"]
    elif args.method == "tt":
        # --ranks wins over --rank; tt_svd refuses --tol with either
        key, ranks = ("ranks", args.ranks) if args.ranks else ("rank", args.rank)
        model = tt_svd(tensor, ranks=ranks, tol=args.tol)
        for k, v in (("tol", args.tol), (key, ranks)):
            if v is not None:
                report[k] = v
        report["tt_ranks"] = list(model.ranks)
    elif args.method == "mpca":
        if not args.ranks:
            raise ValueError("mpca needs --ranks (one per feature mode)")
        model = mpca(tensor, args.ranks, opts)
        report["ranks"] = args.ranks
    else:
        raise ValueError(f"unknown method {args.method!r}")

    recon = (
        model.reconstruct() if args.method == "mpca" else model.to_tensor()
    )
    err = frobenius(tensor - recon) / norm if norm else 0.0
    save_model(args.out, model)
    report["out"] = args.out
    report["relative_error"] = err
    report["seed"] = args.seed
    return report


def cmd_rpca(args) -> dict:
    tensor = read_tnsr(args.path)
    lam = None if args.lam == "auto" else float(args.lam)
    alpha = np.asarray(args.alpha, dtype=float) if args.alpha else None
    result = robust.trpca(
        tensor, lam=lam, alpha=alpha, max_iters=args.max_iters
    )
    os.makedirs(args.out, exist_ok=True)
    write_tnsr(os.path.join(args.out, "L.tnsr"), result.low_rank)
    write_tnsr(os.path.join(args.out, "S.tnsr"), result.sparse)
    norm = frobenius(tensor)
    feas = (
        frobenius(tensor - result.low_rank - result.sparse) / norm
        if norm
        else 0.0
    )
    return {
        "command": "rpca",
        "input": args.path,
        "out": args.out,
        "lambda": result.lam,
        "iterations": result.iterations,
        "converged": result.converged,
        "feasibility_residual": feas,
        "sparse_ratio": frobenius(result.sparse) / norm if norm else 0.0,
        "sparse_fraction": norm_l0(result.sparse) / tensor.size,
        "seed": args.seed,
    }


def cmd_conv_compress(args) -> dict:
    kernel = read_tnsr(args.path)
    if kernel.ndim != 4:
        raise ValueError(
            f"conv-compress needs an order-4 kernel, got order {kernel.ndim}"
        )
    opts = DecompOptions(max_iters=args.max_iters, seed=args.seed)
    if args.form == "cp":
        if args.rank is None:
            raise ValueError("cp form needs --rank")
        fact, info = convfact.decompose_kernel(kernel, "cp", args.rank, opts)
    else:
        ranks = _tucker_ranks(args, 4, "tucker form")
        fact, info = convfact.decompose_kernel(kernel, "tucker", ranks, opts)

    rng = np.random.default_rng(args.seed)
    t, c, h, w = kernel.shape
    probe = rng.standard_normal((c, h + 4, w + 4))
    direct = convfact.conv2d_direct(probe, fact.reconstruct())
    if args.form == "cp":
        piped = convfact.kruskal_conv2d(probe, fact)
    else:
        piped = convfact.tucker_conv2d(probe, fact)
    deviation = float(np.max(np.abs(direct - piped)))

    save_model(args.out, fact)
    ratio = info["params_before"] / info["params_after"]
    report = {
        "command": "conv-compress",
        "input": args.path,
        "form": args.form,
        "out": args.out,
        "params_before": info["params_before"],
        "params_after": info["params_after"],
        "compression_ratio": ratio,
        "relative_error": info["relative_error"],
        "max_pipeline_deviation": deviation,
        "seed": args.seed,
    }
    if ratio <= 1.0:
        report["note"] = "no compression"
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenkit",
        description="Dense tensor decompositions, robust PCA, and "
        "factorized convolution kernels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("info", help="inspect a TNSR file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("decompose", help="factorize a tensor")
    p.add_argument("path")
    p.add_argument(
        "--method", required=True, choices=["cp", "tucker", "tt", "mpca"]
    )
    p.add_argument("--rank", type=int)
    p.add_argument("--ranks", type=_parse_ranks)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rpca", help="low-rank + sparse split")
    p.add_argument("path")
    p.add_argument("--lambda", dest="lam", default="auto")
    p.add_argument("--alpha", type=lambda s: [float(t) for t in s.split(",")])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rpca)

    p = sub.add_parser(
        "conv-compress", help="factorize an order-4 convolution kernel"
    )
    p.add_argument("path")
    p.add_argument("--form", required=True, choices=["cp", "tucker"])
    p.add_argument("--rank", type=int)
    p.add_argument("--ranks", type=_parse_ranks)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conv_compress)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["wall_time_s"] = time.perf_counter() - start
    _emit(report, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
