"""Traced runs: span recording around tenkit's public functions.

Every public function of every tenkit module is wrapped in each module
namespace that binds it. ``from .core import unfold`` in ``robust`` makes
``robust.unfold`` a second binding of ``core.unfold``, and both are
replaced, so a call is caught however the caller reaches the function.
Spans (name, start, end, parent, op id) stay in memory until the run
writes them out.

Work counts ("computed", from argument and result shapes, never
measured) are taken after a span ends, with the clock paused, so neither
the span nor its ancestors pay for them. That matters for
``linalg.svt.kept_ratio``, which needs one extra singular value
decomposition per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import pkgutil
import time

import numpy as np

# Per-layer metrics reported by a traced run: (function, extra stats).
# Every function also reports ``calls`` and ``self_s`` per traced pass.
LAYERS = (
    ("linalg.svt", ("kept_ratio",)),
    ("linalg.svd", ("flops",)),
    ("robust.trpca", ("iters", "s_per_iter")),
    ("decomp.kruskal_to_tensor", ()),
    ("core.khatri_rao", ("bytes",)),
    ("linalg.lstsq", ()),
    ("decomp.cp_als", ("sweeps",)),
    ("core.mode_n_product", ("macs",)),
    ("core.multi_mode_product", ()),
    ("core.unfold", ()),
    ("core.fold", ()),
    ("core.frobenius", ()),
    ("linalg.left_singular_basis", ()),
    ("decomp.tucker_hooi", ("sweeps",)),
    ("decomp.mpca", ("sweeps",)),
    ("decomp.tucker_hosvd", ()),
    ("decomp.tt_svd", ()),
    ("convfact.conv_nd_direct", ("macs", "gmacs_per_s")),
    ("convfact.kruskal_conv2d", ("macs", "gmacs_per_s")),
    ("convfact.tucker_conv2d", ("macs", "gmacs_per_s")),
    ("convfact.separable_convnd", ("macs", "gmacs_per_s")),
    ("convfact.conv1x1", ("macs", "gmacs_per_s")),
    ("convfact.decompose_kernel", ()),
    ("nn.sgd_fit", ()),
    ("nn.trl_forward", ()),
    ("nn.trl_grad", ()),
    ("nn.polynet_forward", ()),
    ("nn.polynet_grad", ()),
    ("io.read_tnsr", ("bytes",)),
    ("io.write_tnsr", ("bytes",)),
    ("serialize.save_model", ()),
    ("cli.main", ()),
    ("cli.cmd_info", ()),
    ("cli.cmd_decompose", ()),
    ("cli.cmd_rpca", ()),
    ("cli.cmd_conv_compress", ()),
    # the benchmark's own code inside an op, outside every tenkit call
    ("bench.op", ()),
)
TRACE_METRICS = ("trace.overhead_s", "trace.op_gap_max_s")

UNITS = {
    "calls": "count",
    "self_s": "s",
    "kept_ratio": "ratio",
    "flops": "flop",
    "bytes": "B",
    "macs": "MAC",
    "gmacs_per_s": "GMAC/s",
    "iters": "count",
    "sweeps": "count",
    "s_per_iter": "s",
    "overhead_s": "s",
    "op_gap_max_s": "s",
}


def layer_metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for func, extra in LAYERS:
        names += [f"{func}.{stat}" for stat in ("calls", "self_s", *extra)]
    return names + list(TRACE_METRICS)


# ---------------------------------------------------------------------------
# computed work counts


def direct_macs(kernel_shape, in_shape) -> int:
    """Multiply-accumulates of the direct N-D convolution."""
    t, c, *ks = kernel_shape
    out = [d - k + 1 for d, k in zip(in_shape[1:], ks)]
    return t * c * math.prod(ks) * math.prod(out)


def separable_macs(t, c, ks, rank, spatial) -> int:
    """Multiply-accumulates of the separable (Kruskal) pipeline: 1x1 conv
    down to the rank, one depthwise 1-D conv per spatial mode, 1x1 conv
    up. The ``T x R`` product that folds the component weights into the
    output factor is left out, as ``kruskal_multiply_count`` leaves it."""
    ext = list(spatial)
    macs = rank * c * math.prod(ext)
    for i, k in enumerate(ks):
        ext[i] -= k - 1
        macs += rank * k * math.prod(ext)
    return macs + t * rank * math.prod(ext)


def tucker_macs(t, c, ks, ranks, spatial) -> int:
    """Multiply-accumulates of ``tucker_conv2d``: 1x1 conv down to R2,
    the spatial factors absorbed into the core, the small R2 -> R1
    direct convolution, and the 1x1 conv up."""
    r1, r2, r3, r4 = ranks
    kh, kw = ks
    absorb = kh * r1 * r2 * r3 * r4 + kw * r1 * r2 * kh * r4
    core = direct_macs((r1, r2, kh, kw), (r2, *spatial))
    out = [d - k + 1 for d, k in zip(spatial, ks)]
    return r2 * c * math.prod(spatial) + absorb + core + t * r1 * math.prod(out)


def cross_check_counts(convfact) -> list:
    """Compare the formulas above with the counters tenkit ships.

    Returns a list of mismatch descriptions (empty when all agree).
    """
    problems = []
    for kshape, ishape, rank in (
        ((64, 64, 3, 3), (64, 32, 32), 16),
        ((8, 5, 3, 2), (5, 9, 7), 4),
    ):
        mine = direct_macs(kshape, ishape)
        theirs = convfact.direct_multiply_count(kshape, ishape)
        if mine != theirs:
            problems.append(f"direct {kshape} on {ishape}: {mine} != {theirs}")
        t, c, h, w = kshape
        mine = separable_macs(t, c, (h, w), rank, ishape[1:])
        theirs = convfact.kruskal_multiply_count(kshape, rank, ishape)["total"]
        if mine != theirs:
            problems.append(f"kruskal {kshape} rank {rank}: {mine} != {theirs}")
    return problems


def _svd_counts(a, result):
    m, n = sorted(np.shape(a), reverse=True)
    # R-SVD computing S, thin U and V (Golub & Van Loan's flop table)
    return {"flops": 6 * m * n * n + 20 * n**3}


def _svt_counts(a, tau, result):
    s = np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
    return {"kept": int(np.count_nonzero(s > tau)), "spectrum": s.size}


def _conv_counts(macs):
    return lambda x, kernel, result: {"macs": macs(np.shape(x), kernel)}


def _kruskal(shape, k):
    ks = (k.u_h.shape[0], k.u_w.shape[0])
    return separable_macs(k.u_out.shape[0], k.u_in.shape[0], ks, k.rank, shape[1:])


def _tucker(shape, k):
    t, c, kh, kw = k.tucker.shape
    return tucker_macs(t, c, (kh, kw), k.tucker.ranks, shape[1:])


def _separable(shape, k):
    ks = [m.shape[0] for m in k.spatial]
    return separable_macs(k.u_out.shape[0], k.u_in.shape[0], ks, k.rank, shape[1:])


def _tnsr_bytes(array):
    return 16 + 8 * np.ndim(array) + 8 * np.size(array)


# span name -> (argument names, counter(*arguments, result) -> dict)
COUNTERS = {
    "linalg.svd": (("a",), _svd_counts),
    "linalg.svt": (("a", "tau"), _svt_counts),
    "robust.trpca": ((), lambda r: {"iters": r.iterations}),
    "core.khatri_rao": ((), lambda r: {"bytes": r.nbytes}),
    "core.mode_n_product": (
        ("tensor", "matrix"),
        lambda x, m, r: {"macs": np.shape(m)[0] * np.size(x)},
    ),
    "decomp.mpca": ((), lambda r: {"sweeps": len(r.scatters)}),
    "convfact.conv_nd_direct": (
        ("x", "kernel"),
        lambda x, k, r: {"macs": direct_macs(np.shape(k), np.shape(x))},
    ),
    "convfact.conv1x1": (
        ("x", "weight"),
        lambda x, w, r: {"macs": np.shape(w)[0] * np.size(x)},
    ),
    "convfact.kruskal_conv2d": (("x", "kernel"), _conv_counts(_kruskal)),
    "convfact.tucker_conv2d": (("x", "kernel"), _conv_counts(_tucker)),
    "convfact.separable_convnd": (("x", "kernel"), _conv_counts(_separable)),
    "io.read_tnsr": ((), lambda r: {"bytes": _tnsr_bytes(r)}),
    "io.write_tnsr": (("tensor",), lambda x, r: {"bytes": _tnsr_bytes(x)}),
}
# solvers whose sweep count is only in the info dict they return on request
WITH_INFO = {"decomp.cp_als", "decomp.tucker_hooi"}


def span_name(fn) -> str:
    module = fn.__module__
    if module.startswith("tenkit."):
        module = module[len("tenkit."):]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """Wraps tenkit's public functions and records one span per call.

    ``install`` swaps the wrappers into every binding and ``uninstall``
    restores the originals, so untraced passes run the unmodified code.
    """

    def __init__(self, package):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = {}  # span name -> {count: total}
        self.op_names = []
        self._stack = []
        self._paused = 0.0
        self._wrappers = {}
        self._bindings = []
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith(package.__name__)
                ):
                    if obj not in self._wrappers:
                        self._wrappers[obj] = self._wrap(obj)
                    self._bindings.append((module, attr, obj))

    def install(self):
        for module, attr, fn in self._bindings:
            setattr(module, attr, self._wrappers[fn])

    def uninstall(self):
        for module, attr, fn in self._bindings:
            setattr(module, attr, fn)

    def _now(self):
        return time.perf_counter() - self._paused

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._now(), 0.0, parent, len(self.op_names) - 1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = self._now()

    @contextlib.contextmanager
    def op(self, name):
        """Root span of one benchmark op."""
        self.op_names.append(name)
        idx = self._open("bench.op")
        try:
            yield
        finally:
            self._close(idx)

    def _add(self, name, counts):
        total = self.counts.setdefault(name, {})
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value

    def _wrap(self, fn):
        name = span_name(fn)
        arg_names, counter = COUNTERS.get(name, ((), None))
        signature = inspect.signature(fn)
        with_info = name in WITH_INFO

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside an op: checks, input set-up
                return fn(*args, **kwargs)
            call_args, call_kwargs, strip_info = args, kwargs, False
            if with_info:
                bound = signature.bind(*args, **kwargs)
                if not bound.arguments.get("return_info"):
                    bound.arguments["return_info"] = True
                    call_args, call_kwargs = bound.args, bound.kwargs
                    strip_info = True
            idx = self._open(name)
            try:
                result = fn(*call_args, **call_kwargs)
            finally:
                self._close(idx)
            start = time.perf_counter()
            try:
                if with_info:
                    self._add(name, {"sweeps": result[1]["iterations"]})
                    if strip_info:
                        result = result[0]
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    values = [bound.arguments[a] for a in arg_names]
                    self._add(name, counter(*values, result))
            finally:
                self._paused += time.perf_counter() - start
            return result

        return wrapper

    def aggregate(self):
        """Per span name: calls, self seconds and inclusive seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = totals.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start - child[i]
            rec[2] += end - start
        return totals

    def op_seconds(self):
        """Traced duration of each op (the sum of its spans' self times)."""
        out = {}
        for name, start, end, parent, op in self.spans:
            if name == "bench.op":
                out.setdefault(self.op_names[op], []).append(end - start)
        return out

    def layer_metrics(self, passes: int):
        """Per-layer values per traced pass, named as in ``LAYERS``."""
        totals = self.aggregate()
        out = {}
        for func, extra in LAYERS:
            calls, self_s, incl_s = totals.get(func, (0, 0.0, 0.0))
            counts = self.counts.get(func, {})
            out[f"{func}.calls"] = calls / passes
            out[f"{func}.self_s"] = self_s / passes
            for stat in extra:
                if stat == "kept_ratio":
                    spectrum = counts.get("spectrum", 0)
                    value = counts.get("kept", 0) / spectrum if spectrum else 0.0
                elif stat == "gmacs_per_s":
                    value = counts.get("macs", 0) / incl_s / 1e9 if incl_s else 0.0
                elif stat == "s_per_iter":
                    iters = counts.get("iters", 0)
                    value = incl_s / iters if iters else 0.0
                else:
                    value = counts.get(stat, 0) / passes
                out[f"{func}.{stat}"] = value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ops": self.op_names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
