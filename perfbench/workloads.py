"""Seeded inputs, per-pass runners and per-op checks for the benchmark.

There is one group per user of tenkit: people who run robust tensor PCA
(``RpcaGroup``), people who decompose tensors (``DecomposeGroup``) and
people who build factorized network layers (``LayersGroup``). Each
group plants its inputs from a ``numpy.random.Generator`` and keeps the
ground truth on the benchmark side: tenkit only sees the TNSR files
written here and the arrays handed to its public functions.

An op is one CLI invocation through ``tenkit.cli.main`` or one call of
a public library function, issued by a single caller after the previous
op has returned (a closed loop with one client). ``Ledger`` counts ops
attempted and failed; an op that fails a check is counted, never
dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import struct
import time
from dataclasses import dataclass

import numpy as np

import tenkit.cli
from tenkit import convfact, nn
from tenkit.decomp import TuckerTensor
from tenkit.serialize import load_model


# ---------------------------------------------------------------------------
# ops and checks


@dataclass
class Op:
    name: str
    seconds: float
    result: object
    ok: bool = True


class Ledger:
    """Runs ops, times them, and records which ones failed a check."""

    def __init__(self):
        self.ops = []
        self.failures = []  # (op name, reason)
        self.tracer = None

    def run(self, name, fn, *args, **kwargs) -> Op:
        scope = self.tracer.op(name) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = fn(*args, **kwargs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            op = Op(name, time.perf_counter() - start, None)
            self.ops.append(op)
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return op
        op = Op(name, time.perf_counter() - start, result)
        self.ops.append(op)
        return op

    def check(self, op: Op, ok, reason: str) -> bool:
        if not ok:
            self.fail(op, reason)
        return bool(ok)

    def fail(self, op: Op, reason: str):
        op.ok = False
        self.failures.append((op.name, reason))

    def merge(self, other: "Ledger"):
        self.ops += other.ops
        self.failures += other.failures

    def times(self) -> dict:
        """Every measured time of each op name, in run order."""
        out = {}
        for op in self.ops:
            out.setdefault(op.name, []).append(op.seconds)
        return out

    def typical(self) -> dict:
        """Typical time of each op name: the mean of the middle half of
        its repeats (all of them below four). The machine flips between
        a fast and a slow mode every few seconds, so an op's times fall
        in two clusters whose shares change from run to run; the median
        then jumps between the clusters, while this mean moves with the
        shares."""
        return {name: middle_mean(t) for name, t in self.times().items()}

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def middle_mean(values) -> float:
    """Mean of the middle half of ``values``."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tenkit.cli.main(argv)
    return code, out.getvalue()


def cli(ledger: Ledger, name: str, argv):
    """One ``tenkit`` invocation; returns the op and its JSON report, or
    ``None`` for the report when the exit code is not 0."""
    op = ledger.run(name, _call_cli, [*argv, "--json"])
    if op.result is None:
        return op, None
    code, out = op.result
    if not ledger.check(op, code == 0, f"exit code {code}"):
        return op, None
    return op, json.loads(out.strip().splitlines()[-1])


def rel_err(estimate, truth) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


# ---------------------------------------------------------------------------
# inputs (the TNSR container is written and read here, not through tenkit,
# so the inputs and the checks do not depend on the code under test)


def write_tnsr(path, array):
    a = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHQ", b"TNSR", 1, 0, a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        fh.write(a.tobytes())


def read_tnsr(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, _, _, order = struct.unpack_from("<4sHHQ", data)
        shape = struct.unpack_from(f"<{order}Q", data, 16)
    except struct.error as exc:
        raise ValueError(f"{path}: truncated header ({exc})") from None
    if magic != b"TNSR":
        raise ValueError(f"{path}: not a TNSR file")
    return np.frombuffer(data, "<f8", offset=16 + 8 * order).reshape(shape)


def cp_tensor(rng, shape, rank) -> np.ndarray:
    """Dense tensor of a random rank-``rank`` CP model."""
    letters = "abcdefgh"[: len(shape)]
    factors = [rng.standard_normal((s, rank)) for s in shape]
    spec = ",".join(f"{c}r" for c in letters) + "->" + letters
    return np.einsum(spec, *factors)


def with_noise(rng, tensor, level) -> np.ndarray:
    """Add Gaussian noise whose norm is ``level`` times the tensor's."""
    noise = rng.standard_normal(tensor.shape)
    return tensor + level * np.linalg.norm(tensor) / np.linalg.norm(noise) * noise


# ---------------------------------------------------------------------------
# rpca


class RpcaGroup:
    """Robust tensor PCA through ``tenkit rpca``.

    Why: nearly all the time goes to ``linalg.svt``/``svd`` and the
    objective trace inside ``robust.trpca``; the other groups never call
    them. Each planted tensor is a rank-1 CP part plus +-10 mean|L|
    spikes on 5% of the entries, solved at half of ``--lambda auto``;
    the two 20^3 ones are also solved at ``--lambda auto``. The half-auto
    solves keep few singular values per SVT and recover L; the auto
    solves keep nearly all of them and, at 20^3, mostly do not recover L
    (``default_lambda`` is too large), so a rank-exploiting SVT shows on
    one half and not on the other, and the known defect stays visible in
    ``rpca_auto_err``.

    A half-auto solve takes 103 to 176 ADMM iterations depending on the
    seed (12 seeds at 16^3 and 20^3), so ``rpca_s`` adds up seven of
    them to average that out. An auto solve took 137 to 2845 iterations
    over seeds (16^3 to 30^3), so its cost is reported per iteration
    (``rpca_auto_iter_ms``) and its iteration count only in the traced
    run (``robust.trpca.iters``); below 20^3 some seeds recover L at
    ``auto``. Its error at 20^3 ranged from 0.10 to 1.42 over 30 seeds,
    so ``rpca_auto_err`` is the mean over two tensors. There are no rank-2 tensors: one 20x20x12 rank-2 tensor of
    twelve did not converge within 3000 iterations at half-auto, and at
    24x24x12 some seeds recover L at ``auto`` after 2000+ iterations.
    """

    # (shape, CP rank, also solved at --lambda auto)
    FULL = (((20, 20, 20), 1, True),) * 2 + (((16, 16, 16), 1, False),) * 5
    LIGHT = (((12, 12, 12), 1, True),)
    # far above the iterations any of these solves needs, so that a
    # solve that stops early is a real failure to converge
    MAX_ITERS = "3000"

    def __init__(self, rng, work, light=False):
        self.work = work
        self.cases = []
        for i, (shape, rank, auto) in enumerate(self.LIGHT if light else self.FULL):
            low = cp_tensor(rng, shape, rank)
            mask = rng.random(shape) < 0.05
            sparse = np.zeros(shape)
            sparse[mask] = 10 * np.abs(low).mean() * rng.choice([-1.0, 1.0], mask.sum())
            path = os.path.join(work, f"rpca_{i}.tnsr")
            write_tnsr(path, low + sparse)
            # the benchmark's own half of 1/sqrt(max mode size), so the
            # input stays fixed if tenkit's default changes
            half = 0.5 / float(np.sqrt(max(shape)))
            self.cases.append((path, low, half, auto))
        self.recovery_errs = []
        self.auto_errs = []
        self.auto_iters = {}  # op name -> ADMM iterations (the same every pass)

    def run_pass(self, ledger: Ledger):
        for i, (path, low, half, auto) in enumerate(self.cases):
            self._solve(ledger, f"half.{i}", path, repr(half), low)
            if auto:
                self._solve(ledger, f"auto.{i}", path, "auto", low)

    def timings(self, typical) -> dict:
        auto = [name for name in typical if name.startswith("rpca.auto.")]
        return {
            "rpca_s": sum(t for name, t in typical.items() if name.startswith("rpca.half.")),
            "rpca_auto_iter_ms": 1e3
            * sum(typical[name] for name in auto)
            / sum(self.auto_iters[name] for name in auto),
        }

    def _solve(self, ledger, name, path, lam, low):
        out = os.path.join(self.work, f"rpca_{name}")
        op, rep = cli(
            ledger,
            f"rpca.{name}",
            ["rpca", path, "--lambda", lam, "--max-iters", self.MAX_ITERS, "--out", out],
        )
        if rep is None:
            return
        ledger.check(op, rep["converged"] is True, "did not converge")
        feas = rep["feasibility_residual"]
        ledger.check(op, feas < 1e-6, f"feasibility residual {feas:.3g}")
        try:
            err = rel_err(read_tnsr(os.path.join(out, "L.tnsr")), low)
        except (OSError, ValueError) as exc:
            ledger.fail(op, f"cannot read L.tnsr: {exc}")
            return
        if lam == "auto":
            iters = self.auto_iters.setdefault(op.name, rep["iterations"])
            ledger.check(op, rep["iterations"] == iters, "iterations differ from the first pass")
            self.auto_errs.append(err)
        else:
            ledger.check(op, err <= 1e-5, f"L not recovered: error {err:.3g}")
            self.recovery_errs.append(err)

    def accuracy(self) -> dict:
        return {
            "rpca_recovery_err": float(np.mean(self.recovery_errs))
            if self.recovery_errs
            else float("nan"),
            "rpca_auto_err": float(np.mean(self.auto_errs)) if self.auto_errs else float("nan"),
        }


# ---------------------------------------------------------------------------
# decompose


class DecomposeGroup:
    """``tenkit info`` and ``tenkit decompose --method cp|tucker|tt|mpca``.

    Why: most of the time goes to ``core`` (MTTKRP through Khatri-Rao,
    n-mode products), dense reconstruction in ``decomp`` and the thin or
    partial SVDs in ``linalg``; manifests are written; ``svt`` is never
    called. Input A is a planted rank-R tensor with 10% noise; input B
    is pure Gaussian noise. The sweep count at which CP-ALS, HOOI and
    MPCA stop on their own depends on the seed (CP on A took 8 to 119
    sweeps over seeds 0-5, and on B CP, HOOI and MPCA took 85 to 500),
    so those runs are capped below the smallest count seen: their work is
    then the same on every seed. Tucker and MPCA on A stop after 2 sweeps
    on every seed and TT-SVD is not iterative, so they run uncapped.
    """

    METHODS = ("cp", "tucker", "tt", "mpca")
    # (name, shape, planted rank or None for noise, noise level, rank,
    #  TT tolerance, sweep caps by method)
    FULL = (
        ("A", (72, 72, 72), 10, 0.1, 10, 0.2, {"cp": 5}),
        ("B", (48, 48, 48), None, None, 8, 0.5, {"cp": 50, "tucker": 50, "mpca": 50}),
    )
    LIGHT = (
        ("A", (40, 40, 40), 6, 0.1, 6, 0.2, {"cp": 5}),
        ("B", (30, 30, 30), None, None, 4, 0.5, {"cp": 30, "tucker": 30, "mpca": 30}),
    )

    def __init__(self, rng, work, light=False):
        self.work = work
        self.inputs = []
        for name, shape, planted, level, rank, tol, caps in self.LIGHT if light else self.FULL:
            if planted is None:
                x = rng.standard_normal(shape)
            else:
                x = with_noise(rng, cp_tensor(rng, shape, planted), level)
            path = os.path.join(work, f"decomp_{name}.tnsr")
            write_tnsr(path, x)
            argv = {
                "cp": ["--rank", str(rank)],
                "tucker": ["--ranks", ",".join([str(rank)] * len(shape))],
                "tt": ["--tol", repr(tol)],
                "mpca": ["--ranks", ",".join([str(rank)] * (len(shape) - 1))],
            }
            for method, cap in caps.items():
                argv[method] += ["--max-iters", str(cap)]
            self.inputs.append((name, path, x, tol, argv))
        self.rel_errs = []

    def run_pass(self, ledger: Ledger):
        for name, path, x, tol, argv in self.inputs:
            op, rep = cli(ledger, f"info.{name}", ["info", path])
            if rep is not None:
                ledger.check(op, tuple(rep["shape"]) == x.shape, f"shape {rep['shape']}")
                norm = np.linalg.norm(x)
                ledger.check(
                    op,
                    abs(rep["frobenius_norm"] - norm) <= 1e-9 * norm,
                    f"norm {rep['frobenius_norm']!r} != {norm!r}",
                )
            for method in self.METHODS:
                out = os.path.join(self.work, f"decomp_{name}_{method}")
                op, rep = cli(
                    ledger,
                    f"decompose.{name}.{method}",
                    ["decompose", path, "--method", method, *argv[method], "--out", out],
                )
                if rep is None:
                    continue
                reported = rep["relative_error"]
                self.rel_errs.append(reported)
                try:
                    model = load_model(out)
                    recon = model.reconstruct() if method == "mpca" else model.to_tensor()
                except (OSError, ValueError, KeyError) as exc:
                    ledger.fail(op, f"cannot reload manifest: {exc!r}")
                    continue
                err = rel_err(recon, x)
                ledger.check(
                    op,
                    abs(err - reported) <= 1e-9 * max(err, 1e-12),
                    f"reloaded error {err!r} != reported {reported!r}",
                )
                if method == "tt":
                    ledger.check(op, err <= tol, f"TT error {err:.6g} above tol {tol}")

    def timings(self, typical) -> dict:
        return {
            f"{m}_s": sum(typical[f"decompose.{name}.{m}"] for name, *_ in self.inputs)
            for m in self.METHODS
        }

    def accuracy(self) -> dict:
        return {"decomp_rel_err": float(np.mean(self.rel_errs)) if self.rel_errs else float("nan")}


# ---------------------------------------------------------------------------
# layers


# the layers kernel is the same on every seed (see LayersGroup)
KERNEL_SEED = 20210709


@dataclass(frozen=True)
class LayerSizes:
    kernel: tuple  # T, C, K, K
    cp_rank: int
    cp_cap: int  # CP-ALS sweeps
    tucker_ranks: str
    tucker_cap: int  # HOOI sweeps
    images: int  # C x D x D inputs per sweep through the 2-D pipelines
    image_side: int
    volumes: int  # C x depth x D x D inputs per sweep through separable_convnd
    depth: int
    sweeps: int  # sweeps over the same inputs per pass
    samples: int
    trl_in: tuple
    trl_out: int
    trl_rank: int
    poly_width: int  # d = k
    poly_out: int
    epochs: int


class LayersGroup:
    """``tenkit conv-compress``, the factorized convolutions and training.

    Why: the time goes to ``convfact`` einsum kernels and to the
    per-sample loops in ``nn``. ``decomp.cp_als`` runs very differently
    from the decompose group: a small order-4 kernel with a rank above
    the mode sizes, which never converges and so runs exactly its
    ``--max-iters`` sweeps (fixed work), so the time goes to Python
    overhead and the small ``lstsq`` rather than to MTTKRP. The
    pipelines run on the kernels the CLI wrote, reloaded with
    ``load_model``, and every output is compared with ``conv_nd_direct``
    on the reconstructed kernel.

    The kernel plays a trained model that users compress: it is the same
    Gaussian kernel on every seed, while the images, volumes and training
    sets come from the seed. With a seeded kernel, ``conv_max_dev`` varied
    by a third between seeds, because each CP fit rounds differently, and
    HOOI stopped after anywhere from 102 to 500 sweeps (seeds 11-18); HOOI
    is still capped at 50 sweeps to bound the pass.

    ``conv_max_dev`` divides the deviation by the pipeline's output on
    ``|x|`` with the absolute values of the factors: the size of the
    products the pipeline sums, which is what its rounding error scales
    with. Divided by ``max|direct|`` instead, the deviation of the CP
    pipelines follows the conditioning of each seed's CP fit and ranged
    from 1.0e-15 to 5.8e-15 over seeds 11-18; that ratio is still the
    pass/fail check of every output. The 3-D kernel reuses the height
    bank as its depth bank.
    """

    FULL = LayerSizes(
        kernel=(64, 64, 3, 3), cp_rank=16, cp_cap=100, tucker_ranks="16,16,3,3",
        tucker_cap=50, images=4, image_side=32, volumes=1, depth=8, sweeps=8,
        samples=512, trl_in=(16, 16, 8), trl_out=10, trl_rank=4,
        poly_width=16, poly_out=4, epochs=5,
    )
    LIGHT = LayerSizes(
        kernel=(32, 32, 3, 3), cp_rank=8, cp_cap=100, tucker_ranks="8,8,3,3",
        tucker_cap=50, images=4, image_side=24, volumes=1, depth=4, sweeps=4,
        samples=256, trl_in=(8, 8, 8), trl_out=6, trl_rank=3,
        poly_width=12, poly_out=3, epochs=5,
    )
    # at 0.05 the TRL loss rose over 5 epochs on one seed in 30; at 0.02
    # the worst seed's last loss was 0.48 (TRL) and 0.93 (PolyNet) of its first
    LR = 0.02

    def __init__(self, rng, work, light=False):
        z = self.sizes = self.LIGHT if light else self.FULL
        self.work = work
        self.kernel_path = os.path.join(work, "kernel.tnsr")
        write_tnsr(self.kernel_path, np.random.default_rng(KERNEL_SEED).standard_normal(z.kernel))
        c = z.kernel[1]
        self.images = [rng.standard_normal((c, z.image_side, z.image_side)) for _ in range(z.images)]
        self.volumes = [
            rng.standard_normal((c, z.depth, z.image_side, z.image_side)) for _ in range(z.volumes)
        ]
        self.trl_data, self.trl_init = self._trl(rng, z)
        self.poly_data, self.poly_init = self._polynet(rng, z)
        self.references = {}  # (pipeline, kernel bytes) -> [(direct output, scale)]
        self.losses = {}  # model -> losses of the first pass
        self.max_dev = 0.0

    @staticmethod
    def _trl(rng, z):
        # teacher: orthonormal factors and a Gaussian core; the student
        # starts from the teacher with 30% perturbations
        ranks = [z.trl_rank] * (len(z.trl_in) + 1)
        dims = [*z.trl_in, z.trl_out]
        core = rng.standard_normal(ranks)
        factors = [np.linalg.qr(rng.standard_normal((d, r)))[0] for d, r in zip(dims, ranks)]
        x = rng.standard_normal((z.samples, *z.trl_in))
        y = np.einsum(
            "sijk,ia,jb,kc,abco,do->sd", x, *factors[:3], core, factors[3], optimize=True
        )
        y += 0.1 * rng.standard_normal(y.shape)
        student = nn.TrlLayer(
            TuckerTensor(
                core + 0.3 * rng.standard_normal(core.shape),
                [f + 0.3 * rng.standard_normal(f.shape) / np.sqrt(f.shape[0]) for f in factors],
            ),
            np.zeros(z.trl_out),
        )
        return (x, y), student

    @staticmethod
    def _polynet(rng, z):
        d = z.poly_width
        factors = [rng.standard_normal((d, d)) / d for _ in range(3)]
        mix = rng.standard_normal((z.poly_out, d)) / np.sqrt(d)
        inputs = rng.standard_normal((z.samples, d))
        state = inputs @ factors[0]
        for f in factors[1:]:
            state = (inputs @ f) * state + state
        targets = state @ mix.T
        student = nn.PolyNet(
            [f + 0.3 * rng.standard_normal(f.shape) / d for f in factors],
            mix + 0.3 * rng.standard_normal(mix.shape) / np.sqrt(d),
            np.zeros(z.poly_out),
        )
        return (inputs, targets), student

    def _compress(self, ledger, form, argv, cls):
        out = os.path.join(self.work, f"conv_{form}")
        op, rep = cli(
            ledger, f"conv-compress.{form}",
            ["conv-compress", self.kernel_path, "--form", form, *argv, "--out", out],
        )
        if rep is None:
            return None
        try:
            kernel = load_model(out)
        except (OSError, ValueError, KeyError) as exc:
            ledger.fail(op, f"cannot reload manifest: {exc!r}")
            return None
        if not ledger.check(op, isinstance(kernel, cls), f"reloaded a {type(kernel).__name__}"):
            return None
        return kernel

    def _pipeline(self, ledger, name, fn, kernel, inputs):
        """One op per sweep over the inputs."""
        full = kernel.reconstruct()
        key = (name, full.tobytes())
        if key not in self.references:
            scale = _magnitude(kernel)
            self.references[key] = [
                (convfact.conv_nd_direct(x, full), np.linalg.norm(fn(np.abs(x), scale)))
                for x in inputs
            ]
        for _ in range(self.sizes.sweeps):
            op = ledger.run(f"conv.{name}", lambda: [fn(x, kernel) for x in inputs])
            if op.result is None:
                continue
            for got, (ref, scale) in zip(op.result, self.references[key]):
                dev = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
                ledger.check(op, dev <= 1e-12, f"pipeline deviates by {dev:.3g}")
                self.max_dev = max(self.max_dev, float(np.linalg.norm(got - ref) / scale))
            op.result = None

    def _train(self, ledger, name, model, data):
        z = self.sizes
        op = ledger.run(f"train.{name}", nn.sgd_fit, model, data, self.LR, z.epochs)
        if op.result is None:
            return
        losses = op.result[1]
        first = self.losses.setdefault(name, losses)
        ledger.check(op, losses == first, "losses differ from the first pass")
        ledger.check(op, losses[-1] < losses[0], f"loss rose from {losses[0]!r} to {losses[-1]!r}")

    def run_pass(self, ledger: Ledger):
        z = self.sizes
        kruskal = self._compress(
            ledger,
            "cp",
            ["--rank", str(z.cp_rank), "--max-iters", str(z.cp_cap)],
            convfact.KruskalConvKernel,
        )
        tucker = self._compress(
            ledger,
            "tucker",
            ["--ranks", z.tucker_ranks, "--max-iters", str(z.tucker_cap)],
            convfact.TuckerConvKernel,
        )
        if kruskal is not None:
            self._pipeline(ledger, "kruskal", convfact.kruskal_conv2d, kruskal, self.images)
            # extended to depth with the height bank: an isotropic 3-D kernel
            separable = convfact.transduce(
                convfact.SeparableConvKernel(
                    np.ones(kruskal.rank), kruskal.u_out, kruskal.u_in, [kruskal.u_h, kruskal.u_w]
                ),
                kruskal.u_h,
            )
            self._pipeline(ledger, "separable", convfact.separable_convnd, separable, self.volumes)
        if tucker is not None:
            self._pipeline(ledger, "tucker", convfact.tucker_conv2d, tucker, self.images)
        self._train(ledger, "trl", self.trl_init, self.trl_data)
        self._train(ledger, "polynet", self.poly_init, self.poly_data)

    def timings(self, typical) -> dict:
        z = self.sizes
        nan = float("nan")
        conv = z.sweeps * sum(typical.get(f"conv.{p}", nan) for p in ("kruskal", "separable", "tucker"))
        train = typical.get("train.trl", nan) + typical.get("train.polynet", nan)
        return {
            "conv_compress_s": typical.get("conv-compress.cp", nan) + typical.get("conv-compress.tucker", nan),
            "conv_fwd_imgs_per_s": (2 * len(self.images) + len(self.volumes)) * z.sweeps / conv,
            "train_epochs_per_s": 2 * z.epochs / train,
        }

    def accuracy(self) -> dict:
        return {"conv_max_dev": self.max_dev}


def _magnitude(kernel):
    """The same factorized kernel with every factor replaced by its
    absolute values."""
    if isinstance(kernel, convfact.KruskalConvKernel):
        return convfact.KruskalConvKernel(
            np.abs(kernel.u_out), np.abs(kernel.u_in), np.abs(kernel.u_h), np.abs(kernel.u_w)
        )
    if isinstance(kernel, convfact.TuckerConvKernel):
        t = kernel.tucker
        return convfact.TuckerConvKernel(TuckerTensor(np.abs(t.core), [np.abs(f) for f in t.factors]))
    return convfact.SeparableConvKernel(
        np.abs(kernel.weights),
        np.abs(kernel.u_out),
        np.abs(kernel.u_in),
        [np.abs(m) for m in kernel.spatial],
    )


GROUPS = {"rpca": RpcaGroup, "decompose": DecomposeGroup, "layers": LayersGroup}
