"""tenkit benchmark: seeded workloads timed end to end, with checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpca|decompose|layers --seed N \
        --seconds S --trace 0|1

The program under test is the tenkit source tree under ``src/``; nothing
is installed. The run is made of rounds until ``--seconds`` is used up
(at least two rounds). A round is one pass of the workload's own group at
full size, one cold import of ``tenkit.cli`` (``setup_s``), and two
back-to-back passes of each other group on small fixed inputs
("companions"), so that every run reports every end-to-end metric and
the short samples are spread over the whole run. Each op counts at the
mean of the middle half of its repeats in the run, and ``setup_s`` is
the median cold import.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` untraced and traced passes of the
workload's own group alternate (no companions) and the JSON object holds
the per-layer metrics of the traced passes, plus ``trace.overhead_s``,
the traced minus the untraced time of a pass, and
``trace.op_gap_max_s``, the largest difference over ops between an op's
traced and untraced time. Spans go to
``.perfbench/spans-<workload>-<seed>.jsonl`` and every run's full record,
with its environment, to ``.perfbench/result-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
# companions use fixed inputs: their figures carry no seed-to-seed spread
COMPANION_SEED = 20210708
# a companion op lasts tens of milliseconds; its first run after a pass
# of the own group starts on caches that pass filled, the repeat does not
COMPANION_REPEATS = 2

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rpca_s": "s",
    "rpca_auto_iter_ms": "ms",
    "rpca_recovery_err": "ratio",
    "rpca_auto_err": "ratio",
    "cp_s": "s",
    "tucker_s": "s",
    "tt_s": "s",
    "mpca_s": "s",
    "decomp_rel_err": "ratio",
    "conv_compress_s": "s",
    "conv_fwd_imgs_per_s": "1/s",
    "conv_max_dev": "ratio",
    "train_epochs_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["rpca", "decompose", "layers"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Run BLAS on one thread; must run before numpy is imported.

    On a 2-vCPU machine shared with other tenants, a second BLAS thread
    made the decompose ops slower (MPCA 1.05 s against 0.66 s per pass)
    and their run-to-run spread larger (9-34% against 5-10%, seeds
    401-406), because it waits for a CPU that other tenants share.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cold_import():
    """Wall time of a fresh interpreter importing ``tenkit.cli``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import tenkit.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
    )
    return time.perf_counter() - start


def pass_loop(seconds, run_pass):
    """Run passes until the next one would overrun ``seconds`` (at least
    ``MIN_PASSES``); returns the number of passes."""
    start = time.perf_counter()
    passes = 0
    last = 0.0
    while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        run_pass(passes)
        last = time.perf_counter() - began
        passes += 1
    return passes


def run_untraced(args, group, companions, ledger):
    """Rounds of: one pass of the workload's own group, one cold import,
    and ``COMPANION_REPEATS`` back-to-back passes of each companion."""
    setup = []

    def one_round(_):
        group.run_pass(ledger)
        setup.append(cold_import())
        for companion in companions:
            for _ in range(COMPANION_REPEATS):
                companion.run_pass(ledger)

    cold_import()  # writes the bytecode cache
    rounds = pass_loop(args.seconds, one_round)
    typical = ledger.typical()
    metrics = {"setup_s": statistics.median(setup)}
    for g in (group, *companions):
        metrics.update(g.timings(typical))
        metrics.update(g.accuracy())
    return metrics, {"passes": rounds, "setup_samples": setup}


def run_traced(args, group, ledger, tenkit):
    from tracing import Tracer
    from workloads import Ledger, middle_mean

    tracer = Tracer(tenkit)
    untraced = Ledger()  # same checks, kept apart only for the timings

    def one_pass(i):
        if i % 2 == 0:
            group.run_pass(untraced)
            return
        tracer.install()
        ledger.tracer = tracer
        try:
            group.run_pass(ledger)
        finally:
            tracer.uninstall()
            ledger.tracer = None

    passes = pass_loop(args.seconds, one_pass)
    traced_passes = passes // 2
    metrics = tracer.layer_metrics(traced_passes)
    # per op, the traced self times add up to the op's traced duration
    traced = {name: middle_mean(t) for name, t in tracer.op_seconds().items()}
    plain = untraced.typical()
    metrics["trace.overhead_s"] = sum(traced.values()) - sum(plain.values())
    metrics["trace.op_gap_max_s"] = max(abs(traced[name] - plain[name]) for name in traced)
    ledger.merge(untraced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    return metrics, {
        "passes": passes,
        "traced_passes": traced_passes,
        "op_typical_traced": traced,
        "op_typical_untraced": plain,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tenkit" / "__init__.py").is_file():
        print(f"perfbench: no tenkit sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tenkit

    if Path(tenkit.__file__).resolve().parent != SRC / "tenkit":
        print(f"perfbench: imported tenkit from {tenkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tenkit import convfact
    from tracing import cross_check_counts, layer_metric_names
    from workloads import GROUPS, Ledger

    env = environment(args)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    problems = cross_check_counts(convfact)
    ledger = Ledger()
    try:
        main_group = GROUPS[args.workload](
            np.random.default_rng(args.seed), _subdir(work, args.workload)
        )
        if args.trace:
            metrics, record = run_traced(args, main_group, ledger, tenkit)
            units = _layer_units(layer_metric_names())
        else:
            companions = [
                cls(np.random.default_rng([COMPANION_SEED, i]), _subdir(work, name), light=True)
                for i, (name, cls) in enumerate(GROUPS.items())
                if name != args.workload
            ]
            metrics, record = run_untraced(args, main_group, companions, ledger)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        env=env,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.failures[:50],
        count_problems=problems,
        op_seconds=ledger.times(),
    )
    metrics = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    with open(OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    _print_report(args, record, ledger)
    result = {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _subdir(work, name):
    path = work / name
    path.mkdir(parents=True)
    return str(path)


def _layer_units(names):
    from tracing import UNITS

    return {name: UNITS[name.rsplit(".", 1)[1]] for name in names}


def _print_report(args, record, ledger):
    passes = record["passes"]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} passes={passes}"
    )
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:<14.6g} {metric['unit']}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  {'fail_rate':<44} {rate:<14.6g} ratio  ({ledger.failed} of {ledger.attempted} ops)")
    if not args.trace:
        print(
            f"  (times: each op's middle-half mean over {passes} rounds; setup_s: "
            f"median of {passes} cold imports)"
        )
    for op, reason in ledger.failures[:20]:
        print(f"  FAILED {op}: {reason}")
    for problem in record["count_problems"]:
        print(f"  COUNT MISMATCH {problem}")


if __name__ == "__main__":
    sys.exit(main())
