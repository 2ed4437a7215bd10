"""Pipeline benchmark for sphsolve: one workload per process.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/`` of the
same tree and nowhere else.  Workloads (see ``workloads.py``): ``ladder``,
``dense-m8000``, ``mz-designs``.

One client runs the workload's ops in a closed loop, in whole passes over
the op list, until ``--seconds`` have passed (at least one pass).  BLAS
uses at most as many threads as the process may run on.

``--trace 0`` reports the end-to-end metrics, with no wrapper installed:

* ``setup_s``: the median import time of the library in fresh interpreters,
  plus the median of several repeated set-ups in this process (rules, grid
  or probe, and the lazily cached right-hand-side oracle);
* ``wall_s``: median wall time of one pass over the ops;
* ``ops_per_s``: ops that passed their check per second of the timed loop;
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` runs the same untimed loop, then one traced set-up and one
traced pass, then the kernel micro-cases, and reports the per-layer
metrics: self time and calls of every span, shape-computed kernel counts,
distinct-input ratios, the tracing overhead (traced pass minus untraced
median pass) and the accuracy and failure figures.

Every op's result is checked (see ``workloads.py``).  Human-readable lines
and a machine block come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, spans included, goes to
``perfbench/results/BENCH_<yyyymmdd>_<workload>_seed<seed>_trace<t>.json``.
Exit code 2 means the library could not be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 5
# The import is timed in fresh interpreters, each paying it as a user's
# process does; the median of these is the import part of setup_s.
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, sys.argv[1]); import sphsolve; "
                "print(time.perf_counter() - t)")
# The keys of workloads.WORKLOADS, known before the library is imported.
WORKLOAD_NAMES = ("ladder", "dense-m8000", "mz-designs")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> dict[str, str]:
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def import_seconds(src: Path) -> list[float]:
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        times.append(float(child.stdout))
    return times


def machine_block(blas_threads: dict[str, str]) -> dict:
    import numpy
    import scipy
    from sphsolve import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": _kernels.HAVE_NUMBA,
        "kernels_backend": _kernels.BACKEND,
    }


def run_ops(ops, tracer=None) -> tuple[list, list[str]]:
    """Run every op once, in order; return the results and the failures."""
    passed: dict = {}
    results, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op; go on
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        results.append(result)
        reason = op.check(result, passed)
        if reason is None:
            passed[op.key] = result
        else:
            failures.append(f"{op.label}: {reason}")
    if tracer is not None:
        tracer.op = None
    return results, failures


def timed_loop(ops, seconds: float) -> dict:
    """Whole passes over the ops until seconds have passed."""
    walls, results, failures = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        pass_results, pass_failures = run_ops(ops)
        walls.append(time.perf_counter() - pass_start)
        results += pass_results
        failures += pass_failures
    loop_s = time.perf_counter() - start
    return {"walls": walls, "loop_s": loop_s, "ops": len(ops) * len(walls),
            "results": results, "failures": failures}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def accuracy(results) -> tuple[float, float]:
    """Largest uniform error (0 when no solve ran) and largest eta."""
    errors = [getattr(r, "uniform_error", 0.0) for r in results]
    return max(errors, default=0.0), max((r.eta for r in results), default=0.0)


def end_to_end_metrics(setup_s: float, loop: dict) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(loop["walls"]), "s"),
        "ops_per_s": metric((loop["ops"] - len(loop["failures"])) / loop["loop_s"],
                            "1/s"),
        "peak_rss_mb": metric(peak_kib * 1024 / 1e6, "MB"),
    }


def traced_run(workloads, tracer_mod, name: str, seed: int) -> dict:
    """One traced set-up and one traced pass; spans stay in memory."""
    tracer = tracer_mod.Tracer()
    workloads.clear_caches()
    tracer.install()
    try:
        ops = tracer.call(tracer_mod.SETUP_SPAN, workloads.WORKLOADS[name], seed)
        pass_start = len(tracer.spans)
        results, failures = tracer.call(tracer_mod.PASS_SPAN, run_ops, ops, tracer)
    finally:
        tracer.uninstall()
    return {"tracer": tracer, "pass_root": pass_start, "ops": len(ops),
            "results": results, "failures": failures}


def micro_metrics(workloads, seed: int) -> tuple[dict, str | None]:
    cases, check = workloads.micro_cases(seed)
    outputs, metrics = {}, {}
    for case, fn in cases:
        start = time.perf_counter()
        outputs[case] = fn()
        metrics[f"micro.{case}_s"] = metric(time.perf_counter() - start, "s")
    return metrics, check(outputs)


def per_layer_metrics(traced: dict, untraced_wall: float, results: list,
                      failed: int, attempted: int) -> tuple[dict, dict]:
    """Per-layer metrics, and each span's (self, inclusive) share of the pass."""
    tracer = traced["tracer"]
    spans = tracer.summary(range(len(tracer.spans)))
    loop = tracer.summary(tracer.tree_of(traced["pass_root"]))
    root = tracer.spans[traced["pass_root"]]
    traced_wall = root.end - root.start

    out = {}
    for name, (self_s, total_s, calls) in spans.items():
        out[f"{name}.self_s"] = metric(self_s, "s")
        out[f"{name}.total_s"] = metric(total_s, "s")
        out[f"{name}.calls"] = metric(calls, "count")
    counts = tracer.counts
    kernel_self = spans["kernels.product_weight_matrix"][0]
    out["kernels.entries"] = metric(counts["kernels.entries"], "count")
    out["kernels.legendre_terms"] = metric(counts["kernels.legendre_terms"], "count")
    out["kernels.bytes_computed"] = metric(counts["kernels.bytes_computed"], "B")
    out["kernels.term_rate"] = metric(
        counts["kernels.legendre_terms"] / kernel_self if kernel_self else 0.0,
        "1/s")
    for name in ("mz.gram_matrix", "sphere.mesh_norm"):
        out[f"{name}.distinct_ratio"] = metric(
            tracer.distinct_ratio(name, spans[name][2]), "ratio")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.self_sum_s"] = metric(sum(v[0] for v in loop.values()), "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    max_error, max_eta = accuracy(results)
    out["ops"] = metric(attempted, "count")
    out["failed_ops_ratio"] = metric(failed / attempted, "ratio")
    out["max_uniform_error"] = metric(max_error, "1")
    out["max_eta"] = metric(max_eta, "1")
    shares = {name: (self_s / traced_wall, total_s / traced_wall)
              for name, (self_s, total_s, calls) in loop.items() if calls}
    return out, shares


def print_report(name: str, seed: int, machine: dict, metrics: dict,
                 attempted: int, failures: list[str], shares: dict | None) -> None:
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {name} seed {seed}: {attempted} ops attempted, "
          f"{len(failures)} failed")
    for failure in failures:
        print(f"  FAILED {failure}")
    for key, m in metrics.items():
        print(f"  {key:42s} {m['value']:.6g} {m['unit']}")
    if shares:
        print("  kernel counts and bytes are computed from array shapes, "
              "not measured")
        print(f"  {'share of the traced pass':40s} {'self':>8s} {'inclusive':>10s}")
        for key, (own, total) in sorted(shares.items(), key=lambda kv: -kv[1][0]):
            print(f"    {key:38s} {100.0 * own:7.2f}% {100.0 * total:9.2f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = limit_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sphsolve
        import tracer as tracer_mod
        import workloads
    except ImportError as exc:
        print(f"cannot import sphsolve from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(sphsolve.__file__).resolve().is_relative_to(src):
        print(f"sphsolve was imported from {sphsolve.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import_times = import_seconds(src)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workloads.clear_caches()
        start = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    loop = timed_loop(ops, args.seconds)
    results, failures = loop["results"], loop["failures"]
    attempted = loop["ops"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "import_s": import_times, "setup_repeats_s": setup_times,
              "pass_walls_s": loop["walls"], "loop_s": loop["loop_s"]}

    shares, micro_failure = None, None
    if args.trace:
        traced = traced_run(workloads, tracer_mod, args.workload, args.seed)
        results += traced["results"]
        failures += traced["failures"]
        attempted += traced["ops"]
        micro, micro_failure = micro_metrics(workloads, args.seed)
        metrics, shares = per_layer_metrics(
            traced, statistics.median(loop["walls"]), results, len(failures),
            attempted)
        metrics |= micro
        tracer = traced["tracer"]
        record["spans"] = tracer.dump(tracer.spans[0].start)
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
    else:
        metrics = end_to_end_metrics(setup_s, loop)

    machine = machine_block(blas_threads)
    record |= {"machine": machine, "metrics": metrics, "failures": failures,
               "micro_failure": micro_failure, "attempted": attempted}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.date.today().strftime("%Y%m%d")
    out = RESULTS / f"BENCH_{stamp}_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print_report(args.workload, args.seed, machine, metrics, attempted,
                 failures, shares)
    if micro_failure:
        print(f"  FAILED micro-cases: {micro_failure}")
    print(json.dumps({"correct": not failures and not micro_failure,
                      "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
