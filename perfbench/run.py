"""Workflow benchmark: Table III SLSQP, nominal NSGA-II front, robust front.

Usage, from the repository root::

    python3 perfbench/run.py --workload table3 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP are pinned to one thread before numpy is imported:
the SLSQP path of ``table3`` takes a different number of iterations,
and ends on a different design, with two BLAS threads.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"
# The program's own tracing and guard modes run at their defaults.
for _variable in ("REPRO_TRACE", "REPRO_GUARDS"):
    os.environ.pop(_variable, None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: Workload seed used unless ``--workload-seed`` says otherwise.
DEFAULT_WORKLOAD_SEED = 0
#: Second workload seed, for checking a claimed gain; tuning used 0 only.
CHECK_WORKLOAD_SEED = 1

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Minimum untraced repeats per run, so counts can be compared.
MIN_REPEATS = 2

#: Program counters (``repro.obs.metrics``) compared across repeats.
PROGRAM_COUNTERS = {"engine.candidates": "engine.rows",
                    "evaluator.solves": "evaluator.solves",
                    "evaluator.cache_hits": "evaluator.cache_hits"}

WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="table3, nsga2_front, robust_front, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; recorded with the result")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int,
                        default=DEFAULT_WORKLOAD_SEED,
                        help="seed the workflow receives as seed= "
                        f"(default {DEFAULT_WORKLOAD_SEED}; "
                        f"check claims on {CHECK_WORKLOAD_SEED} too)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's sources on the path; fail without them."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        raise SystemExit(f"perfbench: no program sources under {SOURCE}")
    for path in (SOURCE, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workload_seed": args.workload_seed,
        "run_seed": args.seed,
    }


def measure_setup(workload: str) -> float:
    """Median wall time of fresh processes that set up *workload*."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-probe", "--workload", workload],
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def counter_snapshot() -> dict:
    from repro.obs.metrics import get_metrics
    return dict(get_metrics().counters())


def run_once(workload, seed: int, tracer=None) -> dict:
    """One workflow run: wall time, counts, quality and check problems."""
    from perfbench import layers

    before = counter_snapshot()
    start = time.perf_counter()
    try:
        if tracer is not None:
            layers.install(tracer)
        out = workload.run(seed, WORK_DIR)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    after = counter_snapshot()
    if workload.evidence is not None:
        out.update(workload.evidence(out))
    summary = workload.summarize(out, seed)
    counts = {"nfev": summary["nfev"]}
    for key, name in PROGRAM_COUNTERS.items():
        counts[name] = after.get(key, 0) - before.get(key, 0)
    return {"wall_s": wall, "counts": counts, "summary": summary,
            "problems": workload.check(out)}


def attempt(workload, seed: int, tracer=None) -> dict:
    """:func:`run_once`; an exception becomes the run's one problem."""
    try:
        return run_once(workload, seed, tracer)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return {"wall_s": None, "counts": None, "summary": None,
                "problems": [f"raised {type(exc).__name__}: {exc}"]}


def count_problems(runs, traced, span_counts) -> None:
    """Add a problem to every run whose counts break determinism.

    All runs of a workload must report the first run's counts, and the
    traced run's span-derived counts must equal the program's own.
    """
    done = [run for run in runs + [traced] if run and run["counts"]]
    if not done:
        return
    reference = done[0]["counts"]
    for run in done:
        if run["counts"] != reference:
            run["problems"].append(
                f"counts {run['counts']} differ from {reference}")
    if traced is not None and traced["counts"] is not None:
        for name in PROGRAM_COUNTERS.values():
            if span_counts[name] != traced["counts"][name]:
                traced["problems"].append(
                    f"traced {name} {span_counts[name]} differs from the "
                    f"program's count {traced['counts'][name]}")


def report(label: str, run: dict) -> None:
    if run["counts"] is not None:
        print(f"{label}: wall_s={run['wall_s']:.4f} counts="
              f"{json.dumps(run['counts'], sort_keys=True)} quality="
              f"{json.dumps(run['summary'], sort_keys=True)}")
    for problem in run["problems"]:
        print(f"{label}: CHECK FAILED: {problem}")


def median_wall(runs) -> float:
    """Low median of the runs' wall times.

    With an even count this is the faster of the middle pair, a time
    that was measured, rather than their mean; contention on a shared
    host only ever adds time.
    """
    return statistics.median_low(run["wall_s"] for run in runs)


def end_to_end(runs, setup_s: float) -> dict:
    summary = runs[0]["summary"]
    wall = median_wall(runs)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "nfev": summary["nfev"],
        "candidates_per_s": runs[0]["counts"]["engine.rows"] / wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nf_max_db": summary["nf_max_db"],
        "gt_min_db": summary["gt_min_db"],
        "hypervolume": summary["hypervolume"],
        "yield_fraction": summary["yield_fraction"],
    }


def run_all(args, names) -> int:
    """Every workload in a process of its own, then one combined line.

    Each workload's lines are relayed with its name in front; the last
    line carries every workload's metrics as ``<workload>.<metric>``.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--workload-seed", str(args.workload_seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        for line in lines:
            print(f"{name}: {line}")
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import layers
    from perfbench.metrics import as_result
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, prepare

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.setup_probe:
        prepare(args.workload)
        return 0

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    print("env " + json.dumps(environment(args), sort_keys=True))
    setup_s = None if args.trace else measure_setup(args.workload)

    # Untraced runs until the next one would overrun --seconds.
    runs = []
    started = time.perf_counter()
    while True:
        lap = time.perf_counter()
        runs.append(attempt(workload, args.workload_seed))
        now = time.perf_counter()
        if (len(runs) >= MIN_REPEATS
                and now - started + (now - lap) > args.seconds):
            break

    traced, span_counts = None, None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-w{args.workload_seed}"
                        f"-r{args.seed}")
        traced = attempt(workload, args.workload_seed, tracer)
        tracer.write(os.path.join(WORK_DIR,
                                  f"spans-{tracer.run_id}.jsonl"))
        span_counts = layers.layer_metrics(tracer.spans)
    count_problems(runs, traced, span_counts)

    for i, run in enumerate(runs):
        report(f"run {i}", run)
    if traced is not None:
        report("traced", traced)
    done = [run for run in runs if run["counts"] is not None]
    every = runs + ([traced] if traced is not None else [])
    if not done or (traced is not None and traced["counts"] is None):
        print("perfbench: no run completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(span_counts)
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - median_wall(done)
        metrics["trace.spans"] = len(tracer.spans)
    else:
        metrics = end_to_end(done, setup_s)
    failed = sum(1 for run in every if run["problems"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": as_result(metrics, trace=bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
