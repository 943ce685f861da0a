"""acrestore benchmark: restore-118, train-57 and lpac-dataset-14.

Run from the root of a source checkout (the library is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload restore-118 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the workload untraced for half the time and traced for the other half, and
reports the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; the full result with the environment goes to
.perfbench/results/. A run of one workload exits with code 0 once it has
printed its result, whatever its output checks found: the result line
carries them, in "correct" and "failed". It exits with code 1 when the
sources are missing (then no result is printed) and 2 when the arguments are
wrong. --workload all exits with code 1 when any output check failed.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, ".perfbench", "results")
WORKLOAD_NAMES = ("restore-118", "train-57", "lpac-dataset-14")
SETUP_REPS = 8  # fresh processes timed for setup_s


def import_library():
    """Import acrestore from this checkout's src/; exit 1 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "acrestore", "__init__.py")):
        sys.exit(f"perfbench: no acrestore sources at {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import acrestore

    if os.path.dirname(os.path.dirname(os.path.abspath(acrestore.__file__))) != SRC:
        sys.exit(f"perfbench: acrestore was imported from {acrestore.__file__}, not {SRC}")


def _openblas(lib_dir):
    """(config string, threads) of the OpenBLAS a wheel bundles, as it reports them."""
    import ctypes
    import glob

    for path in sorted(glob.glob(os.path.join(lib_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        info = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info = {"config": config().decode(), "threads": threads()}
                    break
            if info:
                return info
    return {"config": "not found", "threads": None}


def environment(seed):
    import numpy
    import scipy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(os.path.join(site, "numpy.libs")),
        "scipy_openblas": _openblas(os.path.join(site, "scipy.libs")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(workload, seconds, max_ops=None, min_batches=1):
    """Run batches from 0 until `seconds` of wall time passed and min_batches
    ran, or until max_ops operations ran."""
    results = []
    deadline = None if max_ops is not None else perf_counter() + seconds
    k = 0
    while True:
        budget = None if max_ops is None else max_ops - len(results)
        results += workload.batch(k, budget, deadline)
        k += 1
        if max_ops is not None:
            if len(results) >= max_ops:
                return results
        elif perf_counter() >= deadline and k >= min_batches:
            return results


def setup_times(name, seed, reps):
    """Import plus set-up time in each of `reps` fresh processes.

    Each child runs this file with --setup-only and reports the time from its
    first statement to the end of the workload's set-up; a single import
    varies too much from run to run to stand for it alone.
    """
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_workload(name, seed, seconds, trace, max_ops=None):
    """Set up and measure one workload; returns the result dictionary.

    Its setup_s is this process's own set-up time, import excluded. With
    max_ops the phases run that many operations instead of a time box, which
    makes every count repeat exactly for a seed.
    """
    import metrics
    from tracer import Tracer, aggregate, rebound, traced_sites
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}-{name}")
    workload = WORKLOADS[name](seed, workdir)
    try:
        started = perf_counter()
        workload.setup()
        setup_s = perf_counter() - started

        out = {"workload": name, "seed": seed, "trace": trace}
        if not trace:
            # every run makes the batches state_err is measured on
            results = measure(workload, seconds, max_ops, workload.REFERENCE_BATCHES)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            state_err, out["state_err_records"] = workload.state_err()
            out["metrics"] = metrics.end_to_end(results, setup_s, state_err, rss_mb)
        else:
            untraced = measure(workload, seconds / 2, max_ops)
            tracer = Tracer()
            workload.tracer = tracer
            with rebound(traced_sites(tracer)):
                traced = measure(workload, seconds / 2, max_ops)
            results = untraced + traced
            out["metrics"] = metrics.per_layer(aggregate(tracer), traced, untraced)
            out["traced_ops"] = len(traced)
            out["counters"] = dict(tracer.counters)
            out["tracer"] = tracer
        out["attempted"] = len(results)
        out["failed"] = [r.why for r in results if not r.ok]
        out["loss_trace"] = getattr(workload, "losses", None)
        return out
    finally:
        workload.close()


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def _finite(value):
    return value if math.isfinite(value) else None


def report(out, env):
    """Print the result for people, save it, and return the JSON result line."""
    import metrics

    name, trace = out["workload"], out["trace"]
    values = out["metrics"]
    n, failed = out["attempted"], len(out["failed"])
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for why in out["failed"]:
        print(f"# FAILED {why}")
    if not trace:
        print(f"# {name}: end-to-end, tracing off, closed loop, 1 client, {n} operations")
        samples = {
            "setup_s": f"n={SETUP_REPS} processes",
            "op_ms_p50": f"n={n} operations",
            "ops_per_s": f"n={n} operations",
            "state_err": f"n={out.get('state_err_records')} records",
            "peak_rss_mb": "n=1 process",
        }
        for metric, (unit, better, what) in metrics.END_TO_END.items():
            print(f"{name} {metric} = {_fmt(values[metric])} {unit} "
                  f"({samples[metric]}; {better} is better; {what})")
        print(f"{name} op_ms_p90 = {_fmt(values['op_ms_p90'])} ms "
              f"(printed only; nearest rank over n={n}, {n // 10} samples beyond it)")
        print(f"{name} failed_frac = {values['failed_frac']:.6g} ({failed} failed of {n} attempted)")
        table = metrics.END_TO_END
    else:
        ops = out["traced_ops"]
        print(f"# {name}: per-layer, traced phase of {ops} operations "
              f"(untraced phase: {n - ops}); per operation unless the unit says otherwise")
        for metric, (unit, better, tag, _) in metrics.PER_LAYER.items():
            print(f"{name} {metric} = {_fmt(values[metric])} {unit}  [{tag}]")
        balance = metrics.self_time_balance(values)
        print(f"{name} self-time balance: trace.op_ms_mean - (layer self + remainder) "
              f"= {balance:.3g} ms/op")
        table = metrics.PER_LAYER
    line = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            k: {"value": _finite(values[k]), "unit": unit}
            for k, (unit, *_) in table.items()
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{name}-seed{out['seed']}-trace{trace}")
    saved = {k: v for k, v in out.items() if k != "tracer"}
    saved["env"] = env
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=1, default=str)
    if trace:
        out["tracer"].dump(stem + "-spans.json")
    return line


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} exited with code {proc.returncode}")
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds since start, and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_library()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from workloads import WORKLOADS

        workdir = os.path.join(ROOT, ".perfbench", f"setup-{os.getpid()}")
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            workload.setup()
            print(perf_counter() - _STARTED)
        finally:
            workload.close()
        return 0
    if args.trace:
        out = run_workload(args.workload, args.seed, args.seconds, 1)
    else:
        # half of the set-up processes run before the measured run and half
        # after it, so that a burst of load on the machine reaches fewer of them
        times = setup_times(args.workload, args.seed, SETUP_REPS // 2)
        out = run_workload(args.workload, args.seed, args.seconds, 0)
        times += setup_times(args.workload, args.seed, SETUP_REPS - SETUP_REPS // 2)
        out["metrics"]["setup_s"] = statistics.median(times)
    line = report(out, environment(args.seed))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
