"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload restore-118 --seeds 1-10 --seconds 20

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the distance between the first and third quartiles
(statistics.quantiles with n=4) as a share of the median, next to the
metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"seed {seed}: exit {proc.returncode} without a result")
        line = json.loads(lines[-1])
        print(f"seed {seed}: exit {proc.returncode}, {line['failed']} of "
              f"{line['attempted']} failed, " + ", ".join(
                  f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)
        for k, v in line["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name, vals in values.items():
        vals = [v for v in vals if v is not None]  # non-finite values print as null
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        worst = max(worst, share / bounds[name])
        print(f"{args.workload} {name}: median {med:.6g}, IQR/median {share:.4f}, "
              f"bound {bounds[name]} ({share / bounds[name]:.2f} of it)")
    print(f"{args.workload}: largest spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
