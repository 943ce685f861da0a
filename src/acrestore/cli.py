"""Command-line front end.

Subcommands cover the full offline workflow: parse/validate a case, solve a
conventional power flow, solve the linear approximation, generate scenario
datasets, restore operating points from solution files, train measurement
weights, and evaluate the restoration methods side by side on a held-out
split. Failures exit nonzero with a machine-parseable category on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from . import fileio
from .acpf import (
    MeasurementError,
    PowerFlowError,
    StateVector,
    benchmark_missing,
    benchmark_restore,
    constraint_report,
    newton_pf,
    operating_point,
)
from .lpac import (
    InfeasibleError,
    SimplexError,
    UnboundedError,
    build_lpac,
    extract_solution,
    lpac_to_measurements,
    simplex_solve,
    write_lp_text,
)
from .netmodel import CaseError, load_case
from .scenarios import (
    NoiseProfile,
    ScenarioSpec,
    build_lpac_dataset,
    dispatch_spec,
    gen_load_scenarios,
    ground_truth_states,
    split_indices,
    synth_dataset,
)
from .train import (
    TrainConfig,
    TrainingError,
    default_initial_weights,
    loss,
    train_weights,
)
from .wls import UnobservableError, wls_restore

logger = logging.getLogger(__name__)

ERROR_CATEGORIES = [
    (CaseError, "case-format"),
    (fileio.FormatError, "file-format"),
    (OSError, "io"),
    (MeasurementError, "measurement-layout"),
    (UnobservableError, "unobservable"),
    (PowerFlowError, "power-flow"),
    (InfeasibleError, "lp-infeasible"),
    (UnboundedError, "lp-unbounded"),
    (SimplexError, "lp-solver"),
    (TrainingError, "training"),
]


def categorize(exc: Exception) -> str:
    for klass, category in ERROR_CATEGORIES:
        if isinstance(exc, klass):
            return category
    return "internal"


def _method(name, network, kinds, weights, tol, echo=False):
    """`state(net, z)` of one restoration method, built once per layout `kinds`.

    raw takes every bus's magnitude and angle verbatim, wherever their rows
    lie, and is None when the layout lacks one; benchmark is
    `benchmark_restore` on `net`; wls uses the initial weights, or those of
    the weight file `weights`, whose layout must be `kinds`. With `echo`,
    wls prints each restoration's iterations and objective.
    """
    if name == "raw":
        row = {(k.kind, k.index): i for i, k in enumerate(kinds)}
        try:
            vm_rows = [row["vm", bus] for bus in range(network.n_bus)]
            va_rows = [row["va", bus] for bus in range(network.n_bus)]
        except KeyError:
            return None

        def raw(net, z):
            va = z.values[va_rows]
            return StateVector(z.values[vm_rows], va - va[net.slack], net.slack)

        return raw
    if name == "benchmark":
        return lambda net, z: benchmark_restore(net, z).state
    if weights is None:
        w = default_initial_weights(kinds)
    else:
        layout, w = fileio.read_weights(weights, network)
        if layout != kinds:
            raise fileio.FormatError(f"{weights}: weight layout does not match the measurements")

    def wls(net, z):
        result = wls_restore(net, z, w, tol=tol)
        if not result.converged:
            raise PowerFlowError(f"restoration did not converge in {result.iterations} iterations")
        if echo:
            print(f"restored in {result.iterations} iterations, "
                  f"objective {result.objective:.6g}")
        return result.state

    return wls


def cmd_parse(args) -> int:
    network = load_case(args.case)
    print(
        f"{network.name}: {network.n_bus} buses, {network.n_branch} branches, "
        f"{network.n_gen} generators, base {network.base_mva:g} MVA, "
        f"slack bus {network.buses[network.slack].id}"
    )
    print(f"hash {network.case_hash}")
    if args.out:
        from .netmodel import serialize_case

        fileio.atomic_write_text(args.out, serialize_case(network))
        print(f"canonical case written to {args.out}")
    return 0


def cmd_pf(args) -> int:
    network = load_case(args.case)
    state = newton_pf(network, dispatch_spec(network), tol=args.tol)
    op = operating_point(network, state)
    report = constraint_report(network, op)
    print(f"power flow converged; max violation {report.max_violation():.4g} p.u.")
    if args.out:
        fileio.write_solution(
            args.out, network, fileio.operating_point_solution(network, op, "pf")
        )
        print(f"solution written to {args.out}")
    return 0


def cmd_lpac(args) -> int:
    network = load_case(args.case)
    lp = build_lpac(network, args.tangents, args.circle_cuts, args.cost_segments)
    if args.export_lp:
        fileio.atomic_write_text(args.export_lp, write_lp_text(lp))
        print(f"LP model written to {args.export_lp}")
    result = simplex_solve(lp)
    sol = extract_solution(network, lp, result.x)
    print(
        f"approximation solved: cost {sol.objective:.6g}, "
        f"{result.iterations} simplex iterations"
    )
    if args.out:
        z = lpac_to_measurements(network, sol)
        p_inj = z.values[2 * network.n_bus : 3 * network.n_bus]
        q_inj = z.values[3 * network.n_bus : 4 * network.n_bus]
        fileio.write_solution(
            args.out,
            network,
            fileio.SolutionFile(
                formulation="lpac",
                vm=1.0 + sol.v,
                va=sol.theta,
                p_inj=p_inj,
                q_inj=q_inj,
                flows=sol.flows,
                p_gen=sol.p_gen,
                q_gen=sol.q_gen,
            ),
        )
        print(f"solution written to {args.out}")
    return 0


def cmd_scenarios(args) -> int:
    network = load_case(args.case)
    spec = ScenarioSpec(
        count=args.count,
        sigma=args.sigma,
        seed=args.seed,
        train_fraction=args.train_fraction,
    )
    loads = gen_load_scenarios(network, spec)
    if args.source == "synthetic":
        profile = NoiseProfile()
        records = synth_dataset(network, loads, noise=profile, seed=spec.seed + 1)
    else:
        truth = None
        if args.ground_truth == "dispatch":
            truth = ground_truth_states(network, loads)
        records = build_lpac_dataset(network, loads, ground_truth=truth)
    if not records:
        raise TrainingError("no scenario could be synthesized")
    train_idx, test_idx = split_indices(spec)
    fileio.write_dataset(
        args.out,
        network,
        records,
        train_idx,
        test_idx,
        {
            "source": args.source,
            "seed": spec.seed,
            "sigma": spec.sigma,
            "count": spec.count,
            "ground_truth": args.ground_truth if args.source == "lpac" else "power-flow",
        },
    )
    print(f"{len(records)} records written to {args.out}")
    return 0


def cmd_restore(args) -> int:
    network = load_case(args.case)
    if bool(args.solution) == bool(args.solutions):
        raise fileio.FormatError("give exactly one of --solution or --solutions")
    if args.solution:
        pairs = [(args.solution, args.out)]
    else:
        names = sorted(name for name in os.listdir(args.solutions) if name.endswith(".json"))
        if not names:
            raise fileio.FormatError(f"{args.solutions}: no solution files found")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        pairs = [(os.path.join(args.solutions, name),
                  args.out and os.path.join(args.out, name)) for name in names]
    weights = None if args.weights == "init" else args.weights
    kinds = state = None
    for path, out in pairs:
        z = fileio.solution_to_measurements(network, fileio.read_solution(path, network))
        if z.kinds != kinds:
            kinds = z.kinds
            state = _method(args.method, network, kinds, weights, args.tol, echo=True)
        if state is None:
            raise fileio.FormatError(f"{path}: raw needs every bus's vm and va")
        op = operating_point(network, state(network, z))
        report = constraint_report(network, op)
        print(f"{os.path.basename(path)}: max violation {report.max_violation():.4g} p.u.")
        if out:
            restored = fileio.operating_point_solution(network, op, f"restored-{args.method}")
            fileio.write_solution(out, network, restored)
    return 0


def cmd_train(args) -> int:
    network = load_case(args.case)
    _, train_recs, _, _ = fileio.read_dataset(args.data, network)
    if not train_recs:
        raise TrainingError("dataset has no training records")
    layout = train_recs[0].z.kinds
    config = TrainConfig(
        eta=args.eta,
        max_iter=args.iters,
        w_init=default_initial_weights(layout),
    )
    weights, trace = train_weights(network, train_recs, config)
    fileio.write_weights(args.out, network, layout, weights)
    print(f"weights written to {args.out}")
    if trace.loss:
        print(
            f"training loss {trace.loss[0]:.6g} -> {trace.loss[-1]:.6g} "
            f"({sum(trace.gn_iters)} Gauss-Newton iterations)"
        )
    if args.trace:
        fileio.write_trace(args.trace, trace)
        print(f"trace written to {args.trace}")
    return 0


def _method_entry(network, records, state):
    """Loss, times and worst violations of `state(net, z)` over the records.

    Each record is restored on its scenario's network. Only the restorations
    are timed, back to back, not the network copies or the reports.
    """
    nets = [network.with_loads(rec.p_load, rec.q_load) for rec in records]
    states, times = [], []
    for rec, net in zip(records, nets):
        start = time.perf_counter()
        states.append(state(net, rec.z))
        times.append(time.perf_counter() - start)
    reports = [constraint_report(net, operating_point(net, x)) for net, x in zip(nets, states)]
    return {
        "loss": loss(records, states),
        "mean_time_s": float(np.mean(times)),
        "times_s": [round(t, 9) for t in times],
        "violations": {
            "max": max(0.0, *(report.max_violation() for report in reports)),
            **{family: max(0.0, *(getattr(report, family) for report in reports))
               for family in ("voltage", "generator", "flow", "angle")},
        },
    }


def cmd_eval(args) -> int:
    network = load_case(args.case)
    _, _, test_recs, manifest = fileio.read_dataset(args.data, network)
    if not test_recs:
        raise TrainingError("dataset has no test records")
    layout = test_recs[0].z.kinds

    def evaluate(name, weights):
        state = _method(name, network, layout, weights, args.tol)
        return None if state is None else _method_entry(network, test_recs, state)

    runs = {"raw": ("raw", None), "benchmark": ("benchmark", None),
            "wls-init": ("wls", None)}
    if benchmark_missing(network, layout):  # benchmark runs only where the layout has its rows
        del runs["benchmark"]
    if args.weights:
        runs["wls-trained"] = ("wls", args.weights)
    methods = {}
    for label, (name, weights) in runs.items():
        result = evaluate(name, weights)
        if result is not None:  # raw runs only where every bus's vm and va are measured
            methods[label] = result

    report = {
        "methods": methods,
        "n_test": len(test_recs),
        "dataset_source": manifest.get("source", "unknown"),
    }
    os.makedirs(args.out, exist_ok=True)
    fileio.write_report(
        os.path.join(args.out, "report.json"),
        os.path.join(args.out, "report.tsv"),
        report,
    )
    for label, result in methods.items():
        print(
            f"{label:12s} loss {result['loss']:.6g}  "
            f"mean {result['mean_time_s'] * 1e3:.2f} ms/scenario  "
            f"max violation {result['violations']['max']:.3g}"
        )
    if "wls-trained" in methods:
        trained = methods["wls-trained"]["loss"]
        ratios = "  ".join(
            f"wls-trained/{method} {trained / methods[method]['loss']:.4g}"
            for method in ("benchmark", "raw") if method in methods
        )
        print(f"loss ratio  {ratios}")

    if args.curve:
        points = sorted((count, evaluate("wls", path)["loss"]) for count, path in args.curve)
        fileio.write_curve(os.path.join(args.out, "curve.tsv"), points)
        print(f"curve with {len(points)} points written to {args.out}/curve.tsv")
    print(f"report written to {args.out}")
    return 0


def _curve_point(text: str) -> tuple[int, str]:
    """One --curve item, COUNT:WEIGHTFILE, as (count, weight file)."""
    count, _, path = text.partition(":")
    if not (count.isdecimal() and path):
        raise argparse.ArgumentTypeError(f"{text!r} is not COUNT:WEIGHTFILE")
    return int(count), path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acrestore",
        description="Restore AC-feasible operating points from relaxed or "
        "approximated OPF solutions.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a case file")
    p.add_argument("--case", required=True)
    p.add_argument("--out", help="write the canonical re-serialization here")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("pf", help="solve a conventional power flow at nominal load")
    p.add_argument("--case", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", help="write the solved operating point here")
    p.set_defaults(fn=cmd_pf)

    p = sub.add_parser("lpac", help="solve the linear approximation")
    p.add_argument("--case", required=True)
    p.add_argument("--tangents", type=int, default=9)
    p.add_argument("--circle-cuts", type=int, default=8)
    p.add_argument("--cost-segments", type=int, default=6)
    p.add_argument("--export-lp", help="write the LP model in text form")
    p.add_argument("--out", help="write the solution file here")
    p.set_defaults(fn=cmd_lpac)

    p = sub.add_parser("scenarios", help="generate a scenario dataset")
    p.add_argument("--case", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--source", choices=("synthetic", "lpac"), default="synthetic")
    p.add_argument(
        "--ground-truth",
        choices=("dispatch", "benchmark"),
        default="dispatch",
        help="ground-truth rule for lpac datasets: cost-aware dispatch power "
        "flows (default) or the benchmark-restored point",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_scenarios)

    p = sub.add_parser("restore", help="restore operating points from solution files")
    p.add_argument("--case", required=True)
    p.add_argument("--solution", help="a single solution file")
    p.add_argument("--solutions", help="a directory of solution files (batch mode)")
    p.add_argument("--method", choices=("wls", "benchmark", "raw"), default="wls")
    p.add_argument("--weights", default="init", help="'init' or a weight file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", help="output file (single) or directory (batch)")
    p.set_defaults(fn=cmd_restore)

    p = sub.add_parser("train", help="train measurement weights on a dataset")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--eta", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="compare restoration methods on a test split")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--weights", help="trained weight file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument(
        "--curve",
        action="append",
        type=_curve_point,
        help="COUNT:WEIGHTFILE pair for the loss-vs-training-scenarios curve "
        "(repeatable)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"ERROR {categorize(exc)}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
