"""Command-line front end.

Subcommands cover the full offline workflow: parse/validate a case, solve a
conventional power flow, solve the linear approximation, generate scenario
datasets, restore operating points from solution files, train measurement
weights, and evaluate the restoration methods side by side on a held-out
split. Failures exit nonzero with a machine-parseable category on stderr.
"""

from __future__ import annotations

import argparse
import json
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


def _load_network(args):
    return load_case(args.case)


def _state_from_solution(network, sol: fileio.SolutionFile) -> StateVector:
    if sol.va is None:
        raise fileio.FormatError("solution has no angles; cannot take it verbatim")
    va = np.asarray(sol.va) - sol.va[network.slack]
    return StateVector(np.asarray(sol.vm), va, network.slack)


def cmd_parse(args) -> int:
    network = _load_network(args)
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
    network = _load_network(args)
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
    network = _load_network(args)
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
    network = _load_network(args)
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


def _restore_one(network, sol: fileio.SolutionFile, args):
    z = fileio.solution_to_measurements(network, sol)
    if args.method == "raw":
        state = _state_from_solution(network, sol)
        return operating_point(network, state)
    if args.method == "benchmark":
        return benchmark_restore(network, z)
    if args.weights == "init":
        weights = default_initial_weights(z.kinds)
    else:
        kinds, weights = fileio.read_weights(args.weights, network)
        if kinds != z.kinds:
            raise fileio.FormatError(
                "weight layout does not match the solution's measurements"
            )
    result = wls_restore(network, z, weights, tol=args.tol)
    if not result.converged:
        raise PowerFlowError(
            f"restoration did not converge in {result.iterations} iterations"
        )
    print(
        f"restored in {result.iterations} iterations, objective {result.objective:.6g}"
    )
    return operating_point(network, result.state)


def cmd_restore(args) -> int:
    network = _load_network(args)
    if bool(args.solution) == bool(args.solutions):
        raise fileio.FormatError("give exactly one of --solution or --solutions")
    if args.solution:
        sol = fileio.read_solution(args.solution, network)
        op = _restore_one(network, sol, args)
        report = constraint_report(network, op)
        print(f"max constraint violation: {report.max_violation():.4g} p.u.")
        if args.out:
            fileio.write_solution(
                args.out,
                network,
                fileio.operating_point_solution(network, op, f"restored-{args.method}"),
            )
            print(f"operating point written to {args.out}")
        return 0
    # batch mode: restore every solution file in the directory
    names = sorted(
        name for name in os.listdir(args.solutions) if name.endswith(".json")
    )
    if not names:
        raise fileio.FormatError(f"{args.solutions}: no solution files found")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for name in names:
        sol = fileio.read_solution(os.path.join(args.solutions, name), network)
        op = _restore_one(network, sol, args)
        report = constraint_report(network, op)
        print(f"{name}: max violation {report.max_violation():.4g} p.u.")
        if args.out:
            fileio.write_solution(
                os.path.join(args.out, name),
                network,
                fileio.operating_point_solution(network, op, f"restored-{args.method}"),
            )
    return 0


def cmd_train(args) -> int:
    network = _load_network(args)
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


def _timed_states(stable_fn, records):
    states, elapsed = [], []
    for rec in records:
        start = time.perf_counter()
        states.append(stable_fn(rec))
        elapsed.append(time.perf_counter() - start)
    return states, (float(np.mean(elapsed)) if elapsed else 0.0), elapsed


def _method_entry(network, records, states, mean_time, times):
    worst = 0.0
    families = {"voltage": 0.0, "generator": 0.0, "flow": 0.0, "angle": 0.0}
    for rec, state in zip(records, states):
        scen_net = network.with_loads(rec.p_load, rec.q_load)
        report = constraint_report(scen_net, operating_point(scen_net, state))
        worst = max(worst, report.max_violation())
        for family in families:
            families[family] = max(families[family], getattr(report, family))
    return {
        "loss": loss(records, states),
        "mean_time_s": mean_time,
        "times_s": [round(t, 9) for t in times],
        "violations": {"max": worst, **families},
    }


def cmd_eval(args) -> int:
    network = _load_network(args)
    _, _, test_recs, manifest = fileio.read_dataset(args.data, network)
    if not test_recs:
        raise TrainingError("dataset has no test records")
    layout = test_recs[0].z.kinds
    methods: dict = {}

    # raw takes every bus's magnitude and angle verbatim, wherever their rows lie
    row = {(k.kind, k.index): i for i, k in enumerate(layout)}
    buses = range(network.n_bus)
    if all((kind, bus) in row for kind in ("vm", "va") for bus in buses):
        vm_rows = [row["vm", bus] for bus in buses]
        va_rows = [row["va", bus] for bus in buses]

        def raw_state(rec):
            va = rec.z.values[va_rows]
            return StateVector(rec.z.values[vm_rows], va - va[network.slack], network.slack)

        states, mean_time, times = _timed_states(raw_state, test_recs)
        methods["raw"] = _method_entry(network, test_recs, states, mean_time, times)

    def bench_state(rec):
        scen_net = network.with_loads(rec.p_load, rec.q_load)
        return benchmark_restore(scen_net, rec.z).state

    states, mean_time, times = _timed_states(bench_state, test_recs)
    methods["benchmark"] = _method_entry(network, test_recs, states, mean_time, times)

    def wls_method(weights):
        def fn(rec):
            result = wls_restore(network, rec.z, weights, tol=args.tol)
            if not result.converged:
                raise PowerFlowError(f"restoration diverged on record {rec.index}")
            return result.state

        return fn

    w_init = default_initial_weights(layout)
    states, mean_time, times = _timed_states(wls_method(w_init), test_recs)
    methods["wls-init"] = _method_entry(network, test_recs, states, mean_time, times)

    if args.weights:
        kinds, w_opt = fileio.read_weights(args.weights, network)
        if kinds != layout:
            raise fileio.FormatError("weight layout does not match the dataset")
        states, mean_time, times = _timed_states(wls_method(w_opt), test_recs)
        methods["wls-trained"] = _method_entry(
            network, test_recs, states, mean_time, times
        )

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
    for method, entry in methods.items():
        print(
            f"{method:12s} loss {entry['loss']:.6g}  "
            f"mean {entry['mean_time_s'] * 1e3:.2f} ms/scenario  "
            f"max violation {entry['violations']['max']:.3g}"
        )
    if "wls-trained" in methods:
        trained = methods["wls-trained"]["loss"]
        ratios = "  ".join(
            f"wls-trained/{method} {trained / methods[method]['loss']:.4g}"
            for method in ("benchmark", "raw") if method in methods
        )
        print(f"loss ratio  {ratios}")

    if args.curve:
        points = []
        for item in args.curve:
            count_text, _, weight_path = item.partition(":")
            kinds, w_curve = fileio.read_weights(weight_path, network)
            if kinds != layout:
                raise fileio.FormatError(f"{weight_path}: layout mismatch")
            states = [wls_method(w_curve)(rec) for rec in test_recs]
            points.append((int(count_text), loss(test_recs, states)))
        points.sort()
        fileio.write_curve(os.path.join(args.out, "curve.tsv"), points)
        print(f"curve with {len(points)} points written to {args.out}/curve.tsv")
    print(f"report written to {args.out}")
    return 0


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
