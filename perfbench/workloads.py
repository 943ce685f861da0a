"""The three benchmark workloads, driven through acrestore's public functions.

Each workload is a closed loop with one client: the next operation starts
when the previous one (and its output check) has finished. A workload builds
its inputs in `setup` (restore-118 from the seed, train-57 and
lpac-dataset-14 from the fixed REFERENCE_SEED), then runs numbered batches.
A batch is one operation, except in `train-57`, where it is one training job
and each of its Adam iterations is an operation. Output checks run after the
timed region and mark an operation failed instead of raising.

The library is called through its module attributes (`fileio.read_solution`,
`lpac.simplex_solve`, ...), which the traced run rebinds (tracer.SITES).
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from acrestore import acpf, fileio, load_bundled_case, lpac, scenarios, train, wls

from tracer import rebound

# Stationarity tolerance for restore-118: max-norm of H' W r at the restored
# state, with W the weights divided by their largest entry (the scaling
# wls_restore iterates with). Converged restores measure 1e-11 to 1e-9; a
# wrong state is off by many orders of magnitude more.
STATIONARITY_TOL = 1e-6
CERTIFICATE_TOL = 1e-9
# The paper's loss varies by about 30% of its median between seeds on 24
# records (a few records dominate it), more than any bound a regression check
# can use; on inputs from this fixed seed it repeats exactly instead.
REFERENCE_SEED = 0


@dataclass
class OpResult:
    seconds: float
    ok: bool
    why: str = ""


class Clock:
    """Times an operation's timed region; in the traced run it is a root span."""

    def __init__(self, tracer=None, name="bench.op"):
        self.tracer = tracer
        self.name = name

    def start(self) -> float:
        if self.tracer is None:
            self._t0 = perf_counter()
        else:
            self._index = self.tracer.open(self.name)
            self._t0 = self.tracer.spans[self._index][1]
        return self._t0

    def stop(self) -> float:
        if self.tracer is None:
            return perf_counter() - self._t0
        return self.tracer.close(self._index)


def _state_err(states, truths) -> tuple[float, int]:
    """Mean over records of the paper's loss (squared voltage distance /
    n_state), and the number of records."""
    if not states:
        return math.nan, 0
    records = [SimpleNamespace(x_ac=t) for t in truths]
    return train.loss(records, list(states)) / len(states), len(states)


class Workload:
    name = ""
    # batches every run makes, however short its time: they hold the fixed
    # reference inputs that state_err is measured on
    REFERENCE_BATCHES = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # set by the traced phase of a run

    def setup(self):
        raise NotImplementedError

    def batch(self, k: int, budget: int | None, deadline: float | None) -> list[OpResult]:
        """Batch k: at most `budget` operations when it is set; `deadline`
        (a perf_counter time, None with a budget) is when the run's time is up."""
        raise NotImplementedError

    def state_err(self) -> tuple[float, int]:
        """(state_err, number of records it averages)."""
        raise NotImplementedError

    def close(self):
        pass


class Restore118(Workload):
    """Online restoration of solution files, as `acrestore restore --solutions`."""

    name = "restore-118"
    CASE = "case118"
    POOL = 24  # solution files per set
    REFERENCE_BATCHES = POOL

    def setup(self):
        """Noisy synthetic solution files, as `acrestore scenarios --source synthetic`.

        The reference files come first and are the same for every seed; the
        files of the run's seed follow and are restored in turn.
        """
        self.net = load_bundled_case(self.CASE)
        self.reference = self._write_files(REFERENCE_SEED, "reference")
        self.inputs = self._write_files(self.seed, "seed")
        self.out_dir = os.path.join(self.workdir, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.restored = {}

    def _write_files(self, seed, tag):
        spec = scenarios.ScenarioSpec(count=self.POOL, seed=seed)
        loads = scenarios.gen_load_scenarios(self.net, spec)
        records = scenarios.synth_dataset(self.net, loads, seed=seed + 1)
        n, slack = self.net.n_bus, self.net.slack
        directory = os.path.join(self.workdir, tag)
        os.makedirs(directory, exist_ok=True)
        files = []
        for rec in records:
            v = rec.z.values
            va = v[n:2 * n].copy()
            # an OPF solution carries its reference angle exactly; a noisy one
            # would shift every angle once read_solution re-references them
            va[slack] = 0.0
            sol = fileio.SolutionFile(
                formulation="synthetic",
                vm=v[:n], va=va, p_inj=v[2 * n:3 * n], q_inj=v[3 * n:4 * n],
                flows=v[4 * n:].reshape(4, self.net.n_branch).T,
            )
            path = os.path.join(directory, f"{rec.index:03d}.json")
            fileio.write_solution(path, self.net, sol)
            files.append((path, rec.x_ac))
        return files

    def batch(self, k, budget, deadline):
        if k < len(self.reference):
            path, _ = self.reference[k]
        else:
            path, _ = self.inputs[(k - len(self.reference)) % len(self.inputs)]
        out_name = os.path.basename(os.path.dirname(path)) + "-" + os.path.basename(path)
        out_path = os.path.join(self.out_dir, out_name)
        net = self.net
        clock = Clock(self.tracer)
        clock.start()
        sol = fileio.read_solution(path, net)
        z = fileio.solution_to_measurements(net, sol)
        weights = train.default_initial_weights(z.kinds)
        result = wls.wls_restore(net, z, weights)
        point = acpf.operating_point(net, result.state)
        report = acpf.constraint_report(net, point)
        fileio.write_solution(
            out_path, net, fileio.operating_point_solution(net, point, "restored-wls"))
        seconds = clock.stop()
        return [OpResult(seconds, *self._check(path, out_path, z, weights, result, report))]

    def _check(self, path, out_path, z, weights, result, report):
        if not result.converged:
            return False, f"{path}: restore did not converge in {result.iterations} iterations"
        w = weights / weights.max()
        r = z.values - acpf.eval_h(self.net, result.state, z.kinds)
        jac = acpf.eval_H(self.net, result.state, z.kinds)
        stationarity = float(np.max(np.abs(jac.T @ (w * r))))
        if not stationarity <= STATIONARITY_TOL:
            return False, f"{path}: |H'Wr|inf = {stationarity:.3g} > {STATIONARITY_TOL}"
        if not math.isfinite(report.max_violation()):
            return False, f"{path}: non-finite constraint report"
        written = fileio.read_solution(out_path, self.net)
        if not np.array_equal(written.vm, result.state.vm):
            return False, f"{out_path}: written vm differs from the restored state"
        self.restored[path] = result.state
        return True, ""

    def state_err(self):
        pairs = [(self.restored[p], t) for p, t in self.reference if p in self.restored]
        return _state_err([p[0] for p in pairs], [p[1] for p in pairs])

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class _TimeUp(Exception):
    """Ends a training job from inside train_weights once the run's time is up."""


class Train57(Workload):
    """Offline weight training, as `acrestore train` (full batch, threads=1).

    A run is one training job on the 24 reference records with the CLI's
    defaults, cut when the run's time is up; each Adam iteration is one
    operation. The records are the same for every seed: the paper's loss over
    24 records from different seeds varies by about 30% of its median, more
    than a regression bound can take.
    """

    name = "train-57"
    CASE = "case57"
    RECORDS = 24
    ETA = 10.0       # the CLI's default learning rate
    MAX_ITER = 200   # the CLI's default job length
    # state_err is the loss at this iteration, so it does not depend on how
    # many iterations fit in the run; every job that is not cut by a budget
    # runs at least this far
    STATE_ERR_ITER = 10

    def setup(self):
        self.net = load_bundled_case(self.CASE)
        spec = scenarios.ScenarioSpec(count=self.RECORDS, seed=REFERENCE_SEED)
        loads = scenarios.gen_load_scenarios(self.net, spec)
        self.records = scenarios.synth_dataset(self.net, loads, seed=REFERENCE_SEED + 1)
        self.losses = []  # (loss, records used) per iteration of job 0

    def batch(self, k, budget, deadline):
        iters = self.MAX_ITER if budget is None else min(self.MAX_ITER, budget)
        config = train.TrainConfig(
            eta=self.ETA, max_iter=iters,
            w_init=train.default_initial_weights(self.records[0].z.kinds), threads=1,
        )
        # Two taps are the only hooks in a timed run: train_weights hands
        # loss() the records whose restore converged, and the end of each
        # adam_step closes one iteration (one clock read).
        ends, grads, losses = [], [], []
        loss, adam_step = train.loss, train.adam_step

        def tapped_loss(records, states):
            value = loss(records, states)
            losses.append((value, len(records)))
            return value

        def marked(w, m_t, v_t, g, t, config):
            out = adam_step(w, m_t, v_t, g, t, config)
            ends.append(perf_counter())
            grads.append(g)
            if deadline is not None and ends[-1] >= deadline and t >= self.STATE_ERR_ITER:
                raise _TimeUp
            return out

        error = None
        clock = Clock(self.tracer, "bench.job")
        with rebound([(train, "loss", tapped_loss), (train, "adam_step", marked)]):
            t0 = clock.start()
            try:
                train.train_weights(self.net, self.records, config)
            except _TimeUp:
                pass
            except train.TrainingError as exc:
                # the iteration that raised is a failed operation; the job ends
                ends.append(perf_counter())
                error = exc
            clock.stop()
        if k == 0:
            self.losses = losses
        n = len(self.records)
        if self.tracer is not None:
            self.tracer.count("train.records_skipped", sum(n - used for _, used in losses))
        bounds = [t0] + ends
        results = []
        for i in range(len(ends)):
            if i == len(losses):
                why = f"job {k} iteration {i + 1}: {type(error).__name__}: {error}"
            elif losses[i][1] < n:
                why = f"job {k} iteration {i + 1}: {n - losses[i][1]} of {n} records skipped"
            elif not (math.isfinite(losses[i][0]) and np.all(np.isfinite(grads[i]))):
                why = f"job {k} iteration {i + 1}: non-finite loss or gradient"
            else:
                why = ""
            results.append(OpResult(bounds[i + 1] - bounds[i], not why, why))
        return results

    def state_err(self):
        """Loss per record at iteration STATE_ERR_ITER of job 0 (or at its last
        iteration, when a budget cut it shorter)."""
        if not self.losses:
            return math.nan, 0
        value, used = self.losses[min(self.STATE_ERR_ITER, len(self.losses)) - 1]
        return value / used, used


class LpacDataset14(Workload):
    """Per-scenario dataset generation, as `acrestore scenarios --source lpac`.

    The scenarios are the same for every seed: one scenario takes 1100 to
    2100 pivots, and the median time over the 16 to 20 scenarios a run has
    time for varied by 27% of its median between ten seeds, more than a
    regression bound can take.
    """

    name = "lpac-dataset-14"
    CASE = "case14"
    POOL = 16  # load scenarios, visited in turn; state_err is taken over them
    REFERENCE_BATCHES = POOL

    def setup(self):
        self.net = load_bundled_case(self.CASE)
        spec = scenarios.ScenarioSpec(count=self.POOL, seed=REFERENCE_SEED)
        self.loads = scenarios.gen_load_scenarios(self.net, spec)
        self.errors = {}

    def batch(self, k, budget, deadline):
        s = k % len(self.loads)
        p_load, q_load = self.loads[s]
        net = self.net
        clock = Clock(self.tracer)
        clock.start()
        try:
            scen = net.with_loads(p_load, q_load)
            truth = scenarios.ground_truth_states(net, [(p_load, q_load)])[0]
            lp = lpac.build_lpac(scen)
            result = lpac.simplex_solve(lp)
            sol = lpac.extract_solution(scen, lp, result.x)
            z = lpac.lpac_to_measurements(scen, sol)
        except lpac.SimplexError as exc:
            seconds = clock.stop()
            if self.tracer is not None:
                self.tracer.count("lpac.failures")
            return [OpResult(seconds, False, f"scenario {s}: {type(exc).__name__}: {exc}")]
        seconds = clock.stop()
        return [OpResult(seconds, *self._check(s, scen, result, z, truth))]

    def _check(self, s, scen, result, z, truth):
        if truth is None:
            return False, f"scenario {s}: ground-truth power flow failed"
        cert = lpac.verify_certificates(result, tol=CERTIFICATE_TOL)
        if not cert["ok"]:
            if self.tracer is not None:
                self.tracer.count("lpac.failures")
            return False, f"scenario {s}: certificate check failed: {cert}"
        n, slack = scen.n_bus, scen.slack
        vm, va = z.values[:n], z.values[n:2 * n]
        try:
            raw = acpf.StateVector(vm, va - va[slack], slack)
        except ValueError as exc:
            return False, f"scenario {s}: raw approximation is no voltage state: {exc}"
        self.errors[s] = (raw, truth)
        return True, ""

    def state_err(self):
        pairs = [self.errors[s] for s in range(self.POOL) if s in self.errors]
        return _state_err([p[0] for p in pairs], [p[1] for p in pairs])


WORKLOADS = {w.name: w for w in (Restore118, Train57, LpacDataset14)}
