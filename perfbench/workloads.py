"""The three workloads: what one batch runs, and how its outputs are checked.

A batch is a fixed list of cases run back to back by one caller (closed
loop).  ``run_batch`` is the only timed code; the correctness gates and the
accuracy references against the oracle are computed afterwards by
``evaluate``, so an oracle change cannot move ``sweep`` or ``suite`` timings.
"""

import contextlib
import io
import json
import math
import statistics
import time
import warnings
from dataclasses import dataclass, field
from typing import List

import numpy as np

import gaplab as gl
from gaplab import cli

import cases as case_gen

ORACLE_TOL = 1e-6  # documented default of `gaplab verify --oracle`
PI_SQ = math.pi ** 2


# The virtual machine this benchmark was tuned on (2 vCPUs shared with others,
# Python 3.11) runs the same Python code up to ~60% slower from one
# half-minute to the next, and for ~0.1 s after every long computation.  A
# fixed loop, timed three times before the first case and after every case,
# samples that speed; each case time is also reported scaled by
# REFERENCE_NOMINAL_S over the loop's mean time on both sides of the case,
# which takes the drift out of run-to-run comparisons.  The mean, not the
# median, because the stalls are part of the drift.  It works best for cases
# of about a second or less: across one long computation two samples cannot
# follow the speed, which is why the sweep runs row by row.
REFERENCE_NOMINAL_S = 0.004  # typical mean time of one loop on that machine
_REF_DIAG = np.linspace(2.0, 3.0, 8192)
_REF_OFF2 = np.full(8191, 0.25)


def reference_s():
    """Mean time of three runs of a Sturm-style recurrence written like the
    interpreted kernels (numpy scalar indexing, float division).  It is the
    benchmark's own code, so no change to the program can change it."""
    total = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        d = 1.0
        for i in range(1, 8192):
            d = _REF_DIAG[i] - 1.0 - _REF_OFF2[i - 1] / d
        total += time.perf_counter() - t0
    return total / 3.0


@dataclass
class Batch:
    case_s: List[float]
    payloads: list
    order_warnings: int
    reference_s: List[float]  # mean reference loop time before each case and after the last

    @property
    def wall(self):
        return sum(self.case_s)

    @property
    def case_norm_s(self):
        """Case times at the reference loop's nominal speed."""
        return [s * 2.0 * REFERENCE_NOMINAL_S / (before + after)
                for s, before, after in zip(self.case_s, self.reference_s,
                                            self.reference_s[1:])]

    @property
    def wall_norm(self):
        return sum(self.case_norm_s)


@dataclass
class Evaluation:
    attempted: int = 0
    failed: int = 0  # operations that failed, whether they raised or gave a wrong output
    wrong: int = 0  # of those, the ones whose output failed a correctness gate
    failures: List[str] = field(default_factory=list)
    accuracy: list = field(default_factory=list)  # (L, lam, est, exact) per piecewise case
    not_piecewise: int = 0
    extra: dict = field(default_factory=dict)

    def fail(self, what, wrong=True):
        """Count a failed operation; `wrong` unless it raised (the program
        refused, e.g. SolverError, instead of giving an output)."""
        self.failed += 1
        self.wrong += wrong
        if len(self.failures) < 20:
            self.failures.append(what)


def run_batch(workload, rep):
    """Run every case once; exceptions count as failed cases, not crashes.
    The reference loop runs before the first case and after each case."""
    case_s, payloads = [], []
    refs = [reference_s()]
    clock = time.perf_counter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for index, case in enumerate(workload.cases):
            t0 = clock()
            try:
                payload = workload.run_case(case, rep, index)
            except Exception as exc:  # noqa: BLE001 - recorded as a failed case
                payload = exc
            case_s.append(clock() - t0)
            payloads.append(payload)
            refs.append(reference_s())
    order = sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
                and "observed convergence order" in str(w.message))
    return Batch(case_s, payloads, order, refs)


def warm_up():
    """One small solve, so lazy imports and first-call costs are paid."""
    gl.solve_extrapolated(gl.Step(1.0, (-0.25, 0.25)), 1.0, n0=64, levels=2)


def _exact_pair(p, L):
    return gl.eigenvalues_exact(gl.decompose(p, L), 2)


class Sweep:
    """Criterion 5 in-process: `gaplab sweep` on the centered unit step, one
    call per row.  With GAPLAB_THREADS=1 a sweep computes its rows one after
    another, so the rows' CSV lines are the bytes one 9-row sweep writes."""

    name = "sweep"
    default_seed = 0  # no random input

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir
        self.cases = case_gen.sweep_rows()  # (L, config JSON) per row
        for stale in out_dir.glob("sweep_*.csv"):
            stale.unlink()

    def run_case(self, case, rep, index):
        path = self.out_dir / f"sweep_rep{rep}_row{index}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", case[1], "--output", str(path)])
        return code, path

    def evaluate(self, batches):
        ev = Evaluation()
        first = {}  # row index -> CSV bytes of its first repetition
        for batch in batches:
            for index, payload in enumerate(batch.payloads):
                ev.attempted += 1
                if isinstance(payload, Exception):
                    ev.fail(f"row {index} raised {payload!r}", wrong=False)
                    continue
                code, path = payload
                if not path.exists():
                    ev.fail(f"row {index}: exit {code}, no CSV")
                    continue
                data = path.read_bytes()
                status = data.decode().rstrip("\n").rsplit(",", 1)[-1]
                if code != 0 or status != "ok":
                    # a row that could not be solved reads error:<type>
                    ev.fail(f"row {index}: exit {code}, status {status}",
                            wrong=not (code == 1 and status.startswith("error:")))
                elif data != first.setdefault(index, data):
                    ev.fail(f"row {index}: CSV bytes differ between repetitions")
        if len(first) < len(self.cases):
            return ev
        header = first[0].decode().splitlines()[0]
        rows = [first[i].decode().splitlines()[1] for i in range(len(self.cases))]
        table = self.out_dir / "sweep_rows.csv"
        table.write_text("\n".join([header] + rows) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["fit", str(table), "--column", "gap",
                             "--lmin", "50", "--lmax", "400"])
        slope = json.loads(out.getvalue())["slope"] if code == 0 else math.nan
        expected, tol = case_gen.SWEEP_EXPONENT
        ev.extra["gap_exponent"] = slope
        if not abs(slope - expected) <= tol:
            # the exponent is a property of every repetition's rows
            ev.failed = ev.wrong = ev.attempted
            ev.failures.append(f"gap exponent {slope:.3f} outside {expected} +- {tol}")
        p = gl.from_dict(case_gen.SWEEP_CONFIG["potential"])
        for row in rows:
            f = row.split(",")
            L, lam0, lam1, est = float(f[0]), float(f[1]), float(f[2]), float(f[8])
            # the CSV keeps only the larger of the two error estimates
            ev.accuracy.append((L, (lam0, lam1), (est, est), _exact_pair(p, L)))
        return ev


class Suite:
    """A slice of criterion 3: solve_extrapolated then verify per case."""

    name = "suite"
    default_seed = 20260808  # acceptance criterion 3
    cases_per_batch = 12

    def __init__(self, seed, out_dir):
        self.cases = case_gen.suite_cases(seed, self.cases_per_batch)

    def run_case(self, case, rep, index):
        result = gl.solve_extrapolated(case.potential, case.L, n0=case.n0, levels=3)
        return result, gl.verify(case.potential, case.L, result)

    def evaluate(self, batches):
        ev = Evaluation()
        solved = {}
        for batch in batches:
            for index, (case, payload) in enumerate(zip(self.cases, batch.payloads)):
                ev.attempted += 1
                if isinstance(payload, Exception):
                    ev.fail(f"case {index} (L={case.L:.4g}) raised {payload!r}", wrong=False)
                    continue
                result, report = payload
                violated = [c.name for c in report.checks if c.status == "violated"]
                if violated:
                    ev.fail(f"case {index} (L={case.L:.4g}) violated {violated}")
                solved.setdefault(index, result)
        for index, case in enumerate(self.cases):
            if not case.piecewise:
                ev.not_piecewise += 1
            elif index in solved:
                r = solved[index]
                ev.accuracy.append((case.L, (r.lambda0, r.lambda1), r.error_estimate,
                                    _exact_pair(case.potential, case.L)))
        return ev


class Oracle:
    """The `gaplab verify --oracle` certification path plus the README's
    ground_state_profile, through the public API."""

    name = "oracle"
    default_seed = 424242  # acceptance criterion 4
    cases_per_batch = 18

    def __init__(self, seed, out_dir):
        self.cases = case_gen.oracle_cases(seed, self.cases_per_batch)

    def run_case(self, case, rep, index):
        p, L = case.potential, case.L
        result = gl.solve_extrapolated(p, L, n0=case.n0, levels=3)
        report = gl.verify(p, L, result)
        if case.piecewise:
            check = _exact_pair(p, L)
            lam0 = check[0]
        else:
            gap = result.gap
            check = (
                gl.prufer_count(p, L, result.lambda0 - 0.5 * gap),
                gl.prufer_count(p, L, 0.5 * (result.lambda0 + result.lambda1)),
                gl.prufer_count(p, L, result.lambda1 + 0.5 * gap),
            )
            lam0 = result.lambda0
        return result, report, check, gl.ground_state_profile(p, L, lam0)

    def evaluate(self, batches):
        ev = Evaluation()
        certified = {}
        for batch in batches:
            for index, (case, payload) in enumerate(zip(self.cases, batch.payloads)):
                ev.attempted += 1
                if isinstance(payload, Exception):
                    ev.fail(f"case {index} (L={case.L:g}) raised {payload!r}", wrong=False)
                    continue
                result, report, check, profile = payload
                problems = [c.name for c in report.checks if c.status == "violated"]
                if case.piecewise:
                    scale = PI_SQ / case.L ** 2
                    dev = max(abs(lam - ex) / max(abs(ex), scale)
                              for lam, ex in zip((result.lambda0, result.lambda1), check))
                    if not dev <= ORACLE_TOL:
                        problems.append(f"rel_dev {dev:.2e}")
                elif not (check[0] == 0 and check[1] == 1 and check[2] >= 2):
                    problems.append(f"counts {check}")
                l1 = gl.interval_norms(case.potential, case.L).l1
                if not math.exp(-4.0 * case.L * l1) <= profile.ratio <= 1.0:
                    problems.append(f"profile ratio {profile.ratio:.3e}")
                if problems:
                    ev.fail(f"case {index} (L={case.L:g}): {problems}")
                certified.setdefault(index, (result, check))
        for index, case in enumerate(self.cases):
            if not case.piecewise:
                ev.not_piecewise += 1
            elif index in certified:
                r, exact = certified[index]
                ev.accuracy.append((case.L, (r.lambda0, r.lambda1), r.error_estimate, exact))
        return ev


WORKLOADS = {w.name: w for w in (Sweep, Suite, Oracle)}

# layers each workload must exercise; a traced run that records no span for
# one of them fails its self-check
REQUIRED_LAYERS = {
    "sweep": ("cli.main", "fdsolver.lowest_two_eigenpairs", "kernels.sturm_count",
              "kernels.bisect_eigenvalue", "kernels.inverse_iteration"),
    "suite": ("fdsolver.solve_extrapolated", "fdsolver.assemble", "potentials.evaluate",
              "bounds.verify", "potentials.interval_norms"),
    "oracle": ("oracle.eigenvalues_exact", "oracle.match_value",
               "kernels.prufer_theta_piecewise", "oracle.ground_state_profile",
               "oracle.prufer_count", "kernels.prufer_theta_capped",
               "kernels.profile_rk4_capped"),
}


def accuracy_summary(ev):
    """Digits and error-estimate coverage over the piecewise cases.

    Relative eigenvalue error uses the criterion-4 scale
    max_k |lam_k - exact_k| / max(|exact_1|, pi^2/L^2); digits are
    -log10 of it (an error below 1e-17 reads as 17 digits).
    """
    lam_digits, gap_digits, covered = [], [], 0
    for L, lam, est, exact in ev.accuracy:
        errs = [abs(a - b) for a, b in zip(lam, exact)]
        lam_rel = max(errs) / max(abs(exact[1]), PI_SQ / L ** 2)
        gap_exact = exact[1] - exact[0]
        gap_rel = abs((lam[1] - lam[0]) - gap_exact) / gap_exact
        lam_digits.append(-math.log10(max(lam_rel, 1e-17)))
        gap_digits.append(-math.log10(max(gap_rel, 1e-17)))
        covered += all(e >= err for e, err in zip(est, errs))
    n = len(ev.accuracy)
    return {
        "lambda_digits_mean": statistics.fmean(lam_digits) if n else math.nan,
        "lambda_digits_min": min(lam_digits, default=math.nan),
        "gap_digits_min": min(gap_digits, default=math.nan),
        "err_est_coverage": covered / n if n else math.nan,
        "covered": covered,
        "base": n,
        "not_piecewise": ev.not_piecewise,
    }
