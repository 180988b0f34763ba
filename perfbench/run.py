"""gaplab benchmark: end-to-end and per-layer metrics on one workload.

    python3 perfbench/run.py --workload {sweep,suite,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/``; it
is never installed.  One process, one caller, closed loop: batches of the
workload run back to back until the next one would end after ``--seconds``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (``end_to_end``):
times scaled to a reference loop's nominal speed (*_norm_s, see
workloads.REFERENCE_NOMINAL_S), set-up time and accuracy; the raw times are
printed beside them.  --trace 1 reports the per-layer ones (``per_layer``)
from batches with spans recorded, alternated with untraced batches to
measure the tracing overhead.  Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Details, the
environment and (with --trace 1) every span are written under .bench_out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
# Every run makes at least three batches, and per-case latencies come from
# exactly the first three: the rank the tail percentile picks depends on the
# sample count, so a run that fits a fourth batch would otherwise report
# another percentile.  With three samples per case the median and the tail
# rank fall on a case's middle sample.  Repetitions also feed the sweep's
# byte-stability gate.
MIN_BATCHES = 3
PROBE_TIMEOUT_S = 60
THREADS = "1"  # GIL-bound interpreted kernels: more workers only add noise


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "suite", "oracle"))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own, e.g. 20260808 "
                         "for suite as in acceptance criterion 3)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def import_program():
    """Import gaplab from this checkout's src/, never from elsewhere.  The
    benchmark's own modules import gaplab, so they are imported after this."""
    src = ROOT / "src"
    if not (src / "gaplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no gaplab sources under {src}")
    sys.path.insert(0, str(src))
    import gaplab

    if Path(gaplab.__file__).resolve().parent != (src / "gaplab").resolve():
        raise SystemExit(f"error: imported gaplab from {gaplab.__file__}, not {src}")


def setup(args):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = cls.default_seed
    workload = cls(args.seed, OUT_DIR)
    workloads.warm_up()
    return workload


def probe_setup_s(args):
    """Median over fresh processes of the time from spawn to 'ready'."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def measure(workload, seconds, trace):
    """Run batches until the next would end after `seconds`.  With tracing,
    untraced and traced batches alternate (untraced first)."""
    from tracer import Tracer
    from workloads import run_batch

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        rep = len(untraced) + len(traced)
        if trace and rep % 2:
            with tracer:
                traced.append(run_batch(workload, rep))
        else:
            untraced.append(run_batch(workload, rep))
        done = untraced + traced
        next_end = time.perf_counter() - start + statistics.median(b.wall for b in done)
        if len(done) >= MIN_BATCHES and next_end > seconds:
            return untraced, traced, tracer


def tail(samples):
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are ten samples or fewer)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def environment():
    import importlib.metadata
    import importlib.util

    import numpy
    from gaplab import _jit

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "jit_enabled": bool(_jit.JIT_ENABLED),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "GAPLAB_THREADS": os.environ.get("GAPLAB_THREADS"),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def layer_metrics(workload_name, declared, traced, untraced, tracer):
    """Per-layer values per traced batch, and the required layers that
    recorded no span (the self-check)."""
    from tracer import LAYERS
    from workloads import REQUIRED_LAYERS

    n = len(traced)
    totals = tracer.layer_totals()
    values = {f"{layer}.{key}": value / n
              for layer, t in totals.items() for key, value in t.items()}
    sturm = totals["kernels.sturm_count"]
    if sturm["cells"]:
        values["kernels.sturm_count.ns_per_cell"] = 1e9 * sturm["s"] / sturm["cells"]
    values["trace.coverage"] = tracer.top_level_s() / sum(b.wall for b in traced)
    values["trace.overhead_frac"] = (
        statistics.median(b.wall_norm for b in traced)
        / statistics.median(b.wall_norm for b in untraced) - 1.0)
    for name in declared:
        # a layer this workload never calls did no work
        if name not in values and name.rsplit(".", 1)[0] in LAYERS:
            values[name] = 0.0
    missing = [layer for layer in REQUIRED_LAYERS[workload_name]
               if not totals[layer]["calls"]]
    return values, missing


def run_values(workload, ev, untraced, traced, setup_samples):
    """Metrics every run reports, with a note on what each value rests on.
    The *_norm_s times are scaled to the reference loop's nominal speed."""
    from workloads import REFERENCE_NOMINAL_S, accuracy_summary

    acc = accuracy_summary(ev)
    batches = untraced + traced
    first = untraced[:MIN_BATCHES]
    case_s = [s for b in first for s in b.case_s]
    case_norm_s = [s for b in first for s in b.case_norm_s]
    p_tail, pct = tail(case_s)
    piecewise = f"base {acc['base']} piecewise, {acc['not_piecewise']} n/a"
    walls = f"median of {len(untraced)} batches of {len(workload.cases)} case(s)"
    cases = f"n={len(case_s)}"
    tails = f"p{pct:.0f}, n={len(case_s)}, {10 if len(case_s) > 10 else 0} beyond"
    values = {
        "wall_norm_s": (statistics.median(b.wall_norm for b in untraced), walls),
        "case_p50_norm_s": (statistics.median(case_norm_s), cases),
        "case_tail_norm_s": (tail(case_norm_s)[0], tails),
        "wall_s": (statistics.median(b.wall for b in untraced), walls),
        "case_p50_s": (statistics.median(case_s), cases),
        "case_tail_s": (p_tail, tails),
        "reference_speed": (
            statistics.median(REFERENCE_NOMINAL_S / r for b in untraced for r in b.reference_s),
            f"median of {REFERENCE_NOMINAL_S * 1e3:g} ms over each reference loop time"),
        "lambda_digits_mean": (acc["lambda_digits_mean"], piecewise),
        "lambda_digits_min": (acc["lambda_digits_min"], piecewise),
        "gap_digits_min": (acc["gap_digits_min"], piecewise),
        "err_est_coverage": (acc["err_est_coverage"],
                             f"{acc['covered']}/{acc['base']} piecewise, "
                             f"{acc['not_piecewise']} n/a"),
        "fdsolver.order_warnings": (sum(b.order_warnings for b in batches) / len(batches),
                                    f"per batch, {len(batches)} batches"),
        "process.peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None),
    }
    if setup_samples:
        values["setup_s"] = (statistics.median(setup_samples),
                             f"median of {len(setup_samples)} fresh processes")
    return values


# printed next to the end-to-end metrics, without a bound of their own
DIAGNOSTICS = (("wall_s", "s"), ("case_p50_s", "s"), ("case_tail_s", "s"),
               ("reference_speed", "ratio"),
               ("lambda_digits_min", "digits"), ("gap_digits_min", "digits"),
               ("err_est_coverage", "fraction"), ("fdsolver.order_warnings", "count"))


def main(argv=None):
    args = parse_args(argv)
    os.environ["GAPLAB_THREADS"] = THREADS
    import_program()
    OUT_DIR.mkdir(exist_ok=True)
    workload = setup(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    setup_samples = [] if args.trace else probe_setup_s(args)
    untraced, traced, tracer = measure(workload, args.seconds, args.trace)

    # everything below is outside the timed region
    ev = workload.evaluate(untraced + traced)
    noted = run_values(workload, ev, untraced, traced, setup_samples)
    values = {name: value for name, (value, _) in noted.items()}
    missing = []
    shown = list(declared)
    if args.trace:
        layer_values, missing = layer_metrics(
            args.workload, [name for name, _ in declared], traced, untraced, tracer)
        values.update(layer_values)
        tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        shown += DIAGNOSTICS
    unmeasured = [name for name, _ in declared if name not in values]
    if unmeasured:
        raise SystemExit(f"error: not measured: {', '.join(unmeasured)}")

    attempted, failed = ev.attempted, ev.failed
    env = environment()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "metrics": {name: {"value": values[name], "unit": unit,
                           "samples": noted.get(name, (None, None))[1]}
                    for name, unit in shown},
        "failed_frac": {"value": failed / attempted, "failed": failed,
                        "wrong_output": ev.wrong, "attempted": attempted},
        "failures": ev.failures, "self_check_missing_layers": missing,
        "batch_walls": {"untraced": [b.wall for b in untraced],
                        "traced": [b.wall for b in traced]},
        "case_s": [b.case_s for b in untraced],
        "reference_s": [b.reference_s for b in untraced],
        "setup_samples": setup_samples, **ev.extra,
    }
    if args.trace:
        detail["per_n"] = tracer.per_n()
    detail_path = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=2) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for name, unit in shown:
        note = noted.get(name, (None, None))[1]
        print(f"  {name:40s} {values[name]:<12.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':40s} {failed / attempted:<12.6g} ({failed}/{attempted}, "
          f"{ev.wrong} with a wrong output)")
    for name, value in ev.extra.items():
        print(f"  {name:40s} {value:.6g}")
    for what in ev.failures:
        print(f"  FAILED: {what}")
    if missing:
        print(f"  SELF-CHECK FAILED: no spans for {', '.join(missing)}")
    print(f"  environment: {json.dumps(env)}")
    print(f"  details: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ev.wrong == 0 and not missing, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
