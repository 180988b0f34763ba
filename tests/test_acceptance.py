"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime (visible with ``pytest -s`` or in the captured-output section).

Timings exclude first-call costs (lazy imports, cold caches), which a
module-scoped warmup absorbs before the timed criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from gaplab import (
    Constant,
    Step,
    Zero,
    decompose,
    default_cell_count,
    eigenvalues_exact,
    solve_extrapolated,
    verify,
)
from gaplab.cli import SWEEP_CSV_HEADER, main
from conftest import random_capped, random_lattice_multistep, random_multistep

PI_SQ = math.pi * math.pi


@pytest.fixture(scope="module", autouse=True)
def warmup():
    solve_extrapolated(Step(1.0, (-0.25, 0.25)), 1.0, n0=64, levels=2)
    eigenvalues_exact(decompose(Step(1.0, (-0.25, 0.25)), 1.0), 2)


def _report(name, elapsed, budget):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {budget:.0f}s budget)")


def test_criterion_1_free_case_exactness():
    t0 = time.perf_counter()
    for L in (1.0, math.pi, 20.0):
        r = solve_extrapolated(Zero(), L, n0=default_cell_count(L), levels=3)
        exact_gap = PI_SQ / L**2
        assert abs(r.gap - exact_gap) <= 1e-8 * exact_gap
        inv_sqrt = 1.0 / math.sqrt(L)
        assert abs(r.inf_phi0 - inv_sqrt) <= 1e-8 * inv_sqrt
        assert abs(r.sup_phi0 - inv_sqrt) <= 1e-8 * inv_sqrt
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("1 free-case exactness", elapsed, 5)


def test_criterion_2_sharpness_at_zero_potential():
    t0 = time.perf_counter()
    for L in (1.0, math.pi, 20.0):
        r = solve_extrapolated(Zero(), L, n0=default_cell_count(L), levels=3)
        rep = verify(Zero(), L, r)
        for name in (
            "gap_ge_exp_bound",
            "inf_ge_exp_bound",
            "ratio_ge_harnack_floor",
            "gap_ge_kirsch_bound",
        ):
            c = rep.check(name)
            assert c.status == "holds", f"{name} at L={L}: {c}"
            rel_slack = abs(c.slack) / abs(c.bound)
            assert rel_slack < 1e-9, f"{name} at L={L}: rel slack {rel_slack:.2e}"
    _report("2 sharpness at v=0", time.perf_counter() - t0, 30)


def _suite_cases(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        L = float(np.exp(rng.uniform(np.log(0.5), np.log(100.0))))
        p = random_multistep(rng, L) if i % 2 == 0 else random_capped(rng)
        yield p, L


def test_criterion_3_randomized_inequality_suite():
    t0 = time.perf_counter()
    violations = []
    for p, L in _suite_cases(200, seed=20260808):
        n0 = max(512, int(math.ceil(64 * L)))
        r = solve_extrapolated(p, L, n0=n0, levels=3)
        rep = verify(p, L, r)
        for c in rep.checks:
            if c.status == "violated":
                violations.append((type(p).__name__, L, c.name, c.slack, c.allowance))
        # bound ordering: exponential floor <= comparison floor <= measured gap
        exp_b = rep.check("gap_ge_exp_bound")
        kir_b = rep.check("gap_ge_kirsch_bound")
        assert exp_b.bound <= kir_b.bound * (1.0 + 1e-9) + 1e-300
        assert kir_b.bound <= r.gap * (1.0 + 1e-9) + kir_b.allowance
    assert not violations, f"bound violations beyond policy: {violations}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("3 randomized inequality suite (200 cases)", elapsed, 600)


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for i in range(50):
        L = float((1.0, 5.0, 20.0)[i % 3])
        p = random_lattice_multistep(rng, L)
        ex0, ex1 = eigenvalues_exact(decompose(p, L), 2)
        base = int(64 * L)
        n0 = base * max(1, math.ceil(256 / base))  # keep jump alignment
        r = solve_extrapolated(p, L, n0=n0, levels=3)
        scale = max(abs(ex1), PI_SQ / L**2)
        dev = max(abs(r.lambda0 - ex0), abs(r.lambda1 - ex1)) / scale
        worst = max(worst, dev)
        assert dev < 1e-6, f"case {i} (L={L}, {p}): rel dev {dev:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(f"4 oracle equivalence (50 cases, worst {worst:.1e})", elapsed, 300)


def test_criterion_5_gap_scaling_exponent(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "potential": {"type": "step", "height": 1.0, "support": [-0.5, 0.5]},
        "L_min": 50.0,
        "L_max": 400.0,
        "count": 9,
        "cells_per_unit": 64,
        "levels": 3,
    }
    csv_path = tmp_path / "scaling.csv"
    assert main(["sweep", "--config", json.dumps(cfg), "--output", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), "gap not monotone decreasing"
    assert main(["fit", str(csv_path), "--column", "gap"]) == 0
    ls = [float(line.split(",")[0]) for line in lines[1:]]
    slope, _ = np.polyfit(np.log(ls), np.log(gaps), 1)
    assert abs(slope - (-3.0)) <= 0.3, f"fitted exponent {slope:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(f"5 gap scaling exponent ({slope:.3f})", elapsed, 600)


def test_criterion_6_convergence_order():
    t0 = time.perf_counter()
    L, c = 2.0, 2.5
    exact = c + PI_SQ / L**2
    r = solve_extrapolated(Constant(c), L, n0=64, levels=4)
    errs = np.array([abs(v - exact) for v in r.raw_lambda1])
    ns = 64.0 * 2 ** np.arange(4)
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 1.9 <= slope <= 2.1, f"convergence order {slope:.3f}"
    _report(f"6 convergence order ({slope:.3f})", time.perf_counter() - t0, 30)


def test_criterion_7_log_derivative_bound():
    t0 = time.perf_counter()
    for p, L in _suite_cases(50, seed=777001):
        n0 = max(512, int(math.ceil(64 * L)))
        r = solve_extrapolated(p, L, n0=n0, levels=3)
        c = verify(p, L, r).check("logderiv_le_four_l1")
        assert c.status == "holds", f"{p} at L={L}: {c}"
    _report("7 log-derivative bound (50 cases)", time.perf_counter() - t0, 120)


def test_criterion_8_cli_contract(tmp_path, capsys):
    t0 = time.perf_counter()
    matrix = [
        ((["solve", "--potential", '{"type":"zero"}', "--length", "2"]), 0),
        ((["verify", "--potential", '{"type":"zero"}', "--length", "1"]), 0),
        ((["solve", "--potential", '{"type":"zero"}', "--length", "-2"]), 2),
        ((["solve", "--potential", '{"type":"zer', "--length", "2"]), 2),
        ((["solve", "--potential", "missing.json", "--length", "2"]), 2),
        ((["verify", "--potential", '{"type":"step","height":10.0,"support":[-0.5,0.5]}',
           "--length", "10", "--cells", "70", "--levels", "2", "--oracle"]), 1),
        ((["sweep", "--config", '{"L_values":[1.0]}', "--output", "x.csv"]), 2),
        ((["fit", "missing.csv", "--column", "gap"]), 2),
    ]
    for argv, expected in matrix:
        code = main(argv)
        capsys.readouterr()
        assert code == expected, f"{argv}: exit {code}, expected {expected}"

    cfg = json.dumps(
        {"potential": {"type": "zero"}, "L_values": [1.0, 2.0, 4.0], "min_cells": 256}
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--output", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes(), "sweep CSV must be byte-stable"
    assert a.read_text().splitlines()[0] == SWEEP_CSV_HEADER
    _report("8 CLI contract", time.perf_counter() - t0, 120)
