"""Closed-form spectral inequalities and their verification against solver output.

Quantities with an exponential factor are evaluated in log space and carried
as ``(value, log)`` pairs so a bound like exp(-800) * pi^2/L^2 stays
meaningful after the double underflows to zero.  The verification policy is
one-sided: the measured side is widened by a relative epsilon plus the
solver's own error estimate, so an inequality is only reported violated when
it fails by more than everything the discretization could account for.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .fdsolver import Grid, SpectralResult
from .potentials import (
    IntervalNorms,
    PotentialSpec,
    interval_norms,
    sup_norm_on_interval,
    to_dict,
)

__all__ = [
    "LogFloat",
    "TolerancePolicy",
    "BoundCheck",
    "BoundReport",
    "gap_lower_bound",
    "harnack_floor",
    "inf_lower_bound",
    "sup_upper_bound",
    "lambda0_upper_bounds",
    "kirsch_comparison_bound",
    "log_derivative_check",
    "LogDerivativeCheck",
    "verify",
]

PI_SQ = math.pi * math.pi


class LogFloat(NamedTuple):
    """A non-negative quantity with its exact logarithm.

    ``value`` may underflow to 0.0; ``log`` stays finite in that case.
    """

    value: float
    log: float

    @classmethod
    def from_log(cls, log_value: float) -> "LogFloat":
        return cls(math.exp(log_value) if log_value > -746.0 else 0.0, log_value)


@dataclass(frozen=True)
class TolerancePolicy:
    """Slack granted to the measured side of every inequality check.

    The allowance is eps_rel * scale + the solver error mapped to the check;
    it only ever widens acceptance: a violation must exceed it to be
    reported, so a genuine violation signals a solver defect rather than
    discretization noise.
    """

    eps_rel: float = 1e-8

    def __post_init__(self):
        if not (self.eps_rel > 0.0 and math.isfinite(self.eps_rel)):
            raise ValueError(f"eps_rel must be finite and > 0, got {self.eps_rel}")

    def allowance(self, measured: float, bound: float, solver_err: float) -> float:
        return self.eps_rel * max(abs(measured), abs(bound)) + solver_err


def gap_lower_bound(norms: IntervalNorms, L: float) -> LogFloat:
    """exp(-8 L ||v||_1) * pi^2 / L^2, the closed-form floor of the gap."""
    _check_length(L)
    return LogFloat.from_log(math.log(PI_SQ) - 2.0 * math.log(L) - 8.0 * L * norms.l1)


def harnack_floor(norms: IntervalNorms, L: float) -> LogFloat:
    """exp(-4 L ||v||_1): floor of inf|phi0| / sup|phi0|."""
    _check_length(L)
    return LogFloat.from_log(-4.0 * L * norms.l1)


def inf_lower_bound(norms: IntervalNorms, L: float) -> LogFloat:
    """exp(-4 L ||v||_1) / sqrt(L): floor of inf|phi0|."""
    _check_length(L)
    return LogFloat.from_log(-4.0 * L * norms.l1 - 0.5 * math.log(L))


def sup_upper_bound(decay_constant: float, L: float) -> float:
    """(1 + sqrt(4 pi^2 + 16 C)) / sqrt(L): ceiling of sup|phi0| for
    potentials with v(x) <= C/x^2."""
    _check_length(L)
    if not decay_constant >= 0.0:
        raise ValueError(f"decay constant must be >= 0, got {decay_constant}")
    return (1.0 + math.sqrt(4.0 * PI_SQ + 16.0 * decay_constant)) / math.sqrt(L)


def lambda0_upper_bounds(
    p: PotentialSpec, norms: IntervalNorms, L: float
) -> Dict[str, float]:
    """All applicable closed-form ceilings of the lowest eigenvalue, labeled:

    * ``l1_over_L``      ||v||_1 / L                    (constant test function)
    * ``quarter_tail``   pi^2/(L/2)^2 + sup of v over (L/4, L/2)
    * ``decay``          (4 pi^2 + 16 C)/L^2            (only when C exists)
    """
    _check_length(L)
    out = {
        "l1_over_L": norms.l1 / L,
        "quarter_tail": PI_SQ / (0.5 * L) ** 2 + sup_norm_on_interval(p, 0.25 * L, 0.5 * L),
    }
    if norms.decay_constant is not None:
        out["decay"] = (4.0 * PI_SQ + 16.0 * norms.decay_constant) / (L * L)
    return out


def kirsch_comparison_bound(inf_phi0: float, sup_phi0: float, L: float) -> float:
    """(inf|phi0| / sup|phi0|)^2 * pi^2 / L^2, the gap floor obtained by
    comparison with the free operator."""
    _check_length(L)
    if not inf_phi0 > 0.0:
        raise ValueError(f"ground state must be positive, got inf {inf_phi0}")
    if not inf_phi0 <= sup_phi0:
        raise ValueError(f"inf {inf_phi0} exceeds sup {sup_phi0}")
    ratio = inf_phi0 / sup_phi0
    return ratio * ratio * PI_SQ / (L * L)


@dataclass(frozen=True)
class LogDerivativeCheck:
    """Measured max |phi0'/phi0| against 4 ||v||_1 plus a discretization term."""

    max_ratio: float
    bound: float
    allowance: float

    @property
    def holds(self) -> bool:
        return self.max_ratio <= self.bound + self.allowance


def log_derivative_check(
    phi0: np.ndarray, grid: Grid, norms: IntervalNorms, lam0: float = 0.0
) -> LogDerivativeCheck:
    """Central-difference log-derivative of a positive eigenfunction sampled
    at the nodes of ``grid``, (phi_{i+1} - phi_{i-1}) / ((x_{i+1} - x_{i-1}) phi_i).

    Stencils touching values below 1e-10 of the peak are skipped: there the
    samples sit at the eigensolver's resolution floor (deep tunneling) and a
    difference quotient measures rounding, not the function.  The allowance
    covers the O(h * jump) kink error at potential discontinuities and the
    O(h^2) error elsewhere, h the largest cell width, both scaled by the
    curvature level (sup v + |lam0|) that phi''/phi can reach.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (grid.N,):
        raise ValueError(f"need one sample per node of the grid ({grid.N}), got {phi0.shape}")
    if phi0.min() <= 0.0:
        raise ValueError("eigenfunction samples must be strictly positive")
    x = grid.nodes()
    resolved = phi0 >= 1e-10 * phi0.max()
    stencil_ok = resolved[:-2] & resolved[1:-1] & resolved[2:]
    ratios = np.abs((phi0[2:] - phi0[:-2]) / ((x[2:] - x[:-2]) * phi0[1:-1]))
    max_ratio = float(ratios[stencil_ok].max()) if stencil_ok.any() else 0.0
    bound = 4.0 * norms.l1
    curvature = norms.sup + abs(lam0)
    h = grid.h
    allowance = 1e-8 * (1.0 + bound) + 0.5 * h * curvature + 20.0 * h * h * curvature
    return LogDerivativeCheck(max_ratio, bound, allowance)


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality.

    ``direction`` is "<=" or ">=" for the measured value against the bound;
    ``slack`` is the signed margin (positive means satisfied strictly);
    ``status`` is holds / violated / inapplicable.
    """

    name: str
    direction: str
    bound: float
    bound_log: float
    measured: float
    slack: float
    allowance: float
    status: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "direction": self.direction,
            "bound": self.bound,
            "bound_log": self.bound_log,
            "measured": self.measured,
            "slack": self.slack,
            "allowance": self.allowance,
            "status": self.status,
        }


_CSV_FIELDS = ["name", "direction", "bound", "bound_log", "measured", "slack", "allowance", "status"]


@dataclass(frozen=True)
class BoundReport:
    """Every applicable inequality for one (potential, L, solve) triple."""

    potential: dict
    L: float
    l1: float
    sup: float
    decay_constant: Optional[float]
    checks: List[BoundCheck] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(c.status != "violated" for c in self.checks)

    @property
    def counts(self):
        applicable = [c for c in self.checks if c.status != "inapplicable"]
        passed = sum(1 for c in applicable if c.status == "holds")
        return passed, len(applicable)

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        passed, total = self.counts
        return {
            "potential": self.potential,
            "L": self.L,
            "norms": {"l1": self.l1, "sup": self.sup, "decay_constant": self.decay_constant},
            "checks_passed": passed,
            "checks_total": total,
            "all_hold": self.all_hold,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def csv_header() -> str:
        return ",".join(_CSV_FIELDS)

    def csv_rows(self) -> List[str]:
        rows = []
        for c in self.checks:
            d = c.as_dict()
            cells = []
            for k in _CSV_FIELDS:
                v = d[k]
                cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
            rows.append(",".join(cells))
        return rows


def _check_length(L: float) -> None:
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"interval length must be finite and > 0, got {L}")


def _make_check(name, direction, bound, measured, allowance, bound_log=None) -> BoundCheck:
    slack = (bound - measured) if direction == "<=" else (measured - bound)
    status = "holds" if slack >= -allowance else "violated"
    if bound_log is None:
        bound_log = math.log(bound) if bound > 0.0 else -math.inf
    return BoundCheck(
        name=name,
        direction=direction,
        bound=float(bound),
        bound_log=float(bound_log),
        measured=float(measured),
        slack=float(slack),
        allowance=float(allowance),
        status=status,
    )


def _inapplicable(name, direction) -> BoundCheck:
    return BoundCheck(
        name=name,
        direction=direction,
        bound=math.nan,
        bound_log=math.nan,
        measured=math.nan,
        slack=math.nan,
        allowance=math.nan,
        status="inapplicable",
    )


def verify(
    p: PotentialSpec,
    L: float,
    result: SpectralResult,
    policy: TolerancePolicy = TolerancePolicy(),
) -> BoundReport:
    """Check every closed-form inequality against the measured spectral data.

    Inapplicable checks (quadratic-decay bounds without a decay constant) are
    reported as such, never dropped.
    """
    _check_length(L)
    norms = interval_norms(p, L)
    err0, err1 = result.error_estimate
    err_gap = err0 + err1
    lam0 = result.lambda0
    gap = result.gap
    inf0 = result.inf_phi0
    sup0 = result.sup_phi0
    ratio = inf0 / sup0
    sqrt_l = math.sqrt(L)
    # map the eigenvalue error estimates onto eigenfunction-level checks via
    # the relative scale of the spectral problem
    scale0 = max(abs(result.lambda0), abs(result.lambda1), PI_SQ / (L * L))
    rel_solver = err_gap / scale0

    checks: List[BoundCheck] = []

    b = gap_lower_bound(norms, L)
    checks.append(
        _make_check("gap_ge_exp_bound", ">=", b.value, gap,
                    policy.allowance(gap, b.value, err_gap), b.log)
    )

    kb = kirsch_comparison_bound(inf0, sup0, L)
    checks.append(
        _make_check("gap_ge_kirsch_bound", ">=", kb, gap,
                    policy.allowance(gap, kb, err_gap + rel_solver * kb))
    )

    b = inf_lower_bound(norms, L)
    checks.append(
        _make_check("inf_ge_exp_bound", ">=", b.value, inf0,
                    policy.allowance(inf0, b.value, rel_solver * max(inf0, b.value)), b.log)
    )

    b = harnack_floor(norms, L)
    checks.append(
        _make_check("ratio_ge_harnack_floor", ">=", b.value, ratio,
                    policy.allowance(ratio, b.value, rel_solver * max(ratio, b.value)), b.log)
    )

    if norms.decay_constant is not None:
        sb = sup_upper_bound(norms.decay_constant, L)
        checks.append(
            _make_check("sup_le_decay_bound", "<=", sb, sup0,
                        policy.allowance(sup0, sb, rel_solver * sup0))
        )
    else:
        checks.append(_inapplicable("sup_le_decay_bound", "<="))

    rayleigh_sup = math.sqrt(max(lam0, 0.0) * L) + 1.0 / sqrt_l
    checks.append(
        _make_check("sup_le_lambda0_bound", "<=", rayleigh_sup, sup0,
                    policy.allowance(sup0, rayleigh_sup, rel_solver * sup0 + math.sqrt(err0 * L)))
    )

    pinch = 1.0 / sqrt_l
    checks.append(
        _make_check("sup_ge_inv_sqrt_L", ">=", pinch, sup0,
                    policy.allowance(sup0, pinch, rel_solver * sup0))
    )

    upper = lambda0_upper_bounds(p, norms, L)
    checks.append(
        _make_check("lambda0_le_l1_over_L", "<=", upper["l1_over_L"], lam0,
                    policy.allowance(lam0, upper["l1_over_L"], err0))
    )
    checks.append(
        _make_check("lambda0_le_quarter_sup", "<=", upper["quarter_tail"], lam0,
                    policy.allowance(lam0, upper["quarter_tail"], err0))
    )
    if "decay" in upper:
        checks.append(
            _make_check("lambda0_le_decay_bound", "<=", upper["decay"], lam0,
                        policy.allowance(lam0, upper["decay"], err0))
        )
    else:
        checks.append(_inapplicable("lambda0_le_decay_bound", "<="))

    ld = log_derivative_check(result.phi0, result.grid, norms, lam0)
    checks.append(
        _make_check("logderiv_le_four_l1", "<=", ld.bound, ld.max_ratio, ld.allowance)
    )

    return BoundReport(
        potential=to_dict(p),
        L=float(L),
        l1=norms.l1,
        sup=norms.sup,
        decay_constant=norms.decay_constant,
        checks=checks,
    )
