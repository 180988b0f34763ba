"""Symbolic potential families and their exact interval norms.

Potentials are immutable records, never sampled arrays, so that the L1/Linf
norms entering the spectral bounds are computed in closed form rather than
by quadrature.  All families are non-negative and bounded:

* ``Zero``                 v(x) = 0
* ``Constant(value)``      v(x) = value
* ``Step(height, (a, b))`` v(x) = height on [a, b], else 0
* ``MultiStep(pieces)``    sum of disjoint steps, sorted by left endpoint
* ``InverseSquareCapped(decay, cap)``  v(x) = min(cap, decay / x^2)

``interval_norms(p, L)`` and ``break_points(p, L)`` restrict to the interval
(-L/2, L/2) even when a step's support extends beyond it.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "Zero",
    "Constant",
    "Step",
    "MultiStep",
    "InverseSquareCapped",
    "PotentialSpec",
    "IntervalNorms",
    "evaluate",
    "interval_norms",
    "sup_norm_on_interval",
    "cap_location",
    "break_points",
    "to_dict",
    "from_dict",
    "to_json",
    "from_json",
]


@dataclass(frozen=True)
class Zero:
    """The free case, v = 0."""


@dataclass(frozen=True)
class Constant:
    """Constant potential v(x) = value >= 0 (units 1/length^2)."""

    value: float

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"constant potential needs finite value >= 0, got {self.value}")


@dataclass(frozen=True)
class Step:
    """Indicator potential: v = height on the closed interval support."""

    height: float
    support: tuple

    def __post_init__(self):
        if not (self.height >= 0.0 and math.isfinite(self.height)):
            raise ValueError(f"step height must be finite and >= 0, got {self.height}")
        a, b = self.support
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"step support must be a finite interval a < b, got {self.support}")
        object.__setattr__(self, "support", (float(a), float(b)))


@dataclass(frozen=True)
class MultiStep:
    """Ordered list of pairwise-disjoint steps (touching endpoints allowed)."""

    pieces: tuple

    def __post_init__(self):
        pieces = tuple(self.pieces)
        for p in pieces:
            if not isinstance(p, Step):
                raise ValueError("multistep pieces must be Step instances")
        for p, q in zip(pieces, pieces[1:]):
            if not p.support[0] <= q.support[0]:
                raise ValueError("multistep pieces must be sorted by left endpoint")
            if p.support[1] > q.support[0]:
                raise ValueError(
                    f"multistep pieces overlap: {p.support} and {q.support}"
                )
        object.__setattr__(self, "pieces", pieces)


@dataclass(frozen=True)
class InverseSquareCapped:
    """v(x) = min(cap, decay / x^2); bounded, with quadratic decay at infinity."""

    decay: float
    cap: float

    def __post_init__(self):
        if not (self.decay > 0.0 and math.isfinite(self.decay)):
            raise ValueError(f"decay constant must be finite and > 0, got {self.decay}")
        if not (self.cap > 0.0 and math.isfinite(self.cap)):
            raise ValueError(f"cap must be finite and > 0, got {self.cap}")


PotentialSpec = Union[Zero, Constant, Step, MultiStep, InverseSquareCapped]


@dataclass(frozen=True)
class IntervalNorms:
    """Exact norms of a potential over I = (-L/2, L/2).

    ``l1`` is the L1(I) norm (units 1/length), ``sup`` the essential sup over
    I (units 1/length^2).  ``decay_constant`` is a constant C with
    v(x) <= C/x^2 on all of the line when the family provides one (None
    otherwise); it always satisfies l1 <= sup * L.
    """

    l1: float
    sup: float
    decay_constant: Optional[float]


def cap_location(p: InverseSquareCapped) -> float:
    """|x| below which the cap is active: decay/x^2 >= cap iff |x| <= this."""
    return math.sqrt(p.decay / p.cap)


def break_points(p: PotentialSpec, L: float) -> Tuple[float, ...]:
    """Sorted distinct points strictly inside (-L/2, L/2) where v or v' jumps:
    the step edges, and the capped family's kinks at +-cap_location(p)."""
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"interval length must be finite and > 0, got {L}")
    half = 0.5 * L
    if isinstance(p, Step):
        edges = p.support
    elif isinstance(p, MultiStep):
        edges = [edge for piece in p.pieces for edge in piece.support]
    elif isinstance(p, InverseSquareCapped):
        xstar = cap_location(p)
        edges = (-xstar, xstar)
    elif isinstance(p, (Zero, Constant)):
        edges = ()
    else:
        raise TypeError(f"not a potential spec: {p!r}")
    return tuple(sorted({float(e) for e in edges if -half < e < half}))


def evaluate(p: PotentialSpec, x):
    """Pointwise value v(x); accepts a scalar or an ndarray."""
    scalar = np.isscalar(x)
    xs = np.asarray(x, dtype=float)
    if isinstance(p, Zero):
        out = np.zeros_like(xs)
    elif isinstance(p, Constant):
        out = np.full_like(xs, p.value)
    elif isinstance(p, Step):
        a, b = p.support
        out = np.where((xs >= a) & (xs <= b), p.height, 0.0)
    elif isinstance(p, MultiStep):
        out = np.zeros_like(xs)
        claimed = np.zeros(xs.shape, dtype=bool)
        for piece in p.pieces:
            a, b = piece.support
            hit = (xs >= a) & (xs <= b) & ~claimed
            out = np.where(hit, piece.height, out)
            claimed |= hit
    elif isinstance(p, InverseSquareCapped):
        x2 = xs * xs
        with np.errstate(divide="ignore"):
            tail = np.divide(p.decay, x2, out=np.full_like(x2, np.inf), where=x2 > 0)
        out = np.minimum(p.cap, tail)
    else:
        raise TypeError(f"not a potential spec: {p!r}")
    return float(out) if scalar else out


def _overlap(a, b, lo, hi):
    return max(0.0, min(b, hi) - max(a, lo))


def interval_norms(p: PotentialSpec, L: float) -> IntervalNorms:
    """Closed-form L1 and sup norms over I = (-L/2, L/2), plus the decay
    constant when the family admits one.

    A step whose support contains the origin is reported without a decay
    constant and the quadratic-decay bounds are marked inapplicable for it.
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"interval length must be finite and > 0, got {L}")
    half = 0.5 * L
    if isinstance(p, Zero):
        return IntervalNorms(0.0, 0.0, 0.0)
    if isinstance(p, Constant):
        c = None if p.value > 0.0 else 0.0
        return IntervalNorms(p.value * L, p.value, c)
    if isinstance(p, Step):
        a, b = p.support
        width = _overlap(a, b, -half, half)
        sup = p.height if width > 0.0 else 0.0
        if p.height == 0.0:
            c = 0.0
        elif a <= 0.0 <= b:
            c = None
        else:
            c = p.height * max(a * a, b * b)
        return IntervalNorms(p.height * width, sup, c)
    if isinstance(p, MultiStep):
        l1 = 0.0
        sup = 0.0
        c = 0.0
        for piece in p.pieces:
            a, b = piece.support
            width = _overlap(a, b, -half, half)
            l1 += piece.height * width
            if width > 0.0 and piece.height > sup:
                sup = piece.height
            if piece.height > 0.0 and c is not None:
                if a <= 0.0 <= b:
                    c = None
                else:
                    c = max(c, piece.height * max(a * a, b * b))
        return IntervalNorms(l1, sup, c)
    if isinstance(p, InverseSquareCapped):
        xstar = cap_location(p)
        if half <= xstar:
            l1 = p.cap * L
        else:
            # 2*(int_0^x* cap dx + int_x*^half decay/x^2 dx), both in closed form
            l1 = 4.0 * math.sqrt(p.decay * p.cap) - 4.0 * p.decay / L
        return IntervalNorms(l1, p.cap, p.decay)
    raise TypeError(f"not a potential spec: {p!r}")


def sup_norm_on_interval(p: PotentialSpec, lo: float, hi: float) -> float:
    """Essential sup of v over (lo, hi), in closed form."""
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if isinstance(p, Zero):
        return 0.0
    if isinstance(p, Constant):
        return p.value
    if isinstance(p, Step):
        a, b = p.support
        return p.height if _overlap(a, b, lo, hi) > 0.0 else 0.0
    if isinstance(p, MultiStep):
        sup = 0.0
        for piece in p.pieces:
            a, b = piece.support
            if _overlap(a, b, lo, hi) > 0.0 and piece.height > sup:
                sup = piece.height
        return sup
    if isinstance(p, InverseSquareCapped):
        if lo <= 0.0 <= hi:
            return p.cap
        d = min(abs(lo), abs(hi))
        return min(p.cap, p.decay / (d * d))
    raise TypeError(f"not a potential spec: {p!r}")


def to_dict(p: PotentialSpec) -> dict:
    if isinstance(p, Zero):
        return {"type": "zero"}
    if isinstance(p, Constant):
        return {"type": "constant", "value": p.value}
    if isinstance(p, Step):
        return {"type": "step", "height": p.height, "support": list(p.support)}
    if isinstance(p, MultiStep):
        return {
            "type": "multistep",
            "pieces": [
                {"height": s.height, "support": list(s.support)} for s in p.pieces
            ],
        }
    if isinstance(p, InverseSquareCapped):
        return {"type": "inverse_square_capped", "decay": p.decay, "cap": p.cap}
    raise TypeError(f"not a potential spec: {p!r}")


def _require(d, key, kind):
    if key not in d:
        raise ValueError(f"potential JSON missing field '{key}'")
    val = d[key]
    if kind == "number":
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"potential field '{key}' must be a number, got {val!r}")
        return float(val)
    if kind == "pair":
        if not (isinstance(val, (list, tuple)) and len(val) == 2):
            raise ValueError(f"potential field '{key}' must be a pair [a, b], got {val!r}")
        return (
            _require({"x": val[0]}, "x", "number"),
            _require({"x": val[1]}, "x", "number"),
        )
    raise AssertionError(kind)


def from_dict(d: dict) -> PotentialSpec:
    if not isinstance(d, dict):
        raise ValueError(f"potential JSON must be an object, got {d!r}")
    kind = d.get("type")
    if kind == "zero":
        return Zero()
    if kind == "constant":
        return Constant(_require(d, "value", "number"))
    if kind == "step":
        return Step(_require(d, "height", "number"), _require(d, "support", "pair"))
    if kind == "multistep":
        if "pieces" not in d or not isinstance(d["pieces"], list):
            raise ValueError("potential field 'pieces' must be a list of steps")
        pieces = tuple(
            Step(_require(s, "height", "number"), _require(s, "support", "pair"))
            for s in d["pieces"]
        )
        return MultiStep(pieces)
    if kind == "inverse_square_capped":
        return InverseSquareCapped(
            _require(d, "decay", "number"), _require(d, "cap", "number")
        )
    raise ValueError(f"unknown potential field 'type': {kind!r}")


def to_json(p: PotentialSpec) -> str:
    """JSON form; float fields round-trip bit-exactly for finite doubles."""
    return json.dumps(to_dict(p))


def from_json(text: str) -> PotentialSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed potential JSON: {exc}") from exc
    return from_dict(data)
