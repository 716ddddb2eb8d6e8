"""Degree reduction of loxodromic elements by quadratic conjugation.

The driver is the distance from the base class e0 to the axis of the
element.  When the three largest averaged multiplicities c_i = (a_i + b_i)/2
satisfy c1 + c2 + c3 >= d + (5/2) sqrt(d / lambda), conjugating by the
quadratic involution rooted at the point where the axis projection has the
largest coefficient (and based at the top remaining two points) shrinks
cosh(dist(e0, axis)) by at least

    delta(lambda) = (5 - 2 sqrt(6)) / (sqrt(2) (lambda + 1)).

Above the degree threshold 24 lambda^3 the hypothesis always holds once
lambda > 10^6; the loop below runs for any lambda but only guarantees
termination in that regime, so a step budget is mandatory.  Each step is a
genuine conjugation in the Weyl group, kept only as its two-letter
conjugator word: the word conjugates the matrix by row operations
(:func:`weyl.conjugate_by_word`) and carries the axis columns letter by
letter, and the product of the words is verifiable exactly.

The geometric half of the story, deciding whether a configuration of base
points is realized by an actual plane Jonquieres transformation, is exposed
separately as :func:`realizable_jonquieres` over annotated configurations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import intmat
from .bounds import DEGREE_THRESHOLD_COEFF, delta
from .lattice import BubblePoint, e, e0, intersect
from .spectral import (
    CertificateError, LoxodromicData, _axis_data_at, _sqrt_ratio, axis_data, classify,
    dynamical_degree,
)
from .weyl import (
    WeylElement,
    WeylWord,
    conjugate,
    conjugate_by_word,
    degree,
    multiplicity_profile,
    realize,
    sigma_omega_word,
)

# ---------------------------------------------------------------------------
# the averaged-multiplicity identities on the axis


@dataclass(frozen=True)
class AxisNoetherReport:
    degree: int
    lam: float
    sum_ok: bool
    sum_sq_ok: bool
    triple_ok: bool

    @property
    def ok(self):
        return self.sum_ok and self.sum_sq_ok and self.triple_ok


def averaged_noether_check(h: WeylElement, tol: float = 1e-9) -> AxisNoetherReport:
    """Identities for the averaged multiplicities c_i of a loxodromic h.

    Exactly: sum c_i = 3d - 3.  Within the lambda tolerance:
    sum c_i^2 > (d^2 - 1) - (d/2)(1/lam + lam + 2), and the sorted c_i obey
    (d-1)(c1+c2+c3-(d+1)) > (c1-c3)(d-1-c1) + (c2-c3)(d-1-c2)
                            + sum_{i>=4} c_i (c3-c_i) - (d/2)(1/lam + lam + 2).
    """
    cls = classify(h)
    if not cls.is_loxodromic:
        raise ValueError("averaged Noether identities are for loxodromic elements")
    lam = dynamical_degree(h, tol)
    prof = multiplicity_profile(h)
    d = prof.degree
    c = sorted(prof.c, reverse=True)
    while len(c) < 3:
        c.append(Fraction(0))
    slack = Fraction(d, 2) * Fraction(1 / lam + lam + 2).limit_denominator(10 ** 12)
    sum_ok = sum(c) == 3 * d - 3
    sum_sq_ok = sum(x * x for x in c) > (d * d - 1) - slack
    lhs = (d - 1) * (c[0] + c[1] + c[2] - (d + 1))
    rhs = (c[0] - c[2]) * (d - 1 - c[0]) + (c[1] - c[2]) * (d - 1 - c[1])
    rhs += sum(ci * (c[2] - ci) for ci in c[3:])
    triple_ok = lhs > rhs - slack
    return AxisNoetherReport(d, lam, sum_ok, sum_sq_ok, triple_ok)


# ---------------------------------------------------------------------------
# the conjugation loop


@dataclass(frozen=True)
class ReductionStep:
    root: BubblePoint
    omega: tuple
    degree_before: int
    degree_after: int
    cosh_before: float
    cosh_after: float
    achieved: float
    guarantee: float

    def as_dict(self):
        return {
            "root": str(self.root),
            "omega": [str(p) for p in self.omega],
            "degree_before": self.degree_before,
            "degree_after": self.degree_after,
            "cosh_before": self.cosh_before,
            "cosh_after": self.cosh_after,
            "achieved_decrease": self.achieved,
            "guaranteed_decrease": self.guarantee,
        }


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple
    terminal: str  # reached_degree_threshold | no_decreasing_triple | step_budget_exhausted
    lam: float
    degree_threshold: float
    step_bound: float
    conjugator: WeylWord
    final: WeylElement

    def json_lines(self):
        for s in self.steps:
            yield json.dumps(s.as_dict())
        yield json.dumps({
            "terminal": self.terminal,
            "lambda": self.lam,
            "degree_threshold": self.degree_threshold,
            "final_degree": degree(self.final),
            "steps": len(self.steps),
            "step_bound": self.step_bound,
        })


def decreasing_step(h: WeylElement, tol: float = 1e-9,
                    data: Optional[LoxodromicData] = None):
    """One conjugation step, or None when the triple hypothesis fails.

    Returns (step, h_conjugated, word, data_conjugated) where ``word`` is
    the two-letter conjugator, which alone makes h_conjugated (no matrix of
    the conjugator and no matrix product), and ``data_conjugated`` the axis
    data of h_conjugated, read from the word's image of the exact columns in
    ``data`` (no power of h_conjugated is computed); the conjugator is the
    quadratic involution rooted at the support point with the largest
    axis-projection coefficient (re-rooting per the maximality property of
    the axis projection) and based at the two remaining points of largest
    averaged multiplicity.
    """
    if data is None:
        data = axis_data(h, tol)
    lam = data.lam
    prof = multiplicity_profile(h)
    d = prof.degree
    ranked = prof.sorted_by_c()
    if len(ranked) < 3:
        return None
    # the hypothesis c1 + c2 + c3 >= d + (5/2) sqrt(d / lambda), decided exactly
    excess = ranked[0][3] + ranked[1][3] + ranked[2][3] - d
    if excess < 0 or 4 * excess ** 2 * Fraction(lam) < 25 * d:
        return None
    # the axis projection E = (cosh / 2)(v+ + v-) pairs most with e(p) where
    # v+ + v- has its least coefficient
    v_sum = data.v_plus + data.v_minus
    root = min(h.support, key=lambda p: (v_sum.coeff(p), p.id))
    rest = [p for p, _, _, _ in ranked if p != root]
    omega = tuple(sorted(rest[:2]))
    w = sigma_omega_word(root, omega)
    h2 = conjugate_by_word(w, h)
    # lambda is a conjugacy invariant and v+-(g h g^-1) = g v+-(h): h2 keeps
    # the lambda of h and reads its axis from w's image of the exact columns
    data2 = _axis_data_at(h2, lam, tol, tuple(w.apply(c) for c in data.columns))
    # the guarantee triple . E = (cosh / 2) pairing is rounded once from its
    # exact square pairing^2 / (2 v+ . v-), as cosh^2 = 2 / (v+ . v-)
    pairing = intersect(e(root) + e(omega[0]) + e(omega[1]) - e0(), v_sum)
    square = Fraction(pairing ** 2, 2 * intersect(data.v_plus, data.v_minus))
    guarantee = math.copysign(_sqrt_ratio(square.numerator, square.denominator), pairing)
    step = ReductionStep(
        root=root,
        omega=omega,
        degree_before=d,
        degree_after=degree(h2),
        cosh_before=data.cosh_axis_distance,
        cosh_after=data2.cosh_axis_distance,
        achieved=data.cosh_axis_distance - data2.cosh_axis_distance,
        guarantee=guarantee,
    )
    return step, h2, w, data2


def reduce(h: WeylElement, budget: int = 200, tol: float = 1e-9) -> ReductionTrace:
    """Iterate decreasing conjugations until the degree threshold is reached.

    Stops when deg <= 24 lambda^3, when no decreasing triple exists, or when
    the budget runs out.  The number of successful steps can never exceed
    cosh(dist(e0, axis)) / delta(lambda), which is recorded as step_bound.
    The total conjugator word g satisfies
    realize(g) h realize(g)^{-1} = final exactly.
    """
    cls = classify(h)
    if not cls.is_loxodromic:
        raise ValueError("reduction needs a loxodromic element")
    data = axis_data(h, tol)
    lam = data.lam
    threshold = DEGREE_THRESHOLD_COEFF * lam ** 3
    quantum = delta(lam)
    step_bound = data.cosh_axis_distance / quantum
    steps = []
    conj = WeylWord(())
    cur = h
    terminal = "step_budget_exhausted"
    for _ in range(budget):
        if degree(cur) <= threshold:
            terminal = "reached_degree_threshold"
            break
        result = decreasing_step(cur, tol, data)
        if result is None:
            if lam > 10 ** 6:
                raise CertificateError(
                    "no decreasing triple above the degree threshold with "
                    "lambda > 10^6; this contradicts the averaged Noether bound")
            terminal = "no_decreasing_triple"
            break
        step, cur, w, data = result
        steps.append(step)
        conj = w * conj
    if terminal == "step_budget_exhausted" and degree(cur) <= threshold:
        terminal = "reached_degree_threshold"
    return ReductionTrace(
        steps=tuple(steps),
        terminal=terminal,
        lam=lam,
        degree_threshold=threshold,
        step_bound=step_bound,
        conjugator=conj,
        final=cur,
    )


def verify_conjugation(trace: ReductionTrace, h: WeylElement) -> bool:
    """Exact matrix identity: realize(conjugator) h realize(conjugator)^{-1} == final."""
    g = realize(trace.conjugator)
    return conjugate(g, h) == trace.final


# ---------------------------------------------------------------------------
# realizability of Jonquieres base configurations


@dataclass
class PointConfiguration:
    """An ordered configuration of bubble points with geometric annotations.

    ``points[0]`` plays the role of the distinguished base point.  Beyond
    the per-point annotations (projective coordinates for proper points,
    parents for infinitely near ones), two kinds of declared facts are
    consulted when coordinates cannot decide a question:

    * ``collinear_facts``: frozenset of three point ids -> bool;
    * ``exceptional_members``: point -> points lying (as proper or
      infinitely near points) on its exceptional divisor.  First
      neighbourhoods are derived from parents automatically and closed
      under taking further infinitely near points.
    """

    points: list
    collinear_facts: dict = field(default_factory=dict)
    exceptional_members: dict = field(default_factory=dict)
    k_max: int = 6

    def proximate_to(self, base: BubblePoint) -> set:
        members = set(self.exceptional_members.get(base, ()))
        grown = True
        while grown:
            grown = False
            for q in self.points:
                if q in members or q is base:
                    continue
                if q.parent is not None and (q.parent == base or q.parent in members):
                    members.add(q)
                    grown = True
        return members

    def collinear(self, a: BubblePoint, b: BubblePoint, c: BubblePoint):
        """True/False when decidable, None otherwise."""
        key = frozenset((a.id, b.id, c.id))
        if key in self.collinear_facts:
            return bool(self.collinear_facts[key])
        if all(p.coords is not None for p in (a, b, c)):
            return intmat.det3((a.coords, b.coords, c.coords)) == 0
        return None


@dataclass(frozen=True)
class RealizabilityReport:
    status: str  # pass | fail | undecidable
    condition: Optional[int] = None
    witness: Optional[str] = None


def realizable_jonquieres(config: PointConfiguration, m: int) -> RealizabilityReport:
    """Decide the six base-point conditions for a degree-m pencil-preserving map.

    The configuration must list 2m - 1 points, the first being the
    distinguished one.  Conditions, in order: (1) the first point is proper;
    (2) every other point is proper or in the first neighbourhood of an
    earlier one; (3) no line joins the first point with two others; (4) no
    two points are both proximate to a third satellite; (5) at most m - 1
    satellites are proximate to the first point; (6) for k up to k_max, a
    curve of degree k with multiplicity exactly k - 1 at the first point
    meets at most k + m - 1 satellites (decided by exact rank computations,
    coordinates required).  The first violated condition is reported with a
    witness; missing annotations make the verdict undecidable.
    """
    pts = list(config.points)
    if len(pts) != 2 * m - 1:
        raise ValueError(f"a degree-{m} configuration needs {2 * m - 1} points")
    p1, satellites = pts[0], pts[1:]

    # (1)
    if p1.parent is not None:
        return RealizabilityReport("fail", 1, f"{p1} is infinitely near {p1.parent}")
    if p1.coords is None:
        return RealizabilityReport("undecidable", 1, f"{p1} carries no annotation")

    # (2)
    for i, q in enumerate(satellites, start=2):
        if q.coords is not None:
            continue
        if q.parent is None:
            return RealizabilityReport("undecidable", 2, f"{q} carries no annotation")
        earlier = pts[: i - 1]
        if q.parent not in earlier:
            return RealizabilityReport(
                "fail", 2, f"{q} is infinitely near {q.parent}, which is not an earlier point")

    # (3)
    for j in range(len(satellites)):
        for i in range(j + 1, len(satellites)):
            verdict = config.collinear(p1, satellites[j], satellites[i])
            if verdict is None:
                return RealizabilityReport(
                    "undecidable", 3,
                    f"collinearity of ({p1}, {satellites[j]}, {satellites[i]}) unknown")
            if verdict:
                return RealizabilityReport(
                    "fail", 3, f"line through {p1}, {satellites[j]}, {satellites[i]}")

    # (4)
    for q in satellites:
        prox = config.proximate_to(q) & set(satellites)
        if len(prox) >= 2:
            a, b = sorted(prox)[:2]
            return RealizabilityReport(
                "fail", 4, f"{a} and {b} are both proximate to {q}")

    # (5)
    prox1 = config.proximate_to(p1) & set(satellites)
    if len(prox1) > m - 1:
        return RealizabilityReport(
            "fail", 5,
            f"{len(prox1)} satellites proximate to {p1}, at most {m - 1} allowed")

    # (6) for k <= k_max; subsets only exist for k <= m - 2
    for k in range(1, min(config.k_max, m - 2) + 1):
        if any(q.coords is None for q in satellites):
            return RealizabilityReport(
                "undecidable", 6, "curve conditions need coordinates for every point")
        witness = _curve_violation(p1, satellites, k, m)
        if witness:
            return RealizabilityReport("fail", 6, witness)
    return RealizabilityReport("pass")


def _transform_to_origin(p1: BubblePoint):
    """An invertible matrix with third column p1, moving [0:0:1] onto p1."""
    # choose two standard vectors keeping the matrix invertible
    basis = [[Fraction(1), 0, 0], [Fraction(0), 1, 0], [Fraction(0), 0, 1]]
    for u, v in itertools.combinations(basis, 2):
        m = [[u[i], v[i], Fraction(p1.coords[i])] for i in range(3)]
        if intmat.det3(m) != 0:
            return m
    raise AssertionError("unreachable: p1 is a nonzero vector")


def _solve3(m, rhs):
    det = intmat.det3(m)
    out = []
    for c in range(3):
        mc = [row[:] for row in m]
        for r in range(3):
            mc[r][c] = rhs[r]
        out.append(Fraction(intmat.det3(mc), det))
    return out


def _curve_violation(p1, satellites, k, m) -> Optional[str]:
    """A witness subset if some degree-k curve with multiplicity exactly
    k - 1 at p1 passes through k + m satellites, else None."""
    need = k + m
    if need > len(satellites):
        return None
    A = _transform_to_origin(p1)
    moved = [_solve3(A, [Fraction(c) for c in q.coords]) for q in satellites]
    # monomials x^a y^b z^c of degree k with a + b >= k - 1 span the forms
    # with multiplicity >= k - 1 at [0:0:1]; those with a + b = k have
    # multiplicity >= k
    mons_exact = [(a, k - 1 - a, 1) for a in range(k)]          # a + b = k - 1
    mons_cone = [(a, k - a, 0) for a in range(k + 1)]           # a + b = k
    big = mons_cone + mons_exact

    def row(q, mons):
        x, y, z = q
        return [x ** a * y ** b * z ** c for (a, b, c) in mons]

    for subset in itertools.combinations(range(len(satellites)), need):
        rows_big = [row(moved[i], big) for i in subset]
        dim_w1 = len(big) - intmat.rank(rows_big)
        rows_cone = [row(moved[i], mons_cone) for i in subset]
        dim_w2 = len(mons_cone) - intmat.rank(rows_cone)
        if dim_w1 > dim_w2:
            names = ", ".join(str(satellites[i]) for i in subset)
            return (f"a degree-{k} curve with multiplicity {k - 1} at {p1} "
                    f"passes through {need} satellites: {names}")
    return None
