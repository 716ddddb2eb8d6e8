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
(:func:`weyl.conjugate_by_word`) and carries the axis letter by letter, and
the product of the words conjugates the input to the result exactly.  The
axis is the input's B mod P (see :func:`cremlat.spectral.axis_data`),
B(z) = adj(zI - M) e0 and P the minimal polynomial of lambda, kept as
integer columns; its values at lambda and 1/lambda are the two
eigenvectors.  Each step decides the hypothesis, the root and the sign of
its guarantee in Q(lambda) = Q[z]/P, as exact signs at lambda's bracket.

The geometric half of the story, deciding whether a configuration of base
points is realized by an actual plane Jonquieres transformation, is
:mod:`cremlat.realizable`.
"""

from __future__ import annotations

import json
import math
from functools import cmp_to_key
from typing import NamedTuple

from .bounds import DEGREE_THRESHOLD_COEFF, delta
from .lattice import BubblePoint, e, e0, intersect
from .roots import _mul
from .spectral import CertificateError, LoxodromicData, _axis_data_at, axis_data, classify
from .weyl import (
    WeylElement,
    WeylWord,
    conjugate_by_word,
    degree,
    multiplicity_profile,
    sigma_omega_word,
)

class ReductionStep(NamedTuple):
    root: BubblePoint
    omega: tuple
    degree_before: int
    degree_after: int
    cosh_before: float
    cosh_after: float
    achieved_decrease: float
    guaranteed_decrease: float


class ReductionTrace(NamedTuple):
    steps: tuple
    terminal: str  # reached_degree_threshold | no_decreasing_triple | step_budget_exhausted
    lam: float
    degree_threshold: float
    step_bound: float
    conjugator: WeylWord
    final: WeylElement

    def json_lines(self):
        for s in self.steps:
            yield json.dumps({**s._asdict(), "root": str(s.root),
                              "omega": [str(p) for p in s.omega]})
        yield json.dumps({
            "terminal": self.terminal,
            "lambda": self.lam,
            "degree_threshold": self.degree_threshold,
            "final_degree": degree(self.final),
            "steps": len(self.steps),
            "step_bound": self.step_bound,
        })


def decreasing_step(h: WeylElement, data: LoxodromicData):
    """One conjugation step, or None when the triple hypothesis fails.

    Returns (step, h_conjugated, word, data_conjugated) where ``word`` is
    the two-letter conjugator, which alone makes h_conjugated (no matrix of
    the conjugator and no matrix product), and ``data_conjugated`` the axis
    data of h_conjugated, read from the word's image of the exact columns in
    ``data`` (no power of h_conjugated is computed); the conjugator is the
    quadratic involution rooted at the support point with the largest
    axis-projection coefficient (re-rooting per the maximality property of
    the axis projection) and based at the two remaining points of largest
    averaged multiplicity.  Every decision is an exact sign in Q(lambda).
    """
    bracket, cols = data.bracket, data.columns
    prof = multiplicity_profile(h)
    d = prof.degree
    ranked = prof.sorted_by_c()
    if len(ranked) < 3:
        return None
    # the hypothesis c1 + c2 + c3 >= d + (5/2) sqrt(d / lambda): the sign of
    # 4 excess^2 lambda - 25 d
    excess = ranked[0][3] + ranked[1][3] + ranked[2][3] - d
    if excess < 0 or bracket.sign([-25 * d, 4 * excess ** 2]) < 0:
        return None
    # the axis projection E = (cosh / 2)(v+ + v-) pairs most with e(p) where
    # v+ + v- has its least coefficient, over_y(C_p) / y at e(p) for the e(p)
    # row C_p of the axis and y = C_0 C_0*; a class x has
    # x . (v+ + v-) = over_y(<x, C>) / y
    c0 = [c.e0 for c in cols]
    y = _mul(c0, c0[::-1])

    def over_y(f):
        return [a + b for a, b in zip(_mul(f, c0[::-1]), _mul(f[::-1], c0))]

    at, sy = {p: over_y([c.coeff(p) for c in cols]) for p in h.support}, bracket.sign(y)
    root = min(h.support, key=cmp_to_key(
        lambda p, q: sy * bracket.sign([a - b for a, b in zip(at[p], at[q])]) or p.id - q.id))
    rest = [p for p, _, _, _ in ranked if p != root]
    omega = tuple(sorted(rest[:2]))
    w = sigma_omega_word(root, omega)
    h2 = conjugate_by_word(w, h)
    # lambda is a conjugacy invariant and v+-(g h g^-1) = g v+-(h): h2 keeps
    # the bracket and the pairing of h and reads its axis from w's image of
    # the exact columns
    data2 = _axis_data_at(data.lam, bracket, data.pairing, tuple(w.apply(c) for c in cols))
    # the guarantee triple . E = (cosh / 2) (x / y) is rounded once from its
    # exact square (x / y)^2 / (2 v+ . v-), with v+ . v- = pairing / y
    x = over_y([intersect(e(root) + e(omega[0]) + e(omega[1]) - e0(), c) for c in cols])
    size = bracket.ratio(_mul(x, x), _mul([2 * q for q in data.pairing], y), True)
    step = ReductionStep(
        root=root,
        omega=omega,
        degree_before=d,
        degree_after=degree(h2),
        cosh_before=data.cosh_axis_distance,
        cosh_after=data2.cosh_axis_distance,
        achieved_decrease=data.cosh_axis_distance - data2.cosh_axis_distance,
        guaranteed_decrease=math.copysign(size, bracket.sign(x, y)),
    )
    return step, h2, w, data2


def reduce(h: WeylElement, budget: int = 200) -> ReductionTrace:
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
    data = axis_data(h)
    lam = data.lam
    threshold = DEGREE_THRESHOLD_COEFF * lam ** 3
    quantum = delta(lam)
    step_bound = data.cosh_axis_distance / quantum
    steps = []
    conj = WeylWord(())
    cur = h
    terminal = "reached_degree_threshold"
    while degree(cur) > threshold:
        if len(steps) >= budget:
            terminal = "step_budget_exhausted"
            break
        result = decreasing_step(cur, data)
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
    return ReductionTrace(
        steps=tuple(steps),
        terminal=terminal,
        lam=lam,
        degree_threshold=threshold,
        step_bound=step_bound,
        conjugator=conj,
        final=cur,
    )
