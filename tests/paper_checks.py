"""Checks of the paper's statements, on elements that the tests build.

Blanc and Cantat (arXiv 1307.0361) prove identities and bounds that no
command of ``cremlat`` prints; the tests check them here against the
lattice model that the commands run:

* Weyl elements: inverses and conjugates by matrix products, elements from
  explicit images of basis classes, and Noether's identities and
  inequalities on the base-point multiplicities;
* invariant classes: the centre of a Jonquieres pencil, and Halphen's
  isotropic class 3 e0 - sum of nine e(p);
* the axis: the Noether inequalities for the averaged multiplicities, each
  an exact sign at lambda's bracket, the distance of a class to the axis,
  and the displacement bound;
* reduction: the exact conjugation identity of a reduction trace;
* orbits: the explicit matrix of the truncated quadratic orbits, its
  characteristic polynomial against the closed form, and the same action
  as a lattice isometry.

The module lives under ``tests/`` because no command runs it, and the
package holds only what a command runs (``test_reachability.py``).  A
check that a command comes to run moves into the package, next to the code
it checks.  The tests import it as they import ``conftest``: pytest puts
this directory on ``sys.path``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from cremlat import intmat
from cremlat.lattice import BubblePoint, ClassVector, e, e0, intersect, point
from cremlat.orbits import quadratic_closed_form
from cremlat.reduction import ReductionTrace
from cremlat.roots import IntPolynomial, _mul
from cremlat.spectral import LoxodromicData, _spectrum, axis_data, classify
from cremlat.weyl import (
    WeylElement, _prune, apply, checked, compose, degree, multiplicity_profile, realize,
)

DISPLACEMENT_FACTOR = 28  # hyperbolicity constant in the axis-distance bound


def points(n: int, prefix: str = "p") -> list[BubblePoint]:
    """``n`` fresh bubble points labelled prefix1..prefixN."""
    return [BubblePoint(label=f"{prefix}{i + 1}") for i in range(n)]


# ---------------------------------------------------------------------------
# Weyl elements


def element_from_images(images: dict) -> WeylElement:
    """Build a WeylElement from explicit images of e0 and of some e(p).

    ``images`` maps the key ``"e0"`` to a ClassVector and bubble points to
    ClassVectors.  Points appearing in images but without an explicit image
    are assumed fixed; the result is checked as :func:`realize` checks its
    matrices (form, omega, degree).
    """
    pts = set(p for p in images if p != "e0")
    for v in images.values():
        pts |= set(v.point_coeffs)
    support = sorted(pts)
    idx = {p: i + 1 for i, p in enumerate(support)}
    n = len(support) + 1
    matrix = [[0] * n for _ in range(n)]

    def emplace(col, v):
        matrix[0][col] = v.e0
        for p, c in v.point_coeffs.items():
            matrix[idx[p]][col] = c

    emplace(0, images["e0"])
    for p in support:
        if p in images:
            emplace(idx[p], images[p])
        else:
            matrix[idx[p]][idx[p]] = 1
    return checked(_prune(support, matrix))


def inverse(h: WeylElement) -> WeylElement:
    """h^{-1} = J h^T J, exact."""
    return _prune(h.support, intmat.form_inverse(h.matrix))


def conjugate(g: WeylElement, h: WeylElement) -> WeylElement:
    """g h g^{-1}."""
    return compose(compose(g, h), inverse(g))


class NoetherReport(NamedTuple):
    degree: int
    applicable: bool
    equalities_ok: bool = True
    identity_ok: bool = True
    pair_bound_ok: bool = True
    triple_bound_ok: bool = True
    witness: Optional[str] = None

    @property
    def ok(self):
        return self.equalities_ok and self.identity_ok and self.pair_bound_ok and self.triple_bound_ok


def noether_identity(d, mults):
    """(m, lhs, rhs) for the multiplicities m sorted in decreasing order and
    padded with zeros to three, and the two sides of
    (d-1)(m1 + m2 + m3 - (d+1)) = (m1-m3)(d-1-m1) + (m2-m3)(d-1-m2)
                                  + sum_{i>=4} m_i (m3 - m_i)."""
    m = sorted(mults, reverse=True) + [0] * (3 - len(mults))
    lhs = (d - 1) * (m[0] + m[1] + m[2] - (d + 1))
    rhs = (m[0] - m[2]) * (d - 1 - m[0]) + (m[1] - m[2]) * (d - 1 - m[1])
    return m, lhs, rhs + sum(x * (m[2] - x) for x in m[3:])


def noether_report(h: WeylElement) -> NoetherReport:
    """Check the degree/multiplicity identities and inequalities for h.

    Verifies, with the a_i sorted in decreasing order:
      * sum a_i^2 = d^2 - 1 and sum a_i = 3d - 3,
      * the exact identity of :func:`noether_identity`,
      * a_i + a_j <= d for all pairs, and
      * a1 + a2 + a3 >= d + 1.

    Degree-1 elements get an inapplicable report.
    """
    d = degree(h)
    if d < 2:
        return NoetherReport(d, applicable=False)
    a, lhs, rhs = noether_identity(d, multiplicity_profile(h).a)
    eq_ok = sum(x * x for x in a) == d * d - 1 and sum(a) == 3 * d - 3
    identity_ok = lhs == rhs
    pair_ok = a[0] + a[1] <= d
    triple_ok = a[0] + a[1] + a[2] >= d + 1
    witness = None
    if not (eq_ok and identity_ok and pair_ok and triple_ok):
        witness = f"d={d}, a={a}"
    return NoetherReport(d, True, eq_ok, identity_ok, pair_ok, triple_ok, witness)


# ---------------------------------------------------------------------------
# invariant classes


def jonquieres_center(h: WeylElement) -> Optional[BubblePoint]:
    """A point p with h(e0 - e(p)) = e0 - e(p), smallest id first, or None."""
    for p in h.support:
        v = e0() - e(p)
        if apply(h, v) == v:
            return p
    return None


def halphen_class(points9: Sequence[BubblePoint]) -> ClassVector:
    pts = sorted(set(points9))
    if len(pts) != 9:
        raise ValueError("a Halphen class needs nine distinct points")
    return ClassVector(3, {p: -1 for p in pts})


def halphen_test(h: WeylElement, candidate: Optional[Sequence[BubblePoint]] = None) -> Optional[ClassVector]:
    """Search for an isotropic class K = 3 e0 - sum of nine e(p) fixed by h.

    With an explicit nine-point candidate this is a single exact check.
    Without one, nine-point subsets of the base points are tried, limited to
    the twelve points of largest average multiplicity c_i (a fixed K needs
    almost all the multiplicity mass on its nine points, so the cap is
    harmless in practice).  Subsets satisfying the sufficient numeric
    criterion

        d/3 >= 3 + (3 + sum_out b_j) (max_in |3 a_i - d| + sum_out a_j)

    are tried first; every candidate is confirmed by the exact identity
    h(K) = K before being returned.
    """
    if candidate is not None:
        K = halphen_class(candidate)
        return K if apply(h, K) == K else None
    if degree(h) < 2:
        return None
    prof = multiplicity_profile(h)
    ranked = [p for p, _, _, _ in prof.sorted_by_c()]
    pool = ranked[:12]
    if len(pool) < 9:
        return None
    d = Fraction(degree(h))
    amap = dict(zip(prof.points, prof.a))
    bmap = dict(zip(prof.points, prof.b))

    def criterion(subset):
        outside = [p for p in prof.points if p not in subset]
        rest_a = sum(amap[p] for p in outside)
        rest_b = sum(bmap[p] for p in outside)
        spread = max(abs(3 * amap[p] - d) for p in subset)
        return d / 3 >= 3 + (3 + rest_b) * (spread + rest_a)

    subsets = [frozenset(s) for s in itertools.combinations(pool, 9)]
    subsets.sort(key=lambda s: (not criterion(s), sorted(p.id for p in s)))
    for subset in subsets:
        K = halphen_class(sorted(subset))
        if apply(h, K) == K:
            return K
    return None


# ---------------------------------------------------------------------------
# the axis


class AxisNoetherReport(NamedTuple):
    degree: int
    lam: float
    sum_ok: bool
    sum_sq_ok: bool
    triple_ok: bool

    @property
    def ok(self):
        return self.sum_ok and self.sum_sq_ok and self.triple_ok


def averaged_noether_check(h: WeylElement) -> AxisNoetherReport:
    """Identities for the averaged multiplicities c_i of a loxodromic h.

    sum c_i = 3d - 3, and, with s = (d/2)(1/lambda + lambda + 2),
    sum c_i^2 > (d^2 - 1) - s, and the sorted c_i obey
    (d-1)(c1+c2+c3-(d+1)) > (c1-c3)(d-1-c1) + (c2-c3)(d-1-c2)
                            + sum_{i>=4} c_i (c3-c_i) - s.
    Each is decided exactly, at lambda's bracket; ``lam`` reports lambda as
    the float nearest to it.
    """
    cls = classify(h)
    if not cls.is_loxodromic:
        raise ValueError("averaged Noether identities are for loxodromic elements")
    sp = _spectrum(h)
    prof = multiplicity_profile(h)
    d = prof.degree
    c, lhs, rhs = noether_identity(d, prof.c)

    def beats_slack(gap) -> bool:
        """gap + s > 0 for a rational gap: 2 lambda q (gap + s), q the
        denominator of gap, is d q z^2 + (2 q gap + 2 d q) z + d q at
        z = lambda, whose sign lambda's bracket decides."""
        gap = Fraction(gap)
        q = gap.denominator
        return sp.bracket.sign([d * q, 2 * gap.numerator + 2 * d * q, d * q]) > 0

    return AxisNoetherReport(d, sp.lam, sum(c) == 3 * d - 3,
                             beats_slack(sum(x * x for x in c) - (d * d - 1)),
                             beats_slack(lhs - rhs))


def cosh_distance_to_axis(data: LoxodromicData, x: ClassVector) -> float:
    """cosh dist(x, axis) = sqrt(2 (x.v+)(x.v-) / (v+.v-)) for x on the sheet:
    sqrt(2 X X* / (q^2 <C, C*>)) at lambda, X = q <x, C> for a denominator q
    of x."""
    f = [intersect(x, c) for c in data.columns]
    q = math.lcm(*(Fraction(v).denominator for v in f))
    f = [int(v * q) for v in f]
    den = [q * q * v for v in data.pairing]
    return data.bracket.ratio([2 * v for v in _mul(f, f[::-1])], den, True)


class DisplacementReport(NamedTuple):
    dist_to_axis: float
    displacement: float
    factor: int
    bound_ok: bool
    translation_length: float


def axis_displacement_check(h: WeylElement, x: ClassVector) -> DisplacementReport:
    """Check dist(x, axis) <= 28 * dist(x, h(x)) for a point x of the sheet.

    The factor 28 is the smallest integer m with m log(lambda_lehmer)
    at least 4 log 3, log 3 being the hyperbolicity constant of the space.
    """
    data = axis_data(h)
    if intersect(x, x) != 1:
        raise ValueError("x must lie on the hyperboloid")
    lhs = math.acosh(cosh_distance_to_axis(data, x))
    xhx = float(intersect(x, apply(h, x)))
    rhs = math.acosh(max(xhx, 1.0))
    return DisplacementReport(
        dist_to_axis=lhs,
        displacement=rhs,
        factor=DISPLACEMENT_FACTOR,
        bound_ok=lhs <= DISPLACEMENT_FACTOR * rhs + 1e-9,
        translation_length=math.log(data.lam),
    )


# ---------------------------------------------------------------------------
# reduction


def verify_conjugation(trace: ReductionTrace, h: WeylElement) -> bool:
    """Exact matrix identity: realize(conjugator) h realize(conjugator)^{-1} == final."""
    g = realize(trace.conjugator)
    return conjugate(g, h) == trace.final


# ---------------------------------------------------------------------------
# orbits


def quadratic_orbit_matrix(m: int, k: int):
    """The explicit square matrix of size 2k + 4 for construction degree m.

    Indexing follows the source display verbatim; its characteristic
    polynomial is :func:`cremlat.orbits.quadratic_closed_form`.
    """
    if m < 3 or k < 2:
        raise ValueError("need m >= 3 and k >= 2")
    size = 2 * k + 4
    M = [[0] * size for _ in range(size)]
    M[0][2 * k + 2] = 1
    M[1][2 * k + 3] = 1
    block = [
        [m - 1, m - 3, m, m + 1],
        [-1, 0, -1, -1],
        [-(m - 2), -(m - 3), -(m - 1), -(m + 1)],
        [-1, -1, -1, 0],
    ]
    for i in range(4):
        for j in range(4):
            M[2 + i][j] = block[i][j]
    for j in range(2 * k - 2):
        M[6 + j][4 + j] = 1
    return M


def quadratic_charpoly(m: int, k: int):
    """Exact characteristic polynomial of the explicit matrix, with the
    closed-form comparison; returns (polynomial, matches_closed_form)."""
    cp = IntPolynomial(intmat.charpoly(quadratic_orbit_matrix(m, k)))
    return cp, cp == quadratic_closed_form(m, k)


def quadratic_orbit_element(m: int, k: int) -> WeylElement:
    """A genuine lattice isometry realizing the quadratic-case action.

    Built on 2m - 1 base-point classes plus m - 2 recycled orbit chains of
    length k; its dominant eigenvalue agrees with the explicit matrix's.
    """
    if m < 3 or k < 1:
        raise ValueError("need m >= 3 and k >= 1")
    q = points(2 * m - 1, "q")
    chain = {(i, j): point(label=f"a{i}_{j}")
             for i in range(1, m - 1) for j in range(1, k + 1)}
    p = {i: chain[(i, k)] if i <= m - 2 else q[i - 1] for i in range(1, 2 * m)}
    sum_q = sum((e(q[i]) for i in range(1, 2 * m - 1)), ClassVector(0, {}))
    images = {
        "e0": ClassVector(m, {}) - (m - 1) * e(q[0]) - sum_q,
        p[1]: ClassVector(m - 1, {}) - (m - 2) * e(q[0]) - sum_q,
    }
    for i in range(2, 2 * m):
        images[p[i]] = e0() - e(q[0]) - e(q[i - 1])
    for i in range(1, m - 1):
        images[q[i - 1]] = e(chain[(i, 1)])
        for j in range(1, k):
            images[chain[(i, j)]] = e(chain[(i, j + 1)])
    return element_from_images(images)
