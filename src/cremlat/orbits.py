"""Finite truncations of base-point orbits and their Salem spectral radii.

An element moving finitely many classes, annotated with which base points
of the inverse are to be treated as having infinite forward orbits, yields
four integer blocks (M, N, P, Q).  The truncation at depth k recycles the
k-th orbit classes back onto the paired base points; the resulting matrix
F_k preserves the Minkowski form of its space and its spectral radius
converges, as k grows, to the dominant root of the block N.

The fully explicit quadratic-flavoured family is exposed twice:

* :func:`quadratic_orbit_matrix` / :func:`quadratic_charpoly` reproduce the
  explicit (2k+4)-square matrix and its closed-form characteristic
  polynomial, indexed by the construction degree m >= 2 exactly as written;
* :func:`lambda_sequence` is indexed by the target trace parameter: its
  values converge to the largest root of x^2 - (m+1)x + 1, which the
  construction realizes at degree m + 2.  (The two indexings differ by 2;
  the closed form with literal parameter mu has dominant roots tending to
  the largest root of x^2 - (mu-1)x + 1, and none above 1 at mu = 2.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import intmat
from .lattice import BubblePoint, ClassVector, e, e0, point, points
from .salem import IntPolynomial, classify_number, dominant_real_root
from .weyl import WeylElement, apply, element_from_images

# ---------------------------------------------------------------------------
# orbit models


@dataclass(frozen=True)
class OrbitModel:
    """Block data of a truncatable action.

    Bases: C (paired base-point classes, dimension n), A (the class of a
    line plus every finite-orbit class, dimension a), and one copy of B
    (the infinite-orbit starting classes, dimension n) per truncation level.
    The four blocks give the action on C + A in A + B coordinates:
    M is a x n, N is a x a, P is n x n, Q is n x a.
    """

    m_block: tuple
    n_block: tuple
    p_block: tuple
    q_block: tuple
    provenance: Optional[WeylElement] = None

    @property
    def n(self) -> int:
        return len(self.p_block)

    @property
    def a(self) -> int:
        return len(self.n_block)

    def __post_init__(self):
        a, n = self.a, self.n
        if len(self.m_block) != a or any(len(r) != n for r in self.m_block):
            raise ValueError("M block must be a x n")
        if any(len(r) != a for r in self.n_block):
            raise ValueError("N block must be a x a")
        if any(len(r) != n for r in self.p_block):
            raise ValueError("P block must be n x n")
        if len(self.q_block) != n or any(len(r) != a for r in self.q_block):
            raise ValueError("Q block must be n x a")


def model_from_weyl(h: WeylElement, pairs: Sequence[tuple], chains: Sequence[Sequence]) -> OrbitModel:
    """Extract an OrbitModel from an element plus an orbit annotation.

    ``pairs`` lists (q_i, p_i): q_i a base point of the inverse declared to
    have an infinite forward orbit, rewired onto the base point p_i of h at
    the truncation depth.  ``chains`` lists the finite orbit segments, each
    ending at a base point of h not among the paired ones.  The classes of
    e0, the chain points, the q_i and the p_i must be closed under h in the
    sense that images of e0, chain classes and p_i classes lie in the span
    of {e0} + chains + {e(q_i)}; orbit lengths themselves are never
    computed, only declared.
    """
    c_pts = [p for _, p in pairs]
    b_pts = [q for q, _ in pairs]
    a_pts = [x for chain in chains for x in chain]
    all_pts = c_pts + b_pts + a_pts
    if len(set(all_pts)) != len(all_pts):
        raise ValueError("annotation points must be pairwise distinct")
    a_index = {"e0": 0}
    for i, x in enumerate(a_pts):
        a_index[x] = i + 1
    b_index = {q: i for i, q in enumerate(b_pts)}
    a_dim = len(a_pts) + 1
    n = len(pairs)

    def coords(v: ClassVector):
        acol = [0] * a_dim
        bcol = [0] * n
        acol[0] = v.e0
        for p, cf in v.point_coeffs.items():
            if p in a_index:
                acol[a_index[p]] = cf
            elif p in b_index:
                bcol[b_index[p]] = cf
            else:
                raise ValueError(
                    f"image touches {p}, outside the annotated classes; "
                    "the annotation does not close under the action")
        return acol, bcol

    m_cols, p_cols, n_cols, q_cols = [], [], [], []
    for p in c_pts:
        acol, bcol = coords(apply(h, e(p)))
        m_cols.append(acol)
        p_cols.append(bcol)
    basis_a = [e0()] + [e(x) for x in a_pts]
    for v in basis_a:
        acol, bcol = coords(apply(h, v))
        n_cols.append(acol)
        q_cols.append(bcol)

    def cols_to_rows(cols, rows_count):
        return tuple(tuple(col[r] for col in cols) for r in range(rows_count))

    return OrbitModel(
        m_block=cols_to_rows(m_cols, a_dim),
        n_block=cols_to_rows(n_cols, a_dim),
        p_block=cols_to_rows(p_cols, n),
        q_block=cols_to_rows(q_cols, n),
        provenance=h,
    )


def build_Fk(model: OrbitModel, k: int):
    """The truncation matrix at depth k on C + A + B_0 + ... + B_k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    n, a = model.n, model.a
    size = n + a + (k + 1) * n
    F = [[0] * size for _ in range(size)]
    off_c, off_a = 0, n
    off_b = [n + a + j * n for j in range(k + 1)]
    # C row picks up B_k via the recycling isomorphism
    for i in range(n):
        F[off_c + i][off_b[k] + i] = 1
    for i in range(a):
        for j in range(n):
            F[off_a + i][off_c + j] = model.m_block[i][j]
        for j in range(a):
            F[off_a + i][off_a + j] = model.n_block[i][j]
    for i in range(n):
        for j in range(n):
            F[off_b[0] + i][off_c + j] = model.p_block[i][j]
        for j in range(a):
            F[off_b[0] + i][off_a + j] = model.q_block[i][j]
    for lvl in range(k):
        for i in range(n):
            F[off_b[lvl + 1] + i][off_b[lvl] + i] = 1
    return F


def fk_gram(model: OrbitModel, k: int):
    """The Minkowski form of the truncated space: +1 on e0, -1 elsewhere."""
    n, a = model.n, model.a
    size = n + a + (k + 1) * n
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        g[i][i] = -1
    g[n][n] = 1  # e0 is the first A basis vector
    return g


def fk_preserves_form(model: OrbitModel, k: int) -> bool:
    F = build_Fk(model, k)
    return intmat.preserves_form(F, fk_gram(model, k))


def fk_noether_check(model: OrbitModel, k: int) -> bool:
    """Degree identities for the image of e0 under F_k."""
    F = build_Fk(model, k)
    n = model.n
    col = [F[i][n] for i in range(len(F))]
    d = col[n]
    mults = [-col[i] for i in range(len(F)) if i != n]
    return sum(x * x for x in mults) == d * d - 1 and sum(mults) == 3 * d - 3


def fk_spectral_radius(model: OrbitModel, k: int, tol: float = 1e-10) -> float:
    F = build_Fk(model, k)
    cp = IntPolynomial(intmat.charpoly(F))
    lam = dominant_real_root(cp, tol)
    return 1.0 if lam is None else lam


# ---------------------------------------------------------------------------
# the two-variable determinant identity


def two_variable_det(model: OrbitModel, s, t):
    """P(s, t): the 3x3-block determinant encoding all truncations at once."""
    n, a = model.n, model.a
    s, t = Fraction(s), Fraction(t)
    size = n + a + n
    m = [[Fraction(0)] * size for _ in range(size)]
    # rows: C, A, B0; columns likewise
    for i in range(n):
        m[i][n + a + i] = Fraction(-1)
    for i in range(a):
        for j in range(n):
            m[n + i][j] = -Fraction(model.m_block[i][j])
        for j in range(a):
            m[n + i][n + j] = (t if i == j else 0) - Fraction(model.n_block[i][j])
    for i in range(n):
        for j in range(n):
            m[n + a + i][j] = -s * Fraction(model.p_block[i][j]) + (t if i == j else 0)
        for j in range(a):
            m[n + a + i][n + j] = -s * Fraction(model.q_block[i][j])
        m[n + a + i][n + a + i] = Fraction(1)
    return intmat.det(m)


@dataclass(frozen=True)
class PIdentityReport:
    k: int
    samples: tuple
    char_matches: bool
    s0_quotient_is_power: bool
    s0_power: Optional[int]

    @property
    def ok(self):
        return self.char_matches and self.s0_quotient_is_power


def verify_P_identity(model: OrbitModel, k: int, samples: Sequence = (2, 3, Fraction(5, 2))) -> PIdentityReport:
    """Exact checks of the determinant identity for the truncations.

    With r = k + 1 recycled orbit levels (the truncation at depth k carries
    B_0 through B_k), char(F_k)(x) = x^{r n} P(x^{-r}, x), and
    P(0, t) = t^l det(tI - N) for some l >= 0.  Both sides are exact
    rational determinants, so agreement at the sample points is exact
    equality, not an approximation.
    """
    F = build_Fk(model, k)
    n = model.n
    r = k + 1
    matches = True
    for x in samples:
        x = Fraction(x)
        size = len(F)
        xi = [[(x if i == j else 0) - F[i][j] for j in range(size)] for i in range(size)]
        lhs = intmat.det(xi)
        rhs = x ** (r * n) * two_variable_det(model, 1 / x ** r, x)
        if lhs != rhs:
            matches = False
            break
    # P(0, t) versus t^l det(tI - N): interpolate P(0, t) exactly
    deg_bound = 2 * n + model.a
    xs = list(range(1, deg_bound + 2))
    ys = [two_variable_det(model, 0, x) for x in xs]
    p0 = intmat.interpolate(xs, ys)
    n_char = intmat.charpoly(model.n_block)
    quotient_ok, power = _is_monomial_multiple(p0, n_char)
    return PIdentityReport(k, tuple(samples), matches, quotient_ok, power)


def _is_monomial_multiple(p0, n_char):
    """Is p0(t) = +- t^l * n_char(t)?  Returns (bool, l)."""
    if all(c == 0 for c in p0):
        return False, None
    shift = 0
    while p0[shift] == 0:
        shift += 1
    reduced = p0[shift:]
    if len(reduced) != len(n_char):
        return False, None
    lead = reduced[-1]
    if lead == 0:
        return False, None
    if all(reduced[i] == lead * n_char[i] for i in range(len(n_char))) and abs(lead) == 1:
        return True, shift
    return False, None


# ---------------------------------------------------------------------------
# the explicit quadratic-case family


def quadratic_orbit_matrix(m: int, k: int):
    """The explicit square matrix of size 2k + 4 for construction degree m.

    Indexing follows the source display verbatim; its characteristic
    polynomial is :func:`quadratic_closed_form`.
    """
    if m < 2 or k < 2:
        raise ValueError("need m >= 2 and k >= 2")
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


def quadratic_closed_form(m: int, k: int) -> IntPolynomial:
    """x^{2k+2}(x^2 - (m-1)x + 1) + x^{k+1}((m-1)x^2 - 4x + (m-1)) + (x^2 - (m-1)x + 1)."""
    if m < 2 or k < 2:
        raise ValueError("need m >= 2 and k >= 2")
    c = [0] * (2 * k + 5)
    c[0] += 1
    c[1] += -(m - 1)
    c[2] += 1
    c[k + 1] += m - 1
    c[k + 2] += -4
    c[k + 3] += m - 1
    c[2 * k + 2] += 1
    c[2 * k + 3] += -(m - 1)
    c[2 * k + 4] += 1
    return IntPolynomial(c)


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
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
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


def quadratic_orbit_model(m: int, k_source: int = 2) -> OrbitModel:
    """The OrbitModel of the quadratic-case element (independent of k_source)."""
    h = quadratic_orbit_element(m, k_source)
    # recover the annotation from the labels used by quadratic_orbit_element
    by_label = {p.label: p for p in h.support}
    pairs = [(by_label[f"q{i}"], by_label[f"a{i}_{k_source}"]) for i in range(1, m - 1)]
    chains = [[by_label[f"q{i}"]] for i in range(m - 1, 2 * m)]
    return model_from_weyl(h, pairs, chains)


@dataclass(frozen=True)
class LambdaEntry:
    k: int
    value: float
    kind: str


def lambda_sequence(m: int, ks: Sequence[int], tol: float = 1e-10) -> list[LambdaEntry]:
    """Spectral radii converging to the largest root of x^2 - (m+1)x + 1.

    ``m`` is the target trace parameter (m >= 2); the values are dominant
    roots of the closed-form polynomials at construction degree m + 2, with
    each entry classified through the polynomial classifier.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    out = []
    for k in ks:
        poly = quadratic_closed_form(m + 2, k)
        lam = dominant_real_root(poly, tol)
        kind = classify_number(poly).kind
        out.append(LambdaEntry(k, 1.0 if lam is None else lam, kind))
    return out


def lambda_limit(m: int) -> float:
    """The largest root of x^2 - (m+1)x + 1."""
    t = m + 1
    return (t + math.sqrt(t * t - 4)) / 2
