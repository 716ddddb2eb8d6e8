"""Words in the generators of the infinite Weyl group and their matrices.

The group acts on the plane lattice of :mod:`cremlat.lattice`, is generated
by permutations of bubble points together with the quadratic involutions
sigma0(a, b, c), and preserves both the intersection form and the canonical
form omega.  An element is represented in two ways:

* a :class:`WeylWord`, an ordered tuple of generator letters applied
  right-to-left (composition order), and
* a :class:`WeylElement`, an exact integer matrix on the finite basis
  (e0, e(p_1), ..., e(p_n)) spanned by its support, acting as the identity
  on every other basis class.

A word acts on matrices by integer row operations, one per letter, both in
:func:`realize` and in :func:`conjugate_by_word`, with no matrix product.
Realized matrices are checked on construction: M^T J M = J with
J = diag(1, -1, ..., -1), omega-invariance, and positive degree.  The group
here is the finite-support part of the full symmetric-group completion;
every algorithm in the package only ever touches finitely many points, so
nothing is lost by the restriction.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import InputSyntaxError, intmat
from .lattice import (
    BubblePoint,
    ClassVector,
    e,
    e0,
    intersect,
    point,
)

# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Permutation:
    """A finite-support permutation letter: disjoint transpositions."""

    pairs: tuple

    def __post_init__(self):
        seen = set()
        for a, b in self.pairs:
            if a == b:
                raise ValueError("transposition with equal points")
            for x in (a, b):
                if x in seen:
                    raise ValueError("transpositions must be disjoint")
                seen.add(x)

    def __repr__(self):
        return "s" + "".join(f"({a!r} {b!r})" for a, b in self.pairs) if self.pairs else "s()"


@dataclass(frozen=True)
class Sigma0:
    """The quadratic involution with base points (p1, p2, p3)."""

    p1: BubblePoint
    p2: BubblePoint
    p3: BubblePoint

    def __post_init__(self):
        if len({self.p1, self.p2, self.p3}) != 3:
            raise ValueError("sigma0 needs three distinct points")

    def __repr__(self):
        return f"q({self.p1!r},{self.p2!r},{self.p3!r})"


@dataclass(frozen=True)
class Tau:
    """The reflection swapping e(p) and e(q): the transposition (p q)."""

    p: BubblePoint
    q: BubblePoint

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("tau needs two distinct points")

    @property
    def pairs(self) -> tuple:
        """The one transposition, as a :class:`Permutation` lists its pairs."""
        return ((self.p, self.q),)

    def __repr__(self):
        return f"t({self.p!r},{self.q!r})"


def gen_support(g) -> set:
    if isinstance(g, Sigma0):
        return {g.p1, g.p2, g.p3}
    return {x for pair in g.pairs for x in pair}


def gen_apply(g, v: ClassVector) -> ClassVector:
    """Action of a single generator on a class vector."""
    if isinstance(g, Sigma0):
        # reflection in w = e0 - e(p1) - e(p2) - e(p3), of self-intersection -2
        w = e0() - e(g.p1) - e(g.p2) - e(g.p3)
        return v + intersect(v, w) * w
    pts = v.point_coeffs
    for p, q in g.pairs:
        cp, cq = pts.pop(p, 0), pts.pop(q, 0)
        if cq:
            pts[p] = cq
        if cp:
            pts[q] = cp
    return ClassVector(v.e0, pts)


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class WeylWord:
    """An ordered tuple of generator letters, applied right-to-left."""

    letters: tuple

    def __mul__(self, other: "WeylWord") -> "WeylWord":
        return WeylWord(self.letters + other.letters)

    def support(self) -> set:
        s = set()
        for g in self.letters:
            s |= gen_support(g)
        return s

    def apply(self, v: ClassVector) -> ClassVector:
        for g in reversed(self.letters):
            v = gen_apply(g, v)
        return v

    def __repr__(self):
        return " * ".join(repr(g) for g in self.letters) if self.letters else "s()"


# ---------------------------------------------------------------------------
# realized elements


class WeylElement:
    """A finite-support lattice isometry as an exact integer matrix.

    ``matrix[i][j]`` is the coefficient of basis vector i in the image of
    basis vector j, over the basis (e0, e(p) for p in support).  Off the
    support the element acts as the identity.
    """

    __slots__ = ("support", "matrix")

    def __init__(self, support: Sequence[BubblePoint], matrix, validate: bool = True):
        support = tuple(sorted(support))
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        if validate:
            n = len(support) + 1
            if len(matrix) != n or any(len(r) != n for r in matrix):
                raise ValueError("matrix size does not match support")
            if not intmat.preserves_form(matrix):
                raise ValueError("matrix does not preserve the intersection form")
            omega = [3] + [1] * len(support)
            if intmat.mat_vec(intmat.transpose(matrix), omega) != omega:
                raise ValueError("matrix does not preserve the canonical form")
            if matrix[0][0] < 1:
                raise ValueError("image of e0 must have positive degree")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.support == other.support
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.support, self.matrix))

    def __repr__(self):
        return f"<WeylElement deg={degree(self)} on {len(self.support)} points>"


def _prune(support, matrix):
    """Drop support points whose basis column is the unit vector."""
    n = len(support)
    keep = []
    for i in range(n):
        col = [matrix[r][i + 1] for r in range(n + 1)]
        unit = all(c == (1 if r == i + 1 else 0) for r, c in enumerate(col))
        if not unit:
            keep.append(i)
    if len(keep) == n:
        return support, matrix
    idx = [0] + [i + 1 for i in keep]
    new_matrix = [[matrix[r][c] for c in idx] for r in idx]
    return [support[i] for i in keep], new_matrix


def element_from_images(images: dict) -> WeylElement:
    """Build a WeylElement from explicit images of e0 and of some e(p).

    ``images`` maps the key ``"e0"`` to a ClassVector and bubble points to
    ClassVectors.  Points appearing in images but without an explicit image
    are assumed fixed; the result is validated as a form- and omega-
    preserving integer matrix.
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
    support2, matrix2 = _prune(support, matrix)
    return WeylElement(support2, matrix2)


def _left_multiply(w: WeylWord, rows: list, at: dict) -> None:
    """Replace ``rows`` by realize(w) times them, letter by letter.

    The letters act right to left as integer row operations, row ``at[p]``
    belonging to e(p) and row 0 to e0: q(a,b,c), the reflection in
    e0 - e(a) - e(b) - e(c), adds s = r0 + ra + rb + rc to row 0 and
    subtracts it from rows a, b and c; t(p,q) swaps two rows and s(..)(..)
    swaps each of its pairs.
    """
    for g in reversed(w.letters):
        if isinstance(g, Sigma0):
            idx = (at[g.p1], at[g.p2], at[g.p3])
            s = [a + b + c + d for a, b, c, d in zip(rows[0], *(rows[i] for i in idx))]
            rows[0] = [x + y for x, y in zip(rows[0], s)]
            for i in idx:
                rows[i] = [x - y for x, y in zip(rows[i], s)]
        else:
            for p, q in g.pairs:
                rows[at[p]], rows[at[q]] = rows[at[q]], rows[at[p]]


@lru_cache(maxsize=4096)
def realize(w: WeylWord) -> WeylElement:
    """The integer matrix of a word, on the minimal support it moves.

    The identity on the support of the word, left-multiplied by its letters
    (:func:`_left_multiply`), pruned to the points the product moves and
    checked on construction (form, omega, degree); :meth:`WeylWord.apply`
    is the independent letter-by-letter action.
    """
    support = sorted(w.support())
    rows = intmat.identity(len(support) + 1)
    _left_multiply(w, rows, {p: i + 1 for i, p in enumerate(support)})
    return WeylElement(*_prune(support, rows))


def apply(h: WeylElement, v: ClassVector) -> ClassVector:
    """h(v): matrix action on the support, identity elsewhere."""
    coords = [v.e0] + [v.coeff(p) for p in h.support]
    out = intmat.mat_vec(h.matrix, coords)
    pts = v.point_coeffs
    pts.update(zip(h.support, out[1:]))  # zeros are dropped by ClassVector
    return ClassVector(out[0], pts)


def compose(h1: WeylElement, h2: WeylElement) -> WeylElement:
    """Matrix product h1 h2 on the union of supports, pruned."""
    support = sorted(set(h1.support) | set(h2.support))
    m1 = _embed(h1, support)
    m2 = _embed(h2, support)
    support2, matrix = _prune(support, intmat.mat_mul(m1, m2))
    return WeylElement(support2, matrix, validate=False)


def _embed(h: WeylElement, support):
    """The matrix of h on a sorted superset of its support."""
    idx = {p: i + 1 for i, p in enumerate(support)}
    at = [0] + [idx[p] for p in h.support]
    m = intmat.identity(len(support) + 1)
    for r, row in zip(at, h.matrix):
        for c, x in zip(at, row):
            m[r][c] = x
    return m


def inverse(h: WeylElement) -> WeylElement:
    """h^{-1} = J h^T J, exact."""
    m = intmat.form_inverse(h.matrix)
    support, m = _prune(list(h.support), m)
    return WeylElement(support, m, validate=False)


def conjugate(g: WeylElement, h: WeylElement) -> WeylElement:
    """g h g^{-1}."""
    return compose(compose(g, h), inverse(g))


def conjugate_by_word(w: WeylWord, h: WeylElement) -> WeylElement:
    """realize(w) h realize(w)^{-1}, by row operations alone.

    For an isometry g, g M g^{-1} = (g (g M)^{-1})^{-1}, and every inverse
    is read off the form (J M^T J); so the conjugate is h embedded on the
    union of the supports, left-multiplied by w, inverted, left-multiplied
    by w again, inverted and pruned, with no matrix product.
    """
    support = sorted(w.support() | set(h.support))
    at = {p: i + 1 for i, p in enumerate(support)}
    rows = _embed(h, support)
    _left_multiply(w, rows, at)
    rows = intmat.form_inverse(rows)
    _left_multiply(w, rows, at)
    support, rows = _prune(support, intmat.form_inverse(rows))
    return WeylElement(support, rows, validate=False)


def degree(h: WeylElement) -> int:
    """deg(h) = e0 . h(e0)."""
    return h.matrix[0][0]


# ---------------------------------------------------------------------------
# multiplicities and the degree identities


@dataclass(frozen=True)
class MultiplicityProfile:
    """Base-point multiplicities of h and h^{-1} over their common support.

    Conventions: a_i = e(p_i) . h(e0) (the base points of h^{-1} are the p_i
    with a_i != 0), b_i = e(p_i) . h^{-1}(e0), and c_i = (a_i + b_i)/2.
    """

    degree: int
    points: tuple
    a: tuple
    b: tuple
    c: tuple

    def sorted_by_c(self):
        order = sorted(range(len(self.points)), key=lambda i: (-self.c[i], self.points[i].id))
        return [(self.points[i], self.a[i], self.b[i], self.c[i]) for i in order]


def multiplicity_profile(h: WeylElement) -> MultiplicityProfile:
    d = degree(h)
    m = h.matrix
    # a_i = -M[i][0] from the column h(e0); b_i = M[0][i] from the first
    # row, since h^{-1}(e0) = J M^T J e0 is row 0 with its point signs flipped
    idx = [i for i in range(1, len(m)) if m[i][0] or m[0][i]]
    pts = tuple(h.support[i - 1] for i in idx)
    a = tuple(-m[i][0] for i in idx)
    b = tuple(m[0][i] for i in idx)
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        raise ValueError("negative multiplicity: input is not in the Weyl group orbit of e0")
    c = tuple(Fraction(x + y, 2) for x, y in zip(a, b))
    # the degree identities are forced by form and omega invariance
    assert sum(x * x for x in a) == d * d - 1 and sum(a) == 3 * d - 3
    assert sum(x * x for x in b) == d * d - 1 and sum(b) == 3 * d - 3
    return MultiplicityProfile(d, pts, a, b, c)


@dataclass(frozen=True)
class NoetherReport:
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


def noether_report(h: WeylElement) -> NoetherReport:
    """Check the degree/multiplicity identities and inequalities for h.

    Verifies, with the a_i sorted in decreasing order:
      * sum a_i^2 = d^2 - 1 and sum a_i = 3d - 3,
      * the exact identity
        (d-1)(a1 + a2 + a3 - (d+1)) = (a1-a3)(d-1-a1) + (a2-a3)(d-1-a2)
                                      + sum_{i>=4} a_i (a3 - a_i),
      * a_i + a_j <= d for all pairs, and
      * a1 + a2 + a3 >= d + 1.

    Degree-1 elements get an inapplicable report.
    """
    d = degree(h)
    if d < 2:
        return NoetherReport(d, applicable=False)
    prof = multiplicity_profile(h)
    a = sorted(prof.a, reverse=True)
    while len(a) < 3:
        a.append(0)
    eq_ok = sum(x * x for x in a) == d * d - 1 and sum(a) == 3 * d - 3
    lhs = (d - 1) * (a[0] + a[1] + a[2] - (d + 1))
    rhs = (a[0] - a[2]) * (d - 1 - a[0]) + (a[1] - a[2]) * (d - 1 - a[1])
    rhs += sum(ai * (a[2] - ai) for ai in a[3:])
    identity_ok = lhs == rhs
    pair_ok = a[0] + a[1] <= d
    triple_ok = a[0] + a[1] + a[2] >= d + 1
    witness = None
    if not (eq_ok and identity_ok and pair_ok and triple_ok):
        witness = f"d={d}, a={a}"
    return NoetherReport(d, True, eq_ok, identity_ok, pair_ok, triple_ok, witness)


# ---------------------------------------------------------------------------
# special families


def sigma_omega_word(p1: BubblePoint, omega: Iterable[BubblePoint]) -> WeylWord:
    """The involution sigma_omega rooted at p1 with an even satellite set
    omega, as a word of two letters per satellite pair, q(p1,a,b) * t(a,b).

    With 2m - 2 = len(omega) it sends e0 to m e0 - (m-1) e(p1) - sum e(q),
    e(p1) to (m-1) e0 - (m-2) e(p1) - sum e(q), and e(q) to
    e0 - e(p1) - e(q) for q in omega; everything else is fixed.  It is the
    product of the commuting half-integer reflections attached to the points
    of omega, which is an integer map exactly because len(omega) is even.
    """
    omega = sorted(set(omega))
    if len(omega) % 2 != 0 or p1 in omega:
        raise ValueError("omega must be even and avoid the root")
    letters = []
    for i in range(0, len(omega), 2):
        a, b = omega[i], omega[i + 1]
        letters += [Sigma0(p1, a, b), Tau(a, b)]
    return WeylWord(tuple(letters))


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
# the increasing normal form


def _shape_of(v: ClassVector) -> str:
    pts = v.point_coeffs
    if v.e0 == 1 and not pts:
        return "e0"
    if v.e0 == 0 and len(pts) == 1 and next(iter(pts.values())) == 1:
        return "e(q)"
    if v.e0 == 1 and len(pts) == 1 and next(iter(pts.values())) == -1:
        return "e0-e(q)"
    if v.e0 == 3 and pts and all(c == -1 for c in pts.values()):
        return "3e0-sum"
    raise ValueError(
        "normalize_increasing only handles e0, e(q), e0 - e(q) and 3e0 - sum of distinct e(q_i)"
    )


def _descent_triple(u: ClassVector, pool):
    """Top three multiplicity points of u, padded from pool, ties by id."""
    mult = {p: -c for p, c in u.point_coeffs.items()}
    ranked = sorted(mult, key=lambda p: (-mult[p], p.id))
    triple = ranked[:3]
    it = iter(pool)
    while len(triple) < 3:
        cand = next(it, None)
        if cand is None:
            cand = point()
        if cand not in triple:
            triple.append(cand)
    gain = sum(mult.get(p, 0) for p in triple)
    return triple, gain


def _involution_pair(mapping: dict):
    """Split a finite permutation into at most two disjoint-transposition letters."""
    # cycle decomposition
    seen = set()
    r1, r2 = [], []
    for start in sorted(mapping):
        if start in seen or mapping[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        nxt = mapping[start]
        while nxt != start:
            cycle.append(nxt)
            nxt = mapping[nxt]
        seen |= set(cycle)
        k = len(cycle)
        # rotation by one = r2 . r1 with two reversals of the cycle:
        # r1 swaps i with -i (mod k), r2 swaps i with 1-i (mod k)
        for i in range(1, (k + 1) // 2):
            r1.append((cycle[i], cycle[k - i]))
        r2.append((cycle[0], cycle[1]))
        i = 2
        while i < k + 1 - i:
            r2.append((cycle[i], cycle[k + 1 - i]))
            i += 1
    letters = []
    if r2:
        letters.append(Permutation(tuple(r2)))
    if r1:
        letters.append(Permutation(tuple(r1)))
    return letters


def _match_permutation(v: ClassVector, target: ClassVector) -> dict:
    """A finite permutation mapping with s(v) = target, for same-shape pairs."""
    src = sorted(v.point_coeffs)
    dst = sorted(target.point_coeffs)
    if v.e0 != target.e0 or len(src) != len(dst):
        raise ValueError("shape mismatch between start vector and descent endpoint")
    mapping = dict(zip(src, dst))
    # complete to a genuine permutation of the union
    missing_src = [p for p in dst if p not in mapping]
    missing_dst = [p for p in src if p not in set(mapping.values())]
    mapping.update(dict(zip(missing_src, missing_dst)))
    return {k: w for k, w in mapping.items() if k != w}


def normalize_increasing(w: WeylWord, v: ClassVector) -> WeylWord:
    """Rewrite a word, relative to v, so partial degrees strictly increase.

    The returned word w' satisfies realize(w')(v) = realize(w)(v) and its
    quadratic letters, applied right to left, pass through images of v of
    strictly increasing e0-degree (permutation letters in between leave the
    degree unchanged).  In particular the final image is some e(q) or has
    non-negative multiplicities.

    The construction runs the degree descent backwards: starting from the
    target image, quadratic involutions on the three points of largest
    multiplicity strictly decrease the degree until a permutation image of
    v remains; reversing the chain gives the increasing word.
    """
    _shape_of(v)
    target = w.apply(v)
    pool = sorted(w.support() | set(v.point_coeffs) | set(target.point_coeffs))
    chain = []
    cur = target
    guard = 0
    while True:
        pts = list(cur.point_coeffs.values())
        if any(c > 0 for c in pts) and not (cur.e0 == 0 and pts == [1]):  # e(q) is allowed
            raise AssertionError("descent produced a negative multiplicity")
        d = cur.e0
        triple, gain = _descent_triple(cur, pool)
        if d <= 0 or gain <= d:
            break
        sig = Sigma0(*triple)
        chain.append(sig)
        cur = gen_apply(sig, cur)
        for p in triple:
            if p not in pool:
                pool.append(p)
        guard += 1
        if guard > 10000:
            raise RuntimeError("descent did not terminate")
    mapping = _match_permutation(v, cur)
    letters = tuple(chain) + tuple(_involution_pair(mapping))
    if not letters:
        letters = (Permutation(()),)
    out = WeylWord(letters)
    assert out.apply(v) == target
    return out


def increasing_degrees(w: WeylWord, v: ClassVector) -> list:
    """The e0-degrees of the partial images of v after each quadratic letter."""
    degs = []
    cur = v
    for g in reversed(w.letters):
        cur = gen_apply(g, cur)
        if isinstance(g, Sigma0):
            degs.append(cur.e0)
    return degs


# ---------------------------------------------------------------------------
# word grammar


_TOKEN = re.compile(r"\s*(?:(?P<op>\*)|(?P<kind>[qts])\s*(?P<args>(?:\([^()]*\))+))")
_GROUP = re.compile(r"\(([^()]*)\)")


class WordSyntaxError(InputSyntaxError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def named_point(name: str, names: dict, pos: int = 0) -> BubblePoint:
    """The point called name, made on first use and kept in names; a name
    outside ``[A-Za-z_][A-Za-z0-9_]*`` is a syntax error at pos."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise WordSyntaxError(f"bad point name {name!r}", pos)
    if name not in names:
        names[name] = point(label=name)
    return names[name]


# letter -> (generator, number of points, that number in words)
_LETTERS = {"q": (Sigma0, 3, "three"), "t": (Tau, 2, "two")}


def parse_word(text: str, names: Optional[dict] = None):
    """Parse the word grammar; returns (WeylWord, name -> point mapping).

    Grammar: ``q(p1,p2,p3)`` for the quadratic involution, ``t(p,q)`` for a
    transposition reflection, ``s(p1 p2)(p3 p4)`` for a permutation given by
    disjoint transpositions, with ``*`` composing right-to-left.
    """
    names = dict(names) if names else {}
    letters = []
    pos = 0
    expecting_term = True
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise WordSyntaxError("unrecognized token", pos)
        if m.group("op"):
            if expecting_term:
                raise WordSyntaxError("misplaced '*'", pos)
            expecting_term = True
            pos = m.end()
            continue
        if not expecting_term:
            raise WordSyntaxError("missing '*' between letters", pos)
        kind = m.group("kind")
        groups = [[s for s in re.split(r"[,\s]+", g.strip()) if s]
                  for g in _GROUP.findall(m.group("args"))]
        if kind == "s":
            if any(len(parts) not in (0, 2) for parts in groups):
                raise WordSyntaxError("each s(...) group needs two points", pos)
        else:
            make, arity, count = _LETTERS[kind]
            if len(groups) != 1:
                raise WordSyntaxError(f"{kind} takes one group", pos)
            if len(groups[0]) != arity:
                raise WordSyntaxError(f"{kind} needs {count} points", pos)
        args = [named_point(t, names, pos) for parts in groups for t in parts]
        if kind == "s":
            make, args = Permutation, [tuple(zip(args[::2], args[1::2]))]
        try:
            letters.append(make(*args))
        except ValueError as exc:
            raise WordSyntaxError(str(exc), pos) from None
        expecting_term = False
        pos = m.end()
    if expecting_term and letters:
        raise WordSyntaxError("dangling '*'", len(text))
    return WeylWord(tuple(letters)), names


def print_word(w: WeylWord) -> str:
    """Inverse of parse_word for words over labelled points."""
    return repr(w)
