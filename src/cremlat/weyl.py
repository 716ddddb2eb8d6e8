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
:func:`realize` checks each matrix it makes: M^T J M = J with
J = diag(1, -1, ..., -1), omega-invariance, and positive degree.  The group
here is the finite-support part of the full symmetric-group completion;
every algorithm in the package only ever touches finitely many points, so
nothing is lost by the restriction.

The increasing normal form of a word is in :mod:`cremlat.normalform`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import SyntaxErrorAt, intmat
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


class Permutation(NamedTuple):
    """A finite-support permutation letter: disjoint transpositions."""

    pairs: tuple

    def __repr__(self):
        return "s" + "".join(f"({a!r} {b!r})" for a, b in self.pairs) if self.pairs else "s()"


class Sigma0(NamedTuple):
    """The quadratic involution with base points (p1, p2, p3)."""

    p1: BubblePoint
    p2: BubblePoint
    p3: BubblePoint

    def __repr__(self):
        return f"q({self.p1!r},{self.p2!r},{self.p3!r})"


class Tau(NamedTuple):
    """The reflection swapping e(p) and e(q): the transposition (p q)."""

    p: BubblePoint
    q: BubblePoint

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


class WeylWord(NamedTuple):
    """An ordered tuple of generator letters, applied right-to-left; its repr
    is the text that :func:`parse_word` reads back."""

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


class WeylElement(NamedTuple):
    """A finite-support lattice isometry as an exact integer matrix.

    ``matrix[i][j]`` is the coefficient of basis vector i in the image of
    basis vector j, over the basis (e0, e(p) for p in support), a sorted
    tuple; rows are tuples.  Off the support the element acts as the
    identity.
    """

    support: tuple
    matrix: tuple

    def __repr__(self):
        return f"<WeylElement deg={degree(self)} on {len(self.support)} points>"


def checked(h: WeylElement) -> WeylElement:
    """h, once its matrix is checked to preserve the form and omega and to
    send e0 to a class of positive degree; otherwise ValueError."""
    m = h.matrix
    if not intmat.preserves_form(m):
        raise ValueError("matrix does not preserve the intersection form")
    omega = [3] + [1] * len(h.support)
    if intmat.mat_vec(intmat.transpose(m), omega) != omega:
        raise ValueError("matrix does not preserve the canonical form")
    if m[0][0] < 1:
        raise ValueError("image of e0 must have positive degree")
    return h


def _prune(support, matrix) -> WeylElement:
    """The element of a matrix on a sorted support, without the points
    whose basis column is the unit vector."""
    n = len(support) + 1
    keep = [0] + [i for i in range(1, n) if any(matrix[r][i] != (r == i) for r in range(n))]
    return WeylElement(tuple(support[i - 1] for i in keep[1:]),
                       tuple(tuple(matrix[r][c] for c in keep) for r in keep))


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
    :func:`checked` (form, omega, degree); :meth:`WeylWord.apply` is the
    independent letter-by-letter action.
    """
    support = sorted(w.support())
    rows = intmat.identity(len(support) + 1)
    _left_multiply(w, rows, {p: i + 1 for i, p in enumerate(support)})
    return checked(_prune(support, rows))


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
    return _prune(support, intmat.mat_mul(m1, m2))


def _embed(h: WeylElement, support):
    """The matrix of h on a sorted superset of its support."""
    idx = {p: i + 1 for i, p in enumerate(support)}
    at = [0] + [idx[p] for p in h.support]
    m = intmat.identity(len(support) + 1)
    for r, row in zip(at, h.matrix):
        for c, x in zip(at, row):
            m[r][c] = x
    return m


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
    return _prune(support, intmat.form_inverse(rows))


def degree(h: WeylElement) -> int:
    """deg(h) = e0 . h(e0)."""
    return h.matrix[0][0]


# ---------------------------------------------------------------------------
# base-point multiplicities


class MultiplicityProfile(NamedTuple):
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


# ---------------------------------------------------------------------------
# word grammar


_TOKEN = re.compile(r"\s*(?:(?P<op>\*)|(?P<kind>[qts])\s*(?P<args>(?:\([^()]*\))+))")
_GROUP = re.compile(r"\(([^()]*)\)")


def named_point(name: str, names: dict, pos: int = 0) -> BubblePoint:
    """The point called name, made on first use and kept in names; a name
    outside ``[A-Za-z_][A-Za-z0-9_]*`` is a syntax error at pos."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise SyntaxErrorAt(f"bad point name {name!r}", pos)
    if name not in names:
        names[name] = point(label=name)
    return names[name]


# letter -> (generator, number of points, that number in words)
_LETTERS = {"q": (Sigma0, 3, "three"), "t": (Tau, 2, "two")}


def parse_word(text: str):
    """Parse the word grammar; returns (WeylWord, name -> point mapping).

    Grammar: ``q(p1,p2,p3)`` for the quadratic involution, ``t(p,q)`` for a
    transposition reflection, ``s(p1 p2)(p3 p4)`` for a permutation given by
    disjoint transpositions, with ``*`` composing right-to-left.  The points
    of one letter are distinct; the letter records do not check it.
    """
    names, letters = {}, []
    pos = 0
    expecting_term = True
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise SyntaxErrorAt("unrecognized token", pos)
        if m.group("op"):
            if expecting_term:
                raise SyntaxErrorAt("misplaced '*'", pos)
            expecting_term = True
            pos = m.end()
            continue
        if not expecting_term:
            raise SyntaxErrorAt("missing '*' between letters", pos)
        kind = m.group("kind")
        groups = [[s for s in re.split(r"[,\s]+", g.strip()) if s]
                  for g in _GROUP.findall(m.group("args"))]
        if kind == "s":
            if any(len(parts) not in (0, 2) for parts in groups):
                raise SyntaxErrorAt("each s(...) group needs two points", pos)
        else:
            make, arity, count = _LETTERS[kind]
            if len(groups) != 1:
                raise SyntaxErrorAt(f"{kind} takes one group", pos)
            if len(groups[0]) != arity:
                raise SyntaxErrorAt(f"{kind} needs {count} points", pos)
        args = [named_point(t, names, pos) for parts in groups for t in parts]
        if len(set(args)) < len(args):
            raise SyntaxErrorAt(f"{kind} needs distinct points", pos)
        if kind == "s":
            make, args = Permutation, [tuple(zip(args[::2], args[1::2]))]
        letters.append(make(*args))
        expecting_term = False
        pos = m.end()
    if expecting_term and letters:
        raise SyntaxErrorAt("dangling '*'", len(text))
    return WeylWord(tuple(letters)), names
