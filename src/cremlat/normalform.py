"""The increasing normal form of a Weyl word relative to a class.

:func:`normalize_increasing` rewrites a word so that the images of a class
v of shape e0, e(q), e0 - e(q) or 3 e0 - sum e(q_i) have strictly increasing
degree along its quadratic letters; :func:`increasing_degrees` lists those
degrees.  The word ends in at most one permutation letter, an involution:
the degree descent ends at a class of v's shape, and within one shape the
form and omega force every point coefficient to be equal, so swapping the
points that only one of the two classes has carries v there.  Of the
commands, only ``weyl-normalize`` loads this module.
"""

from __future__ import annotations

from .lattice import ClassVector, point
from .weyl import Permutation, Sigma0, WeylWord, gen_apply


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


def _closing_involution(v: ClassVector, end: ClassVector) -> Permutation:
    """The involution that sends v to the descent end: it swaps each point
    found only in v with one found only in end, pairs in point order.  Within
    one shape every point coefficient is the same (+1 for e(q), -1 for the
    other three), so any bijection of the two supports works."""
    if v.e0 != end.e0:  # with e0, the form and omega fix the shape
        raise ValueError("shape mismatch between start vector and descent endpoint")
    src, dst = v.point_coeffs, end.point_coeffs
    pairs = zip(sorted(src.keys() - dst.keys()), sorted(dst.keys() - src.keys()))
    return Permutation(tuple(sorted(tuple(sorted(pair)) for pair in pairs)))


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
    v remains; reversing the chain, after the one involution that carries v
    to that image, gives the increasing word.
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
    s = _closing_involution(v, cur)
    out = WeylWord(tuple(chain) + ((s,) if s.pairs or not chain else ()))
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
