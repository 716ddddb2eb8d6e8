"""The increasing normal form of a Weyl word relative to a class.

:func:`normalize_increasing` rewrites a word so that the images of a class
v of shape e0, e(q), e0 - e(q) or 3 e0 - sum e(q_i) have strictly increasing
degree along its quadratic letters; :func:`increasing_degrees` lists those
degrees.  Of the commands, only ``weyl-normalize`` loads this module.
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
