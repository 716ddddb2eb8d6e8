"""A desk-scale engine for plane maps given by homogeneous coordinate triples.

Triples [P : Q : R] of homogeneous polynomials of a common degree, without
common factor, compose by substitution followed by cancellation of the full
common factor.  Coefficients are exact rationals by default, held as one
projective representative with coprime integer coefficients; a prime-field
mode (62-bit prime) is available for fast probabilistic work, with the
rational mode as the reference semantics.

Cancellation: the common monomial content is stripped directly, and the
rest of the gcd comes from one native algorithm on the pencil of lines
through a point O = [1 : 0 : a] where some component does not vanish
(Brown's modular gcd, J. ACM 1971, with the lines as evaluation points).
Its first line is a coprimality certificate, which settles the generic
case; otherwise the gcds on further lines are interpolated, over Z through
images modulo several primes.  A gcd is accepted by exact division of
every component, and those quotients are the cancelled triple.  Degree
growth is budgeted: compositions beyond the degree or term caps raise (or
truncate the iteration) rather than grinding; monomial maps have their own
exact integer fast path.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from . import InputSyntaxError, crt, intmat, join_signed, primes, salem

DEGREE_BUDGET = 512
TERM_BUDGET = 200_000

class BudgetExceeded(RuntimeError):
    pass


class TripleSyntaxError(InputSyntaxError):
    """Text that does not parse as a polynomial or a bracketed triple."""


# -- sparse homogeneous polynomials ------------------------------------------
# representation: dict[(i, j, k)] -> coefficient, i + j + k constant


def poly_add(out, a, p=None, s=1, shift=(0, 0, 0)):
    """Add s x^i y^j z^k a into out in place, modulo p when p is set, for
    shift = (i, j, k); returns out.  Every sum and product is taken here."""
    i0, j0, k0 = shift
    for (i, j, k), c in a.items():
        m = (i + i0, j + j0, k + k0)
        v = out.get(m, 0) + s * c
        if p:
            v %= p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_mul(a, b, p=None):
    out = {}
    for m, c in a.items():
        poly_add(out, b, p, c, m)
    if len(out) > TERM_BUDGET:
        raise BudgetExceeded(f"term count {len(out)} exceeds the budget")
    return out


def poly_degree(a) -> int:
    if not a:
        return -1
    return max(i + j + k for i, j, k in a)


def poly_eval_triple(a, triple, p=None):
    """Substitute three polynomials for (x, y, z); powers are cached."""
    max_i = max((m[0] for m in a), default=0)
    max_j = max((m[1] for m in a), default=0)
    max_k = max((m[2] for m in a), default=0)

    def powers(base, top):
        out = [{(0, 0, 0): 1}]
        for _ in range(top):
            out.append(poly_mul(out[-1], base, p))
        return out

    px, py, pz = (powers(t, top) for t, top in zip(triple, (max_i, max_j, max_k)))
    total = {}
    for (i, j, k), c in a.items():
        poly_add(total, poly_mul(poly_mul(px[i], py[j], p), pz[k], p), p, c)
    return total


def poly_divexact(a, b, p=None):
    """Exact division by b modulo p, or over Z (raises if not exact).  Over Z
    a primitive b that divides a over Q divides it over Z (Gauss's lemma)."""
    if not b:
        raise ZeroDivisionError
    out = {}
    rem = dict(a)
    bl = max(b)  # lex-leading monomial
    blc = b[bl]
    inv = pow(blc, -1, p) if p else None
    while rem:
        ml = max(rem)
        q = tuple(x - y for x, y in zip(ml, bl))
        c, r = (rem[ml] * inv % p, 0) if p else divmod(rem[ml], blc)
        if r or min(q) < 0:
            raise ValueError("division is not exact")
        out[q] = c
        poly_add(rem, b, p, -c, q)
    return out


def _restrict_to_line(q, a, b, p):
    """The binary form q(s, t, a s + b t) modulo p as a univariate in s (t = 1)."""
    d = poly_degree(q)
    apow, bpow = ([pow(x, r, p) for r in range(d + 1)] for x in (a, b))
    rows, out = {}, [0] * (d + 1)
    for (i, j, k), c in q.items():
        # (a s + b t)^k expanded once per k; collect the s-exponent with t = 1
        if k not in rows:
            rows[k] = [math.comb(k, r) * apow[r] * bpow[k - r] % p for r in range(k + 1)]
        for r, x in enumerate(rows[k], i):
            out[r] += c * x
    return [v % p for v in out]


def _univ_gcd(u, v, p):
    """Monic-ish gcd of two univariate coefficient lists modulo the prime p."""

    def trim(w):
        w = list(w)
        while w and (w[-1] == 0):
            w.pop()
        return w

    u, v = trim(u), trim(v)
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v) and u:
            f = u[-1] * inv % p
            off = len(u) - len(v)
            nxt = list(u)
            for i in range(off, len(u)):
                nxt[i] = (nxt[i] - f * v[i - off]) % p
            u = trim(nxt)
        u, v = v, u
    return u


def _center(polys, p=None):
    """(a, v) for the least a >= 0 at which some q in polys has v = q(O) nonzero
    (mod p), O = [1 : 0 : a].  A nonzero form q(x, 0, z) of degree d has at
    most d roots a, and some q(x, 0, z) is nonzero unless y divides all q."""
    for a in range(max(map(poly_degree, polys)) + 1):
        for q in polys:
            v = sum(c * a ** k for (_, j, k), c in q.items() if j == 0)
            if v % p if p else v:
                return a, v
    raise ValueError(f"the prime {p} has too few elements for this gcd")


def _quotients(polys, g, p):
    """[q / g for q in polys] by exact division, or None if one is not exact."""
    try:
        return [poly_divexact(q, g, p) for q in polys]
    except ValueError:
        return None


def _pencil_gcd(polys, p, a):
    """The gcd G of homogeneous polys modulo p, scaled to G(O) = 1 at a
    center O = [1 : 0 : a] where some polys[i] does not vanish.  On each
    line z = a x + b y through O, q(s, 1, a s + b) has leading coefficient
    q(O), so G keeps its degree k there, and the monic gcd in s of the
    restrictions has degree >= k, with equality, and value
    G(s, 1, a s + b) / G(O), for all but finitely many b.  So a first gcd of
    degree 0 proves coprimality; otherwise k + 1 gcds of least degree are
    interpolated in b and homogenized back.  Returns (G, [q / G])."""
    points, k = [], None
    for i in range(p):
        b = (1_000_003 + i) % p  # base points with small coordinates have small b
        g = []
        for q in polys:
            g = _univ_gcd(g, _restrict_to_line(q, a, b, p), p)
            if len(g) == 1:
                return {(0, 0, 0): 1}, polys
        if k is None or len(g) - 1 < k:
            points, k = [], len(g) - 1
        elif len(g) - 1 > k:
            continue
        inv = pow(g[-1], -1, p)
        points.append((b, [c * inv % p for c in g]))
        if len(points) > k:
            cand = _homogenize(points, k, a, p)
            quots = None if cand is None else _quotients(polys, cand, p)
            if quots is not None:
                return cand, quots
            points = []  # every one of the k + 1 lines met a spurious common root
    raise ValueError(f"the prime {p} has too few elements for this gcd")


def _homogenize(points, k, a, p):
    """G / G(O) from k + 1 pairs (b, monic gcd on the line z = a x + b y): the
    s^j coefficient is a polynomial sum_m c_m b^m of degree <= k - j (else
    None), and G / G(O) = sum c_m x^j (z - a x)^m y^(k-j-m)."""
    out = {}
    for j in range(k + 1):
        cs = intmat.interpolate([b for b, _ in points], [g[j] for _, g in points], p)
        for m, c in enumerate(cs):
            if c and j + m > k:
                return None
            for r in range(m + 1):
                mono = (j + m - r, k - j - m, r)
                out[mono] = (out.get(mono, 0) + c * math.comb(m, r) * pow(-a, m - r, p)) % p
    return {mono: c for mono, c in out.items() if c}


def _rational_gcd(polys):
    """The primitive gcd G over Z of integer polys, with the quotients.  At
    the center O, v = polys[i](O) is nonzero and G(O) divides it (Gauss's
    lemma), so v G / G(O) has integer coefficients.  Its images, from pencil
    gcds G / G(O) modulo the primes from DEFAULT_PRIME down that do not
    divide v, are combined by CRT in the symmetric range; an image of larger
    degree than another comes from an unlucky prime.  The primitive part of
    the combination is accepted by exact division (Brown, J. ACM 1971)."""
    a, v = _center(polys)
    images, modulus, k = {}, 1, None
    for prime in primes():
        if v % prime == 0:
            continue
        img, _ = _pencil_gcd(_canonical_coeffs(polys, prime), prime, a)
        if k is None or poly_degree(img) < k:
            images, modulus, k = {}, 1, poly_degree(img)
        elif poly_degree(img) > k:
            continue
        if k == 0:
            return img, polys
        monos = list(set(images) | set(img))
        lifted, modulus = crt([images.get(mono, 0) for mono in monos], modulus,
                              [v * img.get(mono, 0) for mono in monos], prime)
        images.update(zip(monos, lifted))
        cand = {mono: c - modulus if 2 * c > modulus else c for mono, c in images.items()}
        content = math.gcd(*cand.values())
        cand = {mono: c // content for mono, c in cand.items() if c}
        quots = _quotients(polys, cand, None)
        if quots is not None:
            return cand, quots


def poly_gcd(polys, p=None):
    """Full gcd of several homogeneous polynomials, not all zero, and the
    quotients: returns (gcd, [q / gcd for q in polys]).  The gcd is the
    monomial content times the gcd of the rest by `_pencil_gcd` (over Z
    through `_rational_gcd`), and the quotients come from the exact divisions
    that accept it.  In the generic case the first line of the pencil proves
    the rest coprime."""
    live = [q for q in polys if q]
    content = tuple(min(m[t] for q in live for m in q) for t in range(3))
    reduced = [{tuple(x - y for x, y in zip(m, content)): c for m, c in q.items()}
               for q in live]
    if any(poly_degree(q) == 0 for q in reduced):
        g, quots = {(0, 0, 0): 1}, reduced
    elif p:
        g, quots = _pencil_gcd(reduced, p, _center(reduced, p)[0])
    else:
        g, quots = _rational_gcd(reduced)
    quots = iter(quots)
    return ({tuple(x + y for x, y in zip(m, content)): c for m, c in g.items()},
            [next(quots) if q else q for q in polys])


_MONO = re.compile(r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*(?P<vars>(?:\*?\s*[xyz](?:\s*\^\s*\d+)?)*)\s*")


def parse_poly3(text: str):
    """Parse an expression like ``2*x^2*y - y*z^2`` into the sparse form,
    with Fraction coefficients."""
    out = {}
    pos = 0
    text = text.strip()
    if not text:
        raise TripleSyntaxError("empty polynomial")
    while pos < len(text):
        m = _MONO.match(text, pos)
        if not m or m.end() == pos:
            raise TripleSyntaxError(f"cannot parse monomial at {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("sign") is None and pos > 0:
            raise TripleSyntaxError(f"missing sign before {text[pos:]!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        expo = {"x": 0, "y": 0, "z": 0}
        for vm in re.finditer(r"([xyz])(?:\s*\^\s*(\d+))?", m.group("vars") or ""):
            expo[vm.group(1)] += int(vm.group(2)) if vm.group(2) else 1
        mono = (expo["x"], expo["y"], expo["z"])
        cur = out.get(mono, 0) + sign * coeff
        if cur:
            out[mono] = cur
        else:
            out.pop(mono, None)
        pos = m.end()
    return out


def format_poly3(a) -> str:
    parts = []
    for mono in sorted(a, reverse=True):
        c = a[mono]
        body = []
        for name, ex in zip("xyz", mono):
            if ex == 1:
                body.append(name)
            elif ex > 1:
                body.append(f"{name}^{ex}")
        coeff_txt = "" if abs(c) == 1 and body else str(abs(c))
        txt = "*".join(([coeff_txt] if coeff_txt else []) + body) or "1"
        parts.append((c < 0, txt))
    return join_signed(parts)


# -- triples -------------------------------------------------------------------


def _canonical_coeffs(polys, prime):
    """The coefficients of polys (ints or Fractions) as ints: modulo the
    prime, or in rational mode after multiplying every poly by one positive
    rational that makes all the coefficients coprime integers."""
    if prime:
        dens = {c.denominator for q in polys for c in q.values()}
        if zero := next((d for d in dens if d % prime == 0), None):
            raise ValueError(f"{zero} has no inverse modulo the prime {prime}")
        inv = {d: pow(d, -1, prime) for d in dens}
        return [{m: v for m, c in q.items() if (v := c.numerator * inv[c.denominator] % prime)}
                for q in polys]
    den = math.lcm(*(c.denominator for q in polys for c in q.values()))
    ints = [{m: c.numerator * (den // c.denominator) for m, c in q.items() if c} for q in polys]
    content = math.gcd(*(c for q in ints for c in q.values())) or 1
    return [{m: c // content for m, c in q.items()} for q in ints]


class HomogeneousTriple:
    """Three homogeneous polynomials of one degree, no common factor."""

    __slots__ = ("components", "prime")

    def __init__(self, components, prime=None):
        components = _canonical_coeffs(list(components), prime)
        if len(components) != 3 or all(not c for c in components):
            raise ValueError("need three components, not all zero")
        degs = {poly_degree(c) for c in components if c}
        if len(degs) != 1:
            raise ValueError(f"components must share one degree, got {sorted(degs)}")
        for c in components:
            if c and len({i + j + k for (i, j, k) in c}) != 1:
                raise ValueError("components must be homogeneous")
        _, components = poly_gcd(components, prime)
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, *a):
        raise AttributeError("HomogeneousTriple is immutable")

    @property
    def degree(self) -> int:
        return max(poly_degree(c) for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, HomogeneousTriple):
            return NotImplemented
        return self.prime == other.prime and projectively_equal(self, other)

    def __repr__(self):
        inner = " : ".join(format_poly3(c) for c in self.components)
        return f"[{inner}]"


def projectively_equal(f: HomogeneousTriple, g: HomogeneousTriple) -> bool:
    """Equality up to one overall scalar, by cross-multiplication."""
    ref = None
    for a, b in zip(f.components, g.components):
        if set(a) != set(b):
            return False
        for m in a:
            ref = ref or (a[m], b[m])
            d = a[m] * ref[1] - b[m] * ref[0]
            if d % f.prime if f.prime else d:
                return False
    return True


def triple(p_text: str, q_text: str, r_text: str, prime=None) -> HomogeneousTriple:
    return HomogeneousTriple([parse_poly3(t) for t in (p_text, q_text, r_text)], prime)


def parse_triple(text: str, prime=None) -> HomogeneousTriple:
    """Parse ``[y*z : z*x : x*y]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise TripleSyntaxError("triple must be bracketed, like [y*z : z*x : x*y]")
    parts = text[1:-1].split(":")
    if len(parts) != 3:
        raise TripleSyntaxError("triple needs three components")
    return triple(parts[0], parts[1], parts[2], prime)


def compose(f: HomogeneousTriple, g: HomogeneousTriple) -> HomogeneousTriple:
    """f after g, with full cancellation of the common factor."""
    if f.prime != g.prime:
        raise ValueError("mixed coefficient fields")
    if f.degree * g.degree > DEGREE_BUDGET:
        raise BudgetExceeded(
            f"composition degree {f.degree * g.degree} exceeds the budget {DEGREE_BUDGET}")
    comps = tuple(poly_eval_triple(c, g.components, f.prime) for c in f.components)
    if all(not c for c in comps):
        raise ValueError("composition is not dominant (all components vanish)")
    return HomogeneousTriple(comps, f.prime)


def jacobian(f: HomogeneousTriple):
    """The determinant of the 3x3 matrix of partial derivatives of f.  Over Q
    it vanishes identically exactly when the components are algebraically
    dependent, so f is not dominant.  J(f o g) = J(f)(g) J(g), and cancelling
    a common factor keeps a nonzero determinant nonzero, so a check on a map
    covers its iterates."""
    p = f.prime

    def partial(a, v):
        out = {}
        for m, c in a.items():
            if d := (c * m[v] % p if p else c * m[v]):
                out[m[:v] + (m[v] - 1,) + m[v + 1:]] = d
        return out

    a, b, c = ([partial(q, v) for v in range(3)] for q in f.components)
    det = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # +even, -odd permutations
        poly_add(det, poly_mul(poly_mul(a[i], b[j], p), c[k], p), p)
        poly_add(det, poly_mul(poly_mul(a[i], b[k], p), c[j], p), p, -1)
    return det


def iterate_degrees(f: HomogeneousTriple, N: int) -> tuple[list[int], bool]:
    """Exact degree sequence of the first N compositional powers.

    Returns (degrees, truncated): when a composition would blow past the
    degree or term budget the list is cut short and flagged.
    """
    out = []
    cur = f
    truncated = False
    for _ in range(N):
        out.append(cur.degree)
        if len(out) == N:
            break
        try:
            cur = compose(f, cur)
        except BudgetExceeded:
            truncated = True
            break
    return out, truncated


# -- monomial maps ----------------------------------------------------------------


class MonomialMap(NamedTuple):
    """(X, Y) -> (X^a Y^b, X^c Y^d) for an integer matrix of determinant +-1.

    :func:`monomial_map` checks the determinant; a product of two such maps
    has determinant +-1 again.
    """

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "MonomialMap") -> "MonomialMap":
        m = [[self.a * other.a + self.b * other.c, self.a * other.b + self.b * other.d],
             [self.c * other.a + self.d * other.c, self.c * other.b + self.d * other.d]]
        return MonomialMap(m[0][0], m[0][1], m[1][0], m[1][1])


def monomial_map(matrix) -> MonomialMap:
    (a, b), (c, d) = matrix
    if abs(a * d - b * c) != 1:
        raise ValueError("exponent matrix must have determinant +-1")
    return MonomialMap(a, b, c, d)


def _homogenized_exponents(f: MonomialMap) -> list[tuple]:
    """The exponents in (x, y, z) of the three monomial components of f.

    Lifting (X, Y) = (x/z, y/z) gives Laurent exponent vectors for the three
    components; adding the smallest monomial that clears every negative
    exponent leaves a common-factor-free triple.
    """
    vecs = [(f.a, f.b, -f.a - f.b), (f.c, f.d, -f.c - f.d), (0, 0, 0)]
    shift = [-min(v[t] for v in vecs) for t in range(3)]
    return [tuple(v[t] + shift[t] for t in range(3)) for v in vecs]


def monomial_degree(f: MonomialMap) -> int:
    """Plane degree via exponent homogenization, pure integer arithmetic."""
    return sum(_homogenized_exponents(f)[0])


def monomial_iterates(f: MonomialMap, N: int) -> list[int]:
    """deg(f^n) for n = 1..N via powers of the exponent matrix."""
    out = []
    cur = f
    for _ in range(N):
        out.append(monomial_degree(cur))
        cur = cur * f
    return out


def monomial_lambda(f: MonomialMap) -> float:
    """Modulus of the large eigenvalue of the exponent matrix, correctly
    rounded: the eigenvalues are the roots of x^2 - tr x + det, and negating
    tr negates them."""
    tr, det = f.a + f.d, f.a * f.d - f.b * f.c
    return salem.dominant_real_root(salem.IntPolynomial([det, -abs(tr), 1])) or 1.0
