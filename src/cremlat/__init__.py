"""Exact lattice dynamics of plane birational transformations.

Modules:

* :mod:`cremlat.lattice` -- bubble points, sparse exact class vectors, the
  intersection form;
* :mod:`cremlat.intmat` -- small exact integer matrix kernels;
* :mod:`cremlat.weyl` -- words and integer matrices for the infinite Weyl
  group, base-point multiplicities;
* :mod:`cremlat.normalform` -- the increasing normal form of a word;
* :mod:`cremlat.roots` -- the root kernel: monic integer polynomials,
  cyclotomic stripping, Descartes counts, and the bracket of a dominant root,
  which decides signs and rounds ratios of integer polynomials at the root
  exactly;
* :mod:`cremlat.spectral` -- certified isometry classification, dynamical
  degrees, the big-power loxodromy criterion, and the exact axis: one
  resolvent pass B(z) = adj(zI - M) e0 gives the closed form
  v+- = B(lambda^+-1) / A(lambda^+-1) over Q(lambda), kept as B mod P;
* :mod:`cremlat.salem` -- polynomial classification (Salem, Pisot, ...) and
  the bounded exhaustive Salem search;
* :mod:`cremlat.bounds` -- the bound formulas of the reduction theorem;
* :mod:`cremlat.reduction` -- the quadratic-conjugation degree reduction
  loop, which carries B mod P through each conjugation;
* :mod:`cremlat.realizable` -- base-point realizability of Jonquieres
  configurations;
* :mod:`cremlat.orbits` -- truncated base-point orbits of the explicit
  quadratic-case family and their Salem spectral radii;
* :mod:`cremlat.birmap` -- a desk-scale engine for coordinate triples and
  monomial maps;
* :mod:`cremlat.cli` -- the ``cremlat`` command line.

The package root, which every command loads, holds what several layers
share: the one reader of signed sums of terms (:func:`parse_terms`, for
polynomials in x and the components of coordinate triples in x, y, z), the
one printer (:func:`join_signed`, through :func:`format_terms` for
polynomials, and for class vectors), :class:`InputSyntaxError`, on which the
command line exits 2, and the primes and Chinese remaindering of the
multimodular algorithms.
"""

__version__ = "0.1.0"

import re
from fractions import Fraction


class InputSyntaxError(ValueError):
    """Text that does not parse; the command line exits 2 on it."""


class SyntaxErrorAt(InputSyntaxError):
    """A syntax error at one position of the text, which its message ends with."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")


# one token of a signed sum of terms: a sign, n or n/d, '*', a letter with an
# optional ^exponent, or any other character, which is an error.  Compiled on
# first use and cached by re, so that a command reading no terms never compiles it
_TOKEN = r"\s*(([+-])|(\d+)(?:/(\d+))?|(\*)|([A-Za-z])(?:\s*\^\s*(\d+))?|(\S))"


def parse_terms(text: str, variables: str) -> dict:
    """The sum of signed terms in text as {exponents: Fraction}, without zero
    coefficients; the exponents follow the letters of variables.

    A term is ``[+-] [n or n/d] factor...``, a factor a variable with an
    optional ``^exponent``.  Factors are joined by ``*`` or by spaces, spaces
    may stand around ``*``, ``^`` and signs, and every term after the first
    starts with a sign.  A syntax error gives its position in text.
    """
    out = {}
    coeff, exps, prev = Fraction(1), [0] * len(variables), "start"
    pos, end, token = 0, len(text.rstrip()), re.compile(_TOKEN)
    while pos < end:
        m = token.match(text, pos)
        _, sign, num, den, star, var, exp, other = m.groups()
        at, pos = m.start(1), m.end()
        if other or var and var not in variables:
            raise SyntaxErrorAt(f"unexpected {text[at]!r}", at)
        if prev == "*" and not var:
            raise SyntaxErrorAt("expected a variable after '*'", at)
        if sign:
            if prev == "sign":
                raise SyntaxErrorAt("empty term", at)
            if prev != "start":
                _add_term(out, exps, coeff)
            coeff, exps = Fraction(-1 if sign == "-" else 1), [0] * len(variables)
        elif num:
            if prev not in ("start", "sign"):
                raise SyntaxErrorAt("missing sign before a number", at)
            if den and not int(den):
                raise SyntaxErrorAt("zero denominator", at)
            coeff *= Fraction(int(num), int(den or 1))
        elif star and prev in ("start", "sign"):
            raise SyntaxErrorAt("misplaced '*'", at)
        elif var:
            exps[variables.index(var)] += int(exp or 1)
        prev = "sign" if sign else "number" if num else "*" if star else "factor"
    if prev == "start":
        raise SyntaxErrorAt("empty polynomial", end)
    if prev == "sign":
        raise SyntaxErrorAt("empty term", end)
    if prev == "*":
        raise SyntaxErrorAt("expected a variable after '*'", end)
    _add_term(out, exps, coeff)
    return out


def _add_term(out, exps, coeff):
    key = tuple(exps)
    if value := out.get(key, 0) + coeff:
        out[key] = value
    else:
        out.pop(key, None)


def join_signed(terms) -> str:
    """The text ``a - 2*b + 3`` of (coefficient, body) pairs, each printed
    with the sign of its coefficient c as body, |c|*body, or |c| for an
    empty body; ``0`` for no pairs."""
    out = ""
    for c, body in terms:
        if body and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        out += f" {'-' if c < 0 else '+'} {body or abs(c)}"
    if not out:
        return "0"
    return ("-" if out[1] == "-" else "") + out[3:]


def format_terms(terms: dict, variables: str) -> str:
    """The text of {exponents: coefficient}, highest exponents first, which
    :func:`parse_terms` reads back."""
    return join_signed(
        (terms[m], "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, m) if e))
        for m in sorted(terms, reverse=True))


DEFAULT_PRIME = 4611686018427387847  # 62-bit prime


def primes():
    """The primes from DEFAULT_PRIME down to 2^61, by Miller-Rabin, exact below 3.1e23."""
    for n in range(DEFAULT_PRIME, 1 << 61, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
        xs = (pow(b, (n - 1) >> s, n) for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
        if all(x == 1 or any(pow(x, 1 << i, n) == n - 1 for i in range(s)) for x in xs):
            yield n


def crt(residues, modulus, image, prime):
    """Chinese remaindering, elementwise, of residues modulo modulus and an
    image modulo prime: (the residues modulo modulus * prime, that product)."""
    inv = pow(modulus, -1, prime)
    return [r + modulus * ((x - r) * inv % prime) for r, x in zip(residues, image)], modulus * prime

