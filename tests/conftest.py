import random
from fractions import Fraction
from functools import cached_property

import mpmath
import pytest

from paper_checks import noether_identity, points
from cremlat.intmat import charpoly
from cremlat.lattice import ClassVector, point
from cremlat.roots import IntPolynomial, dominant_real_root
from cremlat.spectral import dynamical_degree
from cremlat.weyl import (
    Permutation, Sigma0, Tau, WeylWord, compose, multiplicity_profile, realize,
)

LEHMER_POLYNOMIAL = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
LEHMER = dominant_real_root(LEHMER_POLYNOMIAL)  # Lehmer's number


def word(*letters):
    """The word of the given letters, the leftmost applied last."""
    return WeylWord(tuple(letters))


def random_word(rng, length, pts):
    """A random word over Sigma0 / Tau / Permutation letters."""
    letters = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            letters.append(Sigma0(*rng.sample(pts, 3)))
        elif roll < 0.8:
            letters.append(Tau(*rng.sample(pts, 2)))
        else:
            a, b, c, d = rng.sample(pts, 4)
            letters.append(Permutation(((a, b), (c, d))))
    return WeylWord(tuple(letters))


def coxeter_generators(n):
    """The n standard involutions on n fresh points.

    s0 is the quadratic involution on the first three points and s_i swaps
    points i and i+1; the realized matrices satisfy the Coxeter relations of
    the T(2, 3, n-3) diagram.
    """
    pts = [point(label=f"c{i + 1}") for i in range(n)]
    gens = [word(Sigma0(pts[0], pts[1], pts[2]))]
    for i in range(n - 1):
        gens.append(word(Tau(pts[i], pts[i + 1])))
    return gens


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def pts12():
    return points(12)


def identity_element():
    """The identity, on no points: the matrix of the empty word."""
    return realize(WeylWord(()))


def sigma_product(*triples):
    """Realized product of quadratic involutions on the given point triples."""
    h = identity_element()
    for t in triples:
        h = compose(h, realize(word(Sigma0(*t))))
    return h


def axis_floats(data):
    """The three float fields of spectral.LoxodromicData, by name; the
    columns of the axis are exact, and the carried ones differ from those of
    a fresh resolvent pass by a factor in Q(lambda)."""
    return {name: getattr(data, name) for name in ("lam", "vplus_dot_vminus", "cosh_axis_distance")}


def mp_fraction(x):
    """The mpmath float x as an exact Fraction."""
    x = mpmath.mpf(x)
    man, exp = x.man_exp  # the mantissa without its sign
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def mp_root(coeffs, guess):
    """The simple root of the integer polynomial (ascending coefficients)
    nearest the float guess, at the working precision: Newton's method
    doubles the about 16 correct digits of the guess at each of 8 steps."""
    p = list(coeffs)[::-1]
    dp = [c * (len(p) - 1 - i) for i, c in enumerate(p)][:-1]
    x = mpmath.mpf(guess)
    for _ in range(8):
        x -= mpmath.polyval(p, x) / mpmath.polyval(dp, x)
    return x


def averaged_noether_margins(h):
    """The two inequalities of paper_checks.averaged_noether_check as the
    signs of their margins, sum c_i^2 - (d^2 - 1) + s and lhs - rhs + s of
    paper_checks.noether_identity on the c_i, with
    s = (d/2)(1/lambda + lambda + 2) in 80 digits, lambda refined from its
    float on chi.  Returns ((margin, margin), s)."""
    prof = multiplicity_profile(h)
    d = prof.degree
    c, lhs, rhs = noether_identity(d, prof.c)
    with mpmath.workdps(80):
        lam = mp_root(charpoly(h.matrix), dynamical_degree(h))
        s = mpmath.mpf(d) / 2 * (1 / lam + lam + 2)

        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        return (mp(sum(x * x for x in c) - (d * d - 1)) + s, mp(lhs - rhs) + s), s


def axis_vectors(data):
    """(v+, v-) as ClassVectors of Fractions within about 10^-55 of their
    values: the axis columns at lambda and 1/lambda, in 60 digits."""
    with mpmath.workdps(60):
        lam = mp_root(data.bracket.poly, data.lam)
        pts = {p for c in data.columns for p in c.point_coeffs}
        out = []
        for z in (lam, 1 / lam):
            def at(f):
                return mpmath.polyval(f[::-1], z)

            c0 = at([c.e0 for c in data.columns])
            out.append(ClassVector(1, {p: mp_fraction(at([c.coeff(p) for c in data.columns]) / c0)
                                       for p in pts}))
        return tuple(out)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls; returns the record."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def counting_property(monkeypatch, cls, name):
    """Replace the cached property cls.name by one that records each instance
    it is computed for; returns the record."""
    calls = []
    orig = vars(cls)[name].func

    def counted(self):
        calls.append(self)
        return orig(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def berkowitz(a):
    """Oracle: det(xI - A) ascending, by the division-free Berkowitz
    algorithm, exact for int or Fraction entries."""
    n = len(a)
    if n == 0:
        return [1]
    # descending coefficient vector of the leading 1x1 block: x - a00
    vec = [1, -a[0][0]]
    for i in range(1, n):
        # grow to the (i+1)x(i+1) leading block with corner a[i][i]
        row = a[i][:i]
        col = [a[t][i] for t in range(i)]
        sub = [r[:i] for r in a[:i]]
        # first column of the Berkowitz Toeplitz matrix:
        # [1, -a_ii, -row.col, -row.sub.col, -row.sub^2.col, ...]
        toep = [1, -a[i][i]]
        w = col
        for _ in range(i):
            toep.append(-sum(x * y for x, y in zip(row, w)))
            w = [sum(x * y for x, y in zip(r, w)) for r in sub]
        # truncated convolution: new[k] = sum_j vec[j] * toep[k - j]
        new = [0] * (i + 2)
        for j, vj in enumerate(vec):
            if vj:
                for t in range(min(len(toep), i + 2 - j)):
                    new[j + t] += vj * toep[t]
        vec = new
    return vec[::-1]


def loxodromic_ten(pts):
    """The standard loxodromic sample: four involutions on ten points."""
    p = pts
    return sigma_product(
        (p[0], p[1], p[2]), (p[3], p[4], p[5]), (p[6], p[7], p[8]), (p[9], p[0], p[3])
    )


def axis_point(data):
    """The projection of e0 to the axis, E = (cosh / 2)(v+ + v-)."""
    v_plus, v_minus = axis_vectors(data)
    return (data.cosh_axis_distance / 2) * (v_plus + v_minus)


def norm_sq(v):
    """Squared Euclidean norm a0^2 + sum a_p^2 (not the intersection form)."""
    return v.e0 * v.e0 + sum(c * c for c in v.point_coeffs.values())


def power(h, n):
    """h composed with itself n >= 1 times."""
    g = h
    for _ in range(n - 1):
        g = compose(g, h)
    return g
