import random

import pytest

from cremlat.lattice import point, points
from cremlat.salem import IntPolynomial, dominant_real_root
from cremlat.weyl import Permutation, Sigma0, Tau, WeylWord, compose, realize

LEHMER_POLYNOMIAL = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
LEHMER = dominant_real_root(LEHMER_POLYNOMIAL, 1e-13)  # Lehmer's number


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


def sigma_product(*triples):
    """Realized product of quadratic involutions on the given point triples."""
    from cremlat.weyl import identity_element

    h = identity_element()
    for t in triples:
        h = compose(h, realize(word(Sigma0(*t))))
    return h


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls; returns the record."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def loxodromic_ten(pts):
    """The standard loxodromic sample: four involutions on ten points."""
    p = pts
    return sigma_product(
        (p[0], p[1], p[2]), (p[3], p[4], p[5]), (p[6], p[7], p[8]), (p[9], p[0], p[3])
    )


def power(h, n):
    """h composed with itself n >= 1 times."""
    g = h
    for _ in range(n - 1):
        g = compose(g, h)
    return g
