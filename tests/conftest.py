import random

import pytest

from cremlat.lattice import points
from cremlat.weyl import WeylWord, compose, permutation, realize, sigma0, tau, word


def random_word(rng, length, pts):
    """A random word over sigma0 / tau / permutation letters."""
    letters = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            letters.append(sigma0(*rng.sample(pts, 3)))
        elif roll < 0.8:
            letters.append(tau(*rng.sample(pts, 2)))
        else:
            a, b, c, d = rng.sample(pts, 4)
            letters.append(permutation([(a, b), (c, d)]))
    return WeylWord(tuple(letters))


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
        h = compose(h, realize(word(sigma0(*t))))
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
