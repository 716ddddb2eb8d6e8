"""Coxeter elements of W(E_n): the spectral gap and a Pisot limit, checked
across the lattice, characteristic-polynomial, Salem and Noether layers.

w_n is the product of the n generators of ``coxeter_generators(n)``.  Its
characteristic polynomial is (x - 1) E_n(x) with
(x - 1) E_n(x) = x^(n-2) (x^3 - x - 1) + x^3 + x^2 - 1 (McMullen, "Coxeter
groups, Salem numbers and the Hilbert metric", Publ. IHES 2002); w_n is
realized by automorphisms of rational surfaces (McMullen, IHES 2007), so
lambda(w_n) is a dynamical degree.  lambda(w_10) is Lehmer's number, and
lambda(w_n) increases to the plastic number, the smallest Pisot number, the
root of x^3 - x - 1.

The census of W(E_10) checks the same generators as a group: the number of
its elements of each length through 7, and Lehmer's number on every Coxeter
element, the least dynamical degree above 1 in W(E_n), n >= 10 (McMullen,
Publ. IHES 2002).
"""

import itertools
from functools import lru_cache

import pytest

from conftest import LEHMER, LEHMER_POLYNOMIAL, averaged_noether_margins, coxeter_generators
from paper_checks import averaged_noether_check, noether_report
from cremlat import intmat
from cremlat.roots import IntPolynomial, format_poly
from cremlat.salem import classify_number
from cremlat.spectral import classify, dynamical_degree
from cremlat.weyl import WeylWord, _left_multiply, realize
from test_salem import LEHMER_TO_1_3, PLASTIC_POLYNOMIAL

RANGE = range(10, 21)


@lru_cache(maxsize=None)
def coxeter_element(n):
    """(w_n realized, its characteristic polynomial)."""
    h = realize(WeylWord(tuple(g for w in coxeter_generators(n) for g in w.letters)))
    return h, IntPolynomial(intmat.charpoly(h.matrix))


def closed_form(n):
    """(x - 1) E_n(x) = x^(n+1) - x^(n-1) - x^(n-2) + x^3 + x^2 - 1, ascending."""
    c = [0] * (n + 2)
    for exp, a in ((n + 1, 1), (n - 1, -1), (n - 2, -1), (3, 1), (2, 1), (0, -1)):
        c[exp] += a
    return IntPolynomial(c)


@pytest.mark.parametrize("n", RANGE)
def test_charpoly_is_the_closed_form(n):
    h, charpoly = coxeter_element(n)
    assert len(h.support) == n
    assert charpoly == closed_form(n)


def test_degrees_rise_to_the_plastic_number():
    plastic = classify_number(PLASTIC_POLYNOMIAL)
    assert plastic.kind == "pisot"
    found = [classify_number(coxeter_element(n)[1]) for n in RANGE]
    assert {c.kind for c in found} == {"salem"}
    lams = [c.dominant_root for c in found]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert lams[-1] < plastic.dominant_root
    # the spectral gap: w_10 has Lehmer's number, exactly
    assert found[0].stripped == LEHMER_POLYNOMIAL


def test_salem_factors_are_found_by_the_degree_ten_search():
    # LEHMER_TO_1_3 is what enumerate_salem(10, 1.3) returns (test_salem)
    listed = [p for p, _ in LEHMER_TO_1_3]
    factors = [format_poly(classify_number(coxeter_element(n)[1]).stripped)
               for n in range(10, 15)]
    assert set(factors) <= set(listed)
    assert factors[0] == listed[0]


@pytest.mark.parametrize("n", RANGE)
def test_noether_identities_hold(n):
    h, _ = coxeter_element(n)
    assert noether_report(h).ok
    rep = averaged_noether_check(h)
    margins, _ = averaged_noether_margins(h)
    assert (rep.sum_sq_ok, rep.triple_ok) == tuple(m > 0 for m in margins) == (True, True)
    assert rep.ok


# -- the census of W(E_10) --------------------------------------------------------

# the number of elements of each length, Steinberg's formula for the T(2, 3, 7)
# diagram (Humphreys, "Reflection groups and Coxeter groups", 1990, ch. 5)
GROWTH_SERIES = [1, 10, 54, 210, 660, 1782, 4290, 9439]


def test_growth_series_through_length_seven():
    gens = coxeter_generators(10)
    support = sorted(set().union(*(g.support() for g in gens)))
    at = {p: i + 1 for i, p in enumerate(support)}
    # the realized elements of length <= 2 are those of the row operations below
    short = {realize(WeylWord(())), *(realize(g) for g in gens),
             *(realize(g * h) for g in gens for h in gens)}
    assert len(short) == sum(GROWTH_SERIES[:3])
    # a generator times an element of length k has length k +- 1
    previous, layer, counts = set(), {tuple(map(tuple, intmat.identity(11)))}, [1]
    while len(counts) < len(GROWTH_SERIES):
        products = set()
        for rows in layer:
            for g in gens:
                moved = [list(r) for r in rows]
                _left_multiply(g, moved, at)
                products.add(tuple(map(tuple, moved)))
        previous, layer = layer, products - previous
        counts.append(len(layer))
    assert counts == GROWTH_SERIES


def test_every_coxeter_element_has_lehmers_number():
    # the T(2, 3, 7) diagram joins the generators that do not commute; it is a
    # tree, so each of its 2^9 acyclic orientations is a distinct Coxeter element
    gens = coxeter_generators(10)
    edges = [(i, j) for i, j in itertools.combinations(range(10), 2)
             if realize(gens[i] * gens[j]) != realize(gens[j] * gens[i])]
    assert len(edges) == 9
    elements = set()
    for heads in itertools.product((0, 1), repeat=len(edges)):
        # each edge points from the generator applied first, on the right
        before = {(e[1 - h], e[h]) for e, h in zip(edges, heads)}
        order = []
        while len(order) < 10:
            order.append(next(i for i in range(10) if i not in order
                              and all(a in order for a, b in before if b == i)))
        h = realize(WeylWord(tuple(gens[i].letters[0] for i in reversed(order))))
        assert classify(h).is_loxodromic
        assert dynamical_degree(h) == LEHMER == 1.1762808182599176
        assert noether_report(h).ok
        elements.add(h)
    assert len(elements) == 2 ** 9
