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
"""

from functools import lru_cache

import pytest

from conftest import LEHMER_POLYNOMIAL, coxeter_generators
from cremlat import intmat
from cremlat.reduction import averaged_noether_check
from cremlat.salem import IntPolynomial, classify_number, format_poly
from cremlat.weyl import WeylWord, noether_report, realize
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
    assert averaged_noether_check(h).ok
