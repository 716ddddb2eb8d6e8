import math
from functools import lru_cache, reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import LEHMER, LEHMER_POLYNOMIAL, counting
from cremlat import salem
from cremlat.salem import (
    IntPolynomial,
    SearchSpaceError,
    classify_number,
    count_real_roots,
    cyclotomic,
    dominant_real_root,
    enumerate_salem,
    format_poly,
    from_trace_poly,
    parse_poly,
    strip_cyclotomic,
    to_trace_poly,
)

PLASTIC_POLYNOMIAL = IntPolynomial([-1, -1, 0, 1])
GOLDEN_POLYNOMIAL = IntPolynomial([-1, -1, 1])


def spectral_gap_assert(lam, tol=1e-9):
    """True when lam avoids the forbidden band between 1 and the Lehmer number."""
    if lam < 1 - tol:
        raise ValueError("dynamical degrees are at least 1")
    return lam <= 1 + tol or lam >= LEHMER - tol


# -- polynomials and text -------------------------------------------------------


def test_parse_format_round_trip():
    text = "x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1"
    p = parse_poly(text)
    assert p == LEHMER_POLYNOMIAL
    assert parse_poly(format_poly(p)) == p
    assert parse_poly("x^2 - 3*x + 1").coeffs == (1, -3, 1)
    with pytest.raises(ValueError):
        parse_poly("2*x^2 - 1")  # not monic
    with pytest.raises(ValueError):
        IntPolynomial([5])


# -- roots ------------------------------------------------------------------------


def test_plastic_and_lehmer_roots():
    assert abs(dominant_real_root(PLASTIC_POLYNOMIAL) - 1.324717957244746) < 1e-10
    assert abs(dominant_real_root(LEHMER_POLYNOMIAL, 1e-13) - 1.176280818259917) < 1e-11


# -- cyclotomic stripping ------------------------------------------------------------


def test_strip_pure_cyclotomic_product():
    assert strip_cyclotomic(parse_poly("x^4 - 1")) == (None, (1, 2, 4))


def test_strip_keeps_the_interesting_part():
    rq = parse_poly("x^2 - 3*x + 1")
    assert strip_cyclotomic(rq * parse_poly("x - 1")) == (rq, (1,))
    assert strip_cyclotomic(LEHMER_POLYNOMIAL) == (LEHMER_POLYNOMIAL, ())


def test_strip_repeated_factors():
    rq = parse_poly("x^2 - 3*x + 1")
    prod = rq * cyclotomic(1) * cyclotomic(1) * cyclotomic(12)
    assert strip_cyclotomic(prod) == (rq, (1, 1, 12))


@lru_cache(maxsize=None)
def phi_by_gcd(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_orders_are_every_n_with_small_phi():
    # phi(n) >= sqrt(n/2), so n <= 2 d^2 + 2 holds every n with phi(n) <= d
    for d in range(1, 41):
        want = [(n, phi_by_gcd(n)) for n in range(1, 2 * d * d + 3) if phi_by_gcd(n) <= d]
        assert list(salem._cyclotomic_orders(d)) == want


def test_cyclotomic_at_2_is_the_value_at_2():
    for n in range(1, 131):
        assert salem._cyclotomic_at_2(n) == cyclotomic(n)(2)


def strip_by_trial_division(p):
    """Divide by every Phi_n with phi(n) <= deg p, each as often as it goes."""
    coeffs, orders = list(p.coeffs), []
    deg = p.degree
    for n in range(1, 2 * deg * deg + 3):
        if phi_by_gcd(n) > deg:
            continue
        while True:
            rest, phi = list(coeffs), cyclotomic(n).coeffs
            quotient = [0] * max(1, len(rest) - len(phi) + 1)
            for i in range(len(rest) - len(phi), -1, -1):
                quotient[i] = rest[i + len(phi) - 1]
                for j, c in enumerate(phi):
                    rest[i + j] -= quotient[i] * c
            if any(rest):
                break
            coeffs = quotient
            orders.append(n)
    return (None if len(coeffs) == 1 else IntPolynomial(coeffs)), tuple(orders)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 16), max_size=3),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_strip_cyclotomic_matches_trial_division(orders, low):
    p = product([cyclotomic(n) for n in orders] + [IntPolynomial(low + [1])])
    assert strip_cyclotomic(p) == strip_by_trial_division(p)


# -- trace transform -------------------------------------------------------------------


def test_trace_transform_round_trip():
    q = to_trace_poly(LEHMER_POLYNOMIAL)
    assert q.degree == 5
    assert from_trace_poly(q) == LEHMER_POLYNOMIAL
    with pytest.raises(ValueError):
        to_trace_poly(parse_poly("x^3 - x - 1"))


def test_real_root_counting():
    p = parse_poly("x^3 - x")  # roots -1, 0, 1
    assert count_real_roots(p, -2, 2) == 3
    assert count_real_roots(p, 0, 2) == 1
    q = parse_poly("x^2 + 1")
    assert count_real_roots(q, -10, 10) == 0


# -- the integer kernel: properties ---------------------------------------------------


def product(factors):
    """The product of a non-empty list of polynomials."""
    return reduce(IntPolynomial.__mul__, factors)


def linear(r):
    return IntPolynomial([-r, 1])


small_roots = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
endpoint = st.none() | st.integers(-8, 8)


@settings(max_examples=60, deadline=None)
@given(small_roots, st.lists(st.integers(1, 3), min_size=4, max_size=4),
       st.integers(0, 2), endpoint, endpoint)
def test_count_real_roots_counts_distinct_roots(rs, mults, k, lo, hi):
    # prod (x - r_i)^m_i (x^2 + 1)^k: only the r_i are real
    p = product([linear(r) for r, m in zip(rs, mults) for _ in range(m)]
                + [IntPolynomial([1, 0, 1])] * k)
    inside = {r for r in rs if (lo is None or r > lo) and (hi is None or r <= hi)}
    if lo is None or hi is None or lo < hi:
        assert count_real_roots(p, lo, hi) == len(inside)


@settings(max_examples=60, deadline=None)
@given(small_roots)
def test_dominant_real_root_of_integer_roots(rs):
    dom = dominant_real_root(product([linear(r) for r in rs]))
    if max(rs) > 1:
        assert abs(dom - max(rs)) < 1e-9
    else:
        assert dom is None


def test_dominant_real_root_builds_one_chain(monkeypatch):
    salem._sturm_chain.cache_clear()
    squarefree = counting(monkeypatch, salem, "squarefree_part")
    dominant_real_root(LEHMER_POLYNOMIAL)
    assert len(squarefree) == 1
    assert salem._sturm_chain.cache_info().misses == 1


# -- roots outside the unit circle ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=10))
def test_outside_and_inside_counts_add_up_to_the_degree(coeffs):
    # the roots of the reverse are the 1/z; a trivial gcd rules out |z| = 1
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    assume(len(salem._gcd(coeffs, coeffs[::-1])) == 1)
    n = len(coeffs) - 1
    assert salem._count_outside(coeffs) + salem._count_outside(coeffs[::-1]) == n


# factors without circle roots, each with its count of roots outside
COUNTED = [(GOLDEN_POLYNOMIAL, 1), (PLASTIC_POLYNOMIAL, 1), (parse_poly("x^3 - x^2 - 1"), 1),
           (parse_poly("x^2 + x + 2"), 2)]
counted = st.sampled_from(COUNTED) | st.builds(
    lambda r: (linear(r), 1), st.integers(2, 9) | st.integers(-9, -2))


@settings(max_examples=100, deadline=None)
@given(st.lists(counted, min_size=1, max_size=4))
def test_outside_count_is_additive_over_factors(factors):
    p = product([f for f, _ in factors])
    assert salem._count_outside(list(p.coeffs)) == sum(k for _, k in factors)


# -- classification -----------------------------------------------------------------------


def test_classify_the_three_reference_kinds():
    lehmer = classify_number(LEHMER_POLYNOMIAL)
    assert lehmer.kind == "salem"
    assert abs(lehmer.dominant_root - 1.176281) < 1e-6
    plastic = classify_number(PLASTIC_POLYNOMIAL)
    assert plastic.kind == "pisot"
    assert abs(plastic.dominant_root - 1.324718) < 1e-6
    rq = classify_number(parse_poly("x^2 - 3*x + 1"))
    assert rq.kind == "reciprocal_quadratic"
    assert abs(rq.dominant_root - (3 + math.sqrt(5)) / 2) < 1e-9


def test_classify_cyclotomic_and_no_root():
    assert classify_number(parse_poly("x^4 - 1")).kind == "cyclotomic_product"
    assert classify_number(parse_poly("x^2 + 3*x + 1")).kind == "no_root_gt_one"


def test_classify_is_invariant_under_cyclotomic_factors(rng):
    base = {
        "salem": LEHMER_POLYNOMIAL,
        "pisot": PLASTIC_POLYNOMIAL,
        "reciprocal_quadratic": parse_poly("x^2 - 3*x + 1"),
    }
    orders = [1, 2, 3, 4, 5, 6, 8, 12]
    for kind, poly in base.items():
        p = poly
        for n in rng.sample(orders, 3):
            p = p * cyclotomic(n)
        cls = classify_number(p)
        assert cls.kind == kind
        assert cls.stripped == poly
        assert abs(cls.dominant_root - classify_number(poly).dominant_root) < 1e-9


def test_classify_mixed_product_is_other_perron():
    cls = classify_number(PLASTIC_POLYNOMIAL * LEHMER_POLYNOMIAL)
    assert cls.kind == "other_perron"
    # x^2 - 3x + 1 holds a pair z, 1/z off the circle; the plastic factor
    # adds a second root outside
    cls = classify_number(parse_poly("x^2 - 3*x + 1") * PLASTIC_POLYNOMIAL)
    assert cls.kind == "other_perron"
    assert abs(cls.dominant_root - (3 + math.sqrt(5)) / 2) < 1e-9


def test_repeated_pisot_factor_is_pisot():
    cls = classify_number(PLASTIC_POLYNOMIAL * PLASTIC_POLYNOMIAL)
    assert cls.kind == "pisot"
    assert cls.notes == ("repeated factors; classifying the squarefree part",)
    assert abs(cls.dominant_root - 1.324718) < 1e-6


def test_reciprocity_is_exact():
    assert LEHMER_POLYNOMIAL.is_reciprocal()
    assert not PLASTIC_POLYNOMIAL.is_reciprocal()


# -- named constants --------------------------------------------------------------------------


def test_named_constants():
    lam_g, lam_p = (dominant_real_root(p, 1e-13) for p in (GOLDEN_POLYNOMIAL, PLASTIC_POLYNOMIAL))
    assert abs(lam_g - (1 + math.sqrt(5)) / 2) < 1e-12
    assert abs(lam_p ** 3 - (lam_p + 1)) < 1e-12
    assert LEHMER < lam_p < lam_g


def test_spectral_gap_assert():
    assert spectral_gap_assert(1.0)
    assert not spectral_gap_assert(1.1)
    assert spectral_gap_assert(((1 + math.sqrt(5)) / 2) ** 2)
    assert spectral_gap_assert(LEHMER)
    with pytest.raises(ValueError):
        spectral_gap_assert(0.5)


# -- enumeration ---------------------------------------------------------------------------------


def test_enumerate_salem_small_degrees():
    assert enumerate_salem(4, 1.7) == []
    found = enumerate_salem(4, 1.8)
    assert len(found) == 1
    poly, root = found[0]
    assert poly == parse_poly("x^4 - x^3 - x^2 - x + 1")
    assert abs(root - 1.7220838) < 1e-6


def test_enumerate_salem_degree_six():
    found = enumerate_salem(6, 1.45)
    assert [format_poly(p) for p, _ in found] == ["x^6 - x^4 - x^3 - x^2 + 1"]
    assert abs(found[0][1] - 1.4012684) < 1e-6


def test_enumeration_postconditions():
    found = enumerate_salem(6, 1.55)
    assert [r for _, r in found] == sorted(r for _, r in found)
    for poly, root in found:
        assert poly.is_reciprocal()
        assert 1 < root <= 1.55 + 1e-9
        assert classify_number(poly).kind == "salem"


def test_enumeration_resource_guard():
    with pytest.raises(SearchSpaceError):
        enumerate_salem(10, 1.18, node_limit=10)


def test_enumerate_salem_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_salem(5, 1.3)
    with pytest.raises(ValueError):
        enumerate_salem(4, 0.9)


# the lists found before the search ran in integers with a Descartes prefilter

LEHMER_TO_1_3 = [
    ("x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1", 1.176280818261148),
    ("x^10 - x^6 - x^5 - x^4 + 1", 1.216391661138914),
    ("x^10 - x^7 - x^5 - x^3 + 1", 1.230391434401099),
    ("x^10 - x^8 - x^5 - x^2 + 1", 1.2612309611358796),
    ("x^8 - x^5 - x^4 - x^3 + 1", 1.2806381562622846),
    ("x^10 - x^8 - x^7 + x^5 - x^3 - x^2 + 1", 1.2934859531305847),
]

DEGREE_8_TO_2 = [
    "x^8 - x^5 - x^4 - x^3 + 1",
    "x^8 - x^7 + x^6 - 2*x^5 + x^4 - 2*x^3 + x^2 - x + 1",
    "x^6 - x^4 - x^3 - x^2 + 1",
    "x^8 - x^7 - x^5 + x^4 - x^3 - x + 1",
    "x^8 - x^6 - x^5 - x^3 - x^2 + 1",
    "x^6 - x^5 - x^3 - x + 1",
    "x^8 - x^7 - x^6 + x^4 - x^2 - x + 1",
    "x^8 - 2*x^7 + 2*x^6 - 3*x^5 + 3*x^4 - 3*x^3 + 2*x^2 - 2*x + 1",
    "x^6 - x^5 - x^4 + x^3 - x^2 - x + 1",
    "x^6 - x^4 - 2*x^3 - x^2 + 1",
    "x^8 - 2*x^7 + x^6 - x^4 + x^2 - 2*x + 1",
    "x^6 - 2*x^5 + 2*x^4 - 3*x^3 + 2*x^2 - 2*x + 1",
    "x^8 - 2*x^6 - x^5 + x^4 - x^3 - 2*x^2 + 1",
    "x^8 - 2*x^7 + x^6 - x^5 + x^4 - x^3 + x^2 - 2*x + 1",
    "x^8 - x^7 - x^6 - x^2 - x + 1",
    "x^8 - x^7 - x^5 - x^4 - x^3 - x + 1",
    "x^4 - x^3 - x^2 - x + 1",
    "x^6 - x^5 - x^4 - x^2 - x + 1",
    "x^8 - x^7 - x^6 - x^4 - x^2 - x + 1",
    "x^8 - 3*x^7 + 4*x^6 - 5*x^5 + 5*x^4 - 5*x^3 + 4*x^2 - 3*x + 1",
    "x^8 - x^7 - 2*x^5 - 2*x^3 - x + 1",
    "x^8 - 2*x^7 + x^5 - x^4 + x^3 - 2*x + 1",
    "x^6 - 2*x^5 + x^3 - 2*x + 1",
    "x^8 - x^6 - 2*x^5 - 3*x^4 - 2*x^3 - x^2 + 1",
    "x^8 + x^7 - x^6 - 4*x^5 - 5*x^4 - 4*x^3 - x^2 + x + 1",
    "x^8 - x^7 - 2*x^6 + 2*x^4 - 2*x^2 - x + 1",
    "x^4 - 2*x^3 + x^2 - 2*x + 1",
    "x^8 - x^7 - x^6 - x^5 - x^3 - x^2 - x + 1",
    "x^8 - 3*x^7 + 3*x^6 - 2*x^5 + x^4 - 2*x^3 + 3*x^2 - 3*x + 1",
    "x^8 - 2*x^6 - 2*x^5 - x^4 - 2*x^3 - 2*x^2 + 1",
    "x^6 - x^5 - x^4 - x^3 - x^2 - x + 1",
    "x^8 - 2*x^7 - x^5 + 3*x^4 - x^3 - 2*x + 1",
    "x^6 - 2*x^5 - x^4 + 3*x^3 - x^2 - 2*x + 1",
    "x^6 - 2*x^5 + x^4 - 2*x^3 + x^2 - 2*x + 1",
    "x^6 - 2*x^4 - 3*x^3 - 2*x^2 + 1",
    "x^8 - 2*x^7 + x^6 - 2*x^5 + x^4 - 2*x^3 + x^2 - 2*x + 1",
]


def test_enumerate_salem_degree_ten_starts_at_lehmer():
    found = enumerate_salem(10, 1.3)
    assert [(format_poly(p), r) for p, r in found] == LEHMER_TO_1_3
    assert found[0][0] == LEHMER_POLYNOMIAL


@pytest.mark.parametrize("upper,count", [(1.4, 2), (1.428, 4), (1.5, 5), (2.0, 36)])
def test_enumerate_salem_degree_eight(upper, count):
    assert [format_poly(p) for p, _ in enumerate_salem(8, upper)] == DEGREE_8_TO_2[:count]


@pytest.mark.parametrize("upper,nodes", [(1.4, 1575), (2.0, 2010)])
def test_enumerate_salem_degree_eight_visits_the_same_tree(upper, nodes):
    enumerate_salem(8, upper, node_limit=nodes)
    with pytest.raises(SearchSpaceError):
        enumerate_salem(8, upper, node_limit=nodes - 1)


def test_every_found_polynomial_classifies_as_salem():
    # the search keeps a candidate without classify_number; the classifier
    # agrees on each found polynomial, and on the root to the last bit
    for text, root in LEHMER_TO_1_3:
        cls = classify_number(parse_poly(text))
        assert cls.kind == "salem" and cls.dominant_root == root
    for text in DEGREE_8_TO_2:
        assert classify_number(parse_poly(text)).kind == "salem"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=6))
# (y - 1)(y - 2): one sign change, and the root y = 2
@example([-3, 2])
def test_descartes_bound_never_undercounts(qcoeffs):
    # Q = y^n + q1 y^(n-1) + ... + qn: a candidate that the bound rejects
    # (bound < n - 1) has fewer than n - 1 roots in (-2, 2]
    n = len(qcoeffs)
    q = IntPolynomial([*reversed(qcoeffs), 1])
    bound = salem._band_root_bound([1] + qcoeffs, salem._descartes_rows(n))
    assert count_real_roots(q, -2, 2) <= bound
