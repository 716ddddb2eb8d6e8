import math
import time
from fractions import Fraction
from functools import lru_cache, reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import LEHMER, LEHMER_POLYNOMIAL, counting
from cremlat import roots, salem
from cremlat.roots import (
    IntPolynomial,
    count_real_roots,
    cyclotomic,
    dominant_real_root,
    format_poly,
    strip_cyclotomic,
)
from cremlat.salem import (
    SearchSpaceError,
    classify_number,
    enumerate_salem,
    from_trace_poly,
    parse_poly,
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
    assert abs(dominant_real_root(LEHMER_POLYNOMIAL) - 1.176280818259917) < 1e-11


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
        assert list(roots._cyclotomic_orders(d)) == want


def test_cyclotomic_at_2_is_the_value_at_2():
    for n in range(1, 131):
        assert roots._cyclotomic_at_2(n) == cyclotomic(n)(2)


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
    # with all roots real, the first Descartes count on (-2, 2) is 3, so
    # the count halves the interval
    assert roots._variations(p.coeffs, -2, 2, 1) == 3
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
endpoint = st.integers(-8, 8)  # -8 and 8 lie beyond every root


@settings(max_examples=60, deadline=None)
@given(small_roots, st.lists(st.integers(1, 3), min_size=4, max_size=4),
       st.integers(0, 2), endpoint, endpoint)
def test_count_real_roots_counts_distinct_roots(rs, mults, k, lo, hi):
    # prod (x - r_i)^m_i (x^2 + 1)^k: only the r_i are real
    p = product([linear(r) for r, m in zip(rs, mults) for _ in range(m)]
                + [IntPolynomial([1, 0, 1])] * k)
    inside = {r for r in rs if lo < r <= hi}
    if lo < hi:
        assert count_real_roots(p, lo, hi) == len(inside)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(1, 3), min_size=4, max_size=4), st.integers(1, 12),
       endpoint, endpoint)
# both ends at a root, and a repeated root at Phi_1's
@example([1, 2], [3, 2, 1, 1], 1, 1, 2)
@example([-1, 3], [2, 3, 1, 1], 2, -1, 3)
# the remainder sequence ends in -(x + 3)
@example([-3], [2, 1, 1, 1], 3, -3, 8)
def test_squarefree_part_and_counts_of_repeated_roots(rs, mults, n, lo, hi):
    # prod (x - r_i)^m_i Phi_n: Phi_1 = x - 1 and Phi_2 = x + 1 add a real root
    p = product([linear(r) for r, m in zip(rs, mults) for _ in range(m)] + [cyclotomic(n)])
    distinct = set(rs) | {1: {1}, 2: {-1}}.get(n, set())
    want = product([linear(r) for r in sorted(distinct)] + [cyclotomic(n)] * (n > 2))
    assert roots.squarefree_part(p) == want
    inside = {r for r in distinct if lo < r <= hi}
    if lo < hi:
        assert count_real_roots(p, lo, hi) == len(inside)


@settings(max_examples=60, deadline=None)
@given(small_roots)
def test_dominant_real_root_of_integer_roots(rs):
    dom = dominant_real_root(product([linear(r) for r in rs]))
    if max(rs) > 1:
        assert abs(dom - max(rs)) < 1e-9
    else:
        assert dom is None


def test_classify_number_builds_one_remainder_sequence_of_p_and_p_prime(monkeypatch):
    # the squarefree part and lambda's isolation share gcd(p, p'); the
    # layout test reads the sequence of the trace polynomial at +-infinity
    roots.squarefree_part.cache_clear()
    kernel = counting(monkeypatch, roots, "_remainders")
    layer = counting(monkeypatch, salem, "_remainders")
    assert classify_number(LEHMER_POLYNOMIAL).kind == "salem"
    p, q = LEHMER_POLYNOMIAL.coeffs, to_trace_poly(LEHMER_POLYNOMIAL).coeffs
    assert kernel == [(p, roots._primitive(roots._deriv(p)))]
    assert layer == [(q, roots._primitive(roots._deriv(q)))]


def test_a_huge_coefficient_starts_the_bracket_near_lambda():
    # Cauchy's bound 1 + 10^300 left about 1,000 halvings; the power of two
    # above Fujiwara's bound, 2 << ceil(997 / 99) = 4096, leaves about 50
    p = IntPolynomial([-1, -10 ** 300] + [0] * 98 + [1])
    assert roots.RootBracket(p.coeffs).b == 4096
    start = time.perf_counter()
    lam = dominant_real_root(p)
    assert time.perf_counter() - start < 1
    assert lam == 1072.2672220103232


# a factor with a root above 1: Salem, Pisot, or a random monic one, whose
# roots lie below 1 + 9 (Cauchy)
ABOVE_ONE = [LEHMER_POLYNOMIAL, parse_poly("x^4 - x^3 - x^2 - x + 1"),
             parse_poly("x^8 - x^5 - x^4 - x^3 + 1"), GOLDEN_POLYNOMIAL, PLASTIC_POLYNOMIAL,
             parse_poly("x^3 - x^2 - 1")]
above_one = st.sampled_from(ABOVE_ONE) | st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
    lambda c: IntPolynomial(c + [1])).filter(lambda p: count_real_roots(p, 1, 10) > 0)


@settings(max_examples=100, deadline=None)
@given(above_one, st.lists(st.integers(1, 12), max_size=2))
# a root at the tie of two floats rounds to the even one: 2^53 and 2^53 + 4
@example(linear(2 ** 53 + 1), [])
@example(linear(2 ** 53 + 3), [1])
# (x - 1)(x + 10^7) - 1 has a root at 1 + 1e-7 and, times x - 1, a root at 1
@example(IntPolynomial([-10 ** 7 - 1, 10 ** 7 - 1, 1]), [1])
# three roots above 1, which Descartes' rule parts before the signs round
@example(product([linear(2), linear(3), linear(5)]), [])
# the largest root, 4, on a midpoint: of (1, 7], which holds 3 too, and,
# for (x - 2)(x - 4), of (3, 5], which holds 4 alone
@example(product([linear(3), linear(4)]), [])
@example(product([linear(2), linear(4)]), [])
def test_dominant_real_root_is_correctly_rounded(f, orders):
    # with up to two cyclotomic factors, the float nearest to the largest root
    p = product([f] + [cyclotomic(n) for n in orders])
    lam = dominant_real_root(p)
    half = Fraction(math.ulp(lam)) / 2
    sf = roots.squarefree_part(p)
    assert sf(Fraction(lam) - half) * sf(Fraction(lam) + half) <= 0
    assert count_real_roots(p, Fraction(lam) + half, 1 + max(map(abs, p.coeffs))) == 0


# -- roots outside the unit circle ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=10))
def test_outside_and_inside_counts_add_up_to_the_degree(coeffs):
    # the roots of the reverse are the 1/z; a trivial gcd rules out |z| = 1
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    assume(len(roots._remainders(coeffs, coeffs[::-1])[-1]) == 1)
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
    lam_g, lam_p = (dominant_real_root(p) for p in (GOLDEN_POLYNOMIAL, PLASTIC_POLYNOMIAL))
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


def test_enumeration_resource_guard(monkeypatch):
    monkeypatch.setattr(salem, "NODE_LIMIT", 10)
    with pytest.raises(SearchSpaceError, match="^search space exceeded 10 nodes; tighten"):
        enumerate_salem(10, 1.18)


def test_enumerate_salem_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_salem(5, 1.3)
    with pytest.raises(ValueError):
        enumerate_salem(4, 0.9)


# the lists found before the search ran in integers with a Descartes prefilter

LEHMER_TO_1_3 = [
    ("x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1", 1.1762808182599176),
    ("x^10 - x^6 - x^5 - x^4 + 1", 1.216391661138265),
    ("x^10 - x^7 - x^5 - x^3 + 1", 1.2303914344072246),
    ("x^10 - x^8 - x^5 - x^2 + 1", 1.2612309611371388),
    ("x^8 - x^5 - x^4 - x^3 + 1", 1.2806381562677576),
    ("x^10 - x^8 - x^7 + x^5 - x^3 - x^2 + 1", 1.2934859531254541),
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


# the nodes are the inner ones and the candidates for the last coefficient
@pytest.mark.parametrize("upper,nodes", [(1.4, 1963), (2.0, 4286)])
def test_enumerate_salem_degree_eight_visits_the_same_tree(upper, nodes, monkeypatch):
    monkeypatch.setattr(salem, "NODE_LIMIT", nodes)
    enumerate_salem(8, upper)
    monkeypatch.setattr(salem, "NODE_LIMIT", nodes - 1)
    with pytest.raises(SearchSpaceError):
        enumerate_salem(8, upper)


def test_the_last_coefficient_counts_against_the_node_limit(monkeypatch):
    # about 10^4 inner nodes, but about 10^8 candidates for the last coefficient
    monkeypatch.setattr(salem, "NODE_LIMIT", 10_000)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError):
        enumerate_salem(4, 10000.0)
    assert time.perf_counter() - start < 1


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


# -- the Sturm count, the reference for Descartes' rule --------------------------------


def sturm_count(p, lo, hi):
    """p's distinct real roots in (lo, hi], by Sturm's theorem on one remainder
    sequence of p and p' divided by its last member, gcd(p, p')."""
    seq = roots._remainders(p.coeffs, roots._primitive(roots._deriv(p.coeffs)))
    g = seq[-1] if seq[-1][-1] > 0 else [-c for c in seq[-1]]
    chain = [roots._divmod_monic(c, g)[0] for c in seq]

    def changes(x):
        x = Fraction(x)
        return roots._changes(roots._sign_at(c, x.numerator, x.denominator) for c in chain)

    return changes(lo) - changes(hi)


def sturm_layout(q):
    """Whether q has n - 1 distinct roots in (-2, 2], one above 2 and none at
    or below -2, by Sturm counts inside Cauchy's bound."""
    bound = 1 + max(map(abs, q.coeffs))
    return (sturm_count(q, -2, 2) == q.degree - 1 and sturm_count(q, 2, bound) == 1
            and sturm_count(q, -bound, -2) == 0)


# products of real roots near the band [-2, 2] (repeated, or at +-2), of
# pairs of complex roots (x - b)^2 + c, and of random monic factors
real_root = st.integers(-4, 4).map(linear)
complex_pair = st.tuples(st.integers(-3, 3), st.integers(1, 4)).map(
    lambda bc: IntPolynomial([bc[0] ** 2 + bc[1], -2 * bc[0], 1]))
random_monic = st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(
    lambda c: IntPolynomial(c + [1]))
factored = st.lists(real_root | complex_pair | random_monic, min_size=1, max_size=4).map(product)
rational_end = st.fractions(-8, 8, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12), st.integers(-99, 99))
@example([3, -2, 5, 1], 1)  # the shift by 1 adds without multiplying
def test_taylor_shift_is_the_nested_horner_loop(coeffs, t):
    # pass i adds t times each coefficient to the one below it, from the top
    want = list(coeffs)
    for i in range(len(want) - 1):
        for j in range(len(want) - 2, i - 1, -1):
            want[j] += t * want[j + 1]
    assert roots._shift(coeffs, t) == want
    assert roots._shift(tuple(coeffs), t) == want


@settings(max_examples=200, deadline=None)
@given(factored, rational_end, rational_end)
# three roots in (-2, 2): the first Descartes count is 3, so the interval
# is halved, and the midpoint 0 is a root
@example(product([linear(-1), linear(0), linear(1)]), Fraction(-2), Fraction(2))
# roots at both ends, one of them repeated, and a complex pair
@example(product([linear(2), linear(2), linear(-2), IntPolynomial([2, 2, 1])]),
         Fraction(-2), Fraction(2))
# Mignotte's x^4 - 2(10x - 1)^2: two roots near 1/10, about 0.0014 apart
@example(IntPolynomial([-2, 40, -200, 0, 1]), Fraction(0), Fraction(1))
def test_count_real_roots_agrees_with_the_sturm_count(p, lo, hi):
    assume(lo < hi)
    assert count_real_roots(p, lo, hi) == sturm_count(p, lo, hi)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([to_trace_poly(parse_poly(text)) for text, _ in LEHMER_TO_1_3])
       | st.lists(real_root, min_size=1, max_size=5).map(product) | factored)
@example(to_trace_poly(LEHMER_POLYNOMIAL))
# a root at 2 keeps the layout, a root at -2 or a repeated root breaks it
@example(product([linear(0), linear(2), linear(3)]))
@example(product([linear(-2), linear(0), linear(3)]))
@example(product([linear(1), linear(1), linear(3)]))
# the right signs at +-2, but a complex pair in place of two band roots
@example(product([linear(3), IntPolynomial([1, 0, 1])]))
def test_salem_layout_agrees_with_the_sturm_counts(q):
    assert salem._salem_layout(q) == sturm_layout(q)
