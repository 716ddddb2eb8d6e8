import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    LEHMER,
    axis_point,
    counting,
    coxeter_generators,
    identity_element,
    loxodromic_ten,
    norm_sq,
    power,
    random_word,
    sigma_product,
    word,
)
from cremlat import intmat, spectral
from cremlat.bounds import LOXODROMY_CONSTANT
from cremlat.lattice import ClassVector, e0, intersect, points
from cremlat.salem import IntPolynomial
from cremlat.spectral import (
    LoxodromicData,
    axis_data,
    axis_displacement_check,
    classify,
    cosh_distance_to_axis,
    criterion_degrees,
    dynamical_degree,
    loxodromy_criterion,
    spectrum_report,
)
from cremlat.weyl import (
    Sigma0,
    apply,
    compose,
    degree,
    inverse,
    realize,
)


def degree_sequence(h, N):
    """Exact e0 . h^n(e0) for n = 1..N by iterated integer products: the
    degree-growth oracle."""
    v = [1] + [0] * (len(h.matrix) - 1)
    out = []
    for _ in range(N):
        v = intmat.mat_vec(h.matrix, v)
        out.append(v[0])
    return out


def growth_type_oracle(h, N=60):
    """Independent growth-fitting cross-check on the exact degree sequence.

    Not used by classify(): decides bounded, linear, quadratic, or
    exponential growth from e0 . h^n(e0), n <= N.
    """
    seq = degree_sequence(h, N)
    if max(seq[N // 2:]) <= max(seq[: N // 2]):
        return "bounded"
    ratio = (seq[-1] / seq[N // 2]) ** (1.0 / (N - N // 2 - 1))
    if ratio > 1.05:
        return "exponential"
    p = math.log(seq[-1] / seq[N // 4]) / math.log((N) / (N // 4 + 1))
    return "linear" if p < 1.5 else "quadratic"


def coxeter_element():
    gens = coxeter_generators(10)
    h = realize(gens[0])
    for w in gens[1:]:
        h = compose(h, realize(w))
    return h


# -- classification -----------------------------------------------------------


def test_sigma0_is_elliptic():
    p = points(3)
    cls = classify(realize(word(Sigma0(*p))))
    assert cls.kind == "elliptic"


def test_small_sigma_products_are_elliptic():
    # products of two quadratic involutions live in a finite reflection
    # group whenever they touch at most eight points, so both the shared
    # and the disjoint configuration have periodic degree sequences
    p = points(6)
    shared = sigma_product((p[0], p[1], p[2]), (p[0], p[3], p[4]))
    disjoint = sigma_product((p[0], p[1], p[2]), (p[3], p[4], p[5]))
    assert degree_sequence(shared, 6) == [3, 1, 3, 1, 3, 1]
    assert degree_sequence(disjoint, 6) == [4, 4, 1, 4, 4, 1]
    assert classify(shared).kind == "elliptic"
    assert classify(disjoint).kind == "elliptic"
    assert growth_type_oracle(shared) == "bounded"
    assert growth_type_oracle(disjoint) == "bounded"


def test_nine_point_product_is_halphen_parabolic():
    p = points(9)
    h = sigma_product((p[0], p[1], p[2]), (p[3], p[4], p[5]), (p[6], p[7], p[8]))
    cls = classify(h)
    assert cls.kind == "parabolic_quadratic"
    assert growth_type_oracle(h) == "quadratic"
    assert dynamical_degree(h) == 1.0


def test_ten_point_product_is_loxodromic(pts12):
    h = loxodromic_ten(pts12)
    cls = classify(h)
    assert cls.kind == "loxodromic"
    assert growth_type_oracle(h) == "exponential"
    assert dynamical_degree(h) > 1


def test_classification_matches_growth_oracle(rng):
    pts = points(11)
    kinds = {"elliptic": "bounded", "parabolic_quadratic": "quadratic",
             "parabolic_linear": "linear", "loxodromic": "exponential"}
    for _ in range(40):
        h = realize(random_word(rng, rng.randint(1, 12), pts))
        assert kinds[classify(h).kind] == growth_type_oracle(h)


# -- dynamical degree -----------------------------------------------------------


def test_dynamical_degree_of_involution_is_exactly_one():
    p = points(3)
    assert dynamical_degree(realize(word(Sigma0(*p)))) == 1.0


def test_coxeter_element_realizes_the_lehmer_number():
    lam = dynamical_degree(coxeter_element(), 1e-12)
    assert abs(lam - LEHMER) < 1e-10


def test_no_degree_in_the_gap(rng):
    pts = points(11)
    for _ in range(100):
        h = realize(random_word(rng, rng.randint(1, 20), pts))
        lam = dynamical_degree(h)
        assert lam == 1.0 or lam >= LEHMER - 1e-9


def test_conjugacy_and_inverse_invariance(pts12, rng):
    h = loxodromic_ten(pts12)
    lam = dynamical_degree(h)
    assert abs(dynamical_degree(inverse(h)) - lam) < 1e-9
    g = realize(random_word(rng, 4, pts12))
    assert abs(dynamical_degree(compose(compose(g, h), inverse(g))) - lam) < 1e-9


def test_translation_length_below_displacement(pts12):
    h = loxodromic_ten(pts12)
    assert math.log(dynamical_degree(h)) <= math.acosh(degree(h)) + 1e-12


# -- degree sequences -------------------------------------------------------------


def test_degree_sequence_examples():
    p = points(3)
    s = realize(word(Sigma0(*p)))
    assert degree_sequence(s, 6) == [2, 1, 2, 1, 2, 1]
    assert degree_sequence(identity_element(), 4) == [1, 1, 1, 1]


def test_degree_sequence_converges_to_lambda(pts12):
    # deg(h^n) ~ c lambda^n with c comparable to the axis distance, so the
    # n-th root misses lambda by about lambda*log(c)/n while successive
    # ratios converge geometrically; both rates are asserted here
    h = loxodromic_ten(pts12)
    lam = dynamical_degree(h)
    c = axis_data(h).cosh_axis_distance
    seq = degree_sequence(h, 200)
    envelope = lam * (2 * math.log(c) + 0.5) / 200  # deg(h^n) ~ (cosh^2/2) lambda^n
    assert abs(seq[-1] ** (1 / 200) - lam) < envelope
    assert abs(seq[-1] / seq[-2] - lam) < 1e-9


def test_degree_submultiplicativity(pts12):
    h = loxodromic_ten(pts12)
    seq = degree_sequence(h, 24)
    for n in range(1, 12):
        for m in range(1, 12):
            assert seq[n + m - 1] <= seq[n - 1] * seq[m - 1]


# -- eigenvectors and the axis -----------------------------------------------------


def test_axis_data_rejects_non_loxodromic():
    p = points(3)
    with pytest.raises(ValueError):
        axis_data(realize(word(Sigma0(*p))))


def test_axis_data_quality(pts12):
    h = loxodromic_ten(pts12)
    data = axis_data(h, 1e-9)
    lam, d = data.lam, degree(h)
    assert data.residual_plus < 1e-9 and data.residual_minus < 1e-9
    assert abs(intersect(data.v_plus, data.v_plus)) < 1e-9
    assert abs(intersect(data.v_minus, data.v_minus)) < 1e-9
    assert abs(intersect(axis_point(data), axis_point(data)) - 1) < 1e-9
    assert data.cosh_axis_distance >= 1
    # the eigenvector normalization v . e0 = 1
    assert data.v_plus.e0 == 1.0 and data.v_minus.e0 == 1.0
    # sandwich between degree and dynamical degree
    assert math.sqrt(2 * d / (1 / lam + lam + 2)) < data.cosh_axis_distance
    assert data.cosh_axis_distance < 2 * d / (lam - 1 / lam)
    # eigenvector approximation by normalized images of e0
    hinv_e0 = apply(inverse(h), e0())
    assert math.sqrt(norm_sq(Fraction(1, d) * hinv_e0 - data.v_minus)) < math.sqrt(2 / (lam * d))
    h_e0 = apply(h, e0())
    assert math.sqrt(norm_sq(Fraction(1, d) * h_e0 - data.v_plus)) < math.sqrt(2 / (lam * d))
    # the pairing bounds
    assert (lam - 1 / lam) ** 2 / (2 * d * d) < data.vplus_dot_vminus < (1 / lam + lam + 2) / d


def test_axis_data_at_large_lambda():
    # float error in the residual grows with lambda; h0^20 has lambda ~ 3.1e7
    h0 = loxodromic_ten(points(10))
    h = identity_element()
    for _ in range(20):
        h = compose(h, h0)
    data = axis_data(h)
    assert 3.0e7 < data.lam < 3.2e7
    assert max(data.residual_plus, data.residual_minus) < 1e-9 * data.lam
    assert data.v_plus.e0 == 1.0 and data.v_minus.e0 == 1.0


def neighbour_sums(f):
    """(f + its lower neighbour, f + its upper neighbour), exact: the float
    f >= 0 is nearest to x >= 0 when 2 x lies between them."""
    return tuple(Fraction(f) + Fraction(math.nextafter(f, t)) for t in (0, math.inf))


def nearest_root(q):
    """The float nearest sqrt(q) for a rational q >= 0, by exact bracketing."""
    f = math.sqrt(q)
    while True:
        lo, hi = neighbour_sums(f)
        if hi ** 2 < 4 * q:
            f = math.nextafter(f, math.inf)
        elif lo ** 2 > 4 * q:
            f = math.nextafter(f, 0)
        else:
            return f


def axis_from_m512(h, lam):
    """Test-local oracle: the axis data read from M^512 by mat_pow, the depth
    every element used before the depth rule, in exact rationals and each
    float rounded once."""
    p = intmat.mat_pow(h.matrix, 512)
    cp = ClassVector(p[0][0], {q: row[0] for q, row in zip(h.support, p[1:])})
    cm = ClassVector(p[0][0], {q: -x for q, x in zip(h.support, p[0][1:])})

    def residual(g, c):
        return nearest_root(norm_sq(apply(g, c) - Fraction(lam) * c) / norm_sq(c))

    vp, vm = (Fraction(1, c.e0) * c for c in (cp, cm))
    dot = intersect(vp, vm)
    return LoxodromicData(lam, vp, vm, float(dot), nearest_root(2 / dot),
                          residual(h, cp), residual(inverse(h), cm))


# powers of random words with lambda ~ 4.7e6 and ~ 4.7e8, past the 10^6
# threshold of the reduction theorem
@example(random.Random(0), 36, 24, 2)
@example(random.Random(5), 30, 16, 3)
@settings(max_examples=6, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(8, 36), st.integers(12, 24),
       st.integers(1, 2))
def test_axis_and_criterion_agree_with_the_full_powers(rng, length, npts, n):
    h = power(realize(random_word(rng, length, points(npts))), n)
    assume(classify(h).is_loxodromic)
    assert axis_data(h) == axis_from_m512(h, dynamical_degree(h))
    s = degree_sequence(h, 400)
    assert criterion_degrees(h) == (s[199], s[399])


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(6, 24), st.integers(10, 16),
       st.integers(1, 3))
def test_axis_floats_are_nearest_to_their_exact_values(rng, length, npts, n):
    h = power(realize(random_word(rng, length, points(npts))), n)
    assume(classify(h).is_loxodromic)
    data = axis_data(h)
    dot = intersect(data.v_plus, data.v_minus)
    lo, hi = neighbour_sums(data.vplus_dot_vminus)
    assert lo <= 2 * dot <= hi
    # cosh^2 = 2 / (v+ . v-)
    assert data.cosh_axis_distance == nearest_root(2 / dot)
    lam = Fraction(data.lam)
    for g, v, res in ((h, data.v_plus, data.residual_plus),
                      (inverse(h), data.v_minus, data.residual_minus)):
        assert res == nearest_root(norm_sq(apply(g, v) - lam * v) / norm_sq(v))


def test_displacement_bound_at_e0(pts12):
    h = loxodromic_ten(pts12)
    rep = axis_displacement_check(h, e0())
    assert rep.bound_ok
    assert rep.displacement >= math.log(LEHMER) - 1e-9
    data = axis_data(h)
    # a point on the axis is at distance zero from it
    assert abs(cosh_distance_to_axis(data, axis_point(data)) - 1) < 1e-6


# -- the big-power criterion ---------------------------------------------------------


def test_criterion_on_the_three_types(pts12):
    p = points(9)
    s = realize(word(Sigma0(*p[:3])))
    assert not loxodromy_criterion(s)
    assert criterion_degrees(s) == (1, 1)
    halphen = sigma_product((p[0], p[1], p[2]), (p[3], p[4], p[5]), (p[6], p[7], p[8]))
    d200, d400 = criterion_degrees(halphen)
    s = degree_sequence(halphen, 400)
    assert (d200, d400) == (s[199], s[399])
    assert not loxodromy_criterion(halphen)
    assert d400 < LOXODROMY_CONSTANT * d200
    lox = loxodromic_ten(pts12)
    assert loxodromy_criterion(lox)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 10), st.sampled_from((7, 9)))
def test_criterion_degrees_are_the_iterated_degrees(rng, length, npts):
    # words on seven points are elliptic; on nine, elliptic or parabolic
    h = realize(random_word(rng, length, points(npts)))
    s = degree_sequence(h, 400)
    assert criterion_degrees(h) == (s[199], s[399])


def test_spectrum_report_schema(pts12):
    h = loxodromic_ten(pts12)
    rep = spectrum_report(h)
    assert rep["class"] == "loxodromic"
    assert set(rep) >= {"degree", "class", "lambda", "criteria", "cosh_axis_distance", "residuals"}
    s = realize(word(Sigma0(*points(3))))
    rep2 = spectrum_report(s)
    assert rep2["lambda"] == 1.0 and "cosh_axis_distance" not in rep2


def test_spectrum_report_analyses_the_element_once(monkeypatch):
    h = loxodromic_ten(points(10))
    charpolys = counting(monkeypatch, intmat, "charpoly")
    isolations = counting(monkeypatch, spectral, "dominant_real_root")
    products = counting(monkeypatch, intmat, "mat_mul")
    powers = counting(monkeypatch, intmat, "mat_pow")
    rep = spectrum_report(h)
    assert rep["class"] == "loxodromic"
    assert len(charpolys) == 1
    # the axis squares to the least e = 2^k with lambda_lo^e >= 2^100 deg^2,
    # here e = 128 (lambda ~ 2.369, deg 13), and the criterion reads M^8 from
    # the same squares
    lam_lo = rep["lambda"] - 1e-9
    bound = 2 ** spectral.AXIS_MARGIN_BITS * degree(h) ** 2
    k = next(k for k in range(10) if k == 9 or lam_lo ** 2 ** k >= bound)
    assert k == 7
    assert len(products) == max(k, 3) and not powers
    # one isolation at 1e-12 answers the report tolerance 1e-9 and axis_data
    assert len(isolations) == 1
    # the cached analysis answers later questions without recomputation
    assert dynamical_degree(h) == rep["lambda"]
    assert classify(h).kind == "loxodromic"
    assert len(charpolys) == 1 and len(isolations) == 1


def test_char_polynomial_is_reciprocal_up_to_sign(pts12):
    # isometries are conjugate to their inverses' transposes through the form
    h = loxodromic_ten(pts12)
    cp = IntPolynomial(intmat.charpoly(h.matrix)).coeffs
    assert cp == cp[::-1] or cp == tuple(-c for c in cp[::-1])
