import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    LEHMER,
    axis_point,
    axis_vectors,
    berkowitz,
    counting,
    counting_property,
    coxeter_generators,
    identity_element,
    loxodromic_ten,
    mp_fraction,
    mp_root,
    norm_sq,
    power,
    random_word,
    sigma_product,
    word,
)
from paper_checks import axis_displacement_check, cosh_distance_to_axis, inverse, points
from cremlat import intmat, roots, spectral
from cremlat.bounds import LOXODROMY_CONSTANT
from cremlat.lattice import e0, intersect
from cremlat.roots import IntPolynomial, RootBracket
from cremlat.spectral import (
    axis_data,
    classify,
    criterion_degrees,
    dynamical_degree,
    loxodromy_criterion,
    spectrum_report,
)
from cremlat.weyl import Sigma0, apply, compose, degree, realize


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
    lam = dynamical_degree(coxeter_element())
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


def poly_mul(a, b):
    """Product of two integer polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mod(a, p):
    """a modulo the monic p, with deg p coefficients, by long division."""
    a, m = list(a) + [0] * len(p), len(p) - 1
    for i in range(len(a) - 1, m - 1, -1):
        a[i - m:i + 1] = [x - a[i] * y for x, y in zip(a[i - m:i + 1], p)]
    return a[:m]


def form_products(u, v):
    """<u, v> of two vectors of polynomials, the form diag(1, -1, ..., -1)
    applied coefficientwise: the polynomial sum_i +-u_i v_i."""
    out = [0]
    for i, (x, y) in enumerate(zip(u, v)):
        prod = poly_mul(x, y)
        out = [a + (b if i == 0 else -b) for a, b in
               zip(out + [0] * (len(prod) - len(out)), prod + [0] * (len(out) - len(prod)))]
    return out


def axis_rows(h, data):
    """The axis C as one polynomial per coordinate, e0 first, over h's support."""
    return ([[c.e0 for c in data.columns]]
            + [[c.coeff(q) for c in data.columns] for q in h.support])


def apply_rows(m, rows):
    """M C for a matrix M and a vector of polynomials C."""
    return [[sum(x * r[k] for x, r in zip(row, rows)) for k in range(len(rows[0]))] for row in m]


def shift(f, e, p):
    """z^e f mod p."""
    return poly_mod([0] * e + list(f), p)


def test_axis_data_quality(pts12):
    h = loxodromic_ten(pts12)
    data = axis_data(h)
    lam, d = data.lam, degree(h)
    # exact eigenvectors over Q(lambda) = Q[z]/P: M C = z C, and for
    # C*(z) = z^(deg P - 1) C(1/z), the value at 1/lambda, z M C* = C*
    p, rows = data.bracket.poly, axis_rows(h, data)
    assert apply_rows(h.matrix, rows) == [shift(r, 1, p) for r in rows]
    star = [r[::-1] for r in rows]
    assert [shift(r, 1, p) for r in apply_rows(h.matrix, star)] == [poly_mod(r, p) for r in star]
    v_plus, v_minus = axis_vectors(data)
    assert abs(intersect(v_plus, v_plus)) < 1e-40
    assert abs(intersect(v_minus, v_minus)) < 1e-40
    assert abs(intersect(axis_point(data), axis_point(data)) - 1) < 1e-9
    assert data.cosh_axis_distance >= 1
    # sandwich between degree and dynamical degree
    assert math.sqrt(2 * d / (1 / lam + lam + 2)) < data.cosh_axis_distance
    assert data.cosh_axis_distance < 2 * d / (lam - 1 / lam)
    # eigenvector approximation by normalized images of e0
    hinv_e0 = apply(inverse(h), e0())
    assert math.sqrt(norm_sq(Fraction(1, d) * hinv_e0 - v_minus)) < math.sqrt(2 / (lam * d))
    h_e0 = apply(h, e0())
    assert math.sqrt(norm_sq(Fraction(1, d) * h_e0 - v_plus)) < math.sqrt(2 / (lam * d))
    # the pairing bounds
    assert (lam - 1 / lam) ** 2 / (2 * d * d) < data.vplus_dot_vminus < (1 / lam + lam + 2) / d


def test_axis_data_at_large_lambda():
    # h0^20 has lambda ~ 3.1e7; the axis is exact, so its eigenvector
    # equation holds exactly at any lambda
    h0 = loxodromic_ten(points(10))
    h = identity_element()
    for _ in range(20):
        h = compose(h, h0)
    data = axis_data(h)
    assert 3.0e7 < data.lam < 3.2e7
    p, rows = data.bracket.poly, axis_rows(h, data)
    assert apply_rows(h.matrix, rows) == [shift(r, 1, p) for r in rows]
    v_plus, v_minus = axis_vectors(data)
    assert abs(intersect(v_plus, v_minus) / Fraction(data.vplus_dot_vminus) - 1) < 1e-15


def neighbour_sums(f):
    """(f + its lower neighbour, f + its upper neighbour), exact: the float
    f >= 0 is nearest to x >= 0 when 2 x lies between them."""
    return tuple(Fraction(f) + Fraction(math.nextafter(f, t)) for t in (0, math.inf))


def is_nearest(f, x):
    """Whether the float f is nearest to the mpmath value x."""
    lo, hi = neighbour_sums(f)
    return lo <= 2 * mp_fraction(x) <= hi


def mp_axis_oracle(h):
    """Test-local oracle: lambda, v+ . v- and cosh dist(e0, axis) in 80
    digits, with v+- solved from the bordered systems
    [[M - mu I, e0], [e0^T, 0]] (v, t) = (0, 1) at mu = lambda^+-1, lambda
    a root of the Berkowitz characteristic polynomial."""
    with mpmath.workdps(80):
        lam = mp_root(berkowitz([list(r) for r in h.matrix]), dynamical_degree(h))
        n = len(h.matrix)
        vs = []
        for mu in (lam, 1 / lam):
            a = mpmath.matrix(n + 1, n + 1)
            for i, row in enumerate(h.matrix):
                for j, x in enumerate(row):
                    a[i, j] = x - (mu if i == j else 0)
            a[0, n] = a[n, 0] = 1
            b = mpmath.matrix(n + 1, 1)
            b[n] = 1
            vs.append(mpmath.lu_solve(a, b))
        dot = vs[0][0] * vs[1][0] - sum(vs[0][i] * vs[1][i] for i in range(1, n))
        return lam, dot, mpmath.sqrt(2 / dot)


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
    data = axis_data(h)
    lam, dot, cosh = mp_axis_oracle(h)
    assert is_nearest(data.lam, lam)
    assert is_nearest(data.vplus_dot_vminus, dot)
    assert is_nearest(data.cosh_axis_distance, cosh)
    s = degree_sequence(h, 400)
    assert criterion_degrees(h) == (s[199], s[399])


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(6, 24), st.integers(10, 16),
       st.integers(1, 3))
def test_axis_floats_are_nearest_to_their_exact_values(rng, length, npts, n):
    # the closed forms v+ . v- = chi'(lambda) / A(lambda) and
    # cosh^2 = 2 / (v+ . v-), A the e0 row of adj(zI - M) e0
    h = power(realize(random_word(rng, length, points(npts))), n)
    assume(classify(h).is_loxodromic)
    data = axis_data(h)
    sp = spectral._spectrum(h)
    chi, a = sp.charpoly.coeffs, [b[0] for b in sp.resolvent]
    with mpmath.workdps(60):
        lam = mp_root(chi, data.lam)
        dot = mpmath.polyval([i * c for i, c in enumerate(chi)][:0:-1], lam) / mpmath.polyval(
            a[::-1], lam)
        assert is_nearest(data.vplus_dot_vminus, dot)
        assert is_nearest(data.cosh_axis_distance, mpmath.sqrt(2 / dot))
    assert spectrum_report(h)["residuals"] == {"v_plus": 0.0, "v_minus": 0.0}


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 24), st.integers(8, 16),
       st.integers(1, 2))
def test_the_resolvent_identities_hold_exactly(rng, length, npts, n):
    h = power(realize(random_word(rng, length, points(npts))), n)
    sp = spectral._spectrum(h)
    b, m = sp.resolvent, h.matrix
    chi = berkowitz([list(r) for r in m])
    size = len(m)
    # (zI - M) B(z) = chi(z) e0, coefficient by coefficient: at z^j,
    # B_(j-1) - M B_j = c_j e0, with B_(-1) = B_n = 0
    zero = [0] * size
    for j in range(size + 1):
        lower = b[j - 1] if j else zero
        moved = intmat.mat_vec(m, b[j]) if j < size else zero
        assert [x - y for x, y in zip(lower, moved)] == [chi[j]] + [0] * (size - 1)
    s = degree_sequence(h, 400)
    assert criterion_degrees(h) == (s[199], s[399])
    if not classify(h).is_loxodromic:
        return
    p = sp.bracket.poly
    rows = [list(r) for r in zip(*b)]  # B as one polynomial per coordinate
    # B(lambda) is isotropic: <B, B> = 0 mod P
    assert not any(poly_mod(form_products(rows, rows), p))
    # <B, z^(d-1) B(1/z)> = chi' A^rev mod P, d = deg chi
    rev = [r[::-1] for r in rows]
    derivative = [i * c for i, c in enumerate(chi)][1:]
    assert poly_mod(form_products(rows, rev), p) == poly_mod(poly_mul(derivative, rows[0][::-1]), p)


def test_displacement_bound_at_e0(pts12):
    h = loxodromic_ten(pts12)
    rep = axis_displacement_check(h, e0())
    assert rep.bound_ok
    assert rep.displacement >= math.log(LEHMER) - 1e-9
    data = axis_data(h)
    # a point on the axis is at distance zero from it
    assert abs(cosh_distance_to_axis(data, axis_point(data)) - 1) < 1e-6
    assert cosh_distance_to_axis(data, e0()) == data.cosh_axis_distance


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
    isolations = counting(monkeypatch, RootBracket, "isolate")
    prems = counting(monkeypatch, roots, "_prem")
    products = counting(monkeypatch, intmat, "mat_mul")
    powers = counting(monkeypatch, intmat, "mat_pow")
    passes = counting_property(monkeypatch, spectral._Spectrum, "resolvent")
    rep = spectrum_report(h)
    assert rep["class"] == "loxodromic"
    assert len(charpolys) == 1
    # the axis and the criterion read the same resolvent pass, and no matrix
    # is multiplied
    assert len(passes) == 1 and not products and not powers
    # one isolation answers the report and axis_data, and Descartes' rule
    # makes it without a remainder sequence
    assert len(isolations) == 1 and not prems
    # the cached analysis answers later questions without recomputation
    assert dynamical_degree(h) == rep["lambda"]
    assert classify(h).kind == "loxodromic"
    axis_data(h)
    assert len(charpolys) == 1 and len(isolations) == 1 and len(passes) == 1 and not prems


def test_char_polynomial_is_reciprocal_up_to_sign(pts12):
    # isometries are conjugate to their inverses' transposes through the form
    h = loxodromic_ten(pts12)
    cp = IntPolynomial(intmat.charpoly(h.matrix)).coeffs
    assert cp == cp[::-1] or cp == tuple(-c for c in cp[::-1])


# -- the multimodular characteristic polynomial and the resolvent pass ---------------


def isometry_bound_bits(m):
    """Bits of 2 C(n, n // 2) ||M||_inf, the bound that fixes the primes of an
    isometry's characteristic polynomial, each prime exceeding 2^61."""
    n = len(m)
    return (2 * math.comb(n, n // 2) * max(sum(map(abs, row)) for row in m)).bit_length()


def charpoly_and_primes(m, **kwargs):
    """intmat.charpoly(m) and the number of primes it reduced m modulo."""
    with pytest.MonkeyPatch.context() as mp:
        images = counting(mp, intmat, "_charpoly_mod")
        return intmat.charpoly(m, **kwargs), len(images)


@example(random.Random(0), 16, 12)
@settings(max_examples=8, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(4, 24), st.integers(8, 16))
def test_charpoly_equals_the_oracle_on_words_and_powers(rng, length, npts):
    h = realize(random_word(rng, length, points(npts)))
    oracle = berkowitz(h.matrix)
    assert intmat.charpoly(h.matrix) == oracle
    assert list(spectral._Spectrum(h.matrix).charpoly.coeffs) == oracle
    # the least power whose isometry bound needs a second prime
    assume(dynamical_degree(h) > 2)
    g = h
    while isometry_bound_bits(g.matrix) <= 61:
        g = compose(g, h)
    cp, primes = charpoly_and_primes(g.matrix, outside=1)
    assert primes >= 2
    assert cp == berkowitz(g.matrix)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-99, 99), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_charpoly_equals_the_oracle_on_any_integer_matrix(a):
    # not an isometry: the default bound max(1, ||A||_inf)^n
    assert intmat.charpoly(a) == berkowitz(a)


@pytest.mark.parametrize("build", [loxodromic_ten, lambda pts: coxeter_element()],
                         ids=["loxodromic_ten", "coxeter_10"])
def test_axis_columns_are_eigenvectors_of_the_squares(pts12, build):
    # M^e C = z^e C mod P for e = 2^k, k < 10, with M^e from mat_pow: the
    # axis C is what M^e e0 approaches, exactly, at every depth (the Coxeter
    # element has Lehmer's number, where 2^9 squarings were the old cap)
    h = build(pts12)
    data = axis_data(h)
    p, rows = data.bracket.poly, axis_rows(h, data)
    for k in range(10):
        e = 2 ** k
        assert apply_rows(intmat.mat_pow(h.matrix, e), rows) == [shift(r, e, p) for r in rows]
    # C is B mod P, B = adj(zI - M) e0 of the resolvent pass
    b = spectral._spectrum(h).resolvent
    assert rows == [poly_mod(r, p) for r in zip(*b)]
