import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import counting
from cremlat import DEFAULT_PRIME, birmap, intmat
from cremlat.birmap import (
    BudgetExceeded,
    HomogeneousTriple,
    compose,
    iterate_degrees,
    jacobian,
    monomial_degree,
    monomial_iterates,
    monomial_lambda,
    monomial_map,
    parse_triple,
    poly_add,
    poly_divexact,
    poly_mul,
    projectively_equal,
    triple,
)


def identity_triple(prime=None):
    return triple("x", "y", "z", prime)


def sigma_triple(prime=None):
    """The standard quadratic involution [yz : zx : xy]."""
    return triple("y*z", "z*x", "x*y", prime)


def henon_triple(d, prime=None):
    """The degree-d polynomial automorphism (X, Y) -> (Y, X + Y^d), projectivized."""
    p = {(0, 1, d - 1): 1}
    q = poly_add({(1, 0, d - 1): 1}, {(0, d, 0): 1})
    r = {(0, 0, d): 1}
    return HomogeneousTriple([p, q, r], prime)


def linear_triple(matrix, prime=None):
    """The projective linear map with the given invertible 3x3 matrix."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if intmat.det3(m) == 0:
        raise ValueError("matrix is singular")
    return HomogeneousTriple([dict(zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], row)) for row in m],
                             prime)


def monomial_triple(f, prime=None):
    """The monomial map f lifted by (X, Y) = (x/z, y/z) and multiplied through
    by (xyz)^n; the triple cancels the common monomial itself."""
    n = 2 * max(map(abs, (f.a, f.b, f.c, f.d)))
    vecs = [(f.a, f.b, -f.a - f.b), (f.c, f.d, -f.c - f.d), (0, 0, 0)]
    return HomogeneousTriple([{tuple(x + n for x in v): 1} for v in vecs], prime)


def test_sigma_is_an_involution_with_full_cancellation():
    s = sigma_triple()
    ss = compose(s, s)
    assert ss.degree == 1
    assert ss == identity_triple()


def test_sigma_degree_sequence():
    degs, truncated = iterate_degrees(sigma_triple(), 6)
    assert degs == [2, 1, 2, 1, 2, 1] and not truncated


@pytest.mark.parametrize("d", [2, 3])
def test_henon_grows_without_cancellation(d):
    degs, truncated = iterate_degrees(henon_triple(d), 5)
    assert degs == [d ** n for n in range(1, 6)] and not truncated


def test_compose_with_identity():
    h = henon_triple(2)
    assert compose(h, identity_triple()) == h
    assert compose(identity_triple(), h) == h


def test_linear_map_validation():
    assert linear_triple([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == identity_triple()
    with pytest.raises(ValueError):
        linear_triple([[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_structured_cancellation_of_a_conjugated_involution():
    # the common factor here is a product of lines, not a monomial
    s = sigma_triple()
    a = linear_triple([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    a_inv = linear_triple([[1, -1, 1], [1, 1, -1], [-1, 1, 1]])
    conj = compose(compose(a, s), a_inv)
    assert conj.degree == 2
    assert compose(conj, conj) == identity_triple()


def test_common_factor_certified_on_construction():
    # components with a shared line are reduced at construction time
    t = triple("x*y", "x*z", "x*x")
    assert t.degree == 1


@pytest.mark.parametrize("prime", [None, DEFAULT_PRIME])
def test_common_factor_hidden_where_a_restriction_drops_degree(prime):
    # (z - 3x) times the identity: on the line z = 3x + 5y the factor
    # restricts to 5t, a constant once t = 1, so that line certifies nothing
    f = parse_triple("[x*z - 3*x^2 : y*z - 3*x*y : z^2 - 3*x*z]", prime)
    assert f == identity_triple(prime)
    assert iterate_degrees(f, 3) == ([1, 1, 1], False)


def forms(degree, coeffs=st.integers(-9, 9)):
    """Homogeneous polynomials of the given degree, possibly zero."""
    monos = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return st.lists(coeffs, min_size=len(monos), max_size=len(monos)).map(
        lambda cs: {m: c for m, c in zip(monos, cs) if c})


@st.composite
def factored_triples(draw):
    g = draw(forms(draw(st.integers(1, 3))).filter(bool))
    d = draw(st.integers(1, 3))
    hs = [draw(forms(d)) for _ in range(3)]
    assume(any(hs))
    return g, hs


@settings(max_examples=40, deadline=None)
@given(factored_triples(), st.sampled_from([None, DEFAULT_PRIME]))
def test_a_common_factor_cancels_exactly(gh, prime):
    # the reduced [G H1 : G H2 : G H3] is the reduced [H1 : H2 : H3], which
    # is (H1, H2, H3) itself unless the H's share a factor
    g, hs = gh
    f = HomogeneousTriple([poly_mul(g, h) for h in hs], prime)
    assert f == HomogeneousTriple(hs, prime)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(forms), st.integers(0, 3).flatmap(forms).filter(bool),
       st.sampled_from([None, DEFAULT_PRIME]))
def test_exact_division_undoes_multiplication(a, b, p):
    if p:
        a, b = ({m: c % p for m, c in q.items()} for q in (a, b))
    ab = poly_mul(a, b, p)
    assert poly_mul(b, a, p) == ab
    assert poly_divexact(ab, b, p) == a


def test_a_large_rational_factor_is_read_back_from_several_primes(monkeypatch):
    # the primitive gcd over Z, (10^25 + 13)(10^25 + 9) x - 21 y + 7 (10^25 + 9) z,
    # has a coefficient near 10^50, more than one 62-bit prime can hold, so
    # its images modulo several primes are combined
    g = {(1, 0, 0): Fraction(10 ** 25 + 13, 7), (0, 1, 0): Fraction(-3, 10 ** 25 + 9),
         (0, 0, 1): 1}
    images = counting(monkeypatch, birmap, "_pencil_gcd")
    f = HomogeneousTriple([poly_mul(g, h) for h in ({(1, 0, 0): 1}, {(0, 1, 0): 1},
                                                     {(0, 0, 1): 1})])
    assert len(images) >= 2
    assert f == identity_triple()


@pytest.mark.parametrize("prime", [None, DEFAULT_PRIME])
def test_cancellation_divides_each_component_once(monkeypatch, prime):
    # the divisions that accept the gcd give the quotients; over Q they are
    # the three over Z after the three that accept its image modulo a prime
    divisions = counting(monkeypatch, birmap, "poly_divexact")
    parse_triple("[x*z - 3*x^2 : y*z - 3*x*y : z^2 - 3*x*z]", prime)
    moduli = [args[2] for args in divisions]
    assert moduli == ([prime] * 3 if prime else [DEFAULT_PRIME] * 3 + [None] * 3)


def test_rational_coefficients_are_held_as_coprime_integers():
    t = HomogeneousTriple([{(1, 0, 0): Fraction(1, 2)}, {(0, 1, 0): Fraction(3, 4)},
                           {(0, 0, 1): 1}])
    assert t.components == ({(1, 0, 0): 2}, {(0, 1, 0): 3}, {(0, 0, 1): 4})
    assert all(type(c) is int for q in t.components for c in q.values())


matrices = st.lists(st.integers(-3, 3), min_size=9, max_size=9).map(
    lambda e: [e[0:3], e[3:6], e[6:9]]).filter(lambda m: intmat.det3(m) != 0)


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_both_coefficient_fields_give_the_same_degrees(a):
    degs = [iterate_degrees(compose(linear_triple(a, p), sigma_triple(p)), 4)
            for p in (None, DEFAULT_PRIME)]
    assert degs[0] == degs[1]


@pytest.mark.parametrize("prime", [None, DEFAULT_PRIME])
def test_a_factor_in_y_and_z_alone(prime):
    # y - 2z vanishes at [1 : 0 : 0], so the pencil moves its center
    f = parse_triple("[x*y - 2*x*z : y^2 - 2*y*z : z*y - 2*z^2]", prime)
    assert f == identity_triple(prime)


@pytest.mark.parametrize("prime", [None, DEFAULT_PRIME])
def test_iterates_that_cancel_at_every_step(prime):
    f = parse_triple("[-y*z - 2*x*y : -y*z + z*x + 3*x*y : y*z - 3*x*y]", prime)
    assert iterate_degrees(f, 6) == ([2, 3, 4, 5, 6, 7], False)


def test_degenerate_composition_rejected():
    t = triple("x*y", "x*z", "x*x")
    assert t == triple("y", "z", "x")
    with pytest.raises(ValueError):
        HomogeneousTriple([{}, {}, {}])


@pytest.mark.parametrize("prime", [None, DEFAULT_PRIME])
def test_jacobian_vanishes_on_dependent_components(prime):
    assert jacobian(identity_triple(prime)) == {(0, 0, 0): 1}
    assert jacobian(sigma_triple(prime)) == {(1, 1, 1): 2}
    assert jacobian(parse_triple("[x^2 : x*y : y^2]", prime)) == {}


def test_budget_guard():
    h = henon_triple(3)
    degs, truncated = iterate_degrees(h, 8)
    assert truncated and degs[-1] <= 512
    with pytest.raises(BudgetExceeded):
        big = henon_triple(3)
        cur = big
        for _ in range(8):
            cur = compose(big, cur)


def test_associativity_over_a_prime_field():
    rng = random.Random(3)
    p = DEFAULT_PRIME

    def rand_triple(deg=2):
        comps = []
        for _ in range(3):
            poly = {}
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    c = rng.randint(0, 4)
                    if c:
                        poly[(i, j, deg - i - j)] = c
            comps.append(poly)
        return HomogeneousTriple(comps, p)

    for _ in range(4):
        a, b, c = rand_triple(), rand_triple(), rand_triple()
        assert projectively_equal(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_submultiplicativity_of_degrees():
    rng = random.Random(9)
    p = DEFAULT_PRIME
    s = sigma_triple(p)
    h = henon_triple(2, p)
    for f, g in [(s, s), (h, h), (s, h), (h, s)]:
        assert compose(f, g).degree <= f.degree * g.degree


# -- monomial maps ------------------------------------------------------------------


def test_monomial_degree_example():
    f = monomial_map([[1, 1], [1, 0]])
    assert monomial_degree(f) == 2
    t = monomial_triple(f)
    assert t == triple("x*y", "x*z", "z^2")


def test_monomial_lambda_is_the_spectral_radius():
    f = monomial_map([[1, 1], [1, 0]])
    golden = (1 + math.sqrt(5)) / 2
    assert abs(monomial_lambda(f) - golden) < 1e-12
    assert abs(monomial_lambda(f * f) - golden ** 2) < 1e-12
    rotation = monomial_map([[0, -1], [1, 0]])
    assert monomial_lambda(rotation) == 1.0


def test_monomial_lambda_is_correctly_rounded():
    # lambda is the largest root of x^2 - |tr| x + det, and its float the
    # nearest one: x^2 - |tr| x + det changes sign between lambda -+ ulp / 2
    for tr in range(-50, 51):
        for det in (1, -1):
            lam = monomial_lambda(monomial_map([[tr, 1], [-det, 0]]))
            if lam == 1.0:
                assert abs(tr) <= 2 if det == 1 else tr == 0
                continue
            half = Fraction(math.ulp(lam)) / 2
            lo, hi = (Fraction(lam) + s * half for s in (-1, 1))
            assert (lo * lo - abs(tr) * lo + det) * (hi * hi - abs(tr) * hi + det) < 0


def test_monomial_iterates_converge():
    f = monomial_map([[1, 1], [1, 0]])
    seq = monomial_iterates(f, 40)
    assert abs(seq[-1] ** (1 / 40) - monomial_lambda(f)) < 1e-2


def test_monomial_validation():
    with pytest.raises(ValueError):
        monomial_map([[2, 0], [0, 1]])


def test_monomial_vs_polynomial_path():
    rng = random.Random(11)
    p = DEFAULT_PRIME
    for _ in range(6):
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if abs(a * d - b * c) == 1:
                break
        f = monomial_map([[a, b], [c, d]])
        fast = monomial_iterates(f, 4)
        slow, _ = iterate_degrees(monomial_triple(f, p), 4)
        assert fast[: len(slow)] == slow


# -- text format ----------------------------------------------------------------------


def test_triple_parsing_round_trip():
    t = parse_triple("[y*z : z*x : x*y]")
    assert t == sigma_triple()
    assert parse_triple(repr(t)) == t
    with pytest.raises(ValueError):
        parse_triple("y*z : z*x")
    with pytest.raises(ValueError):
        parse_triple("[y*z : z*x]")
