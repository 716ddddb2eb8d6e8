import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coxeter_generators, identity_element, random_word, sigma_product, word
from cremlat import intmat
from cremlat.lattice import ClassVector, e, e0, points
from cremlat.weyl import (
    Permutation,
    Sigma0,
    Tau,
    WeylElement,
    WeylWord,
    apply,
    compose,
    conjugate,
    conjugate_by_word,
    degree,
    halphen_class,
    halphen_test,
    increasing_degrees,
    inverse,
    jonquieres_center,
    multiplicity_profile,
    noether_report,
    normalize_increasing,
    parse_word,
    print_word,
    realize,
    sigma_omega_word,
)


# -- generators and realization ------------------------------------------------


def test_sigma0_action():
    p1, p2, p3, q = points(4)
    h = realize(word(Sigma0(p1, p2, p3)))
    assert apply(h, e0()) == ClassVector(2, {p1: -1, p2: -1, p3: -1})
    assert apply(h, e(p1)) == ClassVector(1, {p2: -1, p3: -1})
    assert apply(h, e(q)) == e(q)
    assert compose(h, h) == identity_element()


def test_tau_swaps():
    p, q = points(2)
    h = realize(word(Tau(p, q)))
    assert apply(h, e(p)) == e(q)
    assert apply(h, e(q)) == e(p)
    assert apply(h, e0()) == e0()


def test_sigma0_fixes_its_pencil_classes():
    p1, p2, p3 = points(3)
    h = realize(word(Sigma0(p1, p2, p3)))
    for p in (p1, p2, p3):
        v = e0() - e(p)
        assert apply(h, v) == v


def test_realize_prunes_to_minimal_support():
    p1, p2, p3 = points(3)
    w = word(Sigma0(p1, p2, p3), Sigma0(p1, p2, p3))
    assert realize(w) == identity_element()
    assert realize(w).support == ()


def test_compose_and_inverse():
    p = points(6)
    h3 = compose(realize(word(Sigma0(p[0], p[1], p[2]))), realize(word(Sigma0(p[0], p[3], p[4]))))
    assert degree(h3) == 3
    assert apply(h3, e0()) == ClassVector(3, {p[0]: -2, p[1]: -1, p[2]: -1, p[3]: -1, p[4]: -1})
    s = realize(word(Sigma0(p[0], p[1], p[2])))
    assert inverse(s) == s
    assert degree(compose(h3, inverse(h3))) == 1
    assert compose(h3, inverse(h3)) == identity_element()


def test_integer_classes_keep_int_coefficients(rng):
    pts = points(8)
    img = apply(realize(random_word(rng, 12, pts)), e0())
    assert type(img.e0) is int
    assert all(type(c) is int for c in img.point_coeffs.values())
    assert type(img.coeff(points(1)[0])) is int


@st.composite
def words(draw, pts=None):
    """Words of q, t and multi-pair s letters on ``pts`` or on up to nine
    fresh points; half of them have the shape u v u^-1, whose product moves
    fewer points than the word names, so realize has points to prune."""
    pts = pts or points(draw(st.integers(4, 9)))

    def letter():
        kind = draw(st.sampled_from("qts"))
        order = draw(st.permutations(pts))
        if kind == "q":
            return Sigma0(*order[:3])
        if kind == "t":
            return Tau(*order[:2])
        pairs = draw(st.integers(1, len(pts) // 2))
        return Permutation(tuple((order[2 * i], order[2 * i + 1]) for i in range(pairs)))

    u = [letter() for _ in range(draw(st.integers(0, 6)))]
    v = [letter() for _ in range(draw(st.integers(0, 6)))]
    return WeylWord(tuple(u + v + (u[::-1] if draw(st.booleans()) else [])))


_a, _b, _c, _d, _e = points(5)


# products that move fewer points than their words: q t q on disjoint
# points is t, and s q s is q(b,d,e)
@example(word(Sigma0(_a, _b, _c), Tau(_d, _e), Sigma0(_a, _b, _c)))
@example(word(Permutation(((_a, _b), (_c, _d))), Sigma0(_a, _c, _e),
              Permutation(((_a, _b), (_c, _d)))))
@settings(max_examples=150, deadline=None)
@given(words())
def test_realize_agrees_with_the_word_action(w):
    h = realize(w)
    assert set(h.support) <= w.support()
    for v in [e0()] + [e(p) for p in sorted(w.support())]:
        assert apply(h, v) == w.apply(v)


_p = points(10)


# the empty word; letters on points that h fixes
@example(WeylWord(()), word(Sigma0(_p[0], _p[1], _p[2])))
@example(word(Tau(_p[8], _p[9]), Sigma0(_p[2], _p[7], _p[8])), word(Sigma0(_p[0], _p[1], _p[2])))
@settings(max_examples=150, deadline=None)
@given(words(_p[3:]), words(_p[:7]))
def test_conjugate_by_word_matches_the_dense_conjugate(w, u):
    # row operations against compose and inverse, matrix for matrix
    h = realize(u)
    assert conjugate_by_word(w, h) == conjugate(realize(w), h)


def test_degree_examples():
    p = points(6)
    assert degree(realize(word(Sigma0(p[0], p[1], p[2])))) == 2
    assert degree(realize(word(Permutation(((p[0], p[1]),))))) == 1
    h4 = sigma_product((p[0], p[1], p[2]), (p[3], p[4], p[5]))
    assert degree(h4) == 4
    assert degree(h4) == degree(inverse(h4))


def test_form_preservation_checked_on_construction():
    with pytest.raises(ValueError):
        WeylElement((), ((2,),))  # scales the form
    p = points(1)
    with pytest.raises(ValueError):
        WeylElement(p, ((1, 0), (0, -1)))  # sends e(p) to -e(p): breaks omega


def form_check(m):
    """M^T J M == J with J = diag(1, -1, ..., -1), by two plain products."""
    n = len(m)
    j = [[(1 if i == 0 else -1) if i == k else 0 for k in range(n)] for i in range(n)]
    return intmat.mat_mul(intmat.transpose(m), intmat.mat_mul(j, m)) == j


@settings(max_examples=100, deadline=None)
@given(words(), st.data())
def test_preserves_form_agrees_with_the_definition(w, data):
    # realized matrices preserve the form; one entry off by one breaks it
    m = [list(row) for row in realize(w).matrix]
    assert intmat.preserves_form(m) and form_check(m)
    i, k = (data.draw(st.integers(0, len(m) - 1)) for _ in range(2))
    m[i][k] += data.draw(st.sampled_from((-1, 1)))
    assert intmat.preserves_form(m) == form_check(m)


# -- profiles and degree identities ---------------------------------------------


def test_profile_of_sigma0():
    p1, p2, p3 = points(3)
    prof = multiplicity_profile(realize(word(Sigma0(p1, p2, p3))))
    assert prof.degree == 2
    assert prof.a == (1, 1, 1) and prof.b == (1, 1, 1)
    assert prof.c == (1, 1, 1)


def test_profile_of_jonquieres_element():
    # degree-m pencil element: multiplicities (m-1, 1, ..., 1)
    p = points(7)
    h = sigma_product((p[0], p[1], p[2]), (p[0], p[3], p[4]), (p[0], p[5], p[6]))
    prof = multiplicity_profile(h)
    m = prof.degree
    assert m == 4
    assert sorted(prof.a, reverse=True) == [m - 1] + [1] * (2 * m - 2)


def test_profile_of_identity():
    prof = multiplicity_profile(identity_element())
    assert prof.degree == 1 and prof.points == ()


@example(WeylWord(()))
@settings(max_examples=100, deadline=None)
@given(words())
def test_profile_reads_the_images_of_e0(w):
    # a_i = e(p_i).h(e0) and b_i = e(p_i).h^-1(e0), from the images
    h = realize(w)
    av = {p: -c for p, c in apply(h, e0()).point_coeffs.items()}
    bv = {p: -c for p, c in apply(inverse(h), e0()).point_coeffs.items()}
    pts = sorted(set(av) | set(bv))
    prof = multiplicity_profile(h)
    assert prof.points == tuple(pts)
    assert prof.a == tuple(av.get(p, 0) for p in pts)
    assert prof.b == tuple(bv.get(p, 0) for p in pts)


def test_noether_report_sigma0():
    p1, p2, p3 = points(3)
    rep = noether_report(realize(word(Sigma0(p1, p2, p3))))
    assert rep.applicable and rep.ok


def test_noether_report_degree3():
    p = points(5)
    h = sigma_product((p[0], p[1], p[2]), (p[0], p[3], p[4]))
    rep = noether_report(h)
    assert rep.ok
    prof = multiplicity_profile(h)
    a = sorted(prof.a, reverse=True)
    assert a == [2, 1, 1, 1, 1]
    assert a[0] + a[1] + a[2] == rep.degree + 1


def test_noether_report_not_applicable_for_degree_one():
    rep = noether_report(identity_element())
    assert not rep.applicable


def test_noether_property_sweep(rng):
    pts = points(10)
    for _ in range(120):
        h = realize(random_word(rng, rng.randint(1, 10), pts))
        rep = noether_report(h)
        if rep.applicable:
            assert rep.ok, rep


# -- special families -----------------------------------------------------------


def sigma_omega_images(p1, omega):
    """The images of e0, e(p1) and each e(q) under sigma_omega: with
    2m - 2 = len(omega), m e0 - (m-1) e(p1) - sum e(q),
    (m-1) e0 - (m-2) e(p1) - sum e(q) and e0 - e(p1) - e(q)."""
    m = len(omega) // 2 + 1
    s_om = ClassVector(0, {q: 1 for q in omega})
    images = {e0(): ClassVector(m, {p1: -(m - 1)}) - s_om,
              e(p1): ClassVector(m - 1, {p1: -(m - 2)}) - s_om}
    for q in omega:
        images[e(q)] = e0() - e(p1) - e(q)
    return images


def test_sigma_omega_formulas():
    p1, q2, q3, r = points(4)
    so = realize(sigma_omega_word(p1, [q3, q2]))
    for v, image in sigma_omega_images(p1, [q2, q3]).items():
        assert apply(so, v) == image
    assert apply(so, e0()) == ClassVector(2, {p1: -1, q2: -1, q3: -1})
    assert apply(so, e(r)) == e(r)
    assert compose(so, so) == identity_element()
    assert realize(sigma_omega_word(p1, [])) == identity_element()


def test_sigma_omega_larger_and_word_form():
    pts = points(10)
    root, omega = pts[0], pts[1:9]
    w = sigma_omega_word(root, omega)
    assert len(w.letters) == len(omega)
    so = realize(w)
    assert so.support == tuple(pts[:9])
    for v, image in sigma_omega_images(root, omega).items():
        assert apply(so, v) == image
        assert w.apply(v) == image
    assert apply(so, e(pts[9])) == e(pts[9])
    assert compose(so, so) == identity_element()


def test_sigma_omega_rejects_bad_input():
    pts = points(4)
    with pytest.raises(ValueError):
        sigma_omega_word(pts[0], [pts[1]])
    with pytest.raises(ValueError):
        sigma_omega_word(pts[0], [pts[0], pts[1]])


def test_jonquieres_center():
    p = points(6)
    s = realize(word(Sigma0(p[0], p[1], p[2])))
    assert jonquieres_center(s) == p[0]  # ties broken by smallest id
    shared = compose(s, realize(word(Sigma0(p[0], p[3], p[4]))))
    assert jonquieres_center(shared) == p[0]
    disjoint = sigma_product((p[0], p[1], p[2]), (p[3], p[4], p[5]))
    assert jonquieres_center(disjoint) is None


def test_jonquieres_linear_growth(rng):
    # same-center elements compose subadditively; powers grow at most linearly
    p = points(9)
    h1 = sigma_product((p[0], p[1], p[2]), (p[0], p[3], p[4]))
    h2 = sigma_product((p[0], p[5], p[6]), (p[0], p[7], p[8]))
    assert jonquieres_center(h1) == p[0] and jonquieres_center(h2) == p[0]
    assert degree(compose(h1, h2)) < degree(h1) + degree(h2)
    d = degree(h1)
    cur = h1
    for n in range(2, 8):
        cur = compose(cur, h1)
        assert degree(cur) <= n * (d - 1) + 1


def test_halphen_subadditivity():
    p = points(9)
    K = halphen_class(p)
    h1 = sigma_product((p[0], p[1], p[2]), (p[3], p[4], p[5]))
    h2 = sigma_product((p[6], p[7], p[8]), (p[0], p[3], p[6]))
    for h in (h1, h2):
        assert apply(h, K) == K
    d12 = degree(compose(h1, h2))
    assert math.sqrt(d12) < math.sqrt(degree(h1)) + math.sqrt(degree(h2))


def test_halphen_test_with_candidate():
    p = points(9)
    K = halphen_class(p)
    assert halphen_test(identity_element(), p) == K
    s = realize(word(Sigma0(p[0], p[1], p[2])))
    assert halphen_test(s, p) == K  # any triple among the nine fixes K


def test_halphen_test_search():
    p = points(9)
    h = sigma_product((p[0], p[1], p[2]), (p[3], p[4], p[5]), (p[6], p[7], p[8]))
    K = halphen_class(p)
    assert halphen_test(h) == K


def test_halphen_test_loxodromic_is_none(pts12):
    from conftest import loxodromic_ten

    h = loxodromic_ten(pts12)
    assert halphen_test(h) is None


def test_non_jonquieres_multiplicity_gap(rng):
    # without a fixed pencil class, d - (a_i + b_i)/2 > sqrt(d/3) for every i
    pts = points(10)
    checked = 0
    for _ in range(200):
        h = realize(random_word(rng, rng.randint(2, 8), pts))
        d = degree(h)
        if d < 3 or jonquieres_center(h) is not None:
            continue
        prof = multiplicity_profile(h)
        for ci in prof.c:
            assert d - ci > math.sqrt(d / 3)
        checked += 1
    assert checked > 20


def test_degree_one_elements_are_permutations(rng):
    pts = points(8)
    for _ in range(60):
        h = realize(random_word(rng, rng.randint(1, 6), pts))
        if degree(h) != 1:
            continue
        assert apply(h, e0()) == e0()
        for p in h.support:
            img = apply(h, e(p))
            assert img.e0 == 0 and sorted(img.point_coeffs.values()) == [1]


# -- coxeter generators ----------------------------------------------------------


def test_coxeter_relations():
    gens = [realize(w) for w in coxeter_generators(10)]
    ident = identity_element()

    def order(h, cap=12):
        cur = h
        for k in range(1, cap + 1):
            if cur == ident:
                return k
            cur = compose(cur, h)
        return None

    for g in gens:
        assert compose(g, g) == ident
    assert order(compose(gens[1], gens[2])) == 3  # adjacent transpositions braid
    assert order(compose(gens[0], gens[1])) == 2  # s0 commutes with s1
    assert order(compose(gens[0], gens[3])) == 3  # the branch edge
    for i in range(4, 10):
        assert order(compose(gens[0], gens[i])) == 2


# -- the increasing normal form ----------------------------------------------------


def test_normalize_trivial_word():
    p1, p2, p3 = points(3)
    w = word(Sigma0(p1, p2, p3), Sigma0(p1, p2, p3))
    nw = normalize_increasing(w, e0())
    assert len(nw.letters) == 1
    assert realize(nw) == identity_element() or apply(realize(nw), e0()) == e0()


def test_normalize_images_have_nonnegative_multiplicities(rng):
    pts = points(10)
    for _ in range(40):
        w = random_word(rng, rng.randint(0, 8), pts)
        nw = normalize_increasing(w, e0())
        u = nw.apply(e0())
        assert all(c <= 0 for c in u.point_coeffs.values())


def test_normalize_matches_matrix_images(rng):
    pts = points(10)
    vectors = [
        e0(),
        e(pts[0]),
        e0() - e(pts[1]),
        ClassVector(3, {q: -1 for q in pts[:9]}),
    ]
    for _ in range(120):
        w = random_word(rng, rng.randint(0, 8), pts)
        for v in vectors:
            nw = normalize_increasing(w, v)
            assert apply(realize(nw), v) == apply(realize(w), v)
            degs = increasing_degrees(nw, v)
            assert all(x < y for x, y in zip(degs, degs[1:]))


def test_normalize_rejects_other_shapes():
    p1, p2, p3 = points(3)
    with pytest.raises(ValueError):
        normalize_increasing(word(Sigma0(p1, p2, p3)), ClassVector(2, {p1: -1}))


# -- the word grammar ---------------------------------------------------------------


def test_grammar_round_trip():
    text = "q(p1,p2,p3) * t(p1,p4) * s(p2 p3)(p4 p5)"
    w, names = parse_word(text)
    w2, _ = parse_word(print_word(w), names)
    assert realize(w) == realize(w2)


def test_grammar_right_to_left_composition():
    w, names = parse_word("t(a,b) * q(a,c,d)")
    h = realize(w)
    direct = compose(
        realize(word(Tau(names["a"], names["b"]))),
        realize(word(Sigma0(names["a"], names["c"], names["d"]))),
    )
    assert h == direct


def test_grammar_errors_carry_positions():
    from cremlat.weyl import WordSyntaxError

    for bad in ["q(p1,p2)", "t(p1,p1)", "q(p1,p2,p3) q(p4,p5,p6)", "* q(p1,p2,p3)", "x(p1)",
                "q(1a,b,c)", "t(1a,b)", "s(1a b)"]:
        with pytest.raises(WordSyntaxError) as err:
            parse_word(bad)
        assert str(err.value).count("(at position") == 1
