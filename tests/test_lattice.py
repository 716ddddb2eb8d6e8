from fractions import Fraction

import pytest

from conftest import norm_sq, word
from paper_checks import points
from cremlat.lattice import (
    BubblePoint,
    ClassVector,
    e,
    e0,
    infinitely_near,
    intersect,
    point,
    proper_point,
    render,
)
from cremlat.weyl import Sigma0, apply, realize


def canonical_form(v):
    """The invariant linear functional omega, normalized so omega(e0) = 3."""
    return 3 * v.e0 + sum(v.point_coeffs.values())


def cosh_distance(u, v):
    """cosh of the hyperbolic distance between two points of the hyperboloid.

    Both arguments must have self-intersection 1 and intersect e0 positively
    (the positive sheet).  Exact when both vectors are exact.
    """
    for w in (u, v):
        if intersect(w, w) != 1:
            raise ValueError(f"not on the hyperboloid: {w!r}")
        if intersect(w, e0()) <= 0:
            raise ValueError("vector lies on the wrong sheet")
    return intersect(u, v)


def test_basis_intersection_rules():
    p, q = points(2)
    assert intersect(e0(), e0()) == 1
    assert intersect(e(p), e(p)) == -1
    assert intersect(e(p), e(q)) == 0
    assert intersect(e0(), e(p)) == 0


def test_intersection_on_a_quadratic_image():
    p1, p2, p3 = points(3)
    v = ClassVector(2, {p1: -1, p2: -1, p3: -1})
    assert intersect(v, e0()) == 2
    assert intersect(v, v) == 1


def test_bilinearity_on_random_sparse_vectors(rng):
    pts = points(6)

    def rand_vec():
        return ClassVector(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            {p: Fraction(rng.randint(-3, 3)) for p in rng.sample(pts, 3)},
        )

    for _ in range(60):
        u, v, w = rand_vec(), rand_vec(), rand_vec()
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        left = intersect(a * u + b * v, w)
        right = a * intersect(u, w) + b * intersect(v, w)
        assert left == right
        assert intersect(u, v) == intersect(v, u)


def test_canonical_form_values():
    pts = points(9)
    K = ClassVector(3, {p: -1 for p in pts})
    assert canonical_form(K) == 0
    assert canonical_form(e0()) == 3
    q = point()
    assert canonical_form(e0() - e(q)) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9])
def test_canonical_form_on_pencil_images(m):
    # m e0 - (m-1) e(q1) - sum of 2m-2 simple points always has omega = 3
    pts = points(2 * m - 1)
    vec = ClassVector(m, {pts[0]: -(m - 1), **{p: -1 for p in pts[1:]}})
    assert canonical_form(vec) == 3


def test_weyl_invariance_of_both_forms(rng):
    from conftest import random_word

    pts = points(8)
    for _ in range(25):
        w = random_word(rng, rng.randint(1, 6), pts)
        h = realize(w)
        u = ClassVector(rng.randint(-3, 3), {p: rng.randint(-2, 2) for p in rng.sample(pts, 3)})
        v = ClassVector(rng.randint(-3, 3), {p: rng.randint(-2, 2) for p in rng.sample(pts, 4)})
        assert intersect(apply(h, u), apply(h, v)) == intersect(u, v)
        assert canonical_form(apply(h, v)) == canonical_form(v)


def test_cosh_distance():
    p1, p2, p3 = points(3)
    assert cosh_distance(e0(), e0()) == 1
    h = realize(word(Sigma0(p1, p2, p3)))
    img = apply(h, e0())
    assert cosh_distance(e0(), img) == 2
    with pytest.raises(ValueError):
        cosh_distance(e0(), e(p1))
    with pytest.raises(ValueError):
        cosh_distance(e0(), -1 * e0())


def test_norm_sq():
    p1, p2, p3 = points(3)
    assert norm_sq(e0() - e(p1)) == 2
    assert norm_sq(ClassVector(0, {})) == 0
    assert norm_sq(ClassVector(2, {p1: -1, p2: -1, p3: -1})) == 7


def test_coefficients_are_exact_rationals():
    # a float is read exactly, and no vector holds one
    p1, p2 = points(2)
    v = ClassVector(0.5, {p1: "1/3", p2: 3})
    assert v.e0 == Fraction(1, 2) and type(v.e0) is Fraction
    assert v.coeff(p1) == Fraction(1, 3) and type(v.coeff(p2)) is int
    w = 0.1 * v
    assert w.e0 == Fraction(0.1) / 2 and type(w.e0) is Fraction


def test_sparse_canonical_pruning_and_equality():
    p = point()
    assert ClassVector(1, {p: 0}) == e0()
    assert ClassVector(0, {p: 0}) == ClassVector()
    assert e(p) - e(p) == ClassVector(0, {})


def test_point_identity_and_annotations():
    a = proper_point(1, 0, 0)
    b = infinitely_near(a)
    c = infinitely_near(b)
    assert b.parent is a and c.parent is b
    assert a != proper_point(1, 0, 0)  # identity is by id, not by coordinates
    with pytest.raises(ValueError):
        proper_point(0, 0, 0)
    with pytest.raises(ValueError):
        BubblePoint(coords=(1, 0, 0), parent=a)


def test_render():
    p1, p2 = points(2)
    v = ClassVector(Fraction(5, 2), {p1: -1, p2: Fraction(7, 3)})
    text = render(v)
    assert "5/2*e0" in text and "7/3" in text
