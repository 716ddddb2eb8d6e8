import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremlat import intmat
from cremlat.orbits import (
    lambda_limit,
    lambda_sequence,
    quadratic_charpoly,
    quadratic_closed_form,
    quadratic_orbit_element,
    quadratic_orbit_matrix,
)
from cremlat.salem import IntPolynomial, dominant_real_root, strip_cyclotomic


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_agrees_with_det3(m):
    assert (intmat.rank(m) == 3) == (intmat.det3(m) != 0)
    assert intmat.rank(m + [[2 * x for x in m[0]]]) == intmat.rank(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6),
       st.sampled_from([101, 2 ** 61 - 1]))
def test_interpolation_recovers_the_polynomial(coeffs, p):
    xs = list(range(-2, len(coeffs) + 1))
    ys = [sum(c * x ** i for i, c in enumerate(coeffs)) for x in xs]
    want = [c % p for c in coeffs]
    while len(want) > 1 and want[-1] == 0:
        want.pop()
    assert intmat.interpolate(xs, [y % p for y in ys], p) == want


# -- the explicit quadratic-case family ---------------------------------------


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_charpoly_matches_closed_form(m, k):
    cp, matches = quadratic_charpoly(m, k)
    assert matches
    assert cp.degree == 2 * k + 4
    assert cp.coeffs[0] == 1  # constant term from the trailing quadratic block


def test_matrix_size_and_input_validation():
    assert len(quadratic_orbit_matrix(3, 4)) == 12
    with pytest.raises(ValueError):
        quadratic_orbit_matrix(1, 4)
    with pytest.raises(ValueError):
        quadratic_orbit_matrix(3, 1)
    # at construction degree 2 the explicit matrix is not the lattice element's
    for build in (quadratic_orbit_matrix, quadratic_closed_form, quadratic_charpoly,
                  quadratic_orbit_element):
        with pytest.raises(ValueError):
            build(2, 4)


def test_closed_form_is_reciprocal():
    for m, k in ((3, 5), (5, 3)):
        assert quadratic_closed_form(m, k).is_reciprocal()


def test_canonical_functional_in_the_grouped_basis():
    # the grouped basis pairs each single class with the sum of m - 3 others;
    # the invariant functional has weights (1, m-3, 3, m+1, 1, m-3, ...)
    for m, k in ((3, 3), (4, 2), (5, 4)):
        M = quadratic_orbit_matrix(m, k)
        w = [1, m - 3, 3, m + 1, 1, m - 3] + [1, m - 3] * (k - 1)
        out = [sum(w[i] * M[i][j] for i in range(len(M))) for j in range(len(M))]
        assert out == w


def test_element_realizes_the_matrix_spectrum():
    # the lattice isometry (form and omega preserved, as element_from_images
    # checks) and the closed form agree exactly off their cyclotomic parts
    for m, k in ((3, 3), (4, 2), (4, 3), (5, 4), (6, 3)):
        h = quadratic_orbit_element(m, k)
        from_element, _ = strip_cyclotomic(IntPolynomial(intmat.charpoly(h.matrix)))
        from_closed_form, _ = strip_cyclotomic(quadratic_closed_form(m, k))
        assert from_element == from_closed_form
        assert (from_element is None) == (m < 4)  # loxodromic from degree 4 on


def test_small_construction_degrees_are_not_loxodromic():
    # at construction degree 3 the closed form has no root beyond 1 (the
    # family only reaches the quadratic targets from degree 4 up, which is
    # why the target indexing shifts by two)
    for k in (3, 6):
        assert dominant_real_root(quadratic_closed_form(3, k)) is None


# -- lambda sequences ------------------------------------------------------------


def test_lambda_sequence_limits():
    assert abs(lambda_limit(2) - (3 + math.sqrt(5)) / 2) < 1e-12
    assert abs(lambda_limit(3) - (2 + math.sqrt(3))) < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_lambda_sequence_converges_monotonically(m):
    entries = lambda_sequence(m, [5, 10, 20, 40])
    lim = lambda_limit(m)
    diffs = [abs(ent.value - lim) for ent in entries]
    assert all(x > y for x, y in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-6
    # approach from below, up to root-refinement noise at convergence
    assert all(ent.value < lim + 1e-9 for ent in entries)
    for ent in entries:
        assert ent.kind == "salem"


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_lambda_sequence_rises_and_stays_below_its_limit(m):
    # each value and the limit are roots correctly rounded, and rounding is
    # monotone
    values = [ent.value for ent in lambda_sequence(m, range(2, 31))]
    assert values == sorted(values)
    assert values[-1] <= lambda_limit(m)


def test_lambda_sequence_isolates_each_root_once():
    # counted by code object, so that every binding of the function counts
    code, calls = dominant_real_root.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    sys.setprofile(profile)
    try:
        entries = lambda_sequence(3, range(2, 10))
    finally:
        sys.setprofile(None)
    assert len(calls) == len(entries)


def test_lambda_sequence_rejects_small_m():
    with pytest.raises(ValueError):
        lambda_sequence(1, [3])
