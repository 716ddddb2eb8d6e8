import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremlat import intmat
from cremlat.orbits import (
    OrbitModel,
    build_Fk,
    fk_noether_check,
    fk_preserves_form,
    fk_spectral_radius,
    lambda_limit,
    lambda_sequence,
    model_from_weyl,
    quadratic_charpoly,
    quadratic_closed_form,
    quadratic_orbit_element,
    quadratic_orbit_matrix,
    quadratic_orbit_model,
    two_variable_det,
    verify_P_identity,
)
from cremlat.salem import IntPolynomial, dominant_real_root


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3))
def test_one_elimination_gives_det_and_rank(m):
    # the determinant of the P identity and the rank of the realizability
    # check come from the same pivots
    assert intmat.det(m) == intmat.det3(m)
    assert (intmat.rank(m) == 3) == (intmat.det3(m) != 0)
    assert intmat.rank(m + [[2 * x for x in m[0]]]) == intmat.rank(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6),
       st.sampled_from([None, 101, 2 ** 61 - 1]))
def test_interpolation_recovers_the_polynomial(coeffs, p):
    xs = list(range(-2, len(coeffs) + 1))
    ys = [sum(c * x ** i for i, c in enumerate(coeffs)) for x in xs]
    want = [c % p if p else c for c in coeffs]
    while len(want) > 1 and want[-1] == 0:
        want.pop()
    assert intmat.interpolate(xs, [y % p if p else y for y in ys], p) == want


# -- the explicit quadratic-case family ---------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
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


def test_closed_form_is_reciprocal():
    for m, k in ((2, 4), (3, 5), (5, 3)):
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
    for m, k in ((4, 3), (5, 4)):
        h = quadratic_orbit_element(m, k)
        lam_el = dominant_real_root(
            IntPolynomial(intmat.charpoly([list(r) for r in h.matrix])), 1e-10)
        lam_mat = dominant_real_root(quadratic_closed_form(m, k), 1e-10)
        assert abs(lam_el - lam_mat) < 1e-8


def test_small_construction_degrees_are_not_loxodromic():
    # at construction degree 2 and 3 the closed form has no root beyond 1
    # (the family only reaches the quadratic targets from degree 4 up,
    # which is why the target indexing shifts by two)
    for m in (2, 3):
        for k in (3, 6):
            assert dominant_real_root(quadratic_closed_form(m, k)) is None


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


def test_lambda_sequence_rejects_small_m():
    with pytest.raises(ValueError):
        lambda_sequence(1, [3])


# -- orbit models and truncations ---------------------------------------------------


@pytest.fixture(scope="module")
def model():
    return quadratic_orbit_model(4)


def test_model_block_shapes(model):
    assert model.n == 2          # two recycled orbits at construction degree 4
    assert model.a == 6          # e0 plus five length-zero orbit classes
    assert len(model.m_block) == 6 and len(model.m_block[0]) == 2
    assert len(model.q_block) == 2 and len(model.q_block[0]) == 6


def test_fk_preserves_the_minkowski_form(model):
    for k in (0, 1, 2, 4):
        assert fk_preserves_form(model, k)


def test_fk_noether_identities(model):
    for k in (0, 1, 3):
        assert fk_noether_check(model, k)


def test_fk_size_grows_by_n(model):
    sizes = [len(build_Fk(model, k)) for k in (1, 2, 3)]
    assert sizes[1] - sizes[0] == model.n and sizes[2] - sizes[1] == model.n


def test_p_identity(model):
    for k in (1, 2, 4):
        rep = verify_P_identity(model, k)
        assert rep.char_matches and rep.s0_quotient_is_power
        assert rep.s0_power >= 0


def test_p_vanishes_at_the_spectral_radius(model):
    k = 4
    lam = fk_spectral_radius(model, k)
    r = k + 1
    lam_f = Fraction(lam).limit_denominator(10 ** 12)
    val = two_variable_det(model, 1 / lam_f ** r, lam_f)
    assert abs(float(val)) < 1e-6


def test_fk_radii_converge_to_the_n_block_root(model):
    ncp = IntPolynomial(intmat.charpoly([list(r) for r in model.n_block]))
    target = dominant_real_root(ncp, 1e-12)
    assert abs(target - lambda_limit(2)) < 1e-12  # construction degree 4 = target 2
    radii = [fk_spectral_radius(model, k) for k in (1, 4, 8, 14)]
    diffs = [abs(r - target) for r in radii]
    assert all(x > y for x, y in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-5


def test_fk_matches_the_closed_form_family(model):
    # the depth-k truncation carries k + 1 orbit levels, matching the
    # explicit matrix at construction parameter 4 and index k + 1
    for k in (2, 5):
        lhs = fk_spectral_radius(model, k)
        rhs = dominant_real_root(quadratic_closed_form(4, k + 1), 1e-10)
        assert abs(lhs - rhs) < 1e-9


def test_model_extraction_validates_closure():
    from cremlat.lattice import points
    from cremlat.weyl import realize, sigma0, word

    p = points(3)
    h = realize(word(sigma0(*p)))
    with pytest.raises(ValueError):
        model_from_weyl(h, [(p[0], p[1])], [])


def test_model_block_validation():
    with pytest.raises(ValueError):
        OrbitModel(m_block=((1,),), n_block=((1,),), p_block=((1, 0),), q_block=((1,),))
