import dataclasses
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    LEHMER,
    axis_point,
    counting,
    counting_property,
    loxodromic_ten,
    power,
    random_word,
    word,
)
from cremlat import intmat, reduction, spectral
from cremlat.bounds import bounds, delta
from cremlat.lattice import (
    ClassVector,
    e,
    e0,
    infinitely_near,
    intersect,
    point,
    points,
    proper_point,
)
from cremlat.reduction import (
    PointConfiguration,
    averaged_noether_check,
    decreasing_step,
    realizable_jonquieres,
    reduce,
    verify_conjugation,
)
from cremlat.spectral import axis_data, classify, dynamical_degree
from cremlat.weyl import (
    Sigma0,
    conjugate,
    degree,
    multiplicity_profile,
    realize,
    sigma_omega_word,
)


# -- bound formulas -----------------------------------------------------------


def test_delta_closed_form():
    # within 2.5 ulp of a 50-digit value of (5 - 2 sqrt 6) / (sqrt 2 (lam + 1)),
    # whose numerator cancels five bits if it is computed as written
    for lam in (1.5, LEHMER, 2.3692054070924664, 10.0, 10 ** 6, 31049477.957554683, 1e8):
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (5 - 2 * Decimal(6).sqrt()) / (Decimal(2).sqrt() * (Decimal(lam) + 1))
            assert abs(Decimal(delta(lam)) - exact) <= Decimal(2.5) * Decimal(math.ulp(delta(lam)))
    assert abs(delta(10 ** 6) - 7.1432e-8) < 1e-11


def test_bounds_exact_values():
    rep = bounds(10 ** 6)
    assert rep.mcdeg_bound == 4700 * 10 ** 30
    assert rep.degree_threshold == 24 * 10 ** 18
    rep2 = bounds(2, 2)
    assert rep2.conjugator_bound == 2 ** 115
    with pytest.raises(ValueError):
        bounds(1)
    with pytest.raises(ValueError):
        bounds(1, 5)


def test_bounds_at_the_lehmer_number():
    rep = bounds(LEHMER)
    assert rep.cosh_bound >= LEHMER
    assert math.isfinite(rep.cosh_bound)
    assert rep.decrease_quantum > 0


# -- averaged multiplicities on the axis ------------------------------------------


def test_averaged_noether_on_loxodromic_samples(rng, pts12):
    h = loxodromic_ten(pts12)
    rep = averaged_noether_check(h)
    assert rep.ok
    prof = multiplicity_profile(h)
    assert sum(prof.c) == 3 * prof.degree - 3
    checked = 1
    pts = points(11)
    while checked < 12:
        g = realize(random_word(rng, rng.randint(4, 14), pts))
        if classify(g).kind != "loxodromic":
            continue
        assert averaged_noether_check(g).ok
        checked += 1


def test_averaged_noether_rejects_non_loxodromic():
    p = points(3)
    with pytest.raises(ValueError):
        averaged_noether_check(realize(word(Sigma0(*p))))


def test_axis_positivity_for_normal_form_classes(pts12):
    # e0, e(p), e0 - e(p) and 3 e0 - sum of nine pair non-negatively with
    # the axis projection
    h = loxodromic_ten(pts12)
    E = axis_point(axis_data(h))
    tol = 1e-9
    assert intersect(e0(), E) >= -tol
    for p in h.support:
        assert intersect(e(p), E) >= -tol
        assert intersect(e0() - e(p), E) >= -tol
    K = ClassVector(3, {p: -1 for p in pts12[:9]})
    assert intersect(K, E) >= -tol


# -- the conjugation loop ------------------------------------------------------------


def build_inflated(core, root, omega):
    return conjugate(realize(sigma_omega_word(root, omega)), core)


def stacked_inflated(pts12):
    """The stacked instance of test_reduce_inflated_instances (three steps)."""
    extra = points(24)
    h = build_inflated(loxodromic_ten(pts12), extra[0], extra[1:9])
    return build_inflated(h, extra[12], extra[13:19])


def test_decreasing_step_requires_loxodromic():
    p = points(3)
    h = realize(word(Sigma0(*p)))
    with pytest.raises(ValueError):
        decreasing_step(h)


def test_decreasing_step_on_an_inflated_element(pts12):
    extra = points(12)
    core = loxodromic_ten(pts12)
    lam = dynamical_degree(core)
    inflated = build_inflated(core, extra[0], extra[1:11])
    assert degree(inflated) > 24 * lam ** 3
    result = decreasing_step(inflated)
    assert result is not None
    step, h2, w, _ = result
    assert step.achieved >= delta(lam) - 1e-9
    assert step.achieved >= step.guarantee - 1e-6
    assert step.guarantee >= delta(lam) - 1e-9
    assert step.cosh_after < step.cosh_before
    # exact conjugation by the two-letter word
    assert conjugate(realize(w), inflated) == h2
    assert len(w.letters) == 2
    # conjugation preserves the dynamical degree
    assert abs(dynamical_degree(h2) - lam) < 1e-9


def test_reduce_trivial_when_already_small(pts12):
    core = loxodromic_ten(pts12)
    lam = dynamical_degree(core)
    assert degree(core) <= 24 * lam ** 3
    trace = reduce(core)
    assert trace.terminal == "reached_degree_threshold"
    assert trace.steps == ()
    assert trace.final == core


@pytest.mark.parametrize("omega_size,stacked", [(10, False), (8, True)])
def test_reduce_inflated_instances(pts12, omega_size, stacked):
    extra = points(24)
    core = loxodromic_ten(pts12)
    lam = dynamical_degree(core)
    h = build_inflated(core, extra[0], extra[1:1 + omega_size])
    if stacked:
        h = build_inflated(h, extra[12], extra[13:13 + 6])
    assert degree(h) > 24 * lam ** 3
    trace = reduce(h, budget=100)
    assert trace.terminal == "reached_degree_threshold"
    assert degree(trace.final) <= trace.degree_threshold
    assert len(trace.steps) <= trace.step_bound
    q = delta(trace.lam)
    for step in trace.steps:
        assert step.achieved >= q - 1e-9
    assert verify_conjugation(trace, h)
    assert len(trace.conjugator.letters) == 2 * len(trace.steps)


def test_reduce_budget_exhaustion(pts12):
    extra = points(12)
    core = loxodromic_ten(pts12)
    h = build_inflated(core, extra[0], extra[1:11])
    trace = reduce(h, budget=0)
    assert trace.terminal == "step_budget_exhausted"


def test_trace_json_lines(pts12):
    import json

    trace = reduce(stacked_inflated(pts12), budget=50)
    lines = list(trace.json_lines())
    assert len(lines) == len(trace.steps) + 1
    summary = json.loads(lines[-1])
    assert summary["terminal"] == trace.terminal
    steps = [json.loads(line) for line in lines[:-1]]
    assert steps
    for step in steps:
        assert step["degree_before"] > step["degree_after"]
        assert step["cosh_before"] > step["cosh_after"]
        assert set(step) >= {"root", "omega", "cosh_before", "cosh_after"}
    for before, after in zip(steps, steps[1:]):
        assert before["degree_after"] == after["degree_before"]
        assert before["cosh_after"] == after["cosh_before"]
    assert summary["final_degree"] == steps[-1]["degree_after"]


def test_reduce_computes_one_characteristic_polynomial(pts12, monkeypatch):
    h = stacked_inflated(pts12)
    charpolys = counting(monkeypatch, intmat, "charpoly")
    trace = reduce(h)
    assert len(trace.steps) == 3
    assert len(charpolys) == 1


def test_reduce_above_lambda_1e6_squares_three_times(monkeypatch):
    # lambda(h0^20) ~ 3.1e7, so lambda^8 >= 2^100 deg^2 already holds: the
    # input's M^8 e0 and e0^T M^8 come from its one Krylov pass, and no
    # matrix is multiplied
    h = power(loxodromic_ten(points(10)), 20)
    spectral._spectrum.cache_clear()
    products = counting(monkeypatch, intmat, "mat_mul")
    passes = counting_property(monkeypatch, spectral._Spectrum, "krylov")
    trace = reduce(h)
    assert 3.0e7 < trace.lam < 3.2e7
    assert passes == [spectral._spectrum(h)] and products == []
    # reduce never asks for the 200/400 criterion
    assert all("criterion" not in vars(spectral._spectrum(g)) for g in (h, trace.final))


def test_a_step_makes_no_matrix_product(pts12, monkeypatch):
    # the conjugator acts by row operations and the axis data is carried
    h = stacked_inflated(pts12)
    data = axis_data(h)
    products = counting(monkeypatch, intmat, "mat_mul")
    assert decreasing_step(h, data=data) is not None
    assert products == []


def test_conjugate_inherits_the_exact_lambda(pts12):
    h = stacked_inflated(pts12)
    _, h2, _, data2 = decreasing_step(h)
    assert data2.lam == dynamical_degree(h2)
    assert data2.lam == axis_data(h).lam


def recorded_steps(monkeypatch):
    """The results of the decreasing_step calls that reduce makes."""
    results = []
    step = reduction.decreasing_step

    def recorded(*args, **kwargs):
        results.append(step(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(reduction, "decreasing_step", recorded)
    return results


def assert_reads_as_squared(h, data):
    """Axis data carried to h equal, field for field, to the data that
    squaring h itself gives (the columns they were read from differ)."""
    fresh = spectral._axis_data_at(h, data.lam)
    for f in dataclasses.fields(data):
        if f.compare:
            assert getattr(data, f.name) == getattr(fresh, f.name), f.name


def test_carried_axis_reads_as_squared_along_reduce(pts12, monkeypatch):
    steps = recorded_steps(monkeypatch)
    trace = reduce(stacked_inflated(pts12))
    assert len(trace.steps) == len(steps) == 3
    for _, h2, _, data2 in steps:
        assert_reads_as_squared(h2, data2)


def theorem_regime_conjugate():
    """g^19 h0^20 g^-19 with g and h0 standard samples on overlapping points:
    lambda ~ 3.1e7 > 10^6 and degree ~ 3.1e24 > 24 lambda^3 ~ 7.2e23."""
    pts = points(15)
    return conjugate(power(loxodromic_ten(pts[5:]), 19), power(loxodromic_ten(pts[:10]), 20))


def test_reduce_in_the_theorem_regime():
    h = theorem_regime_conjugate()
    trace = reduce(h)
    assert trace.lam > 10 ** 6 and degree(h) > trace.degree_threshold
    assert trace.terminal == "reached_degree_threshold"
    assert len(trace.steps) >= 3
    assert verify_conjugation(trace, h)
    q = delta(trace.lam)
    for step in trace.steps:
        assert step.achieved >= q
        assert step.guarantee >= q
        assert step.degree_after < step.degree_before


def test_no_decreasing_triple_above_the_threshold_is_an_error(monkeypatch):
    # past lambda = 10^6 the averaged Noether bound promises a triple
    monkeypatch.setattr(reduction, "decreasing_step", lambda *args: None)
    with pytest.raises(spectral.CertificateError):
        reduce(theorem_regime_conjugate())


def test_carried_axis_reads_as_squared_past_lambda_1e6(monkeypatch):
    steps = recorded_steps(monkeypatch)
    trace = reduce(theorem_regime_conjugate())
    assert trace.lam > 10 ** 6
    assert len(trace.steps) == len(steps) >= 3
    for _, h2, _, data2 in steps:
        assert_reads_as_squared(h2, data2)


@pytest.mark.parametrize("stacked", [False, True])
def test_reduce_squares_only_its_input(pts12, monkeypatch, stacked):
    extra = points(12)
    h = (stacked_inflated(pts12) if stacked
         else build_inflated(loxodromic_ten(pts12), extra[0], extra[1:11]))
    spectral._spectrum.cache_clear()
    passes = counting_property(monkeypatch, spectral._Spectrum, "krylov")
    trace = reduce(h)
    assert len(trace.steps) == (3 if stacked else 1)
    # one Krylov pass for the axis of h; every conjugate's axis is carried
    assert len(passes) == 1 and passes[0] is spectral._spectrum(h)


# -- realizability of base configurations ----------------------------------------------


def general_position_points(n):
    # points on the rational normal curve-ish configuration: (1, t, t^2)
    base = [proper_point(1, 0, 0), proper_point(0, 1, 0), proper_point(0, 0, 1)]
    for t in range(1, n - 2):
        base.append(proper_point(1, t, t * t))
    return base[:n]


def test_realizable_quadratic_general_position():
    pts = [proper_point(1, 0, 0), proper_point(0, 1, 0), proper_point(0, 0, 1)]
    config = PointConfiguration(pts)
    assert realizable_jonquieres(config, 2).status == "pass"


def test_realizable_fails_on_collinear_triple():
    pts = [proper_point(1, 0, 0), proper_point(0, 1, 0), proper_point(1, 1, 0)]
    # the three points lie on the line z = 0
    report = realizable_jonquieres(PointConfiguration(pts), 2)
    assert report.status == "fail" and report.condition == 3


def test_realizable_fails_on_too_many_proximate_points():
    # three of the four satellites proximate to the first point, one
    # beyond the m - 1 = 2 allowed
    p1 = proper_point(1, 0, 0)
    near = [infinitely_near(p1), infinitely_near(p1), infinitely_near(p1)]
    sat = [proper_point(0, 1, 0)]
    config = PointConfiguration([p1] + near + sat)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            pts = [p1] + near + sat
            config.collinear_facts[frozenset((p1.id, pts[i].id, pts[j].id))] = False
    report = realizable_jonquieres(config, 3)
    assert report.status == "fail" and report.condition == 5


def test_realizable_fails_on_double_proximity():
    p1 = proper_point(1, 0, 0)
    q = proper_point(0, 1, 0)
    a = infinitely_near(q)
    b = infinitely_near(a)
    rest = proper_point(0, 0, 1)
    pts = [p1, q, a, b, rest]
    config = PointConfiguration(pts)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            config.collinear_facts[frozenset((p1.id, pts[i].id, pts[j].id))] = False
    report = realizable_jonquieres(config, 3)
    assert report.status == "fail" and report.condition == 4


def test_realizable_first_point_must_be_proper():
    q = proper_point(1, 0, 0)
    p1 = infinitely_near(q)
    config = PointConfiguration([p1, q, proper_point(0, 1, 0)])
    report = realizable_jonquieres(config, 2)
    assert report.status == "fail" and report.condition == 1


def test_realizable_undecidable_without_annotations():
    config = PointConfiguration([point(), point(), point()])
    report = realizable_jonquieres(config, 2)
    assert report.status == "undecidable" and report.condition == 1


def test_realizable_curve_condition():
    # five satellites on one line not through p1: a line meets k + m = 5 of
    # them, one more than the k + m - 1 allowed at k = 1, m = 4
    p1 = proper_point(1, 1, 1)
    on_line = [proper_point(0, 1, t) for t in (0, 1, 2, 3, 4)]
    off_line = [proper_point(1, 5, 19)]
    config = PointConfiguration([p1] + on_line + off_line, k_max=6)
    report = realizable_jonquieres(config, 4)
    assert report.status == "fail" and report.condition == 6
    assert "degree-1" in report.witness


def test_realizable_detects_points_on_a_common_conic():
    # the rational normal curve (1, t, t^2) passes through all of these, so
    # a conic with a simple point at the first one meets six satellites,
    # one more than allowed at k = 2, m = 4
    p1 = proper_point(1, 1, 1)
    sats = [proper_point(1, t, t * t) for t in (2, 3, 5, 7, 11, 13)]
    report = realizable_jonquieres(PointConfiguration([p1] + sats, k_max=6), 4)
    assert report.status == "fail" and report.condition == 6
    assert "degree-2" in report.witness


def test_realizable_passes_in_general_position():
    coords = [(1, 8, 13), (3, 2, 6), (4, 11, 1), (6, 13, 12),
              (8, 4, 7), (10, 5, 12), (12, 11, 9)]
    pts = [proper_point(*c) for c in coords]
    report = realizable_jonquieres(PointConfiguration(pts, k_max=6), 4)
    assert report.status == "pass", report


def test_realizable_wrong_count():
    with pytest.raises(ValueError):
        realizable_jonquieres(PointConfiguration([proper_point(1, 0, 0)]), 2)


def test_realizable_declared_facts():
    # opaque points with declared collinearity data
    a, b, c = point(), point(), point()
    p1 = proper_point(1, 0, 0)
    config = PointConfiguration([p1, a, b])
    report = realizable_jonquieres(config, 2)
    assert report.status == "undecidable" and report.condition == 2


@st.composite
def configurations(draw):
    """(m, coordinates) of 2m - 1 proper points: p1, then satellites on a conic
    through p1 or anywhere, all moved by one invertible integer matrix whose
    first column, the image of p1, may start with zeros."""
    m = draw(st.integers(3, 5))
    first = draw(st.sampled_from([(0, 0, 1), (0, 1, 0), (0, 2, -1), (1, 0, 0), (2, -1, 3)]))
    rest = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    b = [[first[i]] + rest[2 * i:2 * i + 2] for i in range(3)]
    assume(intmat.det3(b))
    canon = [(1, 0, 0)]
    for _ in range(2 * m - 2):
        if draw(st.booleans()):
            s, t = draw(st.integers(-5, 5)), draw(st.integers(1, 5))
            canon.append((s * s, s * t, t * t))
        else:
            canon.append(tuple(draw(st.lists(st.integers(-5, 5), min_size=3, max_size=3))))
    assume(all(any(v) for v in canon))
    return m, [tuple(intmat.mat_vec(b, v)) for v in canon]


@settings(max_examples=60, deadline=None)
@given(configurations(), st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_realizability_is_invariant_under_a_change_of_coordinates(config, entries):
    m, coords = config
    a = [entries[0:3], entries[3:6], entries[6:9]]
    assume(intmat.det3(a))

    def report(cs):
        pts = [proper_point(*c, label=f"p{i}") for i, c in enumerate(cs)]
        r = realizable_jonquieres(PointConfiguration(pts), m)
        return r.status, r.condition, r.witness

    assert report(coords) == report([intmat.mat_vec(a, c) for c in coords])
