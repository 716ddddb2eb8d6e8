"""Exact lattice dynamics of plane birational transformations.

Subpackages:

* :mod:`cremlat.lattice` -- sparse exact class vectors, intersection and
  canonical forms, the hyperbolic metric;
* :mod:`cremlat.weyl` -- words and integer matrices for the infinite Weyl
  group, degree/multiplicity identities, normal forms;
* :mod:`cremlat.spectral` -- certified isometry classification, dynamical
  degrees, axis data, the big-power loxodromy criterion;
* :mod:`cremlat.salem` -- polynomial classification (Salem, Pisot, ...),
  cyclotomic stripping, bounded exhaustive Salem search;
* :mod:`cremlat.reduction` -- the quadratic-conjugation degree reduction
  loop, bound formulas, base-point realizability;
* :mod:`cremlat.orbits` -- truncated base-point orbits of the explicit
  quadratic-case family and their Salem spectral radii;
* :mod:`cremlat.birmap` -- a desk-scale engine for coordinate triples and
  monomial maps.
"""

from .lattice import (
    BubblePoint,
    ClassVector,
    canonical_form,
    cosh_distance,
    e,
    e0,
    infinitely_near,
    intersect,
    norm_sq,
    point,
    points,
    proper_point,
)
from .weyl import (
    WeylElement,
    WeylWord,
    apply,
    compose,
    conjugate,
    coxeter_generators,
    degree,
    halphen_test,
    inverse,
    jonquieres_center,
    multiplicity_profile,
    noether_report,
    normalize_increasing,
    parse_word,
    permutation,
    print_word,
    realize,
    sigma0,
    sigma_omega,
    tau,
    word,
)
from .spectral import (
    axis_data,
    classify,
    degree_sequence,
    dynamical_degree,
    loxodromy_criterion,
    spectrum_report,
)
from .salem import (
    IntPolynomial,
    classify_number,
    enumerate_salem,
    lehmer_number,
    named_constants,
    parse_poly,
    spectral_gap_assert,
)
from .reduction import PointConfiguration, bounds, delta, realizable_jonquieres, reduce
from .orbits import lambda_sequence, quadratic_charpoly, quadratic_orbit_matrix

__version__ = "0.1.0"
