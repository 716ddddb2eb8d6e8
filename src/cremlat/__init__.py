"""Exact lattice dynamics of plane birational transformations.

Modules:

* :mod:`cremlat.lattice` -- bubble points, sparse exact class vectors, the
  intersection form;
* :mod:`cremlat.intmat` -- small exact integer matrix kernels;
* :mod:`cremlat.weyl` -- words and integer matrices for the infinite Weyl
  group, degree/multiplicity identities, normal forms;
* :mod:`cremlat.spectral` -- certified isometry classification, dynamical
  degrees, axis data, the big-power loxodromy criterion;
* :mod:`cremlat.salem` -- polynomial classification (Salem, Pisot, ...),
  cyclotomic stripping, bounded exhaustive Salem search;
* :mod:`cremlat.bounds` -- the bound formulas of the reduction theorem;
* :mod:`cremlat.reduction` -- the quadratic-conjugation degree reduction
  loop, base-point realizability;
* :mod:`cremlat.orbits` -- truncated base-point orbits of the explicit
  quadratic-case family and their Salem spectral radii;
* :mod:`cremlat.birmap` -- a desk-scale engine for coordinate triples and
  monomial maps;
* :mod:`cremlat.cli` -- the ``cremlat`` command line.
"""

__version__ = "0.1.0"


class InputSyntaxError(ValueError):
    """Text that does not parse; each parser raises its own subclass, and the
    command line exits 2 on any of them."""
