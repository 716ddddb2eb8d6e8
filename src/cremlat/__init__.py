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


DEFAULT_PRIME = 4611686018427387847  # 62-bit prime


def primes():
    """The primes from DEFAULT_PRIME down to 2^61, by Miller-Rabin, exact below 3.1e23."""
    for n in range(DEFAULT_PRIME, 1 << 61, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
        xs = (pow(b, (n - 1) >> s, n) for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
        if all(x == 1 or any(pow(x, 1 << i, n) == n - 1 for i in range(s)) for x in xs):
            yield n


def crt(residues, modulus, image, prime):
    """Chinese remaindering, elementwise, of residues modulo modulus and an
    image modulo prime: (the residues modulo modulus * prime, that product)."""
    inv = pow(modulus, -1, prime)
    return [r + modulus * ((x - r) * inv % prime) for r, x in zip(residues, image)], modulus * prime

