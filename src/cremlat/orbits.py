"""Finite truncations of base-point orbits and their Salem spectral radii.

The quadratic case of the construction, written out explicitly: an element
of degree m on 2m - 1 base points, where the orbits of m - 2 base points of
the inverse are truncated after k steps and recycled onto base points of the
element.  From degree 4 on its spectral radii are Salem numbers converging
as k grows.  One construction serves every caller:

* :func:`quadratic_orbit_matrix` is the explicit (2k+4)-square matrix,
  indexed by the construction degree m >= 3 exactly as written, and
  :func:`quadratic_closed_form` its characteristic polynomial in closed
  form; :func:`quadratic_charpoly` checks the two against each other;
* :func:`quadratic_orbit_element` realizes the same action as an isometry of
  the Picard-Manin lattice, validated by :func:`weyl.element_from_images`;
* :func:`lambda_sequence` reads the closed forms and is indexed by the
  target trace parameter: its values converge to the largest root of
  x^2 - (m+1)x + 1, which the construction realizes at degree m + 2.  (The
  two indexings differ by 2; the closed form with literal parameter mu has
  dominant roots tending to the largest root of x^2 - (mu-1)x + 1, and none
  above 1 at mu = 3.)
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

# bound as modules, so that a caller which has bound them lazily (as the
# command line does) runs them only for the lattice realization
from . import intmat, lattice, weyl
from .salem import IntPolynomial, classify_number


def quadratic_orbit_matrix(m: int, k: int):
    """The explicit square matrix of size 2k + 4 for construction degree m.

    Indexing follows the source display verbatim; its characteristic
    polynomial is :func:`quadratic_closed_form`.
    """
    if m < 3 or k < 2:
        raise ValueError("need m >= 3 and k >= 2")
    size = 2 * k + 4
    M = [[0] * size for _ in range(size)]
    M[0][2 * k + 2] = 1
    M[1][2 * k + 3] = 1
    block = [
        [m - 1, m - 3, m, m + 1],
        [-1, 0, -1, -1],
        [-(m - 2), -(m - 3), -(m - 1), -(m + 1)],
        [-1, -1, -1, 0],
    ]
    for i in range(4):
        for j in range(4):
            M[2 + i][j] = block[i][j]
    for j in range(2 * k - 2):
        M[6 + j][4 + j] = 1
    return M


def quadratic_closed_form(m: int, k: int) -> IntPolynomial:
    """x^{2k+2}(x^2 - (m-1)x + 1) + x^{k+1}((m-1)x^2 - 4x + (m-1)) + (x^2 - (m-1)x + 1)."""
    if m < 3 or k < 2:
        raise ValueError("need m >= 3 and k >= 2")
    c = [0] * (2 * k + 5)
    c[0] += 1
    c[1] += -(m - 1)
    c[2] += 1
    c[k + 1] += m - 1
    c[k + 2] += -4
    c[k + 3] += m - 1
    c[2 * k + 2] += 1
    c[2 * k + 3] += -(m - 1)
    c[2 * k + 4] += 1
    return IntPolynomial(c)


def quadratic_charpoly(m: int, k: int):
    """Exact characteristic polynomial of the explicit matrix, with the
    closed-form comparison; returns (polynomial, matches_closed_form)."""
    cp = IntPolynomial(intmat.charpoly(quadratic_orbit_matrix(m, k)))
    return cp, cp == quadratic_closed_form(m, k)


def quadratic_orbit_element(m: int, k: int) -> weyl.WeylElement:
    """A genuine lattice isometry realizing the quadratic-case action.

    Built on 2m - 1 base-point classes plus m - 2 recycled orbit chains of
    length k; its dominant eigenvalue agrees with the explicit matrix's.
    """
    if m < 3 or k < 1:
        raise ValueError("need m >= 3 and k >= 1")
    e = lattice.e
    q = lattice.points(2 * m - 1, "q")
    chain = {(i, j): lattice.point(label=f"a{i}_{j}")
             for i in range(1, m - 1) for j in range(1, k + 1)}
    p = {i: chain[(i, k)] if i <= m - 2 else q[i - 1] for i in range(1, 2 * m)}
    sum_q = sum((e(q[i]) for i in range(1, 2 * m - 1)), lattice.ClassVector(0, {}))
    images = {
        "e0": lattice.ClassVector(m, {}) - (m - 1) * e(q[0]) - sum_q,
        p[1]: lattice.ClassVector(m - 1, {}) - (m - 2) * e(q[0]) - sum_q,
    }
    for i in range(2, 2 * m):
        images[p[i]] = lattice.e0() - e(q[0]) - e(q[i - 1])
    for i in range(1, m - 1):
        images[q[i - 1]] = e(chain[(i, 1)])
        for j in range(1, k):
            images[chain[(i, j)]] = e(chain[(i, j + 1)])
    return weyl.element_from_images(images)


class LambdaEntry(NamedTuple):
    k: int
    value: float
    kind: str


def lambda_sequence(m: int, ks: Sequence[int]) -> list[LambdaEntry]:
    """Spectral radii converging to the largest root of x^2 - (m+1)x + 1.

    ``m`` is the target trace parameter (m >= 2); the values are dominant
    roots of the closed-form polynomials at construction degree m + 2, each
    correctly rounded and classified by one call of the polynomial
    classifier.  Rounding is monotone, so the values rise with k and stay
    below the limit.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    out = []
    for k in ks:
        poly = quadratic_closed_form(m + 2, k)
        cls = classify_number(poly)
        out.append(LambdaEntry(k, cls.dominant_root, cls.kind))
    return out


def lambda_limit(m: int) -> float:
    """The largest root of x^2 - (m+1)x + 1."""
    t = m + 1
    return (t + math.sqrt(t * t - 4)) / 2
