"""Finite truncations of base-point orbits and their Salem spectral radii.

The quadratic case of the construction, written out explicitly: an element
of degree m on 2m - 1 base points, where the orbits of m - 2 base points of
the inverse are truncated after k steps and recycled onto base points of the
element.  From degree 4 on its spectral radii are Salem numbers converging
as k grows.

* :func:`quadratic_closed_form` is the characteristic polynomial, in closed
  form, of the explicit (2k+4)-square matrix of the construction, indexed
  by the construction degree m >= 3 exactly as written.  The matrix itself,
  the check of the closed form against it, and the same action realized as
  an isometry of the Picard-Manin lattice are paper checks, which the tests
  run;
* :func:`lambda_sequence` reads the closed forms and is indexed by the
  target trace parameter: its values converge to the largest root of
  x^2 - (m+1)x + 1, which the construction realizes at degree m + 2.  (The
  two indexings differ by 2; the closed form with literal parameter mu has
  dominant roots tending to the largest root of x^2 - (mu-1)x + 1, and none
  above 1 at mu = 3.)
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .roots import IntPolynomial, dominant_real_root
from .salem import classify_number


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


# the largest k and m that lambda_sequence takes: the work grows about as
# k^3, and with the digits of m; on a 2-vCPU Xeon host, k up to 128 takes
# about 3.3 s at m = 3 and 11 s at m = 1000
K_LIMIT = 128
M_LIMIT = 1000


class LambdaEntry(NamedTuple):
    k: int
    value: float
    kind: str


def lambda_sequence(m: int, ks: Sequence[int]) -> list[LambdaEntry]:
    """Spectral radii converging to the largest root of x^2 - (m+1)x + 1.

    ``m`` is the target trace parameter (m >= 2); the values are dominant
    roots of the closed-form polynomials at construction degree m + 2, each
    correctly rounded and classified by one call of the polynomial
    classifier.  A k above :data:`K_LIMIT`, or an m above :data:`M_LIMIT`,
    is refused before any closed form is built.  Rounding is monotone, so
    the values rise with k and stay below the limit.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if m > M_LIMIT:
        raise RuntimeError(f"m = {m} is past the limit {M_LIMIT} of the truncated orbits")
    if max(ks, default=0) > K_LIMIT:
        raise RuntimeError(f"k = {max(ks)} is past the limit {K_LIMIT} of the truncated orbits")
    out = []
    for k in ks:
        poly = quadratic_closed_form(m + 2, k)
        cls = classify_number(poly)
        out.append(LambdaEntry(k, cls.dominant_root, cls.kind))
    return out


def lambda_limit(m: int) -> float:
    """The largest root of x^2 - (m+1)x + 1, correctly rounded."""
    return dominant_real_root(IntPolynomial([1, -(m + 1), 1]))
