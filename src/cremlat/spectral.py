"""Spectral analysis of realized Weyl elements as hyperbolic isometries.

Classification is certified, not fitted: the characteristic polynomial is
computed exactly, its cyclotomic part is divided out exactly, and

* a nontrivial cyclotomic-free part forces spectral radius > 1 (a monic
  integer polynomial with no cyclotomic factor and nonzero constant term
  must have a root off the unit circle), so the element is loxodromic and
  its dynamical degree is the dominant real root, the float nearest to it
  from exact sign bisection;
* otherwise every eigenvalue is a root of unity of known order; with k the
  lcm of the orders, M^k is unipotent and the Jordan ranks of (M^k - I)
  decide between finite order and the two parabolic growth types.

For a finite-support isometry of a lattice of signature (1, n), a unipotent
part can only produce quadratic growth of e0 . h^n(e0) (a rank-one nilpotent
with isotropic image moves nothing), so the linear-growth branch below is
never reached by realized words; it is kept so the trichotomy is total and
violations surface loudly.

The characteristic polynomial chi (:func:`cremlat.intmat.charpoly`), its
cyclotomic split, lambda's bracket, one resolvent pass and the criterion
degrees are computed once per element, on first use, in one record
(:func:`_spectrum`) that every function below reads; no matrix is
multiplied.  The pass gives B(z) = adj(zI - M) e0 from n - 1 products with a
vector, checked by chi(M) e0 = 0 exactly, and A(z) / chi(z) =
sum_k deg(h^k) z^(-k-1) with A the e0 row of B.  Over Q(lambda) = Q[z]/P, P
the cyclotomic-free part, the axis has the closed form v+- =
B(lambda^+-1) / A(lambda^+-1), and B mod P keeps both values as P is
reciprocal.  :mod:`cremlat.reduction` gives each conjugate g h g^-1 g's image
of B mod P, so a conjugate makes neither a characteristic polynomial nor a
resolvent pass.  Each axis float is rounded once from lambda's bracket.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, reduce
from operator import mul
from typing import NamedTuple

from . import intmat
from .bounds import LOXODROMY_CONSTANT
from .lattice import ClassVector
from .roots import (
    IntPolynomial, RootBracket, _deriv, _divmod_monic, _mul, strip_cyclotomic,
)
from .weyl import WeylElement, degree

KIND_ELLIPTIC = "elliptic"
KIND_PARABOLIC_LINEAR = "parabolic_linear"
KIND_PARABOLIC_QUADRATIC = "parabolic_quadratic"
KIND_LOXODROMIC = "loxodromic"


class CertificateError(RuntimeError):
    """An exact or numerical certificate failed its own check: the input is
    not what the analysis assumes, or the analysis is at fault."""


class IsometryClassification(NamedTuple):
    kind: str
    evidence: str

    @property
    def is_loxodromic(self):
        return self.kind == KIND_LOXODROMIC


class _Spectrum:
    """Spectral data of one element, each part computed on first use: the
    characteristic polynomial split once into its cyclotomic orders and
    cyclotomic-free part, lambda, the resolvent pass and the criterion degrees."""

    def __init__(self, matrix: tuple):
        self.matrix = matrix

    @cached_property
    def charpoly(self) -> IntPolynomial:
        """chi, with its Mahler measure bounded by max(1, ||M||_inf): realize
        checks each element as an isometry of a form of signature (1, n),
        and products, inverses and conjugates of isometries are isometries.
        Such an isometry has at most one eigenvalue off the closed unit disc,
        so the Mahler measure is lambda, at most ||M||_inf."""
        return IntPolynomial(intmat.charpoly(self.matrix, outside=1))

    @cached_property
    def split(self) -> tuple:
        """(cyclotomic-free part or None, cyclotomic orders)."""
        return strip_cyclotomic(self.charpoly)

    @cached_property
    def bracket(self) -> RootBracket:
        """lambda's bracket on the cyclotomic-free part P, lambda's minimal
        polynomial: in signature (1, n), lambda and 1/lambda are its only
        roots off the unit circle, and by Kronecker any other factor would be
        cyclotomic.  So P is squarefree, and Descartes' rule isolates lambda."""
        bracket = RootBracket(self.split[0].coeffs)
        if not bracket.isolate() or bracket.nearest() <= 1:
            raise CertificateError(
                "cyclotomic-free characteristic factor without a root > 1; "
                "the input is not an isometry of signature (1, n)")
        return bracket

    @cached_property
    def lam(self) -> float:
        """lambda, correctly rounded to a float."""
        return self.bracket.nearest()

    @cached_property
    def resolvent(self) -> list:
        """B_0, ..., B_{n-1} with adj(zI - M) e0 = sum_j z^j B_j: B_{n-1} = e0
        and B_{j-1} = M B_j + c_j e0, chi = sum_j c_j z^j.  The last product,
        M B_0 + c_0 e0 = chi(M) e0, must vanish (Cayley-Hamilton)."""
        m = self.matrix
        cols = [[1] + [0] * (len(m) - 1)]
        for c in self.charpoly.coeffs[-2::-1]:
            cols.append(intmat.mat_vec(m, cols[-1]))
            cols[-1][0] += c
        if any(cols.pop()):
            raise CertificateError("chi(M) e0 is not 0: the characteristic polynomial "
                                   "fails the Cayley-Hamilton check")
        return cols[::-1]

    @cached_property
    def criterion(self) -> tuple:
        """(deg(h^200), deg(h^400)), exact: A(z) = chi(z) sum_k s_k z^(-k-1)
        with s_k = e0 . M^k e0, so by descending coefficients
        s_k = a_(n-1-k) - sum_(j=1..n) c_(n-j) s_(k-j), a_i = 0 for i < 0."""
        c = self.charpoly.coeffs
        n = len(c) - 1
        a, s = [b[0] for b in reversed(self.resolvent)] + [0] * 401, []
        for k in range(401):
            t = s[max(0, k - n):k]
            s.append(a[k] - sum(map(mul, c[n - len(t):n], t)))
        return s[200], s[400]


@lru_cache(maxsize=256)
def _spectrum(h: WeylElement) -> _Spectrum:
    return _Spectrum(h.matrix)


def classify(h: WeylElement) -> IsometryClassification:
    """Certified elliptic / parabolic / loxodromic trichotomy."""
    sp = _spectrum(h)
    rest, orders = sp.split
    if rest is not None:
        return IsometryClassification(
            KIND_LOXODROMIC, f"spectral radius {sp.lam:.9f} from a non-cyclotomic factor")
    k = reduce(math.lcm, orders, 1)
    power = nil = [[x - (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(intmat.mat_pow(h.matrix, k))]
    for kind, evidence in ((KIND_ELLIPTIC, f"finite order dividing {k}"),
                           (KIND_PARABOLIC_LINEAR, f"M^{k} unipotent with (M^k - I)^2 = 0"),
                           (KIND_PARABOLIC_QUADRATIC, f"M^{k} unipotent with (M^k - I)^3 = 0")):
        if not any(map(any, power)):
            return IsometryClassification(kind, evidence)
        power = intmat.mat_mul(power, nil)
    raise CertificateError("unipotent part with a Jordan block of size > 3")


def dynamical_degree(h: WeylElement) -> float:
    """Spectral radius; exactly 1.0 for non-loxodromic elements.

    The value 1 is certified by the cyclotomic factorization, never by a
    floating comparison.
    """
    sp = _spectrum(h)
    if sp.split[0] is None:
        return 1.0
    return sp.lam


# ---------------------------------------------------------------------------
# eigenvectors, axis, distances


class LoxodromicData(NamedTuple):
    lam: float
    vplus_dot_vminus: float
    cosh_axis_distance: float
    # the axis C = sum_k z^k columns[k] over Q[z]/P, P = bracket.poly, with
    # v+- = C(lambda^+-1) / C_0(lambda^+-1), and pairing = <C, C*> mod P,
    # C*(z) = z^(deg P - 1) C(1/z)
    columns: tuple
    bracket: RootBracket
    pairing: list


def axis_data(h: WeylElement) -> LoxodromicData:
    """Dynamical degree, the exact axis, and the distance to the axis.

    The axis is B mod P, B(z) = adj(zI - M) e0 from the resolvent pass, A its
    e0 row: B(lambda) is A(lambda) v+, B(1/lambda) is A(1/lambda) v-, and the
    pairing is chi' A* mod P, as v+ . v- = chi'(lambda) / A(lambda).
    v+ . v- and cosh dist(e0, axis) = sqrt(2 / (v+ . v-)) are each rounded
    once from lambda's bracket.

    :func:`cremlat.reduction.reduce` carries the columns through each
    conjugation, g h g^-1 getting g B mod P, whose values at lambda^+-1 lie
    on its eigenvectors; an isometry keeps the pairing, so no conjugate makes
    a resolvent pass.
    """
    cls = classify(h)
    if not cls.is_loxodromic:
        raise ValueError(f"axis data needs a loxodromic element, got {cls.kind}")
    sp = _spectrum(h)
    p = sp.bracket.poly
    rows = [_divmod_monic(r, p)[1] for r in zip(*sp.resolvent)]  # one per coordinate
    rows = [r + [0] * (len(p) - 1 - len(r)) for r in rows]
    pairing = _divmod_monic(_mul(_deriv(sp.charpoly.coeffs), rows[0][::-1]), p)[1]
    columns = tuple(ClassVector(x[0], dict(zip(h.support, x[1:]))) for x in zip(*rows))
    return _axis_data_at(sp.lam, sp.bracket, pairing, columns)


def _axis_data_at(lam: float, bracket: RootBracket, pairing: list, columns: tuple):
    """axis_data from an axis C whose lambda, bracket and pairing are known,
    such as a conjugate's: v+ . v- = <C, C*> / (C_0 C_0*) at lambda."""
    c0 = [c.e0 for c in columns]
    y = _mul(c0, c0[::-1])
    cosh = bracket.ratio([2 * x for x in y], pairing, True)
    return LoxodromicData(lam, bracket.ratio(pairing, y), cosh, columns, bracket, pairing)


def loxodromy_criterion(h: WeylElement) -> bool:
    """deg(h^400) >= 3^19 deg(h^200), decided with exact integer powers."""
    d200, d400 = criterion_degrees(h)
    return d400 >= LOXODROMY_CONSTANT * d200


def criterion_degrees(h: WeylElement) -> tuple[int, int]:
    """The exact pair (deg(h^200), deg(h^400)), computed once per element."""
    return _spectrum(h).criterion


def spectrum_report(h: WeylElement) -> dict:
    """JSON-ready spectral summary of one element.  The eigenvector
    residuals ||M v - lambda v|| are exactly 0.0: v+- are exact
    eigenvectors, and the key stays for readers of the schema."""
    cls = classify(h)
    lam = dynamical_degree(h)
    report = {
        "degree": degree(h),
        "class": cls.kind,
        "evidence": cls.evidence,
        "lambda": lam,
        "criteria": {"degree400_vs_3_19_degree200": loxodromy_criterion(h)},
    }
    if cls.is_loxodromic:
        data = axis_data(h)
        report["cosh_axis_distance"] = data.cosh_axis_distance
        report["vplus_dot_vminus"] = data.vplus_dot_vminus
        report["residuals"] = {"v_plus": 0.0, "v_minus": 0.0}
    return report
