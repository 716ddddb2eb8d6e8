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
cyclotomic split, lambda, one Krylov pass and the criterion degrees are
computed once per element, on first use, in one record (:func:`_spectrum`)
that every function below reads.  No matrix is squared: by Cayley-Hamilton
(Fiduccia, SIAM J. Comput. 1985), M^e e0 and e0^T M^e are read off the
Krylov pass with the coefficients of x^e mod chi, for the axis and for the
criterion alike.  :mod:`cremlat.reduction` gives each conjugate g h g^-1
the lambda of h and g's image of the exact columns of its axis, so a
conjugate makes neither a characteristic polynomial nor a Krylov pass.
v+- are exact rationals; each axis float is rounded once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import mul
from typing import NamedTuple

from . import intmat
from .bounds import LOXODROMY_CONSTANT
from .lattice import ClassVector, intersect
from .salem import IntPolynomial, dominant_real_root, strip_cyclotomic
from .weyl import WeylElement, apply, degree

DISPLACEMENT_FACTOR = 28  # hyperbolicity constant in the axis-distance bound

KIND_ELLIPTIC = "elliptic"
KIND_PARABOLIC_LINEAR = "parabolic_linear"
KIND_PARABOLIC_QUADRATIC = "parabolic_quadratic"
KIND_LOXODROMIC = "loxodromic"

AXIS_MARGIN_BITS = 100  # v+- come from M^e with lambda^e >= 2^100 deg^2, e <= 512


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
    cyclotomic-free part, lambda, the Krylov pass and the criterion degrees."""

    def __init__(self, matrix: tuple):
        self.matrix = matrix

    @cached_property
    def charpoly(self) -> IntPolynomial:
        """chi, with its Mahler measure bounded by max(1, ||M||_inf): realize
        validates each element as an isometry of a form of signature (1, n),
        and products, inverses and conjugates of isometries are isometries.
        Such an isometry has at most one eigenvalue off the closed unit disc,
        so the Mahler measure is lambda, at most ||M||_inf."""
        return IntPolynomial(intmat.charpoly(self.matrix, outside=1))

    @cached_property
    def split(self) -> tuple:
        """(cyclotomic-free part or None, cyclotomic orders)."""
        return strip_cyclotomic(self.charpoly)

    @cached_property
    def lam(self) -> float:
        """lambda, correctly rounded to a float."""
        lam = dominant_real_root(self.split[0])
        if lam is None or lam <= 1:
            raise CertificateError(
                "cyclotomic-free characteristic factor without a root > 1; "
                "the input is not an isometry of signature (1, n)")
        return lam

    @cached_property
    def krylov(self) -> tuple:
        """(K, L): column i of K is M^i e0 and of L the row e0^T M^i, for
        i < n, from 2(n - 1) products with a vector."""
        m, mt = self.matrix, intmat.transpose(self.matrix)
        cols = rows = [[1] + [0] * (len(m) - 1)]
        for _ in range(len(m) - 1):
            cols, rows = cols + [intmat.mat_vec(m, cols[-1])], rows + [intmat.mat_vec(mt, rows[-1])]
        return intmat.transpose(cols), intmat.transpose(rows)

    def power_e0(self, e: int) -> tuple:
        """(M^e e0, e0^T M^e) = (K r, L r), exact, with r = x^e mod chi."""
        c = self.charpoly.coeffs[:-1]
        r = [1] + [0] * (len(c) - 1)
        for _ in range(e):
            r = [x - r[-1] * y for x, y in zip([0] + r[:-1], c)]
        return tuple(intmat.mat_vec(k, r) for k in self.krylov)

    @cached_property
    def criterion(self) -> tuple:
        """(deg(h^200), deg(h^400)), exact: with v = M^200 e0 and
        w = e0^T M^200, deg(h^200) = v_0 and deg(h^400) = w v."""
        v, w = self.power_e0(200)
        return v[0], sum(map(mul, w, v))


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
    # v+- = c+-(p) / c+-_0 on the support of h, exact rationals
    v_plus: ClassVector
    v_minus: ClassVector
    vplus_dot_vminus: float
    cosh_axis_distance: float
    residual_plus: float
    residual_minus: float
    # the exact integer classes c+- = (M^e e0, M^-e e0) that v+- are read from
    columns: tuple = ()


def axis_data(h: WeylElement) -> LoxodromicData:
    """Dynamical degree, normalized eigenvectors, and the distance to the axis.

    v_plus and v_minus are the exact integer columns c+ = M^e e0 and
    c- = M^-e e0 on the support of h, divided by their e0 coefficients, so
    v . e0 = 1 in exact rationals.  With lambda_lo the float next below
    lambda's, a lower bound as lambda's float is correctly rounded, e = 2^k
    is the least power of two, k <= 9, with lambda_lo^e >= 2^AXIS_MARGIN_BITS
    deg(h)^2.  Against its part on v+, the part of e0 off the (v+, v-) plane
    is at most about 1 / (v+ . v-) < 2 deg(h)^2 / (lambda - 1/lambda)^2, and
    M^e shrinks that ratio by lambda^-e (the complement is negative
    definite), so v+- err by about 2^-100, far below double precision.  Near
    Lehmer's number the cap e = 512 applies.  v+ . v-, cosh dist(e0, axis) =
    sqrt(2 / (v+ . v-)) and the two eigenvector residuals are each rounded
    once from their exact values.

    The record keeps the two columns.  :func:`cremlat.reduction.reduce`
    carries them through each conjugation, g h g^-1 getting g M^e e0 and
    g M^-e e0: an isometric image of the first element's columns, so the
    first element's error bound holds at every step, and no conjugate
    makes a Krylov pass.
    """
    cls = classify(h)
    if not cls.is_loxodromic:
        raise ValueError(f"axis data needs a loxodromic element, got {cls.kind}")
    return _axis_data_at(h, dynamical_degree(h))


def _axis_data_at(h: WeylElement, lam: float, columns: tuple | None = None) -> LoxodromicData:
    """axis_data for an element whose dynamical degree lam is already known,
    such as a conjugate of an element already analysed.  ``columns`` are
    the exact classes (M^e e0, M^-e e0) to read v+- from; reduce passes the
    carried ones, and by default they come from the Krylov pass of h."""
    if columns is None:
        need = AXIS_MARGIN_BITS + 2 * math.log2(degree(h))
        lam_lo = math.nextafter(lam, 0)
        rate = math.log2(lam_lo) if lam_lo > 1 else 0.0
        k = next((k for k in range(9) if rate * 2 ** k >= need), 9)
        col, row = _spectrum(h).power_e0(2 ** k)
        # (M^e)^{-1} = J (M^e)^T J, so its first column is the signed first row
        columns = (ClassVector(col[0], dict(zip(h.support, col[1:]))),
                   ClassVector(row[0], {q: -x for q, x in zip(h.support, row[1:])}))
    # a carried column keeps a part on points that h fixes, as small against
    # its e0 coefficient as the error of the column itself: read the support
    cp, cm = ([c.e0] + [c.coeff(q) for q in h.support] for c in columns)
    v_plus, v_minus = (ClassVector(1, {q: Fraction(x, c[0]) for q, x in zip(h.support, c[1:])})
                       for c in (cp, cm))
    # v+ . v- = <c+, c-> / (c+_0 c-_0)
    den = cp[0] * cm[0]
    num = den - sum(a * b for a, b in zip(cp[1:], cm[1:]))
    res_p = _residual(h.matrix, cp, lam)
    res_m = _residual(intmat.form_inverse(h.matrix), cm, lam)
    if max(res_p, res_m) > 1e-8 * max(lam, 1.0):
        raise CertificateError(f"eigenvector residuals too large: {res_p}, {res_m}")
    return LoxodromicData(lam, v_plus, v_minus, num / den, _sqrt_ratio(2 * den, num),
                          res_p, res_m, columns)


def _residual(m, c: list, lam: float) -> float:
    """||M c - lam c|| / ||c|| (Euclidean) for an integer column c, exact
    with lam = a / b read off the float, and rounded once."""
    a, b = lam.as_integer_ratio()
    diff = [b * x - a * y for x, y in zip(intmat.mat_vec(m, c), c)]
    return _sqrt_ratio(sum(x * x for x in diff), b * b * sum(y * y for y in c))


def _sqrt_ratio(n: int, m: int) -> float:
    """sqrt(n / m) for ints n >= 0 and m > 0, rounded once to the nearest
    float: an integer square root with at least 109 bits, the last of them
    set when inexact (round to odd), then one correctly rounded division."""
    k = max(0, 110 - (n.bit_length() - m.bit_length()) // 2)
    n <<= 2 * k
    r = math.isqrt(n // m)
    return (r | (r * r * m != n)) / (1 << k)


def cosh_distance_to_axis(data: LoxodromicData, x: ClassVector) -> float:
    """cosh dist(x, axis) = sqrt(2 (x.v+)(x.v-) / (v+.v-)) for x on the sheet."""
    r = max(2 * intersect(x, data.v_plus) * intersect(x, data.v_minus)
            / intersect(data.v_plus, data.v_minus), 1)
    return _sqrt_ratio(r.numerator, r.denominator)


class DisplacementReport(NamedTuple):
    dist_to_axis: float
    displacement: float
    factor: int
    bound_ok: bool
    translation_length: float


def axis_displacement_check(h: WeylElement, x: ClassVector) -> DisplacementReport:
    """Check dist(x, axis) <= 28 * dist(x, h(x)) for a point x of the sheet.

    The factor 28 is the smallest integer m with m log(lambda_lehmer)
    at least 4 log 3, log 3 being the hyperbolicity constant of the space.
    """
    data = axis_data(h)
    if intersect(x, x) != 1:
        raise ValueError("x must lie on the hyperboloid")
    lhs = math.acosh(cosh_distance_to_axis(data, x))
    xhx = float(intersect(x, apply(h, x)))
    rhs = math.acosh(max(xhx, 1.0))
    return DisplacementReport(
        dist_to_axis=lhs,
        displacement=rhs,
        factor=DISPLACEMENT_FACTOR,
        bound_ok=lhs <= DISPLACEMENT_FACTOR * rhs + 1e-9,
        translation_length=math.log(data.lam),
    )


def loxodromy_criterion(h: WeylElement) -> bool:
    """deg(h^400) >= 3^19 deg(h^200), decided with exact integer powers."""
    d200, d400 = criterion_degrees(h)
    return d400 >= LOXODROMY_CONSTANT * d200


def criterion_degrees(h: WeylElement) -> tuple[int, int]:
    """The exact pair (deg(h^200), deg(h^400)), computed once per element."""
    return _spectrum(h).criterion


def spectrum_report(h: WeylElement) -> dict:
    """JSON-ready spectral summary of one element."""
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
        report["residuals"] = {"v_plus": data.residual_plus, "v_minus": data.residual_minus}
    return report
