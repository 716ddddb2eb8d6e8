"""Spectral analysis of realized Weyl elements as hyperbolic isometries.

Classification is certified, not fitted: the characteristic polynomial is
computed exactly, its cyclotomic part is divided out exactly, and

* a nontrivial cyclotomic-free part forces spectral radius > 1 (a monic
  integer polynomial with no cyclotomic factor and nonzero constant term
  must have a root off the unit circle), so the element is loxodromic and
  its dynamical degree is the dominant real root, refined by exact sign
  bisection;
* otherwise every eigenvalue is a root of unity of known order; with k the
  lcm of the orders, M^k is unipotent and the Jordan ranks of (M^k - I)
  decide between finite order and the two parabolic growth types.

For a finite-support isometry of a lattice of signature (1, n), a unipotent
part can only produce quadratic growth of e0 . h^n(e0) (a rank-one nilpotent
with isotropic image moves nothing), so the linear-growth branch below is
never reached by realized words; it is kept so the trichotomy is total and
violations surface loudly.

The characteristic polynomial, its cyclotomic split, lambda, the squares
M^(2^k) and the criterion degrees are computed once per element, each on
first use, in one record (:func:`_spectrum`, cached by element) that every
function below reads.  The axis squares only as deep as lambda needs (see
:func:`axis_data`); the criterion takes deg(h^200) and deg(h^400) from
products with M^8.  :mod:`cremlat.reduction` hands each conjugate g h g^-1
the lambda of h and g's image of the exact columns its axis was read from,
so a conjugate computes neither a characteristic polynomial nor a square.
The axis is exact as well: v+- are rationals, and each float it reports is
rounded once from an exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

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

LAMBDA_TOL = 1e-12  # lambda is isolated once per element, at least this tightly
AXIS_MARGIN_BITS = 100  # v+- come from M^e with lambda^e >= 2^100 deg^2, e <= 512


class CertificateError(RuntimeError):
    """An exact or numerical certificate failed its own check: the input is
    not what the analysis assumes, or the analysis is at fault."""


@dataclass(frozen=True)
class IsometryClassification:
    kind: str
    evidence: str

    @property
    def is_loxodromic(self):
        return self.kind == KIND_LOXODROMIC


@dataclass(frozen=True)
class _Spectrum:
    """Spectral data of one element, each part computed on first use: the
    characteristic polynomial split once into its cyclotomic orders and
    cyclotomic-free part, lambda, the squares M^(2^k) made so far, and the
    criterion degrees."""

    matrix: tuple
    lams: dict = field(default_factory=dict)
    squares: list = field(default_factory=list)

    @cached_property
    def charpoly(self) -> IntPolynomial:
        return IntPolynomial(intmat.charpoly(self.matrix))

    @cached_property
    def split(self) -> tuple:
        """(cyclotomic-free part or None, cyclotomic orders)."""
        return strip_cyclotomic(self.charpoly)

    def lam(self, tol: float) -> float:
        """lambda within tol: isolated at min(tol, LAMBDA_TOL) unless a value
        at least that tight is held, and always the tightest value held, so
        every caller reports the same float."""
        if not any(t <= tol for t in self.lams):
            t = min(tol, LAMBDA_TOL)
            lam = dominant_real_root(self.split[0], t)
            if lam is None or lam <= 1:
                raise CertificateError(
                    "cyclotomic-free characteristic factor without a root > 1; "
                    "the input is not an isometry of signature (1, n)")
            self.lams[t] = lam
        return self.lams[min(self.lams)]

    def square(self, k: int):
        """M^(2^k), squaring on from the largest square held."""
        sq = self.squares
        while len(sq) <= k:
            sq.append(intmat.mat_mul(sq[-1], sq[-1]) if sq else self.matrix)
        return sq[k]

    @cached_property
    def criterion(self) -> tuple:
        """(deg(h^200), deg(h^400)), exact: v = M^200 e0 and u = M^-200 e0 take
        25 products each with M^8 and its form inverse, and by invariance of
        the form deg(h^400) = e0 . M^400 e0 = u . v."""
        m8 = self.square(3)
        inv8 = intmat.form_inverse(m8)
        v = u = [1] + [0] * (len(m8) - 1)
        for _ in range(25):
            v, u = intmat.mat_vec(m8, v), intmat.mat_vec(inv8, u)
        return v[0], u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


@lru_cache(maxsize=256)
def _spectrum(h: WeylElement) -> _Spectrum:
    return _Spectrum(h.matrix)


def classify(h: WeylElement) -> IsometryClassification:
    """Certified elliptic / parabolic / loxodromic trichotomy."""
    sp = _spectrum(h)
    rest, orders = sp.split
    if rest is not None:
        lam = sp.lam(1e-9)
        return IsometryClassification(
            KIND_LOXODROMIC, f"spectral radius {lam:.9f} from a non-cyclotomic factor")
    k = reduce(math.lcm, orders, 1)
    m = h.matrix
    mk = intmat.mat_pow(m, k)
    n = len(m)
    nil = intmat.mat_sub(mk, intmat.identity(n))
    if all(all(x == 0 for x in row) for row in nil):
        return IsometryClassification(KIND_ELLIPTIC, f"finite order dividing {k}")
    nil2 = intmat.mat_mul(nil, nil)
    if all(all(x == 0 for x in row) for row in nil2):
        return IsometryClassification(
            KIND_PARABOLIC_LINEAR, f"M^{k} unipotent with (M^k - I)^2 = 0")
    nil3 = intmat.mat_mul(nil2, nil)
    if all(all(x == 0 for x in row) for row in nil3):
        return IsometryClassification(
            KIND_PARABOLIC_QUADRATIC, f"M^{k} unipotent with (M^k - I)^3 = 0")
    raise CertificateError("unipotent part with a Jordan block of size > 3")


def dynamical_degree(h: WeylElement, tol: float = 1e-9) -> float:
    """Spectral radius; exactly 1.0 for non-loxodromic elements.

    The value 1 is certified by the cyclotomic factorization, never by a
    floating comparison.
    """
    sp = _spectrum(h)
    if sp.split[0] is None:
        return 1.0
    return sp.lam(tol)


# ---------------------------------------------------------------------------
# eigenvectors, axis, distances


@dataclass(frozen=True)
class LoxodromicData:
    lam: float
    # v+- = c+-(p) / c+-_0 on the support of h, exact rationals
    v_plus: ClassVector = field(compare=False, repr=False)
    v_minus: ClassVector = field(compare=False, repr=False)
    vplus_dot_vminus: float
    cosh_axis_distance: float
    residual_plus: float
    residual_minus: float
    # the exact integer classes c+- = (M^e e0, M^-e e0) that v+- are read from
    columns: tuple = field(default=(), compare=False, repr=False)


def axis_data(h: WeylElement, tol: float = 1e-9) -> LoxodromicData:
    """Dynamical degree, normalized eigenvectors, and the distance to the axis.

    v_plus and v_minus are the exact integer columns c+ = M^e e0 and
    c- = M^-e e0 on the support of h, divided by their e0 coefficients, so
    v . e0 = 1 in exact rationals.  With lambda_lo = lambda - tol, e = 2^k
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
    first element's error bound holds at every step, and no conjugate is
    squared.
    """
    cls = classify(h)
    if not cls.is_loxodromic:
        raise ValueError(f"axis data needs a loxodromic element, got {cls.kind}")
    return _axis_data_at(h, dynamical_degree(h, tol), tol)


def _axis_data_at(h: WeylElement, lam: float, tol: float,
                  columns: tuple | None = None) -> LoxodromicData:
    """axis_data for an element whose dynamical degree lam is already known,
    such as a conjugate of an element already analysed.  ``columns`` are
    the exact classes (M^e e0, M^-e e0) to read v+- from; reduce passes the
    carried ones, and by default they come from the squares of h."""
    if columns is None:
        need = AXIS_MARGIN_BITS + 2 * math.log2(degree(h))
        rate = math.log2(lam - tol) if lam - tol > 1 else 0.0
        p = _spectrum(h).square(next((k for k in range(9) if rate * 2 ** k >= need), 9))
        # (M^e)^{-1} = J (M^e)^T J, so its first column is the signed first row
        columns = (ClassVector(p[0][0], {q: row[0] for q, row in zip(h.support, p[1:])}),
                   ClassVector(p[0][0], {q: -x for q, x in zip(h.support, p[0][1:])}))
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
    if max(res_p, res_m) > max(tol, 1e-9) * 10 * max(lam, 1.0):
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


@dataclass(frozen=True)
class DisplacementReport:
    dist_to_axis: float
    displacement: float
    factor: int
    bound_ok: bool
    translation_length: float


def axis_displacement_check(h: WeylElement, x: ClassVector, tol: float = 1e-9) -> DisplacementReport:
    """Check dist(x, axis) <= 28 * dist(x, h(x)) for a point x of the sheet.

    The factor 28 is the smallest integer m with m log(lambda_lehmer)
    at least 4 log 3, log 3 being the hyperbolicity constant of the space.
    """
    data = axis_data(h, tol)
    if intersect(x, x) != 1:
        raise ValueError("x must lie on the hyperboloid")
    lhs = math.acosh(cosh_distance_to_axis(data, x))
    xhx = float(intersect(x, apply(h, x)))
    rhs = math.acosh(max(xhx, 1.0))
    return DisplacementReport(
        dist_to_axis=lhs,
        displacement=rhs,
        factor=DISPLACEMENT_FACTOR,
        bound_ok=lhs <= DISPLACEMENT_FACTOR * rhs + tol,
        translation_length=math.log(data.lam),
    )


def loxodromy_criterion(h: WeylElement) -> bool:
    """deg(h^400) >= 3^19 deg(h^200), decided with exact integer powers."""
    d200, d400 = criterion_degrees(h)
    return d400 >= LOXODROMY_CONSTANT * d200


def criterion_degrees(h: WeylElement) -> tuple[int, int]:
    """The exact pair (deg(h^200), deg(h^400)), computed once per element."""
    return _spectrum(h).criterion


def spectrum_report(h: WeylElement, tol: float = 1e-9) -> dict:
    """JSON-ready spectral summary of one element."""
    cls = classify(h)
    lam = dynamical_degree(h, tol)
    report = {
        "degree": degree(h),
        "class": cls.kind,
        "evidence": cls.evidence,
        "lambda": lam,
        "criteria": {"degree400_vs_3_19_degree200": loxodromy_criterion(h)},
    }
    if cls.is_loxodromic:
        data = axis_data(h, tol)
        report["cosh_axis_distance"] = data.cosh_axis_distance
        report["vplus_dot_vminus"] = data.vplus_dot_vminus
        report["residuals"] = {"v_plus": data.residual_plus, "v_minus": data.residual_minus}
    return report
