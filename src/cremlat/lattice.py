"""The Picard-Manin lattice of the plane, with exact rational arithmetic.

The lattice is Z e0 + sum_p Z e(p), where e0 is the class of a line and p
runs over bubble points (points of the plane together with all infinitely
near points).  The intersection form is diag(1, -1, -1, ...) in this basis.
Vectors are stored sparsely; coefficients are exact: ``int`` values stay
``int`` and every other value becomes a ``Fraction`` (a float exactly so),
so this module alone decides the number type of the lattice.

Sign convention for the canonical form: we normalize the invariant linear
functional so that omega(e0) = 3 and omega(e(p)) = 1 for every bubble point.
With this choice omega(e0 - e(p)) = 2 and omega(3 e0 - sum of nine e(p_i))
= 0, and the degree/multiplicity relation sum(a_i) = 3d - 3 is literally the
omega-invariance of images of e0.  Only the kernel of omega ever matters,
so the overall sign is a pure convention; it is fixed here once and for all.
"""

from __future__ import annotations

import itertools
import threading
from fractions import Fraction
from typing import Mapping, Optional, Union

from . import join_signed

Rational = Union[int, Fraction, str]

_id_counter = itertools.count(1)
_id_lock = threading.Lock()


def _next_id() -> int:
    with _id_lock:
        return next(_id_counter)


class BubblePoint:
    """An abstract point of the bubble space of the plane.

    Identity is by an opaque numeric id, unique within the running session.
    A point may optionally carry a geometric annotation:

    * ``coords``: a projective coordinate triple of exact rationals (the
      point is then a proper point of the plane), or
    * ``parent``: another BubblePoint (the point is infinitely near its
      parent, in the first neighbourhood).

    Annotations are only consulted by the realizability checker; the rest of
    the package treats points as opaque labels.
    """

    __slots__ = ("id", "label", "coords", "parent")

    def __init__(self, label=None, coords=None, parent=None):
        if coords is not None and parent is not None:
            raise ValueError("a point is either proper or infinitely near, not both")
        self.id = _next_id()
        self.label = label
        if coords is not None:
            coords = tuple(Fraction(c) for c in coords)
            if len(coords) != 3 or all(c == 0 for c in coords):
                raise ValueError("proper coordinates must be a nonzero triple")
        self.coords = coords
        if parent is not None and not isinstance(parent, BubblePoint):
            raise TypeError("parent must be a BubblePoint")
        # parent is set here only and exists already, so no chain is cyclic
        self.parent = parent

    def __eq__(self, other):
        return isinstance(other, BubblePoint) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __lt__(self, other):
        return self.id < other.id

    def __repr__(self):
        return self.label if self.label else f"p{self.id}"


def point(label=None) -> BubblePoint:
    """A fresh anonymous bubble point."""
    return BubblePoint(label=label)


def proper_point(x: Rational, y: Rational, z: Rational, label=None) -> BubblePoint:
    return BubblePoint(label=label, coords=(x, y, z))


def infinitely_near(parent: BubblePoint, label=None) -> BubblePoint:
    return BubblePoint(label=label, parent=parent)


def _coerce(c):
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


class ClassVector:
    """A sparse element a0*e0 + sum_p a_p*e(p) of the Picard-Manin lattice.

    Zero coefficients are never stored, so equality is structural.  Values
    are immutable after construction.
    """

    __slots__ = ("e0", "_pts")

    def __init__(self, e0: Rational = 0, point_coeffs: Optional[Mapping[BubblePoint, Rational]] = None):
        object.__setattr__(self, "e0", _coerce(e0))
        pts = {}
        if point_coeffs:
            for p, c in point_coeffs.items():
                c = _coerce(c)
                if c != 0:
                    pts[p] = c
        object.__setattr__(self, "_pts", pts)

    def __setattr__(self, name, value):
        raise AttributeError("ClassVector is immutable")

    @property
    def point_coeffs(self) -> dict:
        return dict(self._pts)

    def coeff(self, p: BubblePoint):
        return self._pts.get(p, 0)

    def __add__(self, other):
        pts = dict(self._pts)
        for p, c in other._pts.items():
            pts[p] = pts.get(p, 0) + c
        return ClassVector(self.e0 + other.e0, pts)

    def __sub__(self, other):
        pts = dict(self._pts)
        for p, c in other._pts.items():
            pts[p] = pts.get(p, 0) - c
        return ClassVector(self.e0 - other.e0, pts)

    def __neg__(self):
        return ClassVector(-self.e0, {p: -c for p, c in self._pts.items()})

    def __rmul__(self, scalar):
        scalar = _coerce(scalar)
        return ClassVector(scalar * self.e0, {p: scalar * c for p, c in self._pts.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        return (
            isinstance(other, ClassVector)
            and self.e0 == other.e0
            and self._pts == other._pts
        )

    def __hash__(self):
        return hash((self.e0, frozenset(self._pts.items())))

    def __repr__(self):
        return render(self)


def e0() -> ClassVector:
    """The class of a line."""
    return ClassVector(1, {})


def e(p: BubblePoint) -> ClassVector:
    """The exceptional class of a bubble point."""
    return ClassVector(0, {p: 1})


def intersect(u: ClassVector, v: ClassVector):
    """Intersection form: u.v = a0(u)a0(v) - sum_p a_p(u)a_p(v)."""
    total = u.e0 * v.e0
    small, big = (u._pts, v._pts) if len(u._pts) <= len(v._pts) else (v._pts, u._pts)
    for p, c in small.items():
        d = big.get(p)
        if d is not None:
            total -= c * d
    return total


# -- text rendering ----------------------------------------------------------

def render(v: ClassVector) -> str:
    """Text form ``d*e0 - a1*e(p1) - ...`` with exact rationals as num/den."""
    terms = [(v.e0, "e0")] if v.e0 else []
    return join_signed(terms + [(v._pts[p], f"e({p!r})") for p in sorted(v._pts)])
