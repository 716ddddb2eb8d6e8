"""Base-point realizability of Jonquieres configurations.

Whether a configuration of base points is realized by an actual plane
Jonquieres transformation is the geometric half of degree reduction: it is
decided by :func:`realizable_jonquieres` over a :class:`PointConfiguration`,
annotated with coordinates, parents and declared facts, which
:func:`read_config` reads from the JSON of ``realizable --config``.  Ranks
and determinants are exact (:mod:`cremlat.intmat`).
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from . import SyntaxErrorAt, intmat
from .lattice import BubblePoint, infinitely_near, point, proper_point


class PointConfiguration:
    """An ordered configuration of bubble points with geometric annotations.

    ``points[0]`` plays the role of the distinguished base point.  Beyond
    the per-point annotations (projective coordinates for proper points,
    parents for infinitely near ones), two kinds of declared facts, which
    the caller fills in, decide what coordinates cannot:

    * ``collinear_facts``: frozenset of three point ids -> bool;
    * ``exceptional_members``: point -> points lying (as proper or
      infinitely near points) on its exceptional divisor.  First
      neighbourhoods are derived from parents automatically and closed
      under taking further infinitely near points.
    """

    def __init__(self, points: list, k_max: int = 6):
        self.points = points
        self.k_max = k_max
        self.collinear_facts = {}
        self.exceptional_members = {}

    def proximate_to(self, base: BubblePoint) -> set:
        members = set(self.exceptional_members.get(base, ()))
        grown = True
        while grown:
            grown = False
            for q in self.points:
                if q in members or q is base:
                    continue
                if q.parent is not None and (q.parent == base or q.parent in members):
                    members.add(q)
                    grown = True
        return members

    def collinear(self, a: BubblePoint, b: BubblePoint, c: BubblePoint):
        """True/False when decidable, None otherwise."""
        key = frozenset((a.id, b.id, c.id))
        if key in self.collinear_facts:
            return bool(self.collinear_facts[key])
        if all(p.coords is not None for p in (a, b, c)):
            return intmat.det3((a.coords, b.coords, c.coords)) == 0
        return None


class RealizabilityReport(NamedTuple):
    status: str  # pass | fail | undecidable
    condition: Optional[int] = None
    witness: Optional[str] = None


def realizable_jonquieres(config: PointConfiguration, m: int) -> RealizabilityReport:
    """Decide the six base-point conditions for a degree-m pencil-preserving map.

    The configuration must list 2m - 1 points, the first being the
    distinguished one.  Conditions, in order: (1) the first point is proper;
    (2) every other point is proper or in the first neighbourhood of an
    earlier one; (3) no line joins the first point with two others; (4) no
    two points are both proximate to a third satellite; (5) at most m - 1
    satellites are proximate to the first point; (6) for k up to k_max, a
    curve of degree k with multiplicity exactly k - 1 at the first point
    meets at most k + m - 1 satellites (decided by exact rank computations,
    coordinates required).  The first violated condition is reported with a
    witness; missing annotations make the verdict undecidable.
    """
    pts = list(config.points)
    if len(pts) != 2 * m - 1:
        raise ValueError(f"a degree-{m} configuration needs {2 * m - 1} points")
    p1, satellites = pts[0], pts[1:]

    # (1)
    if p1.parent is not None:
        return RealizabilityReport("fail", 1, f"{p1} is infinitely near {p1.parent}")
    if p1.coords is None:
        return RealizabilityReport("undecidable", 1, f"{p1} carries no annotation")

    # (2)
    for i, q in enumerate(satellites, start=2):
        if q.coords is not None:
            continue
        if q.parent is None:
            return RealizabilityReport("undecidable", 2, f"{q} carries no annotation")
        earlier = pts[: i - 1]
        if q.parent not in earlier:
            return RealizabilityReport(
                "fail", 2, f"{q} is infinitely near {q.parent}, which is not an earlier point")

    # (3)
    for j in range(len(satellites)):
        for i in range(j + 1, len(satellites)):
            verdict = config.collinear(p1, satellites[j], satellites[i])
            if verdict is None:
                return RealizabilityReport(
                    "undecidable", 3,
                    f"collinearity of ({p1}, {satellites[j]}, {satellites[i]}) unknown")
            if verdict:
                return RealizabilityReport(
                    "fail", 3, f"line through {p1}, {satellites[j]}, {satellites[i]}")

    # (4)
    for q in satellites:
        prox = config.proximate_to(q) & set(satellites)
        if len(prox) >= 2:
            a, b = sorted(prox)[:2]
            return RealizabilityReport(
                "fail", 4, f"{a} and {b} are both proximate to {q}")

    # (5)
    prox1 = config.proximate_to(p1) & set(satellites)
    if len(prox1) > m - 1:
        return RealizabilityReport(
            "fail", 5,
            f"{len(prox1)} satellites proximate to {p1}, at most {m - 1} allowed")

    # (6) for k <= k_max; subsets only exist for k <= m - 2
    for k in range(1, min(config.k_max, m - 2) + 1):
        if any(q.coords is None for q in satellites):
            return RealizabilityReport(
                "undecidable", 6, "curve conditions need coordinates for every point")
        witness = _curve_violation(p1, satellites, k, m)
        if witness:
            return RealizabilityReport("fail", 6, witness)
    return RealizabilityReport("pass")


def _curve_violation(p1, satellites, k, m) -> Optional[str]:
    """A witness subset if some degree-k curve with multiplicity exactly
    k - 1 at p1 passes through k + m satellites, else None."""
    need = k + m
    if need > len(satellites):
        return None
    # coordinates with p1 at [0 : 0 : 1]: for the first t with p1_t != 0 and
    # the other indices r < s, q -> (p1_t q_r - p1_r q_t, p1_t q_s - p1_s q_t,
    # q_t) is linear of determinant p1_t^2 and sends p1 to [0 : 0 : p1_t]; the
    # ranks below see points up to scale and forms by multiplicity at p1
    o = p1.coords
    t = next(i for i in range(3) if o[i])
    r, s = (i for i in range(3) if i != t)
    moved = [(o[t] * q[r] - o[r] * q[t], o[t] * q[s] - o[s] * q[t], q[t])
             for q in (sat.coords for sat in satellites)]
    # monomials x^a y^b z^c of degree k with a + b >= k - 1 span the forms
    # with multiplicity >= k - 1 at [0:0:1]; those with a + b = k have
    # multiplicity >= k
    mons_exact = [(a, k - 1 - a, 1) for a in range(k)]          # a + b = k - 1
    mons_cone = [(a, k - a, 0) for a in range(k + 1)]           # a + b = k
    big = mons_cone + mons_exact

    def row(q, mons):
        x, y, z = q
        return [x ** a * y ** b * z ** c for (a, b, c) in mons]

    for subset in itertools.combinations(range(len(satellites)), need):
        rows_big = [row(moved[i], big) for i in subset]
        dim_w1 = len(big) - intmat.rank(rows_big)
        rows_cone = [row(moved[i], mons_cone) for i in subset]
        dim_w2 = len(mons_cone) - intmat.rank(rows_cone)
        if dim_w1 > dim_w2:
            names = ", ".join(str(satellites[i]) for i in subset)
            return (f"a degree-{k} curve with multiplicity {k - 1} at {p1} "
                    f"passes through {need} satellites: {names}")
    return None


def read_config(source: str) -> PointConfiguration:
    """The configuration in the JSON file ``source``, or on standard input
    for ``-``: ``{"points": [{"id", and "coords" or "parent", and
    "on_exceptional_of"}], "collinear", "not_collinear", "k_max"}``.  Text
    that is not such JSON is a syntax error."""
    try:
        if source == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(source, "rb") as fh:
                raw = fh.read()
        data = json.loads(raw.decode("utf-8"))  # JSON text is UTF-8 (RFC 8259)
    except UnicodeDecodeError as exc:
        raise SyntaxErrorAt(f"cannot read --config: {exc.reason}", exc.start) from exc
    except json.JSONDecodeError as exc:
        raise SyntaxErrorAt(f"cannot read --config: {exc.msg}", exc.pos) from exc
    except OSError as exc:
        raise SyntaxErrorAt(f"cannot read --config: {exc}", 0) from exc
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise SyntaxErrorAt("--config needs a JSON object with a list of points", 0)
    names = {}

    def named(name):
        if isinstance(name, str) and name in names:
            return names[name]
        raise SyntaxErrorAt(f"--config names an unknown point {name!r}", 0)

    def listed(value, key):
        if not isinstance(value, list):
            raise SyntaxErrorAt(f"--config: {key} must be a list", 0)
        return value

    points = []
    for spec in data["points"]:
        if not isinstance(spec, dict) or not isinstance(spec.get("id"), str):
            raise SyntaxErrorAt("--config has a point without a string id", 0)
        name = spec["id"]
        if "coords" in spec:
            try:
                coords = [Fraction(c) for c in listed(spec["coords"], "coords")]
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                coords = []
            if len(coords) != 3:
                raise SyntaxErrorAt(f"--config: coords of {name!r} are not three numbers", 0)
            pt = proper_point(*coords, label=name)
        elif "parent" in spec:
            pt = infinitely_near(named(spec["parent"]), label=name)
        else:
            pt = point(label=name)
        names[name] = pt
        points.append(pt)
    k_max = data.get("k_max", 6)
    if type(k_max) is not int or k_max < 0:  # bool is a subclass of int
        raise SyntaxErrorAt(f"--config: k_max {k_max!r} is not a non-negative integer", 0)
    config = PointConfiguration(points, k_max=k_max)
    for fact, key in ((True, "collinear"), (False, "not_collinear")):
        for triple in listed(data.get(key, []), key):
            config.collinear_facts[frozenset(named(n).id for n in listed(triple, key))] = fact
    for spec in data["points"]:
        for host in listed(spec.get("on_exceptional_of", []), "on_exceptional_of"):
            config.exceptional_members.setdefault(named(host), set()).add(names[spec["id"]])
    return config
