"""Seeded inputs for the benchmark workloads.

Everything here is built from ``random.Random(seed)`` and plain Python: no
import of ``cremlat`` and none of ``tests/``.  Each workload is a list of
:class:`Call` records; the program only ever sees the ``argv`` text, while
``meta`` carries what the output checker needs to know about the input.

Sizes are fixed per workload and only the letters, conjugators, matrices and
polynomial factors vary with the seed, so the cost of a call list changes
little from seed to seed while its contents do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("words", "reduce", "polys", "triples")


@dataclass(frozen=True)
class Call:
    argv: tuple  # arguments after ``python -m cremlat.cli``
    kind: str  # which checker handles the output
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def group(self) -> str:
        """The part of the workload a call belongs to, for the time split."""
        if self.kind == "degseq":
            return f"{self.meta['flavour']} {'prime' if self.meta['prime'] else 'rational'}"
        return self.kind


# -- words over sigma0 / tau / permutation letters ---------------------------

def point_names(n: int, prefix: str = "p") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def random_letters(rng: random.Random, length: int, pts: list[str]) -> list[tuple]:
    """Letters in the mix 55% q(a,b,c), 25% t(a,b), 20% s(a b)(c d).

    The share of each kind is fixed and only the order and the points are
    random, which keeps the cost of a word of given length steadier than
    drawing each kind independently.
    """
    nq, nt = round(0.55 * length), round(0.25 * length)
    kinds = ["q"] * nq + ["t"] * nt + ["s"] * (length - nq - nt)
    rng.shuffle(kinds)
    arity = {"q": 3, "t": 2, "s": 4}
    return [(k,) + tuple(rng.sample(pts, arity[k])) for k in kinds]


def word_text(letters: list[tuple]) -> str:
    out = []
    for kind, *args in letters:
        if kind == "q":
            out.append(f"q({args[0]},{args[1]},{args[2]})")
        elif kind == "t":
            out.append(f"t({args[0]},{args[1]})")
        else:
            out.append(f"s({args[0]} {args[1]})({args[2]} {args[3]})")
    return " * ".join(out)


# (letters, points) per word; the long words dominate the computation and
# the short ones are dominated by interpreter start-up.  One pass over the
# calls takes about 7 s, so that the harness can repeat it within a run.
WORD_SIZES = ((8, 12), (16, 16), (24, 20), (32, 24))


def words(seed: int) -> list[Call]:
    rng = random.Random(f"words/{seed}")
    calls = []
    for length, npts in WORD_SIZES:
        letters = random_letters(rng, length, point_names(npts))
        text = word_text(letters)
        meta = {"letters": letters}
        calls.append(Call(("spectrum", text), "spectrum", meta))
        calls.append(Call(("weyl-eval", text), "weyl-eval", meta))
    return calls


# -- conjugates of a fixed loxodromic element --------------------------------

def h0_letters(pts: list[str]) -> list[tuple]:
    """Four quadratic involutions on ten points, lambda = 2.3692..."""
    p = pts
    return [("q", p[0], p[1], p[2]), ("q", p[3], p[4], p[5]),
            ("q", p[6], p[7], p[8]), ("q", p[9], p[0], p[3])]


# (power of h0, conjugator letters, points).  Powers 16 and 20 put lambda on
# either side of the 10^6 threshold of the reduction theorem.  The sizes keep
# each input's degree clear of the band (about 1e8) where the axis_data
# defect starts: power 1 stays below 1e7, power 16 with four conjugating
# letters below 1e8, and power 20 is always above 2e8, so the same calls
# fail at every seed and the cost of a pass does not depend on which fail.
REDUCE_SIZES = ((1, 8, 16), (1, 12, 16), (1, 16, 20), (1, 20, 20),
                (16, 4, 12), (16, 4, 12), (20, 8, 16), (20, 12, 16))


def reduce(seed: int) -> list[Call]:
    rng = random.Random(f"reduce/{seed}")
    calls = []
    for power, glen, npts in REDUCE_SIZES:
        pts = point_names(npts)
        g = random_letters(rng, glen, pts)
        core = h0_letters(pts[:10]) * power
        letters = g + core + g[::-1]  # every letter is an involution
        meta = {"letters": letters, "core": h0_letters(pts[:10]), "power": power}
        calls.append(Call(("reduce", word_text(letters)), "reduce", meta))
    return calls


# -- polynomials --------------------------------------------------------------

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
GOLDEN = (-1, -1, 1)
PLASTIC = (-1, -1, 0, 1)
RECIPROCAL_QUADRATIC = (1, -3, 1)
# small Salem polynomials of degree <= 8 (ascending coefficients)
SALEM_SMALL = (
    (1, 0, -1, -1, -1, 0, 1),
    (1, 0, 0, -1, -1, -1, 0, 0, 1),
)
CYCLOTOMIC = {  # Phi_n, ascending
    1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1),
    5: (1, 1, 1, 1, 1), 8: (1, 0, 0, 0, 1), 12: (1, 0, -1, 0, 1),
}

# (kind expected by construction, base polynomial)
BASES = (("salem", LEHMER), ("pisot", GOLDEN), ("pisot", PLASTIC),
         ("reciprocal_quadratic", RECIPROCAL_QUADRATIC)) + tuple(
    ("salem", p) for p in SALEM_SMALL)

# one tree search per pass; higher upper bounds (2.5 s at 2.0) would make a
# pass too long to repeat within a run
SALEM_UPPERS = ((1.4, 1.5),)
FK_M, FK_KMAX = 3, 16  # kmax 24 (2.7 s) would make a pass too long to repeat


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_text(coeffs) -> str:
    """Descending text like ``x^4 - x^3 - x^2 - x + 1``."""
    parts = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if c == 0:
            continue
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        else:
            var = "x" if exp == 1 else f"x^{exp}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    return ("-" if sign0 == "-" else "") + body0 + "".join(
        f" {s} {b}" for s, b in parts[1:])


def polys(seed: int) -> list[Call]:
    rng = random.Random(f"polys/{seed}")
    calls = []
    for lo, hi in SALEM_UPPERS:
        upper = round(rng.uniform(lo, hi), 3)
        calls.append(Call(("salem-enum", "--degree-bound", "8", "--upper", str(upper)),
                          "salem-enum", {"upper": upper}))
    calls.append(Call(("fk-spectrum", "--m", str(FK_M), "--kmax", str(FK_KMAX)), "fk-spectrum",
                      {"m": FK_M, "kmax": FK_KMAX}))
    for kind, base in BASES:
        # a product with up to two cyclotomic factors; the base is what remains
        full = base
        factors = rng.sample(sorted(CYCLOTOMIC), rng.randint(0, 2))
        for n in factors:
            full = poly_mul(full, CYCLOTOMIC[n])
        meta = {"kind": kind, "base": base, "full": full, "cyclotomic": factors}
        calls.append(Call(("classify-number", poly_text(full)), "classify-number", meta))
    return calls


# -- coordinate triples A o sigma ------------------------------------------

def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _hits_indeterminacy(a, n: int) -> bool:
    """Does some image A e_j of a contracted line reach a coordinate point
    within n steps of p -> A sigma(p)?  If not, deg (A o sigma)^k = 2^k for
    k <= n (the degree drops exactly when such an orbit meets the
    indeterminacy points of sigma)."""
    for j in range(3):
        p = [Fraction(a[i][j]) for i in range(3)]
        for _ in range(n):
            if sum(1 for c in p if c == 0) >= 2:
                return True
            x, y, z = p
            s = (y * z, z * x, x * y)
            p = [sum(a[i][k] * s[k] for k in range(3)) for i in range(3)]
    return False


def triple_text(a) -> str:
    """[P : Q : R] for A o sigma, sigma = [yz : zx : xy]."""
    monos = ("y*z", "z*x", "x*y")
    comps = []
    for row in a:
        terms = []
        for c, mono in zip(row, monos):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            terms.append((sign, body))
        txt = ("-" if terms[0][0] == "-" else "") + terms[0][1]
        txt += "".join(f" {s} {b}" for s, b in terms[1:])
        comps.append(txt)
    return "[" + " : ".join(comps) + "]"


# n is the number of iterates per map.  A cancelling map costs most in
# prime-field mode, where the sympy gcd runs, and that cost depends strongly
# on which coordinate point A fixes (sympy's variable order: about 0.1 s,
# 1.6 s and 0.2 s at n = 3) and, from n = 4 on, on the matrix.  Generic maps
# at n = 6 (2 s rational) would make a pass too long to repeat within a run.
GENERIC_N = (4, 5)
CANCELLING = ((1, 3), (2, 3))  # (fixed coordinate, n)
ENTRIES = (-3, -2, -1, 1, 2, 3)


def generic_matrix(rng: random.Random, n: int):
    while True:
        a = [[rng.choice(ENTRIES) for _ in range(3)] for _ in range(3)]
        if _det3(a) != 0 and not _hits_indeterminacy(a, n + 1):
            return a


def cancelling_matrix(rng: random.Random, j: int):
    """Dense except the unit column j: A fixes that coordinate point."""
    while True:
        a = [[rng.choice(ENTRIES) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            a[i][j] = 1 if i == j else 0
        if _det3(a) != 0:
            return a


def triples(seed: int) -> list[Call]:
    rng = random.Random(f"triples/{seed}")
    maps = [("generic", generic_matrix(rng, n), n) for n in GENERIC_N]
    maps += [("cancelling", cancelling_matrix(rng, j), n) for j, n in CANCELLING]
    calls = []
    for flavour, a, n in maps:
        text = triple_text(a)
        for prime in (False, True):
            argv = ("degseq", "--map", text, "-n", str(n)) + (("--prime-field",) if prime else ())
            meta = {"flavour": flavour, "matrix": a, "n": n, "prime": prime}
            calls.append(Call(argv, "degseq", meta))
    return calls


GENERATORS = {"words": words, "reduce": reduce, "polys": polys, "triples": triples}


def calls_for(workload: str, seed: int) -> list[Call]:
    return GENERATORS[workload](seed)
