"""Small exact matrix kernels used across the package.

Matrices are sequences of rows (lists or tuples) of Python ints or
Fractions; the kernels only read their arguments and return lists of lists,
so the tuple rows of a WeylElement are passed as they are.  Everything
here is exact.  :func:`charpoly` is multimodular (Hessenberg forms modulo
62-bit primes, O(n^3) each, and CRT), :func:`rank` is the one Gaussian
elimination and :func:`interpolate` the one polynomial interpolation of the
package, the latter modulo a prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import crt, primes


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, ar, bc)) for bc in bt] for ar in a]


def mat_vec(a, v):
    return [sum(map(mul, r, v)) for r in a]


def det3(m):
    """Determinant of a 3x3 matrix by cofactor expansion."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def transpose(a):
    return [list(r) for r in zip(*a)]


def mat_pow(a, n):
    """a**n by binary exponentiation (n >= 0)."""
    if n < 0:
        raise ValueError("negative power")
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def form_inverse(m):
    """Inverse of a form-preserving matrix: M^{-1} = J M^T J, the transpose
    with the sign of entry (i, j) flipped when exactly one of i, j is 0."""
    n = len(m)
    return [[m[j][i] if (i == 0) == (j == 0) else -m[j][i] for j in range(n)]
            for i in range(n)]


def preserves_form(m) -> bool:
    """Exact check M^T J M == J, J = diag(1, -1, ..., -1), as one product:
    since J^2 = I it holds exactly when (J M^T J) M = I."""
    return mat_mul(form_inverse(m), m) == identity(len(m))


def charpoly(a, outside=None):
    """det(xI - A) of an integer matrix, ascending [c0, c1, ..., 1].

    Each |c_k| <= C(n, k) M(chi), M the Mahler measure (Mignotte), and no
    root exceeds ||A||_inf, the largest absolute row sum; so with at most
    ``outside`` roots off the closed unit disc (n by default), primes with a
    product above 2 C(n, n // 2) max(1, ||A||_inf)^outside give chi by CRT
    in the symmetric range, their number fixed before the first is used.
    """
    n = len(a)
    bound = 2 * math.comb(n, n // 2) * max([1] + [sum(map(abs, r)) for r in a]) ** (outside or n)
    residues, modulus = [0] * (n + 1), 1
    for _, p in zip(range(-(-bound.bit_length() // 61)), primes()):  # each p > 2^61
        residues, modulus = crt(residues, modulus, _charpoly_mod(a, p), p)
    return [c - modulus if 2 * c > modulus else c for c in residues]


def _charpoly_mod(a, p):
    """det(xI - A) modulo the prime p, ascending, from an upper Hessenberg
    form H of A: the charpoly of each leading block of H from those before."""
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv, top = pow(h[j + 1][j], -1, p), h[j + 1]
        f = [h[i][j] * inv % p for i in range(j + 2, n)]
        for i, fi in enumerate(f, j + 2):  # row i -= fi row j+1, column j+1 += fi column i
            if fi:
                h[i][j:] = [(x - fi * y) % p for x, y in zip(h[i][j:], top[j:])]
        for row in h:
            row[j + 1] = (row[j + 1] + sum(map(mul, row[j + 2:], f))) % p
    polys = [[1]]
    for m in range(n):
        # chi_(m+1) = (x - h_mm) chi_m - sum_i h_im h_(i+1,i) ... h_(m,m-1) chi_i
        new = [x - h[m][m] * y for x, y in zip([0] + polys[m], polys[m] + [0])]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            c = h[i][m] * t
            new[:i + 1] = [x - c * y for x, y in zip(new, polys[i])]
        polys.append([x % p for x in new])
    return polys[n]


def rank(a):
    """Rank over Q by fraction Gaussian elimination (input not modified).

    Columns without a pivot are skipped, so any matrix shape is accepted.
    """
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        for i in range(r + 1, rows):
            f = m[i][c] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def interpolate(xs, ys, p):
    """Ascending coefficients of the polynomial of degree < len(xs) through
    the points (xs[i], ys[i]), xs distinct modulo the prime p, by Newton's
    divided differences modulo p; trailing zeros are dropped."""
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    out = [coef[-1]]
    for x, c in zip(xs[-2::-1], coef[-2::-1]):  # out <- out * (t - x) + c
        out = [(u - x * v) % p for u, v in zip([c] + out, out + [0])]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
