"""Small exact matrix kernels used across the package.

Matrices are sequences of rows (lists or tuples) of Python ints or
Fractions; the kernels only read their arguments and return lists of lists,
so the tuple rows of a WeylElement are passed as they are.  Everything
here is exact; the sizes involved are small (a few dozen rows), so the
division-free Berkowitz algorithm and plain Gaussian elimination over Q are
entirely adequate.  :func:`rank` is the one Gaussian elimination and
:func:`interpolate` the one polynomial interpolation of the package, the
latter modulo a prime.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    return [[sum(ar[t] * bc[t] for t in range(k)) for bc in bt] for ar in a]


def mat_vec(a, v):
    return [sum(r[i] * v[i] for i in range(len(v))) for r in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def charpoly(a):
    """Characteristic polynomial det(xI - A) by Berkowitz, division-free.

    Returns coefficients in ascending order [c0, c1, ..., 1], exact for int
    or Fraction entries.
    """
    n = len(a)
    if n == 0:
        return [1]
    # descending coefficient vector of the leading 1x1 block: x - a00
    vec = [1, -a[0][0]]
    for i in range(1, n):
        # grow to the (i+1)x(i+1) leading block with corner a[i][i]
        row = a[i][:i]
        col = [a[t][i] for t in range(i)]
        sub = [r[:i] for r in a[:i]]
        # first column of the Berkowitz Toeplitz matrix:
        # [1, -a_ii, -row.col, -row.sub.col, -row.sub^2.col, ...]
        toep = [1, -a[i][i]]
        w = col
        for _ in range(i):
            toep.append(-sum(row[t] * w[t] for t in range(i)))
            w = mat_vec(sub, w)
        # truncated convolution: new[k] = sum_j vec[j] * toep[k - j]
        new = [0] * (i + 2)
        for j, vj in enumerate(vec):
            if vj:
                top = min(len(toep), i + 2 - j)
                for t in range(top):
                    new[j + t] += vj * toep[t]
        vec = new
    return vec[::-1]


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
