"""Exact linear algebra over Z and Q for lattice work.

Matrices are lists of row lists.  Everything here is fraction-free or
Fraction-exact: Bareiss determinants, integral Gram-Schmidt tables for
enumeration, rational LLL reduction acting on Gram matrices (tracking the
unimodular transform), and row-style Hermite normal form over Z.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(m):
    return [list(row) for row in m]


def mat_frac(m) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def vecmat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def is_integer_matrix(m) -> bool:
    return all(Fraction(x).denominator == 1 for row in m for x in row)


def gauss_solve(a, b):
    """Solve a x = b exactly (a square nonsingular, over Q).

    b may be a vector or a matrix of column vectors given as rows of the
    augment; raises ValueError on a singular system.
    """
    n = len(a)
    vec = not isinstance(b[0], (list, tuple))
    rhs = [[x] for x in b] if vec else mat_copy(b)
    m = [list(map(Fraction, a[i])) + list(map(Fraction, rhs[i])) for i in range(n)]
    w = len(m[0])
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    sol = [row[n:w] for row in m]
    return [row[0] for row in sol] if vec else sol


def mat_inverse(a):
    return gauss_solve(a, identity(len(a)))


def det_bareiss(m) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = mat_copy(m)
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_frac(m) -> Fraction:
    """Determinant of a rational matrix (clears denominators, then Bareiss)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    mf = mat_frac(m)
    d = lcm(*[x.denominator for row in mf for x in row]) if n else 1
    mi = [[int(x * d) for x in row] for row in mf]
    return Fraction(det_bareiss(mi), d ** n)


def gram_minors(g) -> list[int]:
    """Leading principal minors d_0..d_{n-1} of an integer Gram matrix.

    Raises ValueError unless all are positive (positive definiteness).
    """
    n = len(g)
    mins = []
    for k in range(1, n + 1):
        d = det_bareiss([row[:k] for row in g[:k]])
        if d <= 0:
            raise ValueError(f"matrix is not positive definite (minor {k} = {d})")
        mins.append(d)
    return mins


def integral_gso(g):
    """Fraction-free Gram-Schmidt data for an integer Gram matrix.

    Returns (d, lam): d[i] is the i-th leading principal minor (d[-1] means 1)
    and lam[i][j] = d[j] * mu_ij for j < i, all integers.  Requires positive
    definiteness.
    """
    n = len(g)
    d = [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = g[i][j]
            for k in range(j):
                u = (d[k] * u - lam[i][k] * lam[j][k]) // (d[k - 1] if k else 1)
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise ValueError(f"matrix is not positive definite (minor {i + 1} <= 0)")
                d[i] = u
    return d, lam


def lll_reduce_gram(g, delta=Fraction(3, 4)):
    """LLL-reduce a positive definite rational Gram matrix.

    Returns (g_red, u) with g_red = u g u^T and u unimodular over Z.  Works on
    the Gram matrix alone (no coordinates needed); exact rational arithmetic.
    """
    n = len(g)
    g = mat_frac(g)
    u = identity(n)

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            bstar[i] = g[i][i]
            for j in range(i):
                s = g[i][j] - sum(mu[i][k] * mu[j][k] * bstar[k] for k in range(j))
                mu[i][j] = s / bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
            if bstar[i] <= 0:
                raise ValueError("matrix is not positive definite")
        return mu, bstar

    def row_op(i, q, j):
        # b_i <- b_i - q b_j, applied to gram and transform
        for k in range(n):
            u[i][k] -= q * u[j][k]
        for k in range(n):
            g[i][k] -= q * g[j][k]
        for k in range(n):
            g[k][i] -= q * g[k][j]

    def swap(i, j):
        u[i], u[j] = u[j], u[i]
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    mu, bstar = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                row_op(k, q, j)
                mu, bstar = gso()
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            swap(k, k - 1)
            mu, bstar = gso()
            k = max(k - 1, 1)
    return g, u


def hnf_rows(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows: a canonical Z-basis of the row span, in
    echelon form with positive pivots and reduced entries above each pivot.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        # euclid out the column below the pivot
        for r in range(rank + 1, len(m)):
            while m[r][col]:
                q = m[rank][col] // m[r][col]
                m[rank] = [a - q * b for a, b in zip(m[rank], m[r])]
                m[rank], m[r] = m[r], m[rank]
        if m[rank][col] < 0:
            m[rank] = [-a for a in m[rank]]
        # reduce entries above the pivot
        p = m[rank][col]
        for r in range(rank):
            q = m[r][col] // p
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return [row for row in m[:rank]]


def hnf_rows_frac(rows):
    """HNF basis for the row span of a rational matrix, as rational rows."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return []
    d = lcm(*[x.denominator for r in rows for x in r])
    scaled = [[int(x * d) for x in r] for r in rows]
    return [[Fraction(x, d) for x in r] for r in hnf_rows(scaled)]


def parity_kernel_basis(parity, n):
    """Z-basis of {x in Z^n : sum parity_i x_i = 0 (mod 2)}.

    parity is a 0/1 vector.  If some parity_i is 1 the kernel has index 2,
    otherwise it is all of Z^n.
    """
    parity = [p % 2 for p in parity]
    try:
        p = parity.index(1)
    except ValueError:
        return identity(n)
    rows = []
    for i in range(n):
        e = [0] * n
        if i == p:
            e[p] = 2
        else:
            e[i] = 1
            if parity[i]:
                e[p] = 1
        rows.append(e)
    return rows

