"""Exact linear algebra over Z and Q for lattice work.

Matrices are lists of row lists.  Everything here is fraction-free or
Fraction-exact: Bareiss determinants, integral Gram-Schmidt tables for
enumeration, integral LLL reduction acting on Gram matrices (tracking the
unimodular transform and its inverse), row-style Hermite normal form
over Z, and the inverse of a GF(2)-linear map on bitmasks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(m):
    return [list(row) for row in m]


def as_fraction(x) -> Fraction:
    """x as a Fraction, for an int or a Fraction; anything else, a float
    included (its binary value is not the rational it was written as), is a
    TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("%r is not an int or a Fraction" % (x,))


def mat_frac(m) -> list[list[Fraction]]:
    return [[as_fraction(x) for x in row] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def clear_denominators(m) -> tuple[int, list[list[int]]]:
    """(den, den * m) for a matrix of ints and Fractions, den the lcm of the
    entries' denominators."""
    den = lcm(*[x.denominator for row in m for x in row])
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in m]


def _max_abs(m) -> int:
    """The largest |entry| of a matrix, 0 when it has none."""
    if not m or not m[0]:
        return 0
    return max(max(map(max, m)), -min(map(min, m)))


def int_matmul(a, b):
    """The product a b of integer matrices (r x k times k x c), for callers
    that know their factors are ints; `matmul` checks and clears first.

    Packed: row t of b is one int P_t with W-bit slots, slot j (bits W j ..
    W j + W - 1) holding b[t][j], so row i of the product is
    sum_t a[i][t] P_t, one big-int multiply-add per nonzero a[i][t].  The
    sum is exact as an int; adding the bias 2^(W-1) to every slot and
    reading slot j with a shift and a mask gives entry (i, j) plus the
    bias.  Every entry lies in [-B, B] for B = k max|a| max|b|, and
    W = bitlength(B) + 1 gives B < 2^(W-1), so an entry plus the bias lies
    in [1, 2^W - 1]: no slot borrows from or carries into its neighbour.
    This width is tight: with bitlength(B) bits a slot overflows at an
    entry equal to B, since B >= 2^(bitlength(B) - 1).
    """
    c = len(b[0]) if b else 0
    w = (len(b) * _max_abs(a) * _max_abs(b)).bit_length() + 1
    shifts = range(0, w * c, w)
    packed = []
    for row in b:
        p = 0
        for x in reversed(row):
            p = (p << w) + x
        packed.append(p)
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum([half << s for s in shifts])
    out = []
    for row in a:
        acc = bias
        for x, p in zip(row, packed):
            if x:
                acc += x * p
        out.append([(acc >> s & mask) - half for s in shifts])
    return out


def matmul(a, b):
    """Exact product a b.  Integer input gives integers; rational input is
    multiplied over the common denominator of each factor and divided once."""
    if all(type(x) is int for m in (a, b) for row in m for x in row):
        return int_matmul(a, b)
    da, ai = clear_denominators(a)
    db, bi = clear_denominators(b)
    den = da * db
    return [[Fraction(x, den) for x in row] for row in int_matmul(ai, bi)]


def vecmat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def gauss_solve(a, b):
    """Solve a x = b exactly over Q, for a of full column rank: square, or
    with more rows than unknowns when the system is consistent.

    b may be a vector or a matrix of column vectors given as rows of the
    augment; raises ValueError on a singular or inconsistent system.

    Gauss-Jordan in ints: each augmented row is cleared to integers, a row
    is eliminated as p*row - f*pivot_row (p, f over their gcd) at the
    pivot row's nonzero entries only, and every new row is divided by the
    gcd of its entries.  The one division per unknown is at read-out.
    """
    rows, n = len(a), len(a[0])
    vec = not isinstance(b[0], (list, tuple))
    rhs = [[x] for x in b] if vec else b
    m = [clear_denominators([list(ra) + list(rb)])[1][0] for ra, rb in zip(a, rhs)]
    w = len(m[0])
    for col in range(n):
        piv = next((r for r in range(col, rows) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        p = prow[col]
        nonzero = [(k, x) for k, x in enumerate(prow) if x]
        for r in range(rows):
            f = m[r][col]
            if r == col or not f:
                continue
            g = gcd(p, f)
            scale, f = p // g, f // g
            row = m[r] if scale == 1 else [x * scale for x in m[r]]
            for k, x in nonzero:
                row[k] -= f * x
            g = gcd(*row)
            m[r] = row if g <= 1 else [x // g for x in row]
    # the surplus rows are now 0 = rhs
    if any(x != 0 for row in m[n:] for x in row[n:]):
        raise ValueError("inconsistent system")
    sol = [[Fraction(x, row[i]) for x in row[n:w]] for i, row in enumerate(m[:n])]
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
    d, mi = clear_denominators(mat_frac(m))
    return Fraction(det_bareiss(mi), d ** n)


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

    Returns (g_red, u, u_inv, d, lam): g_red = u g u^T, u unimodular over
    Z, u_inv its inverse, and d/lam the `integral_gso` table of den g_red,
    den the lcm of g's denominators.  Works on the Gram matrix alone.  This
    is Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): after clearing denominators the table is updated
    in place by each size reduction and swap, so it is current on return.
    Row k is size-reduced against rows k-1, ..., 0 (rounding half to even)
    before the Lovasz test d_k d_{k-2} + lam^2 >= delta d_{k-1}^2.  Raises
    ValueError unless g is positive definite.
    """
    n = len(g)
    d, lam = integral_gso(clear_denominators(g)[1])
    dd = [1] + d  # dd[i + 1] = d_i, dd[0] = d_{-1} = 1
    u = identity(n)
    vt = identity(n)  # transpose of u^-1: a row op on u is a column op on u^-1
    delta = Fraction(delta)
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) > dd[j + 1]:
                q = round(Fraction(lk[j], dd[j + 1]))
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                vt[j] = [a + q * b for a, b in zip(vt[j], vt[k])]
                lk[j] -= q * dd[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        r = lk[k - 1]
        if (dd[k + 1] * dd[k - 1] + r * r) * delta.denominator \
                >= delta.numerator * dd[k] * dd[k]:
            k += 1
            continue
        # swap rows k-1 and k
        u[k], u[k - 1] = u[k - 1], u[k]
        vt[k], vt[k - 1] = vt[k - 1], vt[k]
        lk1 = lam[k - 1]
        for i in range(k - 1):
            lk[i], lk1[i] = lk1[i], lk[i]
        dk1, dk = dd[k], dd[k + 1]
        b = (dd[k - 1] * dk + r * r) // dk1
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (dk * li[k - 1] - r * t) // dk1
            li[k - 1] = (b * t + r * li[k]) // dk
        dd[k] = b
        k = max(k - 1, 1)
    g_red = matmul(matmul(u, g), transpose(u))
    return g_red, u, transpose(vt), dd[1:], lam


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
    d, scaled = clear_denominators(rows)
    return [[Fraction(x, d) for x in r] for r in hnf_rows(scaled)]


def gf2_inverse(images: list[int]) -> list[int]:
    """Inverse of the GF(2)-linear map sending basis vector i to images[i]
    (bit j of an image is its coordinate j), in the same form; ValueError
    when the map is singular."""
    m = len(images)
    rows = [(img, 1 << i) for i, img in enumerate(images)]  # (sigma a, a)
    for bit in range(m):
        piv = next((r for r in range(bit, m) if rows[r][0] >> bit & 1), None)
        if piv is None:
            raise ValueError("map is singular mod 2")
        rows[bit], rows[piv] = rows[piv], rows[bit]
        pv, pa = rows[bit]
        for r in range(m):
            if r != bit and rows[r][0] >> bit & 1:
                rows[r] = (rows[r][0] ^ pv, rows[r][1] ^ pa)
    return [a for _, a in rows]


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

