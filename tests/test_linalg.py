"""Exact linear algebra: determinants, HNF, LLL, solvers."""

import random
from fractions import Fraction

import pytest

from unimodular.linalg import (
    clear_denominators,
    det_bareiss,
    det_frac,
    gauss_solve,
    hnf_rows,
    hnf_rows_frac,
    identity,
    int_matmul,
    integral_gso,
    lll_reduce_gram,
    mat_inverse,
    matmul,
    parity_kernel_basis,
    transpose,
)


def _det_cofactor(m):
    """Independent O(n!) determinant for small matrices."""
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * Fraction(m[0][j]) * _det_cofactor(minor)
    return total


def _random_int_matrix(rng, n, lo=-6, hi=7):
    return [[rng.randrange(lo, hi) for _ in range(n)] for _ in range(n)]


def _random_unimodular(rng, n, steps=12):
    """Product of elementary row operations: determinant +-1 by construction."""
    u = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            u[i][k] += q * u[j][k]
    return u


def _random_pd_gram(rng, n):
    """a a^T + diag shift: integer, symmetric, positive definite."""
    a = _random_int_matrix(rng, n, -3, 4)
    g = matmul(a, transpose(a))
    for i in range(n):
        g[i][i] += rng.randrange(1, 4)
    return g


# ---------------------------------------------------------------------------
# determinants and solving


def test_det_bareiss_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(1, 6)
        m = _random_int_matrix(rng, n)
        assert det_bareiss(m) == _det_cofactor(m)


def test_det_frac_clears_denominators():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(3, 7)]]
    assert det_frac(m) == Fraction(1, 2) * Fraction(3, 7) - Fraction(1, 3) * Fraction(1, 5)
    assert det_frac([]) == 1


def test_det_multiplicative_under_unimodular():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randrange(2, 6)
        m = _random_int_matrix(rng, n)
        u = _random_unimodular(rng, n)
        assert abs(det_bareiss(u)) == 1
        assert det_bareiss(matmul(u, m)) == det_bareiss(u) * det_bareiss(m)


def test_gauss_solve_vector_and_matrix():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 6)
        a = _random_int_matrix(rng, n)
        if det_bareiss(a) == 0:
            continue
        x = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
        b = [sum(r * xi for r, xi in zip(row, x)) for row in a]
        assert gauss_solve(a, b) == x
        # a surplus row that the solution satisfies, then one it does not
        extra = [rng.randrange(-3, 4) for _ in range(n)]
        dot = sum(e * xi for e, xi in zip(extra, x))
        assert gauss_solve([extra] + a, [dot] + b) == x
        with pytest.raises(ValueError):
            gauss_solve(a + [extra], b + [dot + 1])
    with pytest.raises(ValueError):
        gauss_solve([[1, 2], [2, 4]], [1, 1])
    # dependent rows, one surplus: full column rank, one solution
    assert gauss_solve([[1, 2], [2, 4], [1, 1]], [3, 6, 2]) == [1, 1]


def test_mat_inverse_round_trip():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randrange(1, 5)
        a = _random_int_matrix(rng, n)
        if det_bareiss(a) == 0:
            continue
        inv = mat_inverse(a)
        assert matmul(a, inv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _oracle_solve(a, b):
    """Plain Fraction Gauss-Jordan, the reference for `gauss_solve`: the
    solution, or ValueError("singular system" / "inconsistent system")."""
    rows, n = len(a), len(a[0])
    vec = not isinstance(b[0], (list, tuple))
    rhs = [[x] for x in b] if vec else b
    m = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb] for ra, rb in zip(a, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, rows) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(rows):
            if r != col:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    if any(x != 0 for row in m[n:] for x in row[n:]):
        raise ValueError("inconsistent system")
    sol = [row[n:] for row in m[:n]]
    return [row[0] for row in sol] if vec else sol


def _agrees_with_oracle(a, b):
    """gauss_solve(a, b) equals the oracle's answer, or both raise the same
    error; returns the error message or None."""
    try:
        want = _oracle_solve(a, b)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            gauss_solve(a, b)
        return str(exc)
    got = gauss_solve(a, b)
    assert got == want
    flat = got if isinstance(got[0], Fraction) else [x for row in got for x in row]
    assert all(type(x) is Fraction for x in flat)
    return None


def _random_rat(rng, lo=-6, hi=7):
    return Fraction(rng.randrange(lo, hi), rng.randrange(1, 5))


def test_gauss_solve_square_systems_match_oracle():
    rng = random.Random(11)
    solved = 0
    for _ in range(60):
        n = rng.randrange(1, 8)
        entry = _random_rat if rng.random() < 0.5 else (lambda r: r.randrange(-9, 10))
        a = [[entry(rng) for _ in range(n)] for _ in range(n)]
        b = [_random_rat(rng) for _ in range(n)]
        solved += _agrees_with_oracle(a, b) is None
    assert solved >= 50


def test_gauss_solve_overdetermined_and_inconsistent_match_oracle():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randrange(1, 6)
        a = _random_int_matrix(rng, n)
        if det_bareiss(a) == 0:
            continue
        x = [_random_rat(rng) for _ in range(n)]
        # surplus rows: integer combinations of the square rows, and fresh rows
        extra = [[sum(c * row[k] for c, row in zip(cs, a)) for k in range(n)]
                 for cs in ([rng.randrange(-3, 4) for _ in range(n)] for _ in range(2))]
        extra.append([_random_rat(rng) for _ in range(n)])
        big = a + extra
        rng.shuffle(big)
        b = [sum(r * xi for r, xi in zip(row, x)) for row in big]
        assert _agrees_with_oracle(big, b) is None
        assert gauss_solve(big, b) == x
        # break one right-hand side: no solution any more
        k = rng.randrange(len(b))
        bad = b[:k] + [b[k] + 1] + b[k + 1:]
        assert _agrees_with_oracle(big, bad) == "inconsistent system"


def test_gauss_solve_singular_matches_oracle():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(2, 7)
        a = _random_int_matrix(rng, n)
        # replace a row by a rational combination of two others
        i, j, k = (rng.sample(range(n), 3) if n > 2 else (0, 1, 1))
        p, q = _random_rat(rng), _random_rat(rng)
        a[i] = [p * x + q * y for x, y in zip(a[j], a[k])]
        b = [_random_rat(rng) for _ in range(n)]
        assert _agrees_with_oracle(a, b) == "singular system"
        # surplus rows do not restore a missing rank
        assert _agrees_with_oracle(a + [a[j]], b + [b[j]]) == "singular system"


def test_gauss_solve_sparse_unit_matrices_match_oracle():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randrange(2, 16)
        a = [[rng.choice((-1, 1)) if rng.random() < 0.2 else 0 for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            a[i][i] = rng.choice((-1, 1))
        b = [rng.randrange(-3, 4) for _ in range(n)]
        _agrees_with_oracle(a, b)
        _agrees_with_oracle(a, identity(n))


def test_gauss_solve_matrix_rhs_matches_oracle():
    rng = random.Random(15)
    round_trips = 0
    for _ in range(30):
        n = rng.randrange(1, 6)
        cols = rng.randrange(1, 4)
        a = [[_random_rat(rng) for _ in range(n)] for _ in range(n + rng.randrange(0, 2))]
        x = [[_random_rat(rng) for _ in range(cols)] for _ in range(n)]
        b = matmul(a, x)
        if _agrees_with_oracle(a, b) is None:
            assert gauss_solve(a, b) == x
            round_trips += 1
        _agrees_with_oracle(a, [[_random_rat(rng) for _ in range(cols)] for _ in a])
    assert round_trips >= 20


def test_mat_inverse_on_glue30_even_coordinates(glue30):
    from unimodular.lattice import _even_coords

    e = _even_coords(glue30)
    inv = mat_inverse(e)
    n = len(e)
    assert matmul(e, inv) == identity(n) and matmul(inv, e) == identity(n)
    assert inv == _oracle_solve(e, identity(n))


# ---------------------------------------------------------------------------
# Gram-matrix tools


def _rational_gso(g):
    """(mu, bstar) of a Gram matrix in Fractions; ValueError unless
    positive definite."""
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [Fraction(0)] * n
    for i in range(n):
        bstar[i] = Fraction(g[i][i])
        for j in range(i):
            s = g[i][j] - sum(mu[i][k] * mu[j][k] * bstar[k] for k in range(j))
            mu[i][j] = s / bstar[j]
            bstar[i] -= mu[i][j] ** 2 * bstar[j]
        if bstar[i] <= 0:
            raise ValueError("matrix is not positive definite")
    return mu, bstar


def test_integral_gso_positive_definite_gate():
    rng = random.Random(5)
    g = _random_pd_gram(rng, 4)
    d, _ = integral_gso(g)
    assert all(x > 0 for x in d)
    assert d[-1] == det_bareiss(g)
    for bad in ([[1, 2], [2, 1]],  # det -3
                [[1, 1], [1, 1]],  # det 0
                [[0]], [[2, 0, 0], [0, 1, 0], [0, 0, -1]]):
        with pytest.raises(ValueError):
            integral_gso(bad)


def test_integral_gso_consistency():
    rng = random.Random(6)
    for _ in range(12):
        n = rng.randrange(2, 6)
        g = _random_pd_gram(rng, n)
        d, lam = integral_gso(g)
        assert d == [det_bareiss([row[:k] for row in g[:k]]) for k in range(1, n + 1)]
        # lam[i][j] = d[j] * mu_ij; recompute mu from a rational GSO
        mu, _ = _rational_gso(g)
        for i in range(n):
            for j in range(i):
                assert lam[i][j] == d[j] * mu[i][j]


def _lll_reference(g, delta=Fraction(3, 4)):
    """Rational LLL that recomputes the whole Gram-Schmidt table after
    every step: slow, but independent of the integral update formulas."""
    n = len(g)
    g = [[Fraction(x) for x in row] for row in g]
    u = identity(n)

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

    mu, bstar = _rational_gso(g)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                row_op(k, round(mu[k][j]), j)
                mu, bstar = _rational_gso(g)
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            swap(k, k - 1)
            mu, bstar = _rational_gso(g)
            k = max(k - 1, 1)
    return g, u


def _random_rational_gram(rng, n):
    """B B^T for a random nonsingular rational B."""
    while True:
        b = [[Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3, 4, 6)))
              for _ in range(n)] for _ in range(n)]
        if det_frac(b):
            return matmul(b, transpose(b))


def _sheared(rng, g):
    """u g u^T for a random unimodular u: hides the short basis."""
    u = _random_unimodular(rng, len(g))
    return matmul(matmul(u, g), transpose(u))


def test_lll_reduce_gram_invariants():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randrange(2, 6)
        g0 = _random_pd_gram(rng, n)
        g = _sheared(rng, g0)
        g_red, u, u_inv, _, _ = lll_reduce_gram(g)
        assert abs(det_bareiss(u)) == 1
        assert matmul(matmul(u, [[Fraction(x) for x in r] for r in g]), transpose(u)) == g_red
        assert det_frac(g_red) == det_frac(g)
        # reduction never increases the smallest diagonal entry
        assert min(r[i] for i, r in enumerate(g_red)) <= min(r[i] for i, r in enumerate(g))


def test_lll_reduce_gram_matches_rational_reference():
    _check_lll_against_reference(Fraction(3, 4), 50)


def test_lll_reduce_gram_at_the_enumerators_delta():
    # the enumerator reduces with delta = 99/100
    _check_lll_against_reference(Fraction(99, 100), 20)


def _check_lll_against_reference(delta, trials):
    rng = random.Random(71)
    for trial in range(trials):
        n = rng.randrange(2, 9)
        if trial % 2:
            g = _sheared(rng, _random_rational_gram(rng, n))
        else:
            g = _sheared(rng, _random_pd_gram(rng, n))
        g_red, u, u_inv, _, _ = lll_reduce_gram(g, delta)
        assert (g_red, u) == _lll_reference(g, delta)
        assert matmul(u, u_inv) == identity(n)
        # size-reduced and Lovasz, checked on a rational Gram-Schmidt table
        mu, bstar = _rational_gso(g_red)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]


def test_lll_reduce_gram_hands_over_its_gram_schmidt_table():
    # the d/lam table the LLL updates through every size reduction and swap
    # equals a fresh integral_gso of the reduced Gram, cleared by g's
    # denominator
    rng = random.Random(73)
    moved = 0
    for delta in (Fraction(3, 4), Fraction(99, 100)):
        for n in range(1, 9):
            for rational in (False, True) * 3:
                g = _random_rational_gram(rng, n) if rational else _random_pd_gram(rng, n)
                if n > 1:
                    g = _sheared(rng, g)
                g_red, u, _, d, lam = lll_reduce_gram(g, delta)
                den = clear_denominators(g)[0]
                cleared = [[int(den * x) for x in row] for row in g_red]
                assert (d, lam) == integral_gso(cleared)
                moved += u != identity(n)
    assert moved > 50  # most of the Grams were not reduced to begin with


def test_lll_reduce_gram_rejects_indefinite():
    for g in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]],
              [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]):
        with pytest.raises(ValueError):
            lll_reduce_gram(g)


def test_matmul_exact_types():
    a = [[1, 2], [3, 4]]
    assert matmul(a, a) == int_matmul(a, a) == [[7, 10], [15, 22]]
    assert all(type(x) is int for row in matmul(a, a) for x in row)
    assert int_matmul([[1, 0, -2]], [[3], [4], [5]]) == [[-7]]
    b = [[Fraction(1, 2), Fraction(2, 3)], [Fraction(-3, 4), 5]]
    naive = [[sum(x * y for x, y in zip(row, col)) for col in transpose(b)] for row in a]
    assert matmul(a, b) == naive
    assert all(isinstance(x, Fraction) for row in matmul(a, b) for x in row)


def _sum_of_products(a, b):
    """The product a b entry by entry, r x k times k x c (c read off b)."""
    c = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(c)] for row in a]


def _kernel_cases():
    rng = random.Random(16)
    cases = [
        ([[3]], [[-4]]),  # 1 x 1
        ([[0]], [[0]]),
        ([], [[1, 2]]),  # no rows
        ([[], []], []),  # k = 0
        ([[1], [2]], [[]]),  # no columns
        ([[0, 0], [1, -1]], [[0, 5], [0, -7]]),  # a zero row and a zero column
    ]
    for r, k, c in ((1, 5, 3), (4, 1, 6), (3, 7, 2), (6, 6, 6), (2, 3, 9)):
        for hi in (1, 9, 1 << 64, 1 << 70):
            a = [[rng.randint(-hi, hi) for _ in range(k)] for _ in range(r)]
            b = [[rng.randint(-hi, hi) for _ in range(c)] for _ in range(k)]
            cases.append((a, b))
    # entries that reach the bound k max|a| max|b| and its negative, side
    # by side (top = 8, k = 4 makes the bound a power of two)
    for top in (5, 8, 1 << 40, (1 << 64) + 1):
        for k in (1, 3, 4):
            a = [[top] * k, [-top] * k, [0] * k]
            b = [[top, -top, 0, top]] * k
            cases.append((a, b))
    return cases


def test_int_matmul_matches_the_sum_of_products():
    for a, b in _kernel_cases():
        got = int_matmul(a, b)
        assert got == _sum_of_products(a, b), (a, b)
        assert all(type(x) is int for row in got for x in row)
    # the largest entry reaches k max|a| max|b| exactly
    assert int_matmul([[7] * 3], [[9]] * 3) == [[189]]


# ---------------------------------------------------------------------------
# Hermite normal form


def test_hnf_rows_canonical_under_row_mixing():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(2, 5)
        rows = [[rng.randrange(-8, 9) for _ in range(n + 1)] for _ in range(n)]
        h1 = hnf_rows(rows)
        u = _random_unimodular(rng, n)
        h2 = hnf_rows(matmul(u, rows))
        assert h1 == h2  # same row span -> same canonical form


def test_hnf_rows_shape():
    h = hnf_rows([[2, 4, 0], [0, 0, 3], [2, 4, 3]])
    assert h == [[2, 4, 0], [0, 0, 3]]
    assert hnf_rows([[0, 0], [0, 0]]) == []
    assert hnf_rows([]) == []
    # pivots positive, entries above a pivot reduced mod the pivot
    h = hnf_rows([[-3, 1], [0, 5]])
    assert h[0][0] > 0 and 0 <= h[0][1] < h[1][1]


def test_hnf_rows_frac_scales_back():
    rows = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1)]]
    h = hnf_rows_frac(rows)
    assert h == [[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(1)]]
    # span membership: (1/2, 3/2) = row0 + row1
    assert len(hnf_rows_frac(rows + [[Fraction(1, 2), Fraction(3, 2)]])) == 2


def test_parity_kernel_basis_index():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randrange(1, 7)
        parity = [rng.randrange(2) for _ in range(n)]
        basis = parity_kernel_basis(parity, n)
        assert len(basis) == n
        d = abs(det_bareiss(basis))
        assert d == (2 if any(parity) else 1)
        for row in basis:
            assert sum(p * x for p, x in zip(parity, row)) % 2 == 0
