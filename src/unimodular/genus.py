"""Average theta series over the genus of odd unimodular lattices.

For every n > 4 the mass-weighted average  (1/M) sum_L Theta_L / |Aut L|
over the genus of odd unimodular n-dimensional lattices equals

    theta3^n * sum_{j=0}^{[n/4]} c_j (g2^j + h2^j)

where g2 = 16 q prod((1+q^2m)/(1+q^(2m-1)))^8 and h2 is its companion
prod((1-q^(2m-1))/(1+q^(2m-1)))^8, and the c_j are pinned down by two
facts: the coefficients alpha_i of P = theta3^n sum_j c_j g2^j satisfy
alpha_(4i) = 2^(n-2) alpha_i for every i >= 0 (so alpha_0 = 0), and the
constant term of the average is 1.

Averaged coefficients bound class numbers (`mass_count_bound`).  Let M
be the mass sum 1/|Aut L| of the genus, A_k the average number of norm-k
vectors and M_0 the mass of the classes with no vectors of norm 1 or 2.
Such vectors come in +-pairs, so a class outside M_0 has at least two of
them, and (A_1 + A_2) M >= 2 (M - M_0); hence the mass bound
M_0 >= M (1 - (A_1 + A_2)/2).  Every lattice has the automorphisms +-1,
so |Aut| >= 2, each class adds at most 1/2 to M_0, and the number of
classes of minimal norm >= 3 is at least 2 M_0.  M is exact for every n:
`genus_mass` evaluates Conway and Sloane's mass formula in Fractions
(Bernoulli and Euler numbers; the powers of pi cancel), so the bound is
a rational certificate, not an estimate.

The c_j come from an integer linear system (the basis series are
integral), solved by the fraction-free `linalg.gauss_solve`.  One power
chain theta3^n g2^j, j = 0..[n/4], one product apart, is the whole basis
(theta3^n itself is one pass of the power recurrence, no product):
the alpha rows are read off it, and since g2 + h2 = 1 the average is
theta3^n sum_k e_k g2^k with e_k = c_k + (-1)^k sum_{j>=k} C(j,k) c_j,
one combination of the same chain.  No power of h2 is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod

from .linalg import gauss_solve
from .qseries import QSeries, combine, g2, power_chain, rat_str, theta3


@dataclass
class AverageTheta:
    """Exact genus-average theta series in dimension `dim`."""

    dim: int
    c: list
    series: QSeries  # average theta; exponents on the integer-norm grid

    def coeff_norm(self, k: int) -> Fraction:
        """Average number of vectors of norm k across the genus."""
        return self.series.coeff(4 * k)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "c": [rat_str(x) for x in self.c],
            "series": self.series.to_json_dict(),
            "display": str(self.series),
        }


def solve_cj(n: int, verify_extra: int = 1) -> AverageTheta:
    """Determine the c_j and the exact average theta series for dimension n.

    Unknowns c_0..c_m (m = [n/4]) against the m+2 equations alpha_0 = 0,
    alpha_(4i) = 2^(n-2) alpha_i for i = 1..m, and constant term 1.  For
    n = 4 (mod 8) the relations i < m are dependent and i = m restores
    full rank; for other n it is one more row the solution must satisfy.
    `verify_extra` surplus relations (i = m+1, m+2, ...) are checked after
    solving; they must hold automatically.

    The rows and the average both read the chain theta3^n g2^j (m
    products after theta3^n, which the power recurrence builds without
    a product); h2^j = (1 - g2)^j is folded into exact
    coefficients e_k of g2^k, so no h2 series and no final product is
    built.  The e_k are summed in ints over the common denominator of the
    c_j and divided once.
    """
    if n <= 4:
        raise ValueError("the average theta formula needs dimension > 4")
    m = n // 4
    trunc = 16 * (m + verify_extra) + 1  # alpha_(4i) up to i = m + verify_extra
    # theta3^n g2^j for j = 0..m, one product apart
    basis = power_chain(g2(trunc), theta3(trunc) ** n, m + 1, trunc)

    # the basis is integral and known past q^(4(m + verify_extra)), so the
    # rows are read straight from the stored int coefficients
    def alpha_row(i: int) -> list[int]:
        return [b.terms.get(4 * i, 0) for b in basis]

    scale = 2 ** (n - 2)

    def surplus_row(i: int) -> list[int]:
        return [x - scale * y for x, y in zip(alpha_row(4 * i), alpha_row(i))]

    rows = [alpha_row(0)] + [surplus_row(i) for i in range(1, m + 1)]
    rhs = [0] * (m + 1)
    # constant term of theta3^n sum c_j (g2^j + h2^j): g2^j kills j>=1,
    # h2^j contributes 1 for every j
    rows.append([2] + [1] * m)
    rhs.append(1)
    # full column rank; gauss_solve raises if the surplus row is not satisfied
    c = gauss_solve(rows, rhs)

    for i in range(m + 1, m + 1 + verify_extra):
        assert sum(cc * x for cc, x in zip(c, surplus_row(i))) == 0, (
            "surplus average-theta relation failed at i=%d" % i)

    # h2 = 1 - g2, so sum_j c_j (g2^j + h2^j) = sum_k e_k g2^k with
    # e_k = c_k + (-1)^k sum_{j>=k} C(j,k) c_j, summed in ints over the
    # common denominator of the c_j and divided once
    den = lcm(*(x.denominator for x in c))
    num = [x.numerator * (den // x.denominator) for x in c]
    e = [Fraction(nk + (-1) ** k * sum(comb(j, k) * num[j] for j in range(k, m + 1)), den)
         for k, nk in enumerate(num)]
    series = combine(e, basis)
    assert series.coeff(0) == 1
    return AverageTheta(n, c, series)


def _bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m, from sum_{j<=k} C(k+1, j) B_j = 0 for k >= 1 (B_1 = -1/2)."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(comb(k + 1, j) * bj for j, bj in enumerate(b)) / (k + 1))
    return b


def _euler(m: int) -> list[int]:
    """E_0, E_2, ..., E_2m, from sum_{j<=k} C(2k, 2j) E_2j = 0 for k >= 1."""
    e = [1]
    for k in range(1, m + 1):
        e.append(-sum(comb(2 * k, 2 * j) * ej for j, ej in enumerate(e)))
    return e


def _gamma_half(j: int) -> tuple[Fraction, int]:
    """Gamma(j/2) as (r, h) with Gamma(j/2) = r * pi^(h/2)."""
    k = j // 2
    if j % 2 == 0:
        return Fraction(factorial(k - 1)), 0
    return Fraction(factorial(2 * k), 4 ** k * factorial(k)), 1  # Gamma(k + 1/2)


def _zeta_even(m: int, b: list[Fraction]) -> tuple[Fraction, int]:
    """zeta(m), m even, as (r, h): (-1)^(m/2+1) B_m 2^(m-1) / m! * pi^m."""
    return (-1) ** (m // 2 + 1) * b[m] * 2 ** (m - 1) / factorial(m), 2 * m


def genus_mass(n: int) -> Fraction:
    """Exact mass sum 1/|Aut L| of the genus I_n of odd unimodular
    n-dimensional lattices.

    Conway and Sloane's mass formula ("Low-dimensional lattices IV: the
    mass formula", Proc. R. Soc. Lond. A 419, 1988; SPLAG ch. 16) for I_n,
    whose 2-adic species is n - 1 or n - 2 by n mod 8: with s = ceil(n/2),

        mass = 1/2 pi^(-n(n+1)/4) prod_{j=1..n} Gamma(j/2)
               prod_{i=1..s-1} zeta(2i) X_n,

    X_n = 1 + eps 2^(1-s) for odd n (eps = +1 if n = +-1, -1 if n = +-3
    mod 8), L(s, chi_-4) for n = 2, 6 (mod 8), and zeta(s) (1 - 2^-s)
    (1 + eps 2^(1-s)) for n = 0 (eps = +1) or 4 (eps = -1) mod 8.  Every
    factor is a rational times a power of sqrt(pi), the rational read off
    Bernoulli and Euler numbers; the powers are summed and must cancel.
    The genus I_1 = {Z} has mass 1/2.
    """
    if n < 1:
        raise ValueError("the genus I_n needs dimension >= 1, not %d" % n)
    if n == 1:
        return Fraction(1, 2)
    s = (n + 1) // 2
    b = _bernoulli(2 * s)
    factors = [(Fraction(1, 2), -n * (n + 1) // 2)]
    factors += [_gamma_half(j) for j in range(1, n + 1)]
    factors += [_zeta_even(2 * i, b) for i in range(1, s)]
    if n % 2:
        eps = 1 if n % 8 in (1, 7) else -1
        factors.append((1 + eps * Fraction(2) ** (1 - s), 0))
    elif n % 4 == 2:
        # L(s, chi_-4) = (-1)^k E_2k / (4^(k+1) (2k)!) pi^s, s = 2k + 1
        k = s // 2
        factors.append((Fraction((-1) ** k * _euler(k)[k],
                                 4 ** (k + 1) * factorial(2 * k)), 2 * s))
    else:
        eps = 1 if n % 8 == 0 else -1
        r, h = _zeta_even(s, b)
        factors.append((r * (1 - Fraction(1, 2 ** s)) * (1 + eps * Fraction(2) ** (1 - s)), h))
    assert sum(h for _, h in factors) == 0, "the powers of pi do not cancel"
    return prod(r for r, _ in factors)


@dataclass
class CountBound:
    """Lower bound on the number of classes of minimal norm >= 3."""

    dim: int
    mass: Fraction
    a1: Fraction
    a2: Fraction
    m0_lower: Fraction
    count_lower: Fraction

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "mass": rat_str(self.mass),
            "avg_norm1": rat_str(self.a1),
            "avg_norm2": rat_str(self.a2),
            "m0_lower": rat_str(self.m0_lower),
            "count_lower": rat_str(self.count_lower),
        }


def mass_count_bound(avg: AverageTheta) -> CountBound:
    """Bound the number of minimal-norm->=3 classes in the genus.

    The total count of norm-1 and norm-2 vectors over the genus is
    (A_1 + A_2) * M = 2 M_2 + 4 M_4 + ... >= 2 (M - M_0), where M_(2k) is
    the mass of classes with exactly 2k such vectors and M = genus_mass(n)
    is exact.  Hence M_0 >= M (1 - (A_1 + A_2)/2), and |Aut| >= 2 turns
    mass into a count: #classes >= 2 M_0.
    """
    mass = genus_mass(avg.dim)
    a1 = avg.coeff_norm(1)
    a2 = avg.coeff_norm(2)
    m0 = mass * (1 - (a1 + a2) / 2)
    if m0 < 0:
        m0 = Fraction(0)  # vacuous bound
    return CountBound(avg.dim, mass, a1, a2, m0, 2 * m0)
