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
be the mass of the genus, A_k the average number of norm-k vectors and
M_0 the mass of the classes with no vectors of norm 1 or 2.  Such vectors
come in +-pairs, so a class outside M_0 has at least two of them, and
(A_1 + A_2) M >= 2 (M - M_0); hence the mass bound
M_0 >= M (1 - (A_1 + A_2)/2).  Every lattice has the automorphisms +-1,
so |Aut| >= 2, each class adds at most 1/2 to M_0, and the number of
classes of minimal norm >= 3 is at least 2 M_0.

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
from math import comb

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
    coefficients of g2^k, so no h2 series and no final product is built.
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
    # e_k = c_k + (-1)^k sum_{j>=k} C(j,k) c_j
    e = [ck + (-1) ** k * sum(comb(j, k) * c[j] for j in range(k, m + 1))
         for k, ck in enumerate(c)]
    series = combine(e, basis)
    assert series.coeff(0) == 1
    return AverageTheta(n, c, series)


@dataclass
class CountBound:
    """Lower bound on the number of classes of minimal norm >= 3."""

    dim: int
    mass: Fraction
    mass_is_approximate: bool
    a1: Fraction
    a2: Fraction
    m0_lower: Fraction
    count_lower: Fraction

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "mass": rat_str(self.mass),
            "mass_is_approximate": self.mass_is_approximate,
            "avg_norm1": rat_str(self.a1),
            "avg_norm2": rat_str(self.a2),
            "m0_lower": rat_str(self.m0_lower),
            "count_lower": rat_str(self.count_lower),
        }


#: Total mass of the genus of odd unimodular 33-dimensional lattices,
#: truncated to four significant digits (the exact value is a huge
#: rational; bounds derived from this number inherit its precision).
DEFAULT_MASS_33 = Fraction(1407) * 10 ** 18


def mass_count_bound(avg: AverageTheta, mass=None) -> CountBound:
    """Bound the number of minimal-norm->=3 classes in the genus.

    The total count of norm-1 and norm-2 vectors over the genus is
    (A_1 + A_2) * M = 2 M_2 + 4 M_4 + ... >= 2 (M - M_0), where M_(2k) is
    the mass of classes with exactly 2k such vectors.  Hence
    M_0 >= M (1 - (A_1 + A_2)/2), and |Aut| >= 2 turns mass into a count:
    #classes >= 2 M_0.  A given mass is taken as exact and must be
    positive; the default (DEFAULT_MASS_33, dimension 33 only) is marked
    approximate.
    """
    mass_is_approximate = mass is None
    if mass is None:
        if avg.dim != 33:
            raise ValueError("no default mass known for dimension %d" % avg.dim)
        mass = DEFAULT_MASS_33
    mass = Fraction(mass)
    if mass <= 0:
        raise ValueError("genus mass must be positive, not %s" % rat_str(mass))
    a1 = avg.coeff_norm(1)
    a2 = avg.coeff_norm(2)
    m0 = mass * (1 - (a1 + a2) / 2)
    if m0 < 0:
        m0 = Fraction(0)  # vacuous bound
    return CountBound(avg.dim, mass, mass_is_approximate, a1, a2, m0, 2 * m0)
