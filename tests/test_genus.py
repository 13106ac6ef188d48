"""Genus-average theta series and the mass-based class count bound."""

from fractions import Fraction
from math import comb, factorial

import pytest

from unimodular import genus
from unimodular.genus import genus_mass, mass_count_bound, solve_cj
from unimodular.qseries import QSeries, eisenstein_e4, g2, h2, theta2, theta3, theta4


def test_dim8_average_is_z8_theta():
    # the genus of odd unimodular 8-dimensional lattices is {Z^8}
    avg = solve_cj(8)
    t38 = theta3(avg.series.trunc) ** 8
    assert avg.series.agrees_with(t38, upto=min(avg.series.trunc, t38.trunc))


def test_dim9_average_is_the_two_class_mixture():
    # genus {Z^9, E8+Z}: mass-weighted mix of theta3^9 and theta3 * Theta_E8
    avg = solve_cj(9)
    t = avg.series.trunc
    a = Fraction(1, 2 ** 9 * 362880)  # 1/|Aut Z^9| = 1/(2^9 9!)
    b = Fraction(1, 2 * 696729600)  # 1/|Aut(E8+Z)| = 1/(2 |W(E8)|)
    mix = (theta3(t) ** 9 * a + theta3(t) * eisenstein_e4(t) * b) * (1 / (a + b))
    assert avg.series.agrees_with(mix, upto=min(t, mix.trunc))
    assert avg.c == [0, Fraction(16, 17), Fraction(1, 17)]


#: |W(E8)| = |Aut E8|
AUT_E8 = 696729600


def _aut_zn(k: int) -> int:
    """|Aut Z^k| = 2^k k!, the signed permutations."""
    return 2 ** k * factorial(k)


def _class_auts(n: int) -> list[int]:
    """|Aut| of every class of I_n for 2 <= n <= 13: Z^n, E8+Z^(n-8) for
    n >= 9 and D12+ + Z^(n-12) for n >= 12, with |Aut D12+| = 2^11 12!."""
    auts = [_aut_zn(n)]
    if n >= 9:
        auts.append(AUT_E8 * _aut_zn(n - 8))
    if n >= 12:
        auts.append(2 ** 11 * factorial(12) * _aut_zn(n - 12))
    return auts


@pytest.mark.parametrize("n", range(2, 14))
def test_genus_mass_is_the_sum_over_the_known_classes(n):
    # every residue of n mod 8 occurs among 2..13
    assert genus_mass(n) == sum(Fraction(1, aut) for aut in _class_auts(n))


def test_genus_mass_small_and_dim33():
    assert genus_mass(1) == Fraction(1, 2)  # Z, with Aut = {+-1}
    with pytest.raises(ValueError):
        genus_mass(0)
    # the four-digit value 1.407e21 once hard-coded for dimension 33
    assert abs(genus_mass(33) / 10 ** 21 - Fraction(1407, 1000)) < Fraction(1, 1000)


def test_dim12_average_is_the_three_class_mixture():
    # n = 4 (mod 8) used to make the square system singular; the genus is
    # {Z^12, E8+Z^4, D12+}, weighted by 1/|Aut|
    avg = solve_cj(12)
    t = avg.series.trunc
    t2, t3, t4 = theta2(t), theta3(t), theta4(t)
    thetas = [t3 ** 12, eisenstein_e4(t) * t3 ** 4,
              (t2 ** 12 + t3 ** 12 + t4 ** 12) * Fraction(1, 2)]
    classes = list(zip(thetas, _class_auts(12)))
    mass = sum(Fraction(1, aut) for _, aut in classes)
    assert mass == genus_mass(12)
    mix = None
    for theta, aut in classes:
        term = theta * (Fraction(1, aut) / mass)
        mix = term if mix is None else mix + term
    assert avg.series.agrees_with(mix, upto=min(t, mix.trunc))
    assert 2 * avg.c[0] + sum(avg.c[1:]) == 1


def test_dims_4_mod_8_solve_with_surplus_relations():
    # raises if the system is singular or a surplus relation fails; with
    # verify_extra=0 the truncation still holds the relation i = n/4 the
    # solve needs
    for n, extra in ((12, 0), (20, 3), (28, 3), (36, 3)):
        avg = solve_cj(n, verify_extra=extra)
        assert avg.series.coeff(0) == 1 and len(avg.c) == n // 4 + 1
        assert all(avg.coeff_norm(k) >= 0 for k in range(4))
    assert solve_cj(12, verify_extra=0).c == solve_cj(12).c


def test_structure_of_solution():
    for n in (8, 9, 13, 33):
        avg = solve_cj(n)
        assert len(avg.c) == n // 4 + 1
        assert avg.c[0] == 0  # alpha_0 = 0 kills the pure-g2^0 term
        # normalization: constant term of the average is 1
        assert avg.series.coeff(0) == 1
        assert 2 * avg.c[0] + sum(avg.c[1:]) == 1
        # averaged vector counts are nonnegative on the full window
        for m in range((avg.series.trunc - 1) // 4 + 1):
            assert avg.coeff_norm(m) >= 0


def test_alpha_relation_holds_beyond_the_solving_window():
    # verify_extra > 1 checks additional alpha_(4i) = 2^(n-2) alpha_i rows
    for n in (9, 21, 33):
        solve_cj(n, verify_extra=3)  # raises if a surplus relation fails


def test_average_matches_basis_reconstruction():
    # the average from the public g2 and h2, without the fold h2 = 1 - g2
    for n in range(5, 41):
        avg = solve_cj(n)
        t = avg.series.trunc
        g, h = g2(t), h2(t)
        gp = hp = QSeries.one(t)
        acc = QSeries({}, t)
        for c in avg.c:
            acc = acc + (gp + hp) * c
            gp, hp = gp * g, hp * h
        recon = theta3(t) ** n * acc
        assert avg.series == recon.truncate(t)


@pytest.mark.parametrize("n", [5, 9, 33, 40])
def test_solve_makes_one_product_per_power(monkeypatch, n):
    # theta3^n by the power recurrence, which makes no product, then one
    # product per power of g2
    m = n // 4
    trunc = 16 * (m + 1) + 1
    g2(trunc), theta3(trunc)
    calls = []
    mul = QSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    solve_cj(n)
    assert len(calls) == m


def _binary_pow(a, k):
    """a^k by binary squaring, every step a series product."""
    result, base = QSeries.one(a.trunc), a
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def test_solve_matches_the_product_chain_construction(monkeypatch):
    # solve_cj takes theta3^n by the power recurrence; with powers taken by
    # products instead, every coefficient and series is the same
    def solve_all():
        out = {}
        for n in range(5, 49):
            avg = solve_cj(n)
            out[n] = (avg.c, avg.series.terms, avg.series.trunc)
        return out

    got = solve_all()
    monkeypatch.setattr(QSeries, "__pow__", _binary_pow)
    assert solve_all() == got


def test_folded_coefficients_match_the_fraction_formula(monkeypatch):
    # the e_k that fold h2 = 1 - g2 into powers of g2, summed in ints over
    # one denominator, against the formula summed in Fractions
    folded = []
    combine = genus.combine
    monkeypatch.setattr(genus, "combine",
                        lambda coeffs, basis: folded.append(coeffs) or combine(coeffs, basis))
    for n in range(5, 49):
        folded.clear()
        c, m = solve_cj(n).c, n // 4
        want = [c[k] + (-1) ** k * sum(comb(j, k) * c[j] for j in range(k, m + 1))
                for k in range(m + 1)]
        assert folded == [want], n


def test_g2_builds_no_h2():
    g2.cache_clear()
    h2.cache_clear()
    g2(57)
    assert h2.cache_info().currsize == 0
    assert g2(57) + h2(57) == QSeries.one(57)


def test_dim33_exact_averages():
    avg = solve_cj(33)
    assert avg.coeff_norm(1) == Fraction(15535133760578, 505245773078238529)
    assert avg.coeff_norm(2) == Fraction(719890853572979520, 505245773078238529)


def test_dim33_count_bound():
    cb = mass_count_bound(solve_cj(33))
    assert cb.mass == genus_mass(33)
    assert cb.m0_lower >= Fraction(404, 1000) * 10 ** 21
    assert cb.count_lower >= 8 * 10 ** 20
    assert cb.count_lower == 2 * cb.m0_lower
    # 3 significant digits: M0 = 0.404...e21, count = 0.809...e21
    assert abs(float(cb.m0_lower) - 4.046e20) < 1e18
    assert abs(float(cb.count_lower) - 8.092e20) < 2e18


def test_count_bound_json():
    d = mass_count_bound(solve_cj(33)).to_json_dict()
    assert d["dim"] == 33 and Fraction(d["mass"]) == genus_mass(33)
    assert set(d) == {
        "dim", "mass", "avg_norm1", "avg_norm2", "m0_lower", "count_lower",
    }


def test_vacuous_bound_clamps_to_zero():
    # dimension 9 averages more than two short vectors per class
    cb = mass_count_bound(solve_cj(9))
    assert cb.m0_lower == 0 and cb.count_lower == 0


def test_count_bound_runs_in_every_dimension():
    # the exact mass exists for every n, so no dimension is refused
    for n in range(5, 41):
        cb = mass_count_bound(solve_cj(n))
        assert cb.dim == n and cb.mass == genus_mass(n) > 0
        assert 0 <= cb.m0_lower <= cb.mass and cb.count_lower == 2 * cb.m0_lower


def test_solver_input_guard():
    with pytest.raises(ValueError):
        solve_cj(4)
