"""Series ring: independent expansions, classical identities, ring laws."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from unimodular.bounds import shadow_basis, theta_basis
from unimodular.qseries import (
    QSeries,
    _power,
    combine,
    cusp_delta24,
    delta8,
    delta8_ratio,
    eisenstein_e4,
    g2,
    h2,
    parse_rat,
    rat_str,
    theta2,
    theta3,
    theta4,
)

T = 65  # quarter-exponent truncation for most checks


# ---------------------------------------------------------------------------
# independent expansions (oracles recomputed from the definitions)


def _theta_sum(trunc, half_shift, alternate):
    """sum over k of (+-) q^((k+shift)^2), exponents in quarters."""
    terms = {}
    k = 0
    while True:
        if half_shift:
            e = (2 * k + 1) ** 2  # (k + 1/2)^2 in quarters, with -k-1 mirror
            c = 2
        else:
            e = 4 * k * k
            c = 1 if k == 0 else 2
            if alternate and k % 2 == 1:
                c = -c
        if e >= trunc:
            break
        terms[e] = Fraction(c)
        k += 1
    return QSeries(terms, trunc)


def _poly_mul_int(a, b, kmax):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 <= kmax:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _eta_product(exponents, kmax):
    """q-integer expansion of prod_m (1 - q^m)^exponents(m), m = 1..kmax."""
    acc = {0: 1}
    for m in range(1, kmax + 1):
        p = exponents(m)
        for _ in range(p):
            acc = _poly_mul_int(acc, {0: 1, m: -1}, kmax)
    return acc


def test_theta_constructors_match_lattice_sums():
    assert theta3(T) == _theta_sum(T, False, False)
    assert theta4(T) == _theta_sum(T, False, True)
    assert theta2(T) == _theta_sum(T, True, False)


def test_theta3_low_coefficients():
    t = theta3(40)
    assert [t.coeff(e) for e in (0, 4, 8, 16, 36)] == [1, 2, 0, 2, 2]


def test_delta8_matches_product_expansion():
    # delta8 = q * prod (1-q^(2m-1))^8 (1-q^(4m))^8, through T = 77, past
    # the largest truncation table1(8, 40) uses (73)
    kmax = 18
    prod = _eta_product(lambda m: 8 if (m % 2 == 1 or m % 4 == 0) else 0, kmax)
    d = delta8(4 * (kmax + 1) + 1)
    for k, c in prod.items():
        assert d.coeff(4 * (k + 1)) == c
    assert [d.coeff(4 * m) for m in range(6)] == [0, 1, -8, 28, -64, 126]


def _binomial_product(factors, kmax):
    """q-integer expansion through q^kmax of prod (1 + s*q^m)^p over the
    (m, s, p) factors, p = +-8: each factor multiplied or divided in place."""
    acc = {e: 0 for e in range(kmax + 1)}
    acc[0] = 1
    for m, s, p in factors:
        for _ in range(abs(p)):
            if p > 0:  # times (1 + s q^m), from the top down
                for e in range(kmax, m - 1, -1):
                    acc[e] += s * acc[e - m]
            else:  # over (1 + s q^m), from the bottom up
                for e in range(m, kmax + 1):
                    acc[e] -= s * acc[e - m]
    return acc


def test_g2_h2_match_product_expansions():
    # through T = 177, the truncation solve_cj(40) uses
    t = 177
    kmax = (t - 1) // 4
    odd = [(m, 1, -8) for m in range(1, kmax + 1, 2)]  # (1+q^(2m-1))^(-8)
    # g2 = 16q prod ((1+q^(2m))/(1+q^(2m-1)))^8
    g = _binomial_product(odd + [(m, 1, 8) for m in range(2, kmax + 1, 2)], kmax - 1)
    assert g2(t).terms == {4 * (k + 1): 16 * c for k, c in g.items() if c}
    # h2 = prod ((1-q^(2m-1))/(1+q^(2m-1)))^8
    h = _binomial_product(odd + [(m, -1, 8) for m in range(1, kmax + 1, 2)], kmax)
    assert h2(t).terms == {4 * k: c for k, c in h.items() if c}
    assert g2(t).trunc == h2(t).trunc == t
    assert [g[k] for k in range(3)] == [1, -8, 44] and [h[k] for k in range(3)] == [1, -16, 128]


def test_eisenstein_e4_is_divisor_power_sum():
    # even-lattice variable x = q^2, so the x^m coefficient sits at 8m
    e4 = eisenstein_e4(8 * 12 + 1)
    for m in range(1, 12):
        sigma3 = sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
        assert e4.coeff(8 * m) == 240 * sigma3
    assert e4.coeff(0) == 1


def test_cusp_delta24_matches_eta_power():
    kmax = 10
    prod = _eta_product(lambda m: 24, kmax)
    d = cusp_delta24(8 * (kmax + 1) + 1)
    # exponents are doubled: the even-lattice variable is x = q^2
    for k, c in prod.items():
        assert d.coeff(8 * (k + 1)) == c
    assert d.coeff(8) == 1 and d.coeff(16) == -24 and d.coeff(24) == 252


@pytest.mark.parametrize("series, lowest", [
    (delta8, 8), (g2, 8), (h2, 8), (cusp_delta24, 9)])
def test_product_series_agree_across_truncations(series, lowest):
    # each is a product of Miller powers of the sparse thetas (Delta24: x
    # times a power of Euler's pentagonal series), built at its own window:
    # its terms below t must not depend on that window
    full = series(400)
    for t in range(lowest, 101):
        assert series(t) == full.truncate(t)


# ---------------------------------------------------------------------------
# classical identities (these pin down g2 and h2 uniquely)


def test_jacobi_identity():
    assert theta3(T) ** 4 == theta2(T) ** 4 + theta4(T) ** 4


def test_delta8_from_thetas():
    lhs = 16 * delta8(T)
    rhs = theta2(T) ** 4 * theta4(T) ** 4
    assert lhs.agrees_with(rhs, upto=min(lhs.trunc, rhs.trunc))


def test_g2_h2_partition_of_unity():
    one = QSeries.one(T)
    assert g2(T) + h2(T) == one


def test_g2_h2_against_theta_quotients():
    t3_4 = theta3(T) ** 4
    lhs = g2(T) * t3_4
    rhs = theta2(T) ** 4
    assert lhs.agrees_with(rhs, upto=min(lhs.trunc, rhs.trunc))
    assert (h2(T) * t3_4).agrees_with(theta4(T) ** 4, upto=T)


def test_delta8_ratio_is_the_theta_basis_step():
    # r = delta8 / theta3^8 = g2 h2 / 16, integral, cut at each truncation
    for t in (8, 9, 33, T, 177):
        r = delta8_ratio(t)
        assert r.trunc == t and all(type(c) is int for c in r.terms.values())
        assert (r * theta3(t) ** 8).truncate(t) == delta8(t)
        assert g2(t) * h2(t) == 16 * r
    assert [delta8_ratio(T).coeff(4 * m) for m in range(4)] == [0, 1, -24, 300]
    assert delta8_ratio(400).truncate(101) == delta8_ratio(101)


def _delta8_over_theta3_8(t):
    """delta8(t) theta3(t)^-8 without the library's delta8 or powers:
    theta2^4 theta4^4 / 16 by repeated products of the lattice sums, then
    divided by theta3^8 in place on the integer-exponent grid."""
    t2, t3, t4 = (_theta_sum(t, True, False), _theta_sum(t, False, False),
                  _theta_sum(t, False, True))
    d8 = (t2 * t2 * t2 * t2 * t4 * t4 * t4 * t4 * Fraction(1, 16)).truncate(t)
    t3_8 = t3 * t3 * t3 * t3 * t3 * t3 * t3 * t3
    kmax = (t - 1) // 4
    den = [t3_8.coeff(4 * k) for k in range(kmax + 1)]  # constant term 1
    out = [d8.coeff(4 * k) for k in range(kmax + 1)]
    for k in range(kmax + 1):
        for i in range(1, k + 1):
            out[k] -= den[i] * out[k - i]
    return QSeries({4 * k: c for k, c in enumerate(out)}, t)


def test_delta8_ratio_matches_delta8_over_theta3_8():
    # r = q J^4 theta3^-12 by Jacobi's identity, against delta8 theta3^-8
    # at every window the engines use and one well past them
    for t in [*range(8, 201), 401]:
        assert delta8_ratio(t) == _delta8_over_theta3_8(t), t
    with pytest.raises(ValueError):
        delta8_ratio(7)


def test_jacobi_j4_is_the_eta_power():
    # J = sum_m (-1)^m (2m+1) q^(m(m+1)) = prod_m (1-q^(2m))^3, so
    # J^4 = prod_m (1-q^(2m))^12, expanded here by in-place products
    kmax = 100
    j = {}
    m = 0
    while m * (m + 1) <= kmax:
        j[4 * m * (m + 1)] = (-1) ** m * (2 * m + 1)
        m += 1
    j4 = QSeries(j, 4 * kmax + 1) ** 4
    eta = _binomial_product([(m, -1, 12) for m in range(2, kmax + 1, 2)], kmax)
    assert j4.terms == {4 * k: c for k, c in eta.items() if c}
    # and r theta3^12 = q J^4: the ratio is built on this J^4
    t = 4 * kmax + 1
    lhs = (delta8_ratio(t) * theta3(t) ** 12).truncate(t)
    assert lhs.terms == {4 * (k + 1): c for k, c in eta.items() if c and 4 * (k + 1) < t}


def test_delta8_ratio_makes_one_product(monkeypatch):
    # J^4 and theta3^-12 are power passes; only their product multiplies
    products = []
    mul = QSeries.__mul__

    def counting_mul(self, other):
        if isinstance(other, QSeries):
            products.append((self.trunc, other.trunc))
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting_mul)
    for t in (8, 9, 65, 177, 401):
        for cached in (theta2, theta3, theta4, delta8, delta8_ratio):
            cached.cache_clear()  # count every product the ratio needs
        products.clear()
        delta8_ratio(t)
        assert len(products) == 1, (t, products)


def test_theta_product_substitution():
    # theta3(q) theta4(q) = theta4(q^2)^2
    lhs = theta3(T) * theta4(T)
    rhs = theta4((T + 1) // 2).subs_q2() ** 2
    assert lhs.agrees_with(rhs, upto=min(lhs.trunc, rhs.trunc))


def test_theta2_squared_halves_exponents():
    # theta2(q)^2 = 2 theta2(q^2) theta3(q^2) is another standard check
    lhs = theta2(T) ** 2
    rhs = 2 * (theta2((T + 1) // 2).subs_q2() * theta3((T + 1) // 2).subs_q2())
    assert lhs.agrees_with(rhs, upto=min(lhs.trunc, rhs.trunc))


# ---------------------------------------------------------------------------
# ring laws on random series


def _random_series(rng, trunc, unit=False):
    terms = {}
    for _ in range(rng.randrange(1, 8)):
        e = rng.randrange(0, trunc)
        terms[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    if unit:
        terms[0] = Fraction(1)
    elif 0 in terms and terms[0] == 0:
        del terms[0]
    return QSeries(terms, trunc)


def test_ring_laws_random():
    rng = random.Random(20240817)
    for _ in range(60):
        t = rng.randrange(6, 30)
        a = _random_series(rng, t)
        b = _random_series(rng, t)
        c = _random_series(rng, t)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a - a == QSeries({}, t)
        left = (a * b) * c
        right = a * (b * c)
        assert left.agrees_with(right, upto=min(left.trunc, right.trunc))
        d = a * (b + c)
        e = a * b + a * c
        assert d.agrees_with(e, upto=min(d.trunc, e.trunc))


def test_pow_matches_repeated_product():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_series(rng, 20, unit=True)
        p = a ** 5
        q = a * a * a * a * a
        assert p.terms == q.terms and p.trunc == q.trunc
        assert a ** 0 == QSeries.one(20)


def _repeated_product(a, k):
    """a^k as k - 1 products of a, or the unit series for k = 0."""
    out = QSeries.one(a.trunc)
    for i in range(k):
        out = out * a if i else a
    return out


def _fuzz_series(rng, trunc):
    """A random integral or rational series on a random exponent grid,
    possibly with a positive valuation, possibly zero."""
    step = rng.choice([1, 2, 4, 8])
    e0 = rng.randrange(trunc)
    terms = {}
    for e in range(e0, trunc, step):
        if rng.random() < 0.4:
            c = rng.randrange(-9, 10)
            terms[e] = Fraction(c, rng.choice([1, 2, 3, 16])) if rng.random() < 0.5 else c
    return QSeries(terms, trunc)


def test_pow_fuzz_matches_repeated_product():
    # the recurrence against plain products: same terms, same truncation
    rng = random.Random(2026)
    cases = [(_fuzz_series(rng, rng.randrange(1, 50)), rng.randrange(9)) for _ in range(300)]
    cases += [(QSeries({}, t), k) for t in (1, 7, 40) for k in range(5)]
    for t in (9, 33, 97):
        t4q2 = theta4(t).subs_q2().truncate(t)
        cases += [(s, k) for s in (theta2(t), theta3(t), t4q2, delta8(t)) for k in range(11)]
    cases += [(theta2(177), 40), (theta3(177), 40), (theta4(97).subs_q2().truncate(97), 24)]
    for a, k in cases:
        p, q = a ** k, _repeated_product(a, k)
        assert p.terms == q.terms and p.trunc == q.trunc, (a, k)
        assert all(type(c) is type(q.terms[e]) for e, c in p.terms.items())
    assert theta2(97) ** 3 == theta2(97) * theta2(97) * theta2(97)
    assert (theta2(97) ** 3).trunc == 97 + 2  # trunc + (k-1) * valuation


def test_pow_checks_each_division_of_the_recurrence():
    # every step divides exactly on a sound cleared form; a corrupted
    # numerator (not an integer over the denominator) leaves a remainder
    a = QSeries({0: 1, 4: 1}, 40)
    assert a ** 3 == _repeated_product(a, 3)
    a._ints = (1, [(0, 1), (4, Fraction(1, 3))])
    with pytest.raises(AssertionError, match="inexact"):
        a ** 2


def test_negative_powers_invert_the_positive_ones():
    # a unit (constant +-1 once cleared) has integral inverse powers
    rng = random.Random(31)
    units = [theta3(97), theta4(97), theta4(49).subs_q2().truncate(97)]
    for _ in range(20):
        terms = {e: rng.randrange(-9, 10) for e in rng.sample(range(1, 60), 6)}
        units.append(QSeries({0: rng.choice((1, -1)), **terms}, 60))
    # over den 6: a constant 1/6 clears to the numerator 1
    units.append(QSeries({0: Fraction(1, 6), 4: Fraction(1, 3), 12: Fraction(-1, 2)}, 61))
    for f in units:
        for k in (1, 2, 4, 7, 8):
            inv = _power(f, -k)
            assert inv.trunc == f.trunc
            assert all(type(c) is int for c in inv.terms.values()), (f, k)
            assert inv * f ** k == QSeries.one(f.trunc), (f, k)
        assert _power(f, -3) == _power(f, -1) ** 3
    assert _power(units[-1], -1).coeff(0) == 6


def test_negative_powers_need_a_unit():
    with pytest.raises(ValueError, match="valuation 0"):
        _power(theta2(40), -1)
    with pytest.raises(ValueError, match="constant term"):
        _power(QSeries({0: 2, 4: 1}, 40), -1)
    with pytest.raises(ValueError, match="valuation 0"):
        _power(QSeries({}, 40), -2)
    # the operator keeps its contract: nonnegative powers only
    with pytest.raises(TypeError):
        QSeries.one(5) ** -1


def test_subs_q2_is_a_ring_map():
    rng = random.Random(4242)
    for _ in range(20):
        a = _random_series(rng, 16)
        b = _random_series(rng, 16)
        lhs = (a * b).subs_q2()
        rhs = a.subs_q2() * b.subs_q2()
        assert lhs.agrees_with(rhs, upto=min(lhs.trunc, rhs.trunc))
        assert (a + b).subs_q2() == a.subs_q2() + b.subs_q2()


# ---------------------------------------------------------------------------
# the fraction-free kernel against a plain-Fraction reference


def _ref_terms(s):
    return {e: Fraction(c) for e, c in s.terms.items()}


def _reference_mul(a, b):
    """Term-by-term Fraction convolution under the ring's window rule."""
    va, vb = min(a.terms, default=a.trunc), min(b.terms, default=b.trunc)
    t = min(a.trunc + vb, b.trunc + va)
    acc = {}
    for e1, c1 in _ref_terms(a).items():
        for e2, c2 in _ref_terms(b).items():
            if e1 + e2 < t:
                acc[e1 + e2] = acc.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in acc.items() if c}, t


def _reference_add(a, b):
    t = min(a.trunc, b.trunc)
    acc = {}
    for s in (a, b):
        for e, c in _ref_terms(s).items():
            if e < t:
                acc[e] = acc.get(e, Fraction(0)) + c
    return {e: c for e, c in acc.items() if c}, t


def _reference_combine(coeffs, basis):
    t = min(b.trunc for b in basis)
    acc = {}
    for a, b in zip(coeffs, basis):
        for e, c in _ref_terms(b).items():
            if e < t:
                acc[e] = acc.get(e, Fraction(0)) + Fraction(a) * c
    return {e: c for e, c in acc.items() if c}, t


def _random_rational(rng):
    """An int, or a Fraction over a power of 16 or over a small odd prime."""
    num = rng.randrange(-40, 41)
    kind = rng.randrange(3)
    if kind == 0:
        return num
    den = 16 ** rng.randrange(1, 4) if kind == 1 else rng.choice((3, 5, 7, 11))
    return Fraction(num, den)


def _kernel_series(rng):
    """Random series with a positive valuation now and then and its own
    truncation; dense or sparse, integral or not."""
    trunc = rng.randrange(4, 48)
    low = rng.randrange(0, min(trunc, 9))
    terms = {e: _random_rational(rng) for e in range(low, trunc)
             if rng.random() < rng.choice((0.3, 0.9))}
    return QSeries(terms, trunc)


def _assert_normal_form(s):
    assert list(s.terms) == sorted(s.terms)
    for e, c in s.terms.items():
        assert 0 <= e < s.trunc and c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (e, c)
    for e in range(s.trunc):
        assert type(s.coeff(e)) is Fraction


def _assert_matches(s, ref):
    terms, trunc = ref
    assert s.trunc == trunc and _ref_terms(s) == terms
    _assert_normal_form(s)


def test_kernel_matches_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(150):
        a, b = _kernel_series(rng), _kernel_series(rng)
        _assert_normal_form(a)
        _assert_matches(a * b, _reference_mul(a, b))
        _assert_matches(a + b, _reference_add(a, b))
        _assert_matches(a - b, _reference_add(a, QSeries({e: -c for e, c in b.terms.items()},
                                                         b.trunc)))
        # a scalar that sometimes clears every denominator of a
        k = rng.choice((0, 1, -3, 16 ** 3 * 1155, Fraction(-7, 16), Fraction(5, 3),
                        _random_rational(rng)))
        scaled = {e: Fraction(k) * c for e, c in _ref_terms(a).items() if k}
        _assert_matches(a * k, (scaled, a.trunc))
        _assert_matches(k * a, (scaled, a.trunc))
        # a and b are cleared by now: what is derived from them must not
        # share their cleared form
        cut = rng.randrange(1, a.trunc + 1)
        for d in (-a, a.truncate(cut), a.subs_q2(), a * k, a - b):
            _assert_matches(d * b, _reference_mul(d, b))
        basis = [_kernel_series(rng) for _ in range(rng.randrange(1, 5))]
        coeffs = [rng.choice((0, _random_rational(rng))) for _ in basis]
        _assert_matches(combine(coeffs, basis), _reference_combine(coeffs, basis))


def _assert_cleared(s):
    """The cleared form is (lcm of the denominators, den * c_e) in exponent
    order, whether the series was made with it or cleared on first use."""
    den, nums = s._cleared()
    assert den == math.lcm(*(Fraction(c).denominator for c in s.terms.values()))
    assert [(e, Fraction(c, den)) for e, c in nums] == list(_ref_terms(s).items())
    assert all(type(c) is int for _, c in nums)


def test_scalar_product_fuzz():
    # the scalar branch scales the cleared numerators in one int pass;
    # the oracle multiplies term by term in Fractions
    rng = random.Random(24)
    scalars = (0, 1, -1, 16, -48, 16 ** 3 * 1155, Fraction(1, 16), Fraction(-1, 16),
               Fraction(-7, 16), Fraction(5, 3), Fraction(-256, 3), Fraction(0, 5))
    for _ in range(200):
        a = _kernel_series(rng)
        if rng.random() < 0.5:  # integral, the engines' usual case
            a = QSeries({e: Fraction(c).numerator for e, c in a.terms.items()}, a.trunc)
        if rng.random() < 0.5:
            a._cleared()  # scale a series that already holds its cleared form
        k = rng.choice((*scalars, _random_rational(rng)))
        ref = {e: Fraction(k) * c for e, c in _ref_terms(a).items() if k}
        for r in (a * k, k * a):
            _assert_matches(r, (ref, a.trunc))
            _assert_cleared(r)
            for copied in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
                _assert_matches(copied, (ref, a.trunc))
                assert copied == r and hash(copied) == hash(r)
                _assert_cleared(copied)
        assert (a * k) * k == a * (Fraction(k) * k)


def test_kernel_divides_back_to_integers():
    # products and combinations whose denominators cancel come out as ints
    quarter = QSeries({1: Fraction(1, 16), 5: Fraction(3, 16)}, 40)
    sixteen = QSeries({0: 16, 4: 32}, 40)
    prod = quarter * sixteen
    _assert_matches(prod, _reference_mul(quarter, sixteen))
    assert all(type(c) is int for c in prod.terms.values())
    comb = combine([Fraction(16, 3), 3], [QSeries({2: Fraction(3, 16)}, 9),
                                          QSeries({2: Fraction(2, 3)}, 9)])
    assert comb.terms == {2: 3} and type(comb.terms[2]) is int
    assert (quarter * 16 - quarter * 16).terms == {}


def test_classical_and_basis_series_are_integral():
    for s in (theta2(T), theta3(T), theta4(T), delta8(T), g2(T), h2(T),
              eisenstein_e4(T), cusp_delta24(T), *theta_basis(33, 66)):
        _assert_normal_form(s)
        assert all(type(c) is int for c in s.terms.values())
    # only the shadow basis carries the powers (-1/16)^j
    sb = shadow_basis(33, 66)
    assert all(type(c) is int for c in sb[0].terms.values())
    assert any(type(c) is Fraction for c in sb[4].terms.values())


def test_normal_form_keeps_equality_and_hash():
    a = QSeries({0: Fraction(2), 3: Fraction(6, 3), 5: Fraction(0)}, 8)
    b = QSeries({0: 2, 3: 2}, 8)
    assert a.terms == {0: 2, 3: 2} and type(a.terms[0]) is int
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((((0, Fraction(2)), (3, Fraction(2))), 8))
    assert QSeries([(1, Fraction(1, 2)), (1, Fraction(1, 2))], 4).terms == {1: 1}


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        QSeries({0: 0.1}, 4)
    with pytest.raises(TypeError):
        QSeries({0.5: 1}, 4)  # int() would file it under q^0
    with pytest.raises(TypeError):
        QSeries({0: 1}, 4.9)
    with pytest.raises(TypeError):
        theta3(9).truncate(4.5)
    with pytest.raises(TypeError):
        combine([0.5, 1], [theta3(9), theta4(9)])
    for op in (lambda s: s * 0.5, lambda s: 0.5 * s, lambda s: s + 0.5):
        with pytest.raises(TypeError):
            op(theta3(9))


# ---------------------------------------------------------------------------
# truncation and error handling


def test_integral_results_are_made_with_their_cleared_form():
    # a product, power or combination over denominator 1 is never scanned
    # for integrality; its cleared form is its own terms
    a, b = theta3(40), QSeries({0: 1, 4: -3, 8: 2}, 40)
    half = QSeries({0: Fraction(1, 2), 4: 1}, 40)
    for r in (a * b, b ** 3, combine([2, -1], [a, b])):
        assert r._ints[0] == 1 and list(r._ints[1]) == list(r.terms.items())
        fresh = QSeries(r.terms, r.trunc)  # cleared again on first use
        assert r * half == fresh * half and r ** 2 == fresh ** 2
    # copies and pickles leave the cleared form behind and make their own
    for r in (a * b, copy.deepcopy(a * b), pickle.loads(pickle.dumps(a * b))):
        assert r == a * b and r * half == (a * b) * half
    # a result over a larger denominator is cleared when first used, even
    # when the division leaves ints
    r, whole = half * b, half * QSeries({0: 2}, 40)
    assert r._ints is None and r._cleared()[0] == 2
    assert whole._ints is None and whole._cleared() == (1, whole.terms.items())


def test_truncation_semantics():
    a = QSeries({0: 1, 3: 2, 9: 5}, 12)
    b = a.truncate(4)
    assert b.trunc == 4 and b.items() == [(0, Fraction(1)), (3, Fraction(2))]
    assert a.truncate(100).trunc == 12  # cannot extend knowledge
    # cutting nothing hands back the series itself, its cleared form kept
    assert a.truncate(12) is a and a.truncate(100) is a
    # terms at or beyond trunc are dropped on construction
    assert QSeries({5: 7}, 5).terms == {}


def test_addition_keeps_common_window():
    a = QSeries({0: 1}, 10)
    b = QSeries({0: 1}, 6)
    assert (a + b).trunc == 6


def test_multiplication_window_uses_valuations():
    a = QSeries({2: 1}, 10)  # valuation 2
    b = QSeries({3: 1}, 10)  # valuation 3
    # window: min(trunc_a + val_b, trunc_b + val_a)
    assert (a * b).trunc == 12
    assert (a * b).coeff(5) == 1


def test_zero_series_valuation_and_display():
    z = QSeries({}, 9)
    assert z.valuation() == 9 and str(z) == "0"
    s = QSeries({1: 2, 8: -3, 4: 1}, 12)
    assert str(s) == "2*q^(1/4) + q - 3*q^2"


def test_constructor_and_access_errors():
    with pytest.raises(ValueError):
        QSeries({-1: 1}, 4)
    with pytest.raises(ValueError):
        QSeries({}, 0)
    s = QSeries({0: 1}, 5)
    with pytest.raises(ValueError):
        s.coeff(5)
    with pytest.raises(TypeError):
        s ** -1
    with pytest.raises(ValueError):
        s.agrees_with(QSeries.one(5), upto=99)


def test_json_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        a = _random_series(rng, 30)
        assert QSeries.from_json_dict(a.to_json_dict()) == a


def test_rat_str_parse_rat_round_trip():
    for x in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 7)):
        assert parse_rat(rat_str(x)) == x
    assert parse_rat("1.5") == Fraction(3, 2)
