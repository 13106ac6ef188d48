"""Feasibility scanner: prefix fits, obstructions, scans, certified bounds."""

import gc
import hashlib
import json
import weakref
from fractions import Fraction

import pytest

from unimodular import bounds
from unimodular.bounds import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    KNOWN_MINIMA,
    R_COUNT,
    R_NEG,
    R_NONINT,
    R_PREFIX,
    R_RANK,
    _COEFF_RULES,
    GramCheck,
    _affine_bounds,
    _shadow_grid,
    back_substitute,
    default_trunc,
    even_extremal_scan,
    feasibility_scan,
    fit_from_theta,
    gram_obstruction,
    lattice_theta,
    mu_upper,
    shadow_basis,
    shadow_theta,
    solve_prefix,
    table1,
    theta_basis,
)
from unimodular.genus import solve_cj
from unimodular.lattice import enumerate_short, shadow_cosets, theta_by_enumeration, zn
from unimodular.qseries import QSeries, delta8, delta8_ratio, theta2, theta3, theta4


# ---------------------------------------------------------------------------
# basis structure and prefix fits


def test_theta_basis_unitriangular():
    for n in (9, 17, 33):
        basis = theta_basis(n, default_trunc(n, 4))
        assert len(basis) == n // 8 + 1
        for j, b in enumerate(basis):
            assert b.valuation() == 4 * j
            assert b.coeff(4 * j) == 1


def test_bases_equal_direct_powers():
    # the bases share powers along chains; the oracle powers each factor
    for n in range(1, 41):
        t = default_trunc(n, n // 8 + 3)
        tb, sb = theta_basis(n, t), shadow_basis(n, t)
        assert len(tb) == len(sb) == n // 8 + 1
        for j in range(n // 8 + 1):
            direct = theta3(t) ** (n - 8 * j) * (delta8(t) ** j if j else 1)
            assert tb[j] == direct.truncate(t), (n, j)
            direct = (theta4(t).subs_q2() ** (8 * j) * theta2(t) ** (n - 8 * j)
                      * Fraction((-1) ** j, 16 ** j))
            assert sb[j] == direct.truncate(t), (n, j)


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


def _chain_basis(a, top, step, b, count, trunc):
    """[a^(top - step*j) * b^j] from products alone: a^step and b are
    multiplied in one at a time along two chains."""
    apows = [_binary_pow(a, top - step * (count - 1)).truncate(trunc)]
    astep = _binary_pow(a, step)
    bpows = [QSeries.one(trunc)]
    for _ in range(count - 1):
        apows.append((apows[-1] * astep).truncate(trunc))
        bpows.append((bpows[-1] * b).truncate(trunc))
    return tuple((x * y).truncate(trunc) for x, y in zip(reversed(apows), bpows))


def test_bases_equal_the_product_chain_construction():
    # the bases take theta3, theta2 and theta4(q^2) to powers by the
    # recurrence; the oracle builds them from products only
    for n in range(1, 49):
        count = n // 8 + 1
        for t in (default_trunc(n, count + 2), n + 33):
            d8 = delta8(t) if n >= 8 else None
            assert theta_basis(n, t) == _chain_basis(theta3(t), n, 8, d8, count, t), (n, t)
            t4q2_8 = _binary_pow(theta4(t).subs_q2().truncate(t), 8)
            chain = _chain_basis(theta2(t), n, 8, t4q2_8, count, t)
            signed = tuple(s * Fraction((-1) ** j, 16 ** j) for j, s in enumerate(chain))
            assert shadow_basis(n, t) == signed, (n, t)


@pytest.mark.parametrize("n", [8, 17, 33, 40])
def test_theta_basis_makes_one_product_per_power(monkeypatch, n):
    # theta3^n by the power recurrence, which makes no product, then one
    # product per power of r = delta8 / theta3^8
    t = default_trunc(n, n // 8 + 3)
    theta3(t), delta8_ratio(t)
    theta_basis.cache_clear()
    calls = []
    mul = QSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    theta_basis(n, t)
    assert len(calls) == n // 8


def test_shadow_basis_leading_exponents():
    n = 17
    basis = shadow_basis(n, default_trunc(n, 4))
    for j, b in enumerate(basis):
        assert b.valuation() == n - 8 * j


def _fraction_back_substitute(basis, targets, step):
    """The unitriangular fit in Fractions, read through `coeff`."""
    coeffs, residual = [], []
    for m, target in enumerate(targets):
        acc = sum((a * b.coeff(step * m) for a, b in zip(coeffs, basis)), Fraction(0))
        if m < len(basis):
            coeffs.append(target - acc)
        elif acc != target:
            residual.append((m, acc - target))
    return coeffs, residual


def test_back_substitute_matches_the_fraction_fit():
    targets = [[1], [1, 0, 0], [1, 0, 0, 0, 0, 0], [Fraction(1, 3), 5, -2, 7],
               [Fraction(2), Fraction(-7, 4), 0, Fraction(3)]]
    for n in (1, 9, 24, 33, 40):
        basis = theta_basis(n, default_trunc(n, 6))
        for tg in targets:
            got = back_substitute(basis, tg, 4)
            assert got == _fraction_back_substitute(basis, tg, 4), (n, tg)
            coeffs, residual = got
            assert all(type(a) is Fraction for a in coeffs)
            assert all(type(r) is Fraction for _, r in residual)
    # an exponent past a basis truncation is an error, as `coeff` makes it
    short = theta_basis(9, 9)
    with pytest.raises(ValueError):
        back_substitute(short, [1, 0, 0, 0], 4)
    with pytest.raises(ValueError):
        _fraction_back_substitute(short, [1, 0, 0, 0], 4)
    assert back_substitute(short, [1, 0, 0], 4) == _fraction_back_substitute(short, [1, 0, 0], 4)


def test_solve_prefix_forced_values():
    assert solve_prefix(9, 2).coeffs == [1, -18]
    assert solve_prefix(33, 4).coeffs[:4] == [1, -66, 660, -880]
    assert solve_prefix(33, 4).coeffs[4] is None  # a_4 stays free
    assert solve_prefix(32, 4).coeffs[:4] == [1, -64, 576, -1024]
    # free coefficients stay undetermined
    fit = solve_prefix(33, 4)
    assert fit.free == [4]
    assert fit.resolved({4: 7})[4] == 7


def test_solve_prefix_overdetermined_residual():
    # [12/8]+1 = 2 basis elements cannot kill the q^2 coefficient
    fit = solve_prefix(12, 3)
    assert fit.coeffs == [1, -24]
    assert fit.prefix_residual == [(2, Fraction(264))]


def test_fit_from_theta_recovers_coefficients():
    t9 = theta_by_enumeration(zn(9), 4)
    assert fit_from_theta(9, t9) == [1, 0]
    with pytest.raises(ValueError):
        fit_from_theta(9, theta3(4))  # truncated before q^[n/8]


def test_lattice_theta_and_shadow_of_zn():
    t = lattice_theta(9, (1, 0), 41)
    assert t.agrees_with(theta3(41) ** 9, upto=41)
    s = shadow_theta(9, (1, 0), 41)
    assert s.agrees_with(theta2(41) ** 9, upto=41)
    with pytest.raises(ValueError):
        lattice_theta(9, (1,), 41)  # wrong coefficient count


# ---------------------------------------------------------------------------
# Gram-matrix obstruction


def test_gram_obstruction_rank_contradiction():
    g = gram_obstruction(33, Fraction(9, 4), 55, 4)
    assert g.contradiction
    assert g.tset == (Fraction(1, 4),)
    assert "rank 55 > dimension 33" in g.detail


def test_gram_obstruction_admissible_singleton():
    g = gram_obstruction(32, 2, 32, 4)
    assert not g.contradiction
    assert g.tset == (Fraction(0),)
    assert "admissible" in g.detail


def test_gram_obstruction_negative_eigenvalue():
    # T = {-1/4} and s + (k-1)b = 7/4 - 2 < 0 (odd n; 7/4 is a shadow norm
    # when n = 7 mod 8)
    g = gram_obstruction(55, Fraction(7, 4), 9, 3)
    assert g.contradiction
    assert g.tset == (Fraction(-1, 4),)
    assert "negative eigenvalue" in g.detail


def test_gram_obstruction_inconclusive_cases():
    several = gram_obstruction(20, 2, 10, 2)
    assert not several.contradiction and len(several.tset) > 1
    few = gram_obstruction(33, Fraction(9, 4), 1, 4)
    assert not few.contradiction and "fewer than two" in few.detail
    with pytest.raises(ValueError):
        gram_obstruction(10, 0, 5, 2)


def _tset_by_definition(n, s, mu):
    """The admissible inner products, straight from the definition:
    q1 = |u-v|^2 >= mu is even for odd n and any integer for even n."""
    expect = []
    odd = n % 2
    q1 = mu + (mu % 2) if odd else mu
    while q1 < 4 * s:
        t = s - Fraction(q1, 2)
        p2 = 4 * s - q1
        if p2.denominator == 1 and p2 >= mu:
            expect.append(t)
        q1 += 2 if odd else 1
    return sorted(expect)


def test_gram_obstruction_tset_definition():
    grid = [Fraction(e, 4) for e in range(1, 81)]
    for n in (33, 40):
        for s in grid + [Fraction(1, 3), Fraction(7, 6)]:
            for mu in range(1, 9):
                g = gram_obstruction(n, s, 3, mu)
                assert list(g.tset) == _tset_by_definition(n, s, mu), (n, s, mu)
        # off the quarter grid |u+v|^2 is never an integer
        assert gram_obstruction(n, Fraction(7, 6), 3, 1).tset == ()


def _contradiction_by_definition(n, s, k, tset):
    """k vectors of norm s with the one inner product b: the Gram matrix
    (s-b)I + bJ has eigenvalue s-b (k-1 times) and s+(k-1)b; it is
    impossible if one is negative or its rank (nonzero eigenvalues with
    multiplicity) exceeds n."""
    if k < 2 or len(tset) != 1:
        return False
    b = tset[0]
    eigen = [s - b] * (k - 1) + [s + (k - 1) * b]
    return min(eigen) < 0 or sum(1 for x in eigen if x != 0) > n


def test_gram_obstruction_grid_against_definition():
    # the quarter-int decision agrees with the Fraction one on the grid
    # n 1..40, s 1/4..4, k 0..80, mu 1..6, where both outcomes occur
    seen = set()
    for n in range(1, 41):
        for s in (Fraction(e, 4) for e in range(1, 17)):
            for mu in range(1, 7):
                tset = _tset_by_definition(n, s, mu)
                for k in range(81):
                    g = gram_obstruction(n, s, k, mu)
                    assert list(g.tset) == tset, (n, s, k, mu)
                    assert g.contradiction == _contradiction_by_definition(n, s, k, tset), (
                        n, s, k, mu)
                    seen.add(g.contradiction)
    assert seen == {False, True}


def test_gram_obstruction_even_dimension_splits_shadow_cosets():
    # Z^4's shadow (Z + 1/2)^4 is two cosets of the even sublattice, 8
    # norm-1 vectors each; each coset is its own negative, and across the
    # cosets u.v = +-1/2, which an even |u-v|^2 would rule out
    cosets = shadow_cosets(zn(4))
    g0 = cosets[0].base.gram  # both are cosets of the even sublattice
    vecs = []
    for c in cosets:
        counts, xs = enumerate_short(c, 1, collect=True)
        assert counts == {1: 8}
        vecs += [[a + b for a, b in zip(x, c.offset)] for x in xs]
    g = gram_obstruction(4, 1, len(vecs) // 2, 1)
    assert not g.contradiction
    seen = set()
    for i, u in enumerate(vecs):
        for v in vecs[i + 1:]:
            t = sum(u[a] * g0[a][b] * v[b] for a in range(4) for b in range(4))
            if t != -1:  # not an antipodal pair
                seen.add(t)
    assert seen == {Fraction(-1, 2), 0, Fraction(1, 2)}
    assert seen <= set(g.tset)


def test_gram_obstruction_formats_its_detail_on_read(monkeypatch):
    calls = []
    real = bounds.rat_str
    monkeypatch.setattr(bounds, "rat_str", lambda x: calls.append(x) or real(x))
    g = gram_obstruction(32, 2, 32, 4)
    assert calls == [] and g.tset == (0,) and not g.contradiction
    assert g.detail == "Gram matrix (s-b)I + bJ with b=0 is admissible (rank 32)"
    assert calls == [0]
    # the detail follows the fields it is formatted from
    assert "55 vectors of norm 9/4" in gram_obstruction(33, Fraction(9, 4), 55, 4).detail
    g.k = 1
    assert g.detail == "fewer than two vectors, nothing to compare"


def test_rank_kill_details_are_formatted_when_read(monkeypatch):
    reads = []
    detail = GramCheck.detail
    monkeypatch.setattr(GramCheck, "detail",
                        property(lambda g: reads.append(g) or detail.fget(g)))
    report = feasibility_scan(40, 4)
    ranks = [b for b in report.branches if b.reason == R_RANK]
    assert report.verdict == FEASIBLE and len(ranks) == 128 and reads == []
    assert ranks[0].detail == ("41 vectors of norm 2 with pairwise inner product 0 "
                               "span rank 41 > dimension 40")
    assert all(b.detail == b.obstruction.detail for b in ranks)
    # an infeasible report reads its deepest kill's detail once
    reads.clear()
    report = feasibility_scan(33, 4)
    assert report.reason == R_RANK and len(reads) == 1
    assert report.detail == ("55 vectors of norm 9/4 with pairwise inner product 1/4 "
                             "span rank 55 > dimension 33")


def test_scan_zn_passes_at_norm_1():
    # Z^n exists, so no scan may eliminate minimal norm 1
    for n in range(1, 18):
        assert feasibility_scan(n, 1).feasible, n


# ---------------------------------------------------------------------------
# feasibility scans at the pivotal dimensions


def test_affine_bounds_divide_exactly():
    # int constraints whose quotient a float rounds onto the wrong integer:
    # (10^17 + 1)/10^17 rounds to 1.0 and (2*10^17 - 1)/10^17 to 2.0
    lo, hi = _affine_bounds([(-(10 ** 17 + 1), 10 ** 17, None)])
    assert (lo, hi) == (2, None)
    lo, hi = _affine_bounds([(0, 10 ** 17, 2 * 10 ** 17 - 1)])
    assert (lo, hi) == (0, 1)
    # the same with t < 0, where the sides swap
    assert _affine_bounds([(10 ** 17 + 1, -(10 ** 17), None)]) == (None, 1)
    assert _affine_bounds([(0, -(10 ** 17), 2 * 10 ** 17 - 1)]) == (-1, 0)


def test_scan_dim9_noninteger_shadow():
    r = feasibility_scan(9, 2)
    assert r.verdict == INFEASIBLE and r.reason == R_NONINT
    assert r.fit.coeffs == [1, -18]
    b = r.branches[0]
    assert b.theta.coeff(8) == 252
    assert b.shadow.valuation() == 1 and b.shadow.coeff(1) == Fraction(9, 4)
    assert "9/4" in b.detail


def test_scan_branches_freed_without_cyclic_collector():
    # dropping the report frees its branches by reference counting alone
    gc.disable()
    try:
        report = feasibility_scan(23, 2)
        assert report.branches
        ref = weakref.ref(report.branches[0])
        del report
        assert ref() is None
    finally:
        gc.enable()


def test_scan_dim33_branch_kill_reasons():
    r = feasibility_scan(33, 4)
    assert r.verdict == INFEASIBLE and r.reason == R_RANK
    by_a4 = {b.assignment[4]: b for b in r.branches}
    assert set(by_a4) == {0, 65536}
    zero = by_a4[0]
    assert zero.reason == R_RANK
    assert zero.obstruction.k == 55 and zero.obstruction.tset == (Fraction(1, 4),)
    # Theta q^4 coefficient is 70290 + a_4; shadow terms a_4/32768 and
    # 110 - 63 a_4/32768 at norms 1/4 and 9/4
    assert zero.theta.coeff(16) == 70290
    assert zero.shadow.coeff(1) == 0 and zero.shadow.coeff(9) == 110
    big = by_a4[65536]
    assert big.reason == R_NEG
    assert big.theta.coeff(16) == 70290 + 65536
    assert big.shadow.coeff(1) == Fraction(65536, 32768) == 2
    assert big.shadow.coeff(9) == 110 - Fraction(63 * 65536, 32768) == -16
    assert "-16" in big.detail and "9/4" in big.detail


def test_scan_dim32_feasible_series():
    r = feasibility_scan(32, 4)
    assert r.verdict == FEASIBLE
    assert r.theta.coeff(16) == 81344 and r.theta.coeff(20) == 2097152
    assert r.shadow.coeff(8) == 64 and r.shadow.coeff(16) == 144896
    # the k = 64/2 = 32 norm-2 shadow vectors fit only with inner product 0
    g = gram_obstruction(32, 2, 32, 4)
    assert g.tset == (Fraction(0),) and not g.contradiction
    # second branch dies on a negative shadow coefficient
    reasons = {b.assignment[4]: b.reason for b in r.branches}
    assert reasons[131072] == R_NEG


def test_scan_dim34_feasible_series():
    r = feasibility_scan(34, 4)
    assert r.verdict == FEASIBLE
    assert [r.theta.coeff(e) for e in (16, 20)] == [60180, 2075904]
    assert [r.shadow.coeff(e) for e in (10, 18, 26)] == [204, 758200, 274625820]


def test_scan_prefix_violation():
    r = feasibility_scan(12, 3)
    assert r.verdict == INFEASIBLE and r.reason == R_PREFIX
    r = feasibility_scan(16, 3)
    assert r.verdict == INFEASIBLE and r.reason == R_NONINT


def test_coefficient_rules_pass_exactly_on_even_nonnegative_multiples():
    # the scan's pre-check on a window value c over den stands for "no rule
    # of _COEFF_RULES fails on c/den"
    for den in range(1, 13):
        for c in range(-6 * den, 6 * den + 1):
            passes = not any(fails(Fraction(c, den)) for _, _, fails in _COEFF_RULES)
            assert passes == (c >= 0 and c % (2 * den) == 0), (c, den)


def test_complete_branches_follow_the_rule_table_on_their_series():
    # the first rule of _COEFF_RULES that fails on a complete branch's own
    # series, over the checked window (shadow on the grid, theta at q^mu ..
    # q^(mu+4)), is its reason; a branch no rule kills has a later reason
    coeff_reasons = {reason for reason, _, _ in _COEFF_RULES}
    seen = set()
    for n, mu in ((8, 1), (8, 2), (9, 2), (11, 2), (13, 1), (13, 2), (16, 2), (17, 2),
                  (20, 3), (24, 4), (31, 3), (33, 4), (34, 4)):
        r = feasibility_scan(n, mu)
        for b in (b for b in r.branches if b.fit is not None):
            window = ([b.shadow.coeff(e) for e in _shadow_grid(n, b.fit.trunc)]
                      + [b.theta.coeff(4 * m) for m in range(mu, mu + 5)])
            expect = next((reason for reason, _, fails in _COEFF_RULES
                           if any(fails(c) for c in window)), None)
            if expect is None:
                assert b.reason not in coeff_reasons, (n, mu, b.assignment)
            else:
                assert b.reason == expect, (n, mu, b.assignment)
            seen.add(b.reason)
    assert seen >= coeff_reasons | {None, R_RANK}


def test_complete_branches_follow_the_count_rules_on_their_shadow():
    # a complete branch whose window passes the coefficient rules dies by
    # the first count rule its own shadow series breaks: a nonzero
    # coefficient below norm mu/4, a coefficient above 2 below mu/2, or two
    # nonzero norms below (mu+2)/2; a branch none breaks is feasible or
    # dies by the rank obstruction.  (53, 5) is the first scan that reaches
    # the two-norms rule.
    seen = set()
    for n, mu in ((17, 2), (26, 3), (33, 4), (34, 3), (53, 5)):
        r = feasibility_scan(n, mu)
        for b in (b for b in r.branches if b.fit is not None):
            window = ([b.shadow.coeff(e) for e in _shadow_grid(n, b.fit.trunc)]
                      + [b.theta.coeff(4 * m) for m in range(mu, mu + 5)])
            if any(fails(c) for _, _, fails in _COEFF_RULES for c in window):
                continue
            shadow = {Fraction(e, 4): c for e, c in b.shadow.items()}
            low = [s for s in shadow if s < Fraction(mu + 2, 2)]
            if any(s < Fraction(mu, 4) for s in shadow):
                expect = "below mu/4"
            elif any(s < Fraction(mu, 2) and c > 2 for s, c in shadow.items()):
                expect = "exceeds 2"
            elif len(low) > 1:
                expect = "two shadow norms below (mu+2)/2"
            else:
                expect = None
            if expect is None:
                assert b.reason in (None, R_RANK), (n, mu, b.assignment)
            else:
                assert b.reason == R_COUNT and expect in b.detail, (n, mu, b.assignment)
            seen.add(expect)
    assert seen >= {"below mu/4", "two shadow norms below (mu+2)/2", None}


def test_scan_feasible_witness_passes_rules():
    # the witness series must satisfy the very rules the scanner enforces
    for n, mu in ((16, 2), (20, 2), (32, 4), (34, 4)):
        r = feasibility_scan(n, mu)
        assert r.feasible
        for m in range(1, mu):
            assert r.theta.coeff(4 * m) == 0
        for e, c in r.theta.items():
            assert c.denominator == 1 and c >= 0
            assert e == 0 or c % 2 == 0
        for e, c in r.shadow.items():
            assert c.denominator == 1 and c >= 0 and c % 2 == 0


def test_resolution_pins_each_free_coefficient_strip():
    # A free a_j is resolved from the shadow coefficient at norm (n-8j)/4,
    # the first place it appears: every complete branch must have a
    # nonnegative even integer there, at most 2 below norm mu/2.  In scans
    # with several free coefficients the inner ones see that coefficient
    # only through the windows the outer ones leave behind.
    for n, mu in ((16, 1), (35, 3), (40, 4)):
        r = feasibility_scan(n, mu)
        assert len(r.fit.free) >= 2
        complete = [b for b in r.branches if b.coeffs is not None]
        assert complete
        for b in complete:
            for j in r.fit.free:
                c = b.shadow.coeff(n - 8 * j)
                assert c.denominator == 1 and c % 2 == 0 and c >= 0, (n, mu, b.assignment, j)
                assert n - 8 * j >= 2 * mu or c <= 2


def test_scan_monotone_in_mu():
    # a feasible mu never sits above an infeasible mu-1 (the lower scan may
    # go inconclusive when the relaxed window no longer bounds a coefficient)
    for n in (16, 24, 32, 34):
        for mu in (2, 3, 4):
            if feasibility_scan(n, mu).feasible:
                assert feasibility_scan(n, mu - 1).verdict != INFEASIBLE
    assert feasibility_scan(16, 1).feasible  # Z^16 itself


def _scans():
    """Every scan with 1 <= n <= 40 and 1 <= mu <= n//8 + 3, in that order."""
    for n in range(1, 41):
        for mu in range(1, n // 8 + 4):
            yield feasibility_scan(n, mu)


def test_complete_branches_vanish_below_mu():
    # the scan checks theta from q^mu on only: below it the forced part
    # vanishes and every free a_j (j >= mu) multiplies delta8^j = O(q^j)
    complete = 0
    for r in _scans():
        for b in r.branches:
            if b.coeffs is not None:
                complete += 1
                assert b.theta.coeff(0) == 1
                for m in range(1, r.mu):
                    assert b.theta.coeff(4 * m) == 0, (r.dim, r.mu, b.assignment, m)
    assert complete > 100


def test_scan_and_table_digest():
    h = hashlib.sha256()
    for r in _scans():
        h.update(json.dumps(r.to_json_dict(), sort_keys=True).encode())
    h.update(json.dumps(table1(8, 40), sort_keys=True).encode())
    assert h.hexdigest() == (
        "a264f28446657708841b011664dd429ff4301f180d24ee25b0111e988e23ffe9")


def test_genus_average_and_even_scan_digest():
    # pins the series built from g2 and Delta24, which the scans above
    # never read: every genus average and every even extremal fit
    h = hashlib.sha256()
    for n in range(5, 49):
        avg = solve_cj(n).to_json_dict()
        h.update(json.dumps([avg["c"], avg["series"]]).encode())
    for n in range(8, 49):
        es = even_extremal_scan(n)
        h.update(json.dumps(es and es.to_json_dict(), sort_keys=True).encode())
    assert h.hexdigest() == (
        "c692e4c0c99f7b17abd37d217d7b73f444b0671c85533a7195ec77c504f2586a")


def test_branch_series_built_on_read():
    r = feasibility_scan(33, 4)
    for b in r.branches:
        assert {"coeffs", "theta", "shadow"}.isdisjoint(vars(b))
    b = r.branches[0]
    assert b.shadow is b.shadow and "theta" not in vars(b)
    assert b.theta is b.theta


def test_witness_series_built_on_read(monkeypatch):
    calls = []
    real = bounds.combine
    monkeypatch.setattr(bounds, "combine", lambda *a: calls.append(a) or real(*a))
    assert mu_upper(33).odd_witness.feasible
    assert calls == []
    r = feasibility_scan(32, 4)
    witness = next(b for b in r.branches if b.verdict == FEASIBLE)
    assert r.theta is witness.theta and r.shadow is witness.shadow
    assert feasibility_scan(33, 4).theta is None


def test_scan_summary_line():
    assert feasibility_scan(33, 4).summary() == "n=33 mu=4: infeasible (rank obstruction)"


def test_report_json_shape():
    d = feasibility_scan(33, 4).to_json_dict()
    assert d["verdict"] == INFEASIBLE and d["reason"] == R_RANK
    assert len(d["branches"]) == 2
    assert {"assignment", "verdict"} <= set(d["branches"][0])


# ---------------------------------------------------------------------------
# even extremal scan


def test_even_extremal_values():
    expect = {
        8: (2, 240, [1]),
        16: (2, 480, [1]),
        24: (4, 196560, [1, -720]),
        32: (4, 146880, [1, -960]),
        40: (4, 39600, [1, -1200]),
        48: (6, 52416000, [1, -1440, 125280]),
    }
    for n, (mu, lead, coeffs) in expect.items():
        es = even_extremal_scan(n)
        assert es.mu == mu
        assert es.series.coeff(4 * mu) == lead
        assert es.coeffs == coeffs
        assert es.series.coeff(0) == 1
        for m in range(1, mu):
            assert es.series.coeff(4 * m) == 0


def test_even_extremal_requires_dim_multiple_of_8():
    assert even_extremal_scan(12) is None
    assert even_extremal_scan(33) is None


# ---------------------------------------------------------------------------
# certified upper bounds


def test_mu_upper_certificates():
    c = mu_upper(24)
    assert (c.mu_upper, c.odd_mu, c.even_mu) == (4, 3, 4)
    assert c.odd_witness.feasible and not c.odd_elimination.feasible
    assert c.odd_elimination.mu == c.odd_mu + 1
    c = mu_upper(9)
    assert (c.mu_upper, c.odd_mu, c.even_mu) == (1, 1, 0)
    c = mu_upper(33)
    assert c.mu_upper == 3 and c.even_scan is None
    c = mu_upper(32)
    assert (c.mu_upper, c.odd_mu, c.even_mu) == (4, 4, 4)
    assert mu_upper(4).mu_upper == 1


def test_mu_upper_eliminates_only_by_infeasible_scans():
    certs = {n: mu_upper(n) for n in range(1, 49)}
    for n, c in certs.items():
        assert c.odd_elimination.verdict == INFEASIBLE, n
        assert c.odd_witness.verdict != INFEASIBLE, n
        assert c.odd_elimination.mu == c.odd_witness.mu + 1 == c.odd_mu + 1, n
    # no scan decides mu = 4 in dimensions 45..47; mu = 5 is eliminated
    for n in (45, 46, 47):
        assert certs[n].odd_witness.verdict == INCONCLUSIVE and certs[n].odd_mu == 4, n


def test_mu_upper_steps_up_over_an_inconclusive_scan(monkeypatch):
    # no dimension up to 48 starts the upward search on an inconclusive
    # scan, so fake one: (9, 3) cannot eliminate, and (9, 4) must
    real = bounds.feasibility_scan

    def scan(n, mu):
        r = real(n, mu)
        if (n, mu) == (9, 3):
            r.verdict = INCONCLUSIVE
        return r

    monkeypatch.setattr(bounds, "feasibility_scan", scan)
    c = mu_upper(9)
    assert c.odd_elimination.mu == 4 and c.odd_elimination.verdict == INFEASIBLE
    assert c.odd_witness.mu == c.odd_mu == 3


def test_table1_rows():
    rows = table1(8, 12)
    assert [r["bound"] for r in rows] == [2, 1, 1, 1, 2]
    assert [r["known"] for r in rows] == ["2", "1", "1", "1", "2"]
    row25 = table1(25, 25)[0]
    assert row25["bound"] == 3 and row25["known"] == "2" and row25["external"]
    row34 = table1(34, 34)[0]
    assert row34["bound"] == 4 and row34["known"] == "3-4"


def test_known_minima_table_sanity():
    assert set(KNOWN_MINIMA) == set(range(1, 41))
    for n, rec in KNOWN_MINIMA.items():
        assert 1 <= rec["lo"] <= rec["hi"] <= 4
        assert rec["note"]
    assert [n for n, rec in KNOWN_MINIMA.items() if rec["external"]] == [25]
