"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Every numeric check is exact rational arithmetic unless a tolerance is
stated inline.  Runtime limits are asserted where the criterion carries
one.  Run with `pytest -v`; each criterion prints its own verdict line.
"""

import contextlib
import sys
import time
from fractions import Fraction

from conftest import TIMINGS
from unimodular.bounds import (
    feasibility_scan,
    fit_from_theta,
    gram_obstruction,
    shadow_theta,
    table1,
)
from unimodular.constructions import (
    GLUE_A15_T3,
    GLUE_D16_T4,
    SHAVE_30,
    SHAVE_32,
    a15_plus_fixture,
    d16_plus_fixture,
    find_glue,
    find_shave_vector,
    glue_double,
    project_shave,
)
from unimodular.genus import mass_count_bound, solve_cj
from unimodular.lattice import (
    check_unimodular,
    shadow_by_enumeration,
    theta_by_enumeration,
    verify_min_norm,
    zn,
)
from unimodular.qseries import QSeries, delta8, g2, h2, theta2, theta3, theta4


@contextlib.contextmanager
def criterion(num: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("CRITERION %2d: FAIL - %s" % (num, desc), file=sys.stderr)
        raise
    dt = time.perf_counter() - t0
    print("CRITERION %2d: PASS - %s (%.1fs)" % (num, desc, dt), file=sys.stderr)


# ---------------------------------------------------------------------------


def test_criterion_01_table_reproduction():
    # upper bounds for 8 <= n <= 40; the open rows read as their upper end,
    # and n=25 is the analytic tool bound 3 (the known value 2 is annotated)
    expected = {
        8: 2, 9: 1, 10: 1, 11: 1, 12: 2, 13: 1, 14: 2, 15: 2, 16: 2,
        17: 2, 18: 2, 19: 2, 20: 2, 21: 2, 22: 2, 23: 3, 24: 4, 25: 3,
        26: 3, 27: 3, 28: 3, 29: 3, 30: 3, 31: 3, 32: 4, 33: 3, 34: 4,
        35: 4, 36: 4, 37: 4, 38: 4, 39: 4, 40: 4,
    }
    with criterion(1, "certified bounds reproduce the table for 8..40"):
        t0 = time.perf_counter()
        rows = table1(8, 40)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, "table computation took %.1fs" % elapsed
        got = {row["n"]: row["bound"] for row in rows}
        assert got == expected
        row25 = next(row for row in rows if row["n"] == 25)
        assert row25["known"] == "2" and row25["external"]
        open_rows = {row["n"]: row.get("known") for row in rows}
        for n in (34, 35, 37, 38, 39):
            assert open_rows[n] == "3-4"


def test_criterion_02_dim9_elimination():
    with criterion(2, "n=9 scan: a_1=-18, theta q^2 coeff 252, shadow lead 9/4"):
        r = feasibility_scan(9, 2)
        assert r.verdict == "infeasible"
        assert r.reason == "non-integral coefficient"
        assert r.fit.coeffs == [1, -18]
        b = r.branches[0]
        assert b.theta.coeff(8) == 252
        assert b.shadow.valuation() == 1
        assert b.shadow.coeff(1) == Fraction(9, 4)


def test_criterion_03_dim33_elimination():
    with criterion(3, "n=33 scan: negativity kills a_4=2^16, rank kills a_4=0"):
        r = feasibility_scan(33, 4)
        assert r.verdict == "infeasible"
        assert r.fit.coeffs[:4] == [1, -66, 660, -880]
        by_a4 = {b.assignment[4]: b for b in r.branches}
        assert set(by_a4) == {0, 2 ** 16}
        for a4, b in by_a4.items():
            assert b.theta.coeff(16) == 70290 + a4
            assert b.shadow.coeff(1) == Fraction(a4, 32768)
            assert b.shadow.coeff(9) == 110 - Fraction(63 * a4, 32768)
        assert by_a4[2 ** 16].reason == "negative coefficient"
        zero = by_a4[0]
        assert zero.reason == "rank obstruction"
        assert zero.obstruction.k == 55 and zero.obstruction.k > 33
        assert zero.obstruction.tset == (Fraction(1, 4),)


def test_criterion_04_dim32_series():
    with criterion(4, "n=32 feasible series and forced inner product 0"):
        r = feasibility_scan(32, 4)
        assert r.verdict == "feasible"
        assert r.theta.coeff(0) == 1 and r.theta.coeff(16) == 81344
        assert r.shadow.coeff(8) == 64 and r.shadow.coeff(16) == 144896
        g = gram_obstruction(32, 2, 32, 4)
        assert g.tset == (Fraction(0),)


def test_criterion_05_dim34_open_case():
    with criterion(5, "n=34 feasible series, exact theta and shadow terms"):
        r = feasibility_scan(34, 4)
        assert r.verdict == "feasible"
        assert r.theta.coeff(0) == 1
        assert r.theta.coeff(16) == 60180
        assert r.theta.coeff(20) == 2075904
        assert r.shadow.coeff(10) == 204
        assert r.shadow.coeff(18) == 758200
        assert r.shadow.coeff(26) == 274625820


def test_criterion_06_code_constructions(rm32_lattice, rm32_theta, leech_lattice,
                                        leech_theta):
    with criterion(6, "code lattices: dim-32 kissing 81344, Leech kissing 196560"):
        assert check_unimodular(rm32_lattice) == "odd"
        # minimal norm 4 with the exact kissing number, certified by the
        # enumerated theta series (counts are exact)
        assert [rm32_theta.coeff(4 * m) for m in range(4)] == [1, 0, 0, 0]
        assert rm32_theta.coeff(16) == 2 ** 7 * 620 + 4 * 496 == 81344
        assert TIMINGS["rm32_theta"] < 600, "enumeration too slow"
        t = leech_theta
        assert check_unimodular(leech_lattice) == "even"
        assert [t.coeff(4 * m) for m in range(4)] == [1, 0, 0, 0]
        assert t.coeff(16) == 196560


def test_criterion_07_shadow_consistency(rm32_lattice, rm32_theta):
    with criterion(7, "enumerated shadows match the theta-fit shadows"):
        for n in range(1, 10):
            L = zn(n)
            fit = fit_from_theta(n, theta_by_enumeration(L, 3))
            s_enum = shadow_by_enumeration(L, 3)
            s_fit = shadow_theta(n, fit, s_enum.trunc)
            assert s_enum.agrees_with(s_fit, upto=s_enum.trunc)
        fit = fit_from_theta(32, rm32_theta)
        s_enum = shadow_by_enumeration(rm32_lattice, 4)
        s_fit = shadow_theta(32, fit, s_enum.trunc)
        assert s_enum.agrees_with(s_fit, upto=s_enum.trunc)


def test_criterion_08_glue_and_shave(glue30, glue32):
    with criterion(8, "glue doublings reach dims 30/32, shaves reach 29/31"):
        # live searches; a failed search fails the criterion
        A = a15_plus_fixture()
        g3 = find_glue(A, 3, seed=0)
        assert g3 is not None, "doubling search failed for the dim-15 base"
        M30 = glue30 if tuple(g3.images) == GLUE_A15_T3 else glue_double(A, g3)
        assert M30.dim == 30 and check_unimodular(M30) == "odd"
        assert verify_min_norm(M30, 3)

        v30 = SHAVE_30 if M30.norm_of(SHAVE_30) == 4 else find_shave_vector(M30, 3)
        L29 = project_shave(M30, v30)
        assert L29.dim == 29 and check_unimodular(L29) == "odd"
        assert verify_min_norm(L29, 3)

        D = d16_plus_fixture()
        g4 = find_glue(D, 4, seed=0)
        assert g4 is not None, "doubling search failed for the dim-16 base"
        M32 = glue32 if tuple(g4.images) == GLUE_D16_T4 else glue_double(D, g4)
        assert M32.dim == 32 and check_unimodular(M32) == "even"
        assert verify_min_norm(M32, 4)

        v32 = SHAVE_32 if M32.norm_of(SHAVE_32) == 4 else find_shave_vector(M32, 3)
        L31 = project_shave(M32, v32)
        assert L31.dim == 31 and check_unimodular(L31) == "odd"
        assert verify_min_norm(L31, 3)


def test_criterion_09_genus_average_and_count():
    with criterion(9, "dim-33 genus averages and the 8e20 class-count bound"):
        avg = solve_cj(33)
        assert avg.coeff_norm(1) == Fraction(15535133760578, 505245773078238529)
        assert avg.coeff_norm(2) == Fraction(719890853572979520, 505245773078238529)
        cb = mass_count_bound(avg)
        assert abs(cb.mass / 10 ** 21 - Fraction(1407, 1000)) < Fraction(1, 1000)
        assert cb.m0_lower >= Fraction(404, 1000) * 10 ** 21
        assert cb.count_lower >= 8 * 10 ** 20
        assert abs(float(cb.m0_lower) / 1e21 - 0.405) < 0.001
        assert abs(float(cb.count_lower) / 1e21 - 0.809) < 0.001


def test_criterion_10_identity_suite():
    with criterion(10, "theta identities hold through 64 quarter-exponents"):
        t0 = time.perf_counter()
        T = 64
        t2, t3, t4 = theta2(T), theta3(T), theta4(T)
        assert (t3 ** 4).agrees_with(t2 ** 4 + t4 ** 4, upto=T)
        assert (16 * delta8(T)).agrees_with(t2 ** 4 * t4 ** 4, upto=T)
        assert (g2(T) + h2(T)).agrees_with(QSeries.one(T), upto=T)
        half = theta4(T // 2 + 1).subs_q2() ** 2
        assert (t3 * t4).agrees_with(half, upto=min(T, half.trunc))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10, "identity suite took %.1fs" % elapsed
