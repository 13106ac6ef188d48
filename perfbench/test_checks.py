"""Each benchmark check accepts a right result and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import workloads
from unimodular import bounds, constructions, genus, lattice


def series(terms: dict, trunc: int):
    return SimpleNamespace(terms=dict(terms), trunc=trunc)


# -- series ---------------------------------------------------------------


def test_table_check():
    rows = [{"n": n, "bound": b, "known": "3-4" if n in checks.PAPER_OPEN else str(b)}
            for n, b in checks.PAPER_BOUNDS.items()]
    assert checks.check_table(rows) is None
    bad = copy.deepcopy(rows)
    bad[25 - 8]["bound"] = 2
    assert "n = [25]" in checks.check_table(bad)
    bad = copy.deepcopy(rows)
    bad[34 - 8]["known"] = "4"
    assert "open" in checks.check_table(bad)
    assert checks.check_table(rows[:-1]) is not None


@pytest.fixture(scope="module")
def scan32():
    return bounds.feasibility_scan(32, 4)


def test_counting_rules_accept_the_dim32_witness(scan32):
    assert checks.check_feasible_scan(scan32, 32, 4) is None


@pytest.mark.parametrize("which,e,value,words", [
    ("theta", 16, 81343, "not a nonnegative even integer"),
    ("theta", 16, -2, "not a nonnegative even integer"),
    ("theta", 4, 2, "norm 1 < mu"),
    ("theta", 6, 2, "non-integral norm"),
    ("shadow", 8, 63, "not a nonnegative even integer"),
    ("shadow", 0, 2, "< mu/4"),
    ("shadow", 9, 2, "off the n/4"),
])
def test_counting_rules_reject(scan32, which, e, value, words):
    th = series(scan32.theta.terms, scan32.theta.trunc)
    sh = series(scan32.shadow.terms, scan32.shadow.trunc)
    (th if which == "theta" else sh).terms[e] = Fraction(value)
    assert words in checks.counting_rule_violation(32, 4, th, sh)


def test_counting_rules_reject_shadow_caps():
    th = series({0: 1}, 30)
    # n = 13, mu = 4: at most 2 shadow vectors of norm 5/4 < mu/2
    assert checks.counting_rule_violation(13, 4, th, series({5: 2}, 30)) is None
    assert "< mu/2" in checks.counting_rule_violation(13, 4, th, series({5: 4}, 30))
    # n = 14, mu = 6: norms 6/4 and 14/4 are both below (mu+2)/2
    assert checks.counting_rule_violation(14, 6, th, series({14: 2}, 30)) is None
    assert "two norms" in checks.counting_rule_violation(14, 6, th, series({6: 2, 14: 2}, 30))


def test_feasible_scan_rejects_an_infeasible_verdict(scan32):
    bad = copy.deepcopy(scan32)
    bad.verdict = "infeasible"
    assert "expected feasible" in checks.check_feasible_scan(bad, 32, 4)


def test_scan_values(scan32):
    assert checks.check_scan_values(scan32, 32, {16: 81344}, {8: 64, 16: 144896}) is None
    assert checks.check_scan_values(scan32, 32, {16: 81345}, {}) is not None
    assert checks.check_scan_values(scan32, 32, {}, {8: 66}) is not None


def test_scan_9_2():
    r = bounds.feasibility_scan(9, 2)
    assert checks.check_scan_9_2(r) is None
    bad = copy.deepcopy(r)
    bad.reason = "negative coefficient"
    assert checks.check_scan_9_2(bad) is not None
    bad = copy.deepcopy(r)
    bad.branches[0].shadow.terms[1] = Fraction(9, 2)
    assert "shadow lead" in checks.check_scan_9_2(bad)


def test_scan_33_4():
    r = bounds.feasibility_scan(33, 4)
    assert checks.check_scan_33_4(r) is None
    for corrupt in (
        lambda b: setattr(b[0], "reason", "parity violation"),
        lambda b: setattr(b[0].obstruction, "k", 33),
        lambda b: b.pop(),
    ):
        bad = copy.deepcopy(r)
        zero_first = sorted(bad.branches, key=lambda b: b.assignment[4])
        corrupt(zero_first)
        bad.branches = zero_first
        assert checks.check_scan_33_4(bad) is not None


@pytest.mark.parametrize("n", [5, 8, 9, 11, 13, 33])
def test_genus_average(n):
    avg = genus.solve_cj(n)
    assert checks.check_genus_average(avg, n) is None
    trunc = avg.series.trunc
    for e, delta in ((4, Fraction(1, 3)), (8, Fraction(-1))):
        bad = SimpleNamespace(dim=n, series=series(avg.series.terms, trunc))
        bad.series.terms[e] = Fraction(bad.series.terms.get(e, 0)) + delta
        assert checks.check_genus_average(bad, n) is not None
    assert checks.check_genus_average(avg, n + 1) is not None


def test_genus_classes_of_dim12_fit_the_theta_space():
    # the oracle itself: the three classes' average is a valid average
    trunc = 4 * 8 + 1
    avg = SimpleNamespace(dim=12, series=series(checks.mass_average(12, trunc), trunc))
    assert checks.check_genus_average(avg, 12) is None
    assert checks.mass_average(12, trunc) != checks.mass_average(11, trunc)


# -- lattices -------------------------------------------------------------


def test_lattice_check():
    odd = lattice.Lattice([[2, 1], [1, 1]])
    assert checks.check_lattice(odd, 2, "odd") is None
    assert "even" in checks.check_lattice(odd, 2, "even")
    assert "dimension" in checks.check_lattice(odd, 3)
    assert "determinant 2" in checks.check_lattice(lattice.Lattice([[2, 0], [0, 1]]), 2)
    assert "integral" in checks.check_lattice(lattice.Lattice([[1, 0], [0, Fraction(1, 2)]]), 2)
    assert checks.det([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4


def test_kind_check():
    odd = lattice.Lattice([[2, 1], [1, 1]])
    assert checks.check_kind("odd", odd, "odd") is None
    assert checks.check_kind("even", odd, "even") is not None
    assert checks.check_kind("not-unimodular(det=2)", odd, "odd") is not None


@pytest.mark.parametrize("base,images,target", [
    (constructions.a15_plus_fixture, constructions.GLUE_A15_T3, 3),
    (constructions.d16_plus_fixture, constructions.GLUE_D16_T4, 4),
])
def test_glue_map_check(base, images, target):
    gram = base().gram
    m = len(gram)
    assert checks.check_glue_map(constructions.GlueMap(m, target, images), gram, target) is None
    assert checks.check_glue_map(None, gram, target) is not None
    assert checks.check_glue_map(constructions.GlueMap(m, target - 1, images), gram, target)
    flipped = list(images)
    flipped[1] ^= 1
    assert checks.check_glue_map(constructions.GlueMap(m, target, flipped), gram, target)
    swapped = list(images)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert checks.check_glue_map(constructions.GlueMap(m, target, swapped), gram, target)
    same = [images[0]] * m
    assert "invertible" in checks.check_glue_map(constructions.GlueMap(m, target, same), gram, target)


D16_COUNTS = {Fraction(0): 1, Fraction(2): 480, Fraction(4): 61920,
              Fraction(6): 1050240, Fraction(8): 7926240}


def test_d16_theta_check():
    assert checks.check_d16_theta(D16_COUNTS, 8) is None
    assert checks.check_d16_theta({**D16_COUNTS, Fraction(8): 7926238}, 8) is not None
    assert checks.check_d16_theta({**D16_COUNTS, Fraction(3): 2}, 8) is not None
    assert checks.check_d16_theta({k: v for k, v in D16_COUNTS.items() if k < 8}, 8)


def test_a15_checks():
    A = constructions.a15_plus_fixture()
    th = lattice.theta_by_enumeration(A, 3)
    assert checks.check_a15_theta(th, 3) is None
    bad = series(th.terms, th.trunc)
    bad.terms[12] += 2
    assert checks.check_a15_theta(bad, 3) is not None
    counts = [lattice.enumerate_short(c, 3) for c in lattice.shadow_cosets(A)]
    assert checks.check_a15_shadow(counts, 3) is None
    assert checks.check_a15_shadow(counts[:1], 3) is not None
    assert "zero vector" in checks.check_a15_shadow([{Fraction(0): 1}, counts[0], counts[1]], 3)


# -- workload wiring ------------------------------------------------------


def _op(ops, name):
    return next(op for op in ops if op.name == name)


def test_known_faults_are_the_two_named_ones():
    series_ops = workloads.series_ops(0)
    assert {op.name for op in series_ops if op.fault} == {
        "solve_cj(%d)" % n for n in workloads.SINGULAR_DIMS}
    certify = workloads.certify_ops(0)
    assert [op.name for op in certify if op.fault] == ["verify_min_norm(diag(1,7/8),1)"]
    assert not [op for op in workloads.theta_ops(0) if op.fault]
    fault = _op(certify, "verify_min_norm(diag(1,7/8),1)")
    assert fault.check(True, {}) is not None and fault.check(False, {}) is None
    leech = _op(certify, "verify_min_norm(leech,4)")
    assert leech.check(True, {}) is None and leech.check(False, {}) is not None


def test_tracer_rebinds_calls_between_modules():
    code = (
        "from tracing import Tracer\n"
        "from unimodular import bounds, lattice\n"
        "t = Tracer().install()\n"
        "bounds.feasibility_scan(9, 2)\n"
        "lattice.verify_min_norm(lattice.zn(3), 1)\n"
        "import json; print(json.dumps(t.metrics()))\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    m = json.loads(out.stdout)
    assert m["bounds.scans"] == 1 and m["bounds.branches"] == 1
    assert m["qseries.mul_calls"] > 0 and m["qseries.series_built"] > 0
    assert m["linalg.lll_calls"] == 1  # lattice._reduced_data -> linalg
    assert m["lattice.enum_calls"] == 2  # enumerate_short + find_any
    assert m["lattice.vectors"] == 1 + 1  # the zero vector, then one hit
    assert 0 < m["lattice.enum_s"] <= m["lattice.verify_s"]
