"""The benchmark's workloads, each a fixed list of operations.

An operation calls public functions of `unimodular` through their modules'
attributes, so a traced round sees the calls, and names the check that
judges its result.  Operations share results through a dict.  `fault`
marks an operation that fails today because of a known fault of the
program: its failure is counted in `failed`, not as a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from unimodular import bounds, codes, constructions, genus, lattice


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], str | None]
    fault: str = ""


FAULT_SOLVE_CJ = ("solve_cj raises 'singular system' (genus.py:91) for n = 12, 20, 28, 36 "
                  "although it promises every n > 4")
FAULT_MIN_RADIUS = ("verify_min_norm enumerates only to mu - 1/4 (lattice.py:390), so a "
                    "norm-7/8 vector below mu = 1 goes unseen")

#: the paper's single scans, with its exact witness coefficients
#: (keys in quarter-norm units) where it states them
PAPER_SCANS = [
    (9, 2, checks.check_scan_9_2),
    (32, 4, lambda r: checks.check_feasible_scan(r, 32, 4) or checks.check_scan_values(
        r, 32, {16: 81344}, {8: 64, 16: 144896})),
    (33, 4, checks.check_scan_33_4),
    (34, 4, lambda r: checks.check_feasible_scan(r, 34, 4) or checks.check_scan_values(
        r, 34, {16: 60180, 20: 2075904}, {10: 204, 18: 758200, 26: 274625820})),
]
#: feasible scans in the table range with many branches, each under a
#: second; (24,2), (36,3) and (37,3) take 2-8 s each and are left out
BRANCHY_SCANS = [(23, 2), (35, 3), (40, 4)]
GENUS_DIMS = range(5, 41)
SINGULAR_DIMS = (12, 20, 28, 36)


def series_ops(seed: int) -> list[Op]:
    """Bound table, scans and genus averages: the q-series engine only."""
    ops = [Op("table1(8,40)", lambda ctx: bounds.table1(8, 40),
              lambda rows, ctx: checks.check_table(rows))]
    for n, mu, check in PAPER_SCANS:
        ops.append(Op("scan(%d,%d)" % (n, mu),
                      lambda ctx, n=n, mu=mu: bounds.feasibility_scan(n, mu),
                      lambda r, ctx, check=check: check(r)))
    for n, mu in BRANCHY_SCANS:
        ops.append(Op("scan(%d,%d)" % (n, mu),
                      lambda ctx, n=n, mu=mu: bounds.feasibility_scan(n, mu),
                      lambda r, ctx, n=n, mu=mu: checks.check_feasible_scan(r, n, mu)))
    for n in GENUS_DIMS:
        ops.append(Op("solve_cj(%d)" % n, lambda ctx, n=n: genus.solve_cj(n),
                      lambda avg, ctx, n=n: checks.check_genus_average(avg, n),
                      FAULT_SOLVE_CJ if n in SINGULAR_DIMS else ""))
    return ops


def _keep(name: str, run, check) -> Op:
    """An operation whose result later operations read as ctx[name]."""
    def store(ctx):
        ctx[name] = run(ctx)
        return ctx[name]
    return Op(name, store, check)


def certify_ops(seed: int) -> list[Op]:
    """Build and certify Leech; build glue30, shave29 and shave31 as the
    paper's constructions; run both glue searches with the workload seed."""
    def glue_search(base, target):
        return _keep("find_glue(%s,%d)" % (base, target),
                     lambda ctx: constructions.find_glue(ctx[base], target, seed=seed),
                     lambda g, ctx: checks.check_glue_map(g, ctx[base].gram, target))

    def doubled(base, target, dim, kind):
        key = "find_glue(%s,%d)" % (base, target)
        return Op("glue_double(%s, found map)" % base,
                  lambda ctx: constructions.glue_double(ctx[base], ctx[key]),
                  lambda L, ctx: checks.check_lattice(L, dim, kind))

    def built(name, build, dim, kind):
        return Op(name, lambda ctx: build(), lambda L, ctx: checks.check_lattice(L, dim, kind))

    off_grid = [[1, 0], [0, Fraction(7, 8)]]
    return [
        _keep("leech", lambda ctx: codes.code_to_odd_lattice(codes.golay24()),
              lambda L, ctx: checks.check_lattice(L, 24, "even")),
        Op("check_unimodular(leech)", lambda ctx: lattice.check_unimodular(ctx["leech"]),
           lambda v, ctx: checks.check_kind(v, ctx["leech"], "even")),
        Op("verify_min_norm(leech,4)", lambda ctx: lattice.verify_min_norm(ctx["leech"], 4),
           lambda ok, ctx: None if ok is True else "returned %r" % ok),
        _keep("A15+", lambda ctx: constructions.a15_plus_fixture(),
              lambda L, ctx: checks.check_lattice(L, 15, "odd")),
        glue_search("A15+", 3),
        doubled("A15+", 3, 30, "odd"),
        built("build_glue30", constructions.build_glue30, 30, "odd"),
        built("build_shave29", constructions.build_shave29, 29, "odd"),
        built("build_shave31", constructions.build_shave31, 31, "odd"),
        _keep("D16+", lambda ctx: constructions.d16_plus_fixture(),
              lambda L, ctx: checks.check_lattice(L, 16, "even")),
        glue_search("D16+", 4),
        doubled("D16+", 4, 32, "even"),
        Op("verify_min_norm(diag(1,7/8),1)",
           lambda ctx: lattice.verify_min_norm(lattice.Lattice(off_grid), 1),
           lambda ok, ctx: None if ok is False else "returned %r; the minimum is 7/8" % ok,
           FAULT_MIN_RADIUS),
    ]


D16_NORM = 6
A15_NORM = 6


def theta_ops(seed: int) -> list[Op]:
    """Exact counting to high norm on lattices whose reduction is cheap:
    leaf-heavy on D16+, coset mode on the shadow of A15+."""
    return [
        _keep("D16+", lambda ctx: constructions.d16_plus_fixture(),
              lambda L, ctx: checks.check_lattice(L, 16, "even")),
        Op("enumerate_short(D16+,%d)" % D16_NORM,
           lambda ctx: lattice.enumerate_short(ctx["D16+"], D16_NORM),
           lambda counts, ctx: checks.check_d16_theta(counts, D16_NORM)),
        _keep("A15+", lambda ctx: constructions.a15_plus_fixture(),
              lambda L, ctx: checks.check_lattice(L, 15, "odd")),
        Op("theta_by_enumeration(A15+,%d)" % A15_NORM,
           lambda ctx: lattice.theta_by_enumeration(ctx["A15+"], A15_NORM),
           lambda th, ctx: checks.check_a15_theta(th, A15_NORM)),
        _keep("cosets", lambda ctx: lattice.shadow_cosets(ctx["A15+"]),
              lambda cs, ctx: None if len(cs) == 2 else "expected two cosets"),
        Op("enumerate_short(shadow cosets,%d)" % A15_NORM,
           lambda ctx: [lattice.enumerate_short(c, A15_NORM) for c in ctx["cosets"]],
           lambda counts, ctx: checks.check_a15_shadow(counts, A15_NORM)),
    ]


WORKLOADS = {"series": series_ops, "certify": certify_ops, "theta": theta_ops}
