"""Command-line interface: certified bounds, series, and constructions.

Lattice arguments accept either a JSON file produced by `--out` or a
builtin name: z<N>, a15+, d16+, glue30, glue32, shave29, shave31, or
code:<name> for the lattice of a builtin code (hamming8, golay24, rm32).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds, codes, constructions, genus
from .lattice import (
    Lattice,
    check_unimodular,
    lattice_from_json_dict,
    lattice_to_json_dict,
    min_norm,
    shadow_by_enumeration,
    theta_by_enumeration,
    verify_min_norm,
    zn,
)
from .qseries import parse_rat, rat_str


class CliError(Exception):
    pass


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=False))


def _load_code(spec: str) -> codes.BinaryCode:
    if spec in codes.BUILTIN_CODES:
        return codes.BUILTIN_CODES[spec]()
    if os.path.exists(spec):
        with open(spec) as fh:
            return codes.code_from_lines(fh.read().splitlines(), name=spec)
    raise CliError("unknown code %r (builtins: %s)"
                   % (spec, ", ".join(sorted(codes.BUILTIN_CODES))))


_BUILTIN_LATTICES = {
    "a15+": constructions.a15_plus_fixture,
    "d16+": constructions.d16_plus_fixture,
    "glue30": constructions.build_glue30,
    "glue32": constructions.build_glue32,
    "shave29": constructions.build_shave29,
    "shave31": constructions.build_shave31,
}


def _load_lattice(spec: str) -> Lattice:
    if os.path.exists(spec):
        with open(spec) as fh:
            return lattice_from_json_dict(json.load(fh))
    low = spec.lower()
    if low in _BUILTIN_LATTICES:
        return _BUILTIN_LATTICES[low]()
    if low.startswith("z") and low[1:].isdigit():
        return zn(int(low[1:]))
    if low.startswith("code:"):
        return codes.code_to_odd_lattice(_load_code(low[5:]))
    raise CliError("no lattice file or builtin named %r (builtins: %s, z<N>, code:<name>)"
                   % (spec, ", ".join(sorted(_BUILTIN_LATTICES))))


def _write_lattice(L: Lattice, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(lattice_to_json_dict(L), fh, indent=2)
        fh.write("\n")
    print("wrote %s (dim %d) to %s" % (L.name or "lattice", L.dim, path))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bound(args) -> int:
    if args.mu is not None:
        report = bounds.feasibility_scan(args.dim, args.mu)
        if args.json:
            _emit(report.to_json_dict())
            return 0
        print(report.summary())
        forced = [(j, a) for j, a in enumerate(report.fit.coeffs) if a is not None]
        print("  forced coefficients: "
              + ", ".join("a_%d = %s" % (j, rat_str(a)) for j, a in forced))
        if report.fit.free:
            print("  free coefficients: "
                  + ", ".join("a_%d" % j for j in report.fit.free))
        for br in report.branches:
            assign = ", ".join("a_%d = %s" % (j, rat_str(a))
                               for j, a in sorted(br.assignment.items()))
            line = "  branch {%s}: %s" % (assign or "-", br.verdict)
            if br.reason:
                line += " [%s: %s]" % (br.reason, br.detail)
            print(line)
            if br.theta is not None:
                print("    theta  = %s" % br.theta.truncate(4 * (args.mu + 2) + 1))
                print("    shadow = %s" % br.shadow.truncate(
                    min(br.shadow.trunc, args.dim + 9)))
        if report.detail and not report.branches:
            print("  detail: %s" % report.detail)
        return 0
    cert = bounds.mu_upper(args.dim)
    if args.json:
        _emit(cert.to_json_dict())
        return 0
    print("mu_upper(%d) = %d" % (cert.dim, cert.mu_upper))
    print("  odd-lattice bound:  %d (scan at %d: %s)"
          % (cert.odd_mu, cert.odd_elimination.mu, cert.odd_elimination.reason))
    if cert.even_scan is not None:
        print("  even-lattice bound: %d" % cert.even_mu)
    return 0


def _cmd_table1(args) -> int:
    rows = bounds.table1(args.start, args.end)
    if args.json:
        _emit(rows)
        return 0
    print(" n  bound  odd  even  known  attained by")
    for row in rows:
        print("%3d  %5d  %3d  %4s  %5s  %s"
              % (row["n"], row["bound"], row["odd"],
                 row["even"] if row["even"] else "-",
                 row.get("known", "?"), row.get("note", "")))
    return 0


def _series_cmd(args) -> int:
    """`theta` or `shadow`: the series named by the subcommand, by counting."""
    if args.max_norm < 0:
        raise CliError("--max-norm must be at least 0, got %d" % args.max_norm)
    L = _load_lattice(args.lattice)
    label = args.command
    series = args.series(L, args.max_norm)
    if args.json:
        _emit({"lattice": L.name, "dim": L.dim, label: series.to_json_dict(),
               "display": str(series)})
        return 0
    print("%s of %s (dim %d), norms <= %d:" % (label, L.name or "lattice",
                                               L.dim, args.max_norm))
    print("  " + str(series))
    return 0


def _cmd_verify(args) -> int:
    expected = parse_rat(args.min) if args.min is not None else None
    L = _load_lattice(args.lattice)
    kind = check_unimodular(L)
    if kind not in ("odd", "even"):
        print("FAIL: %s is %s" % (L.name or args.lattice, kind))
        return 2
    mu = min_norm(L)
    print("%s: %s unimodular, dim %d, minimal norm %s"
          % (L.name or args.lattice, kind, L.dim, rat_str(mu)))
    if expected is not None and mu != expected:
        print("FAIL: expected minimal norm %s" % args.min)
        return 2
    return 0


def _cmd_construct_code(args) -> int:
    code = _load_code(args.code)
    L = codes.code_to_odd_lattice(code)
    kind = check_unimodular(L)
    print("L(%s): dim %d, %s unimodular" % (code.name, L.dim, kind))
    if args.out:
        _write_lattice(L, args.out)
    return 0


def _report_built(L: Lattice, args) -> int:
    """The tail of `construct glue` and `construct shave`: the line
    '<name>: dim n, odd unimodular' (or even, or 'not unimodular (<detail>)'
    with check_unimodular's detail), the `--verify-min` check and the
    `--out` file."""
    kind = check_unimodular(L)
    if kind in ("odd", "even"):
        print("%s: dim %d, %s unimodular" % (L.name, L.dim, kind))
    else:
        print("%s: dim %d, not unimodular (%s)"
              % (L.name, L.dim, kind[len("not-unimodular("):-1]))
    if args.verify_min is not None:
        ok = verify_min_norm(L, args.verify_min)
        print("minimal norm %s: %s" % (args.verify_min, "verified" if ok else "FAIL"))
        if not ok:
            return 2
    if args.out:
        _write_lattice(L, args.out)
    return 0


def _cmd_construct_glue(args) -> int:
    base = _load_lattice(args.base)
    if args.images:
        images = [int(x) for x in args.images.split(",")]
        glue = constructions.GlueMap(base.dim, args.target or 0, tuple(images))
    else:
        glue = constructions.find_glue(base, target=args.target, seed=args.seed)
        if glue is None:
            print("no doubling map found for %s at target %s"
                  % (base.name, args.target))
            return 1
        print("found doubling map at target %d: images %s"
              % (glue.target, ",".join(str(x) for x in glue.images)))
    return _report_built(constructions.glue_double(base, glue), args)


def _cmd_construct_shave(args) -> int:
    L = _load_lattice(args.lattice)
    v = [int(x) for x in args.vector.split(",")]
    return _report_built(constructions.project_shave(L, v), args)


def _cmd_code_info(args) -> int:
    code = _load_code(args.code)
    we = code.weight_enumerator()
    data = {
        "name": code.name,
        "length": code.n,
        "dimension": code.k,
        "self_dual": code.is_self_dual(),
        "doubly_even": code.is_doubly_even(),
        "min_distance": code.min_distance(),
        "weight_enumerator": {str(w): c for w, c in sorted(we.items())},
    }
    if args.json:
        _emit(data)
        return 0
    for k, v in data.items():
        print("%s: %s" % (k, v))
    return 0


def _cmd_genus_avg(args) -> int:
    upto = args.upto if args.upto is not None else 4
    if upto < 0:
        raise CliError("--upto must be >= 0, not %d" % upto)
    avg = genus.solve_cj(args.dim)
    if args.json:
        _emit(avg.to_json_dict())
        return 0
    known = (avg.series.trunc - 1) // 4  # highest norm below the truncation
    if upto > known:
        raise CliError("--upto %d is beyond the solved window (norms up to %d)"
                       % (upto, known))
    print("genus-average theta series, dimension %d:" % args.dim)
    terms = ["1"]
    for k in range(1, upto + 1):
        c = avg.coeff_norm(k)
        if c:
            terms.append("(%s)q^%d" % (rat_str(c), k))
    print("  " + " + ".join(terms) + " + ...")
    print("  c_j = [%s]" % ", ".join(rat_str(c) for c in avg.c))
    return 0


def _cmd_genus_bound(args) -> int:
    """`genus-bound`: the class-count bound of dimension --dim (any n > 4)
    from the exact genus mass, which is computed and not an option."""
    cb = genus.mass_count_bound(genus.solve_cj(args.dim))
    if args.json:
        _emit(cb.to_json_dict())
        return 0
    print("dimension %d, genus mass %s (%.6g)" % (cb.dim, rat_str(cb.mass), float(cb.mass)))
    print("  average norm-1 count: %s (%.6g)" % (rat_str(cb.a1), float(cb.a1)))
    print("  average norm-2 count: %s (%.6g)" % (rat_str(cb.a2), float(cb.a2)))
    print("  mass of minimal-norm->=3 classes >= %.6g" % float(cb.m0_lower))
    print("  number of such classes          >= %.6g" % float(cb.count_lower))
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with its own usage errors on one `error:` line and exit
    status 2, like every other bad input; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="unimod",
        description="Certified minimal-norm bounds and explicit unimodular lattices")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("bound", help="certified upper bound or a single scan")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--mu", type=int, help="scan this minimal norm only")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_bound)

    q = sub.add_parser("table1", help="bounds for a range of dimensions")
    q.add_argument("--from", dest="start", type=int, default=8)
    q.add_argument("--to", dest="end", type=int, default=40)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_table1)

    for name, series in (("theta", theta_by_enumeration), ("shadow", shadow_by_enumeration)):
        q = sub.add_parser(name, help="%s series by exact enumeration" % name)
        q.add_argument("--lattice", required=True)
        q.add_argument("--max-norm", type=int, required=True)
        q.add_argument("--json", action="store_true")
        q.set_defaults(fn=_series_cmd, series=series)

    q = sub.add_parser("verify", help="check unimodularity and minimal norm")
    q.add_argument("--lattice", required=True)
    q.add_argument("--min", help="expected minimal norm (rational)")
    q.set_defaults(fn=_cmd_verify)

    q = sub.add_parser("construct", help="build explicit lattices")
    csub = q.add_subparsers(dest="what", required=True)

    c = csub.add_parser("code", help="odd unimodular lattice of a binary code")
    c.add_argument("--code", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_construct_code)

    c = csub.add_parser("glue", help="double a lattice against a mod-2 isometry")
    c.add_argument("--base", required=True)
    c.add_argument("--target", type=int)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--images", help="comma-separated basis images (skip search)")
    c.add_argument("--verify-min", type=int)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_construct_glue)

    c = csub.add_parser("shave", help="project along a norm-4 vector")
    c.add_argument("--lattice", required=True)
    c.add_argument("--vector", required=True, help="comma-separated coordinates")
    c.add_argument("--verify-min", type=int)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_construct_shave)

    q = sub.add_parser("code-info", help="weight enumerator and code checks")
    q.add_argument("--code", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_code_info)

    q = sub.add_parser("genus-avg", help="exact genus-average theta series")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--upto", type=int)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_genus_avg)

    q = sub.add_parser("genus-bound",
                       help="class-count lower bound from the exact genus mass")
    q.add_argument("--dim", type=int, default=33)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_genus_bound)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
