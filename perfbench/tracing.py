"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of each `unimodular` module and
rebinds every module attribute that names the original, so calls between
modules (say `lattice.lll_reduce_gram` from `_reduced_data`) pass through
the wrapper.  QSeries arithmetic is wrapped on the class.  Each wrapper
times its call and adds the duration to its group; a call's self time is
its duration minus that of the traced calls it makes.  `metrics()` turns
the sums into the per-layer figures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (group, module, function name); a group's time is the duration of its
# outermost calls, or the self time of its calls for groups in SELF_TIMED
TRACED = [
    ("linalg.lll", "linalg", "lll_reduce_gram"),
    ("linalg.hnf", "linalg", "hnf_rows"),
    ("linalg.hnf", "linalg", "hnf_rows_frac"),
    ("linalg.det", "linalg", "det_bareiss"),
    ("linalg.det", "linalg", "det_frac"),
    ("linalg.solve", "linalg", "gauss_solve"),
    ("linalg.solve", "linalg", "mat_inverse"),
    ("lattice.enum", "lattice", "enumerate_short"),
    ("lattice.enum", "lattice", "find_any"),
    ("lattice.unimodular", "lattice", "check_unimodular"),
    ("lattice.verify", "lattice", "verify_min_norm"),
    ("bounds.scan", "bounds", "feasibility_scan"),
    ("bounds.basis", "bounds", "theta_basis"),
    ("bounds.basis", "bounds", "shadow_basis"),
    ("bounds.table", "bounds", "table1"),
    ("genus.solve", "genus", "solve_cj"),
    ("codes.lattice", "codes", "code_to_odd_lattice"),
    ("constructions.glue_search", "constructions", "find_glue"),
    ("constructions.build", "constructions", "glue_double"),
    ("constructions.build", "constructions", "project_shave"),
]
SELF_TIMED = {"lattice.enum", "bounds.scan", "constructions.glue_search"}
#: QSeries methods: timed for products, counted for the rest
QSERIES_TIMED = {"__mul__": "qseries.mul", "__rmul__": "qseries.mul"}
QSERIES_COUNTS = {"__add__": "qseries.add", "__radd__": "qseries.add",
                  "__init__": "qseries.built"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start, time of traced callees]
        self.depth: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()  # vectors, branches, found maps

    # -- wrappers --------------------------------------------------------

    def _timed(self, group: str, fn, tally=None):
        stack, depth = self.stack, self.depth

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            depth[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[group] -= 1
                dur = end - frame[0]
                self.self_time[group] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not depth[group]:
                    self.incl[group] += dur
                self.calls[group] += 1
            if tally is not None:
                tally(result)
            return result

        return wrapper

    def _count(self, group: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _tally_enum(self, result):
        if result is None:
            return
        if isinstance(result, dict):
            self.work["vectors"] += sum(result.values())
        elif isinstance(result, tuple) and isinstance(result[0], dict):
            self.work["vectors"] += sum(result[0].values())  # collect=True
        else:
            self.work["vectors"] += 1  # find_any hit

    def _tally_scan(self, report):
        self.work["branches"] += len(report.branches)

    def _tally_glue(self, glue):
        self.work["glue_found"] += glue is not None

    def install(self) -> "Tracer":
        import unimodular
        from unimodular import qseries

        modules = [m for name, m in sys.modules.items()
                   if name == "unimodular" or name.startswith("unimodular.")]
        tallies = {"lattice.enum": self._tally_enum, "bounds.scan": self._tally_scan,
                   "constructions.glue_search": self._tally_glue}
        for group, modname, attr in TRACED:
            orig = getattr(getattr(unimodular, modname), attr)
            wrapped = self._timed(group, orig, tallies.get(group))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        cls = qseries.QSeries
        for attr, group in QSERIES_TIMED.items():
            setattr(cls, attr, self._timed(group, getattr(cls, attr)))
        for attr, group in QSERIES_COUNTS.items():
            setattr(cls, attr, self._count(group, getattr(cls, attr)))
        return self

    # -- results ---------------------------------------------------------

    def seconds(self, group: str) -> float:
        return self.self_time[group] if group in SELF_TIMED else self.incl[group]

    def metrics(self) -> dict:
        """Per-layer figures of everything traced so far."""
        s, c, w = self.seconds, self.calls, self.work
        enum_s, scan_s = s("lattice.enum"), s("bounds.scan")
        return {
            "linalg.lll_s": s("linalg.lll"),
            "linalg.lll_calls": c["linalg.lll"],
            "linalg.hnf_s": s("linalg.hnf"),
            "linalg.det_s": s("linalg.det"),
            "linalg.solve_s": s("linalg.solve"),
            "lattice.enum_s": enum_s,
            "lattice.enum_calls": c["lattice.enum"],
            "lattice.vectors": w["vectors"],
            "lattice.vectors_per_s": w["vectors"] / enum_s if enum_s else 0.0,
            "lattice.unimodular_s": s("lattice.unimodular"),
            "lattice.verify_s": s("lattice.verify"),
            "bounds.scan_s": scan_s,
            "bounds.scans": c["bounds.scan"],
            "bounds.branches": w["branches"],
            "bounds.branches_per_s": w["branches"] / scan_s if scan_s else 0.0,
            "bounds.basis_s": s("bounds.basis"),
            "bounds.table_s": s("bounds.table"),
            "qseries.mul_s": s("qseries.mul"),
            "qseries.mul_calls": c["qseries.mul"],
            "qseries.add_calls": c["qseries.add"],
            "qseries.series_built": c["qseries.built"],
            "genus.solve_s": s("genus.solve"),
            "genus.solves": c["genus.solve"],
            "codes.lattice_s": s("codes.lattice"),
            "constructions.glue_search_s": s("constructions.glue_search"),
            "constructions.glue_searches": c["constructions.glue_search"],
            "constructions.glue_found": w["glue_found"],
            "constructions.build_s": s("constructions.build"),
        }
