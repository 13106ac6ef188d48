"""Exact tools for unimodular lattices: certified minimal-norm bounds via
theta and shadow series, explicit optimal lattices from binary codes and
glue constructions, and genus-average counting bounds.

Everything is computed in exact rational arithmetic; enumeration-based
checks (minimal norms, kissing numbers, shadow series) certify the
explicit lattices independently of the analytic bounds.
"""

from .bounds import (
    BoundCertificate,
    FeasibilityReport,
    GramCheck,
    KNOWN_MINIMA,
    ThetaFit,
    even_extremal_scan,
    feasibility_scan,
    fit_from_theta,
    gram_obstruction,
    lattice_theta,
    mu_upper,
    shadow_theta,
    solve_prefix,
    table1,
)
from .codes import (
    BUILTIN_CODES,
    BinaryCode,
    code_from_lines,
    code_to_odd_lattice,
    golay24,
    hamming8,
    reed_muller_2_5,
)
from .constructions import (
    GlueMap,
    a15_plus_fixture,
    build_glue30,
    build_glue32,
    build_shave29,
    build_shave31,
    d16_plus_fixture,
    find_glue,
    find_shave_vector,
    glue_double,
    project_shave,
)
from .genus import AverageTheta, CountBound, genus_mass, mass_count_bound, solve_cj
from .lattice import (
    Coset,
    Lattice,
    check_unimodular,
    enumerate_short,
    even_sublattice,
    find_any,
    lattice_from_json_dict,
    lattice_to_json_dict,
    min_norm,
    shadow_by_enumeration,
    shadow_cosets,
    theta_by_enumeration,
    verify_min_norm,
    zn,
)
from .qseries import QSeries, parse_rat, rat_str

__version__ = "0.1.0"

__all__ = [
    "AverageTheta",
    "BinaryCode",
    "BoundCertificate",
    "BUILTIN_CODES",
    "CountBound",
    "Coset",
    "FeasibilityReport",
    "GlueMap",
    "GramCheck",
    "KNOWN_MINIMA",
    "Lattice",
    "QSeries",
    "ThetaFit",
    "a15_plus_fixture",
    "build_glue30",
    "build_glue32",
    "build_shave29",
    "build_shave31",
    "check_unimodular",
    "code_from_lines",
    "code_to_odd_lattice",
    "d16_plus_fixture",
    "enumerate_short",
    "even_extremal_scan",
    "even_sublattice",
    "feasibility_scan",
    "find_any",
    "find_glue",
    "find_shave_vector",
    "fit_from_theta",
    "genus_mass",
    "glue_double",
    "golay24",
    "gram_obstruction",
    "hamming8",
    "lattice_from_json_dict",
    "lattice_theta",
    "lattice_to_json_dict",
    "mass_count_bound",
    "min_norm",
    "mu_upper",
    "parse_rat",
    "project_shave",
    "rat_str",
    "reed_muller_2_5",
    "shadow_by_enumeration",
    "shadow_cosets",
    "shadow_theta",
    "solve_cj",
    "solve_prefix",
    "table1",
    "theta_by_enumeration",
    "verify_min_norm",
    "zn",
]
