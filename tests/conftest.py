"""Session-scoped fixtures for the lattices that are expensive to build.

Each is constructed at most once per pytest run and shared between the
unit tests and the acceptance suite.
"""

import time

import pytest

from unimodular.codes import code_to_odd_lattice, golay24, reed_muller_2_5
from unimodular.constructions import build_glue30, build_glue32
from unimodular.lattice import theta_by_enumeration

#: wall-clock seconds of fixture computations, for runtime acceptance checks
TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="session")
def rm32_lattice():
    """32-dimensional odd unimodular lattice from the length-32 code."""
    return code_to_odd_lattice(reed_muller_2_5())


@pytest.fixture(scope="session")
def rm32_theta(rm32_lattice):
    # exact vector counts up to norm 4 -- the single heaviest enumeration
    t0 = time.perf_counter()
    series = theta_by_enumeration(rm32_lattice, 4)
    TIMINGS["rm32_theta"] = time.perf_counter() - t0
    return series


@pytest.fixture(scope="session")
def leech_lattice():
    return code_to_odd_lattice(golay24())


@pytest.fixture(scope="session")
def leech_theta(leech_lattice):
    # exact vector counts up to norm 4, shared by every test that needs them
    return theta_by_enumeration(leech_lattice, 4)


@pytest.fixture(scope="session")
def glue30():
    return build_glue30()


@pytest.fixture(scope="session")
def glue32():
    return build_glue32()
