"""Binary self-dual codes and the twisted construction-A lattices."""

from functools import reduce

import pytest

from unimodular.codes import (
    BUILTIN_CODES,
    BinaryCode,
    code_from_lines,
    code_to_odd_lattice,
    golay24,
    hamming8,
    reed_muller_2_5,
)
from unimodular.lattice import check_unimodular, min_norm, theta_by_enumeration


def test_hamming8_weights():
    c = hamming8()
    assert (c.n, c.k) == (8, 4)
    assert c.weight_enumerator() == {0: 1, 4: 14, 8: 1}
    assert c.is_self_dual() and c.is_doubly_even()
    assert c.min_distance() == 4


def test_golay24_weights():
    c = golay24()
    assert (c.n, c.k) == (24, 12)
    assert c.weight_enumerator() == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert c.is_self_dual() and c.is_doubly_even()
    assert c.min_distance() == 8


def test_reed_muller_2_5_weights():
    c = reed_muller_2_5()
    assert (c.n, c.k) == (32, 16)
    we = c.weight_enumerator()
    assert we[8] == 620
    assert we == {0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1}
    assert sum(we.values()) == 2 ** 16
    # complement symmetry: the all-ones word lies in the code
    assert all(we[w] == we[32 - w] for w in we)
    assert c.is_self_dual() and c.is_doubly_even()


def test_builtin_codes_registry():
    assert set(BUILTIN_CODES) == {"golay24", "hamming8", "rm32"}
    for name, factory in BUILTIN_CODES.items():
        c = factory()
        assert c.is_self_dual() and c.is_doubly_even()
        assert c.n == 2 * c.k


def test_weight_enumerator_matches_direct_walk():
    c = hamming8()
    # independent tally over all 2^k F_2-combinations of the generators
    tally = {}
    spanned = set()
    for mask in range(2 ** c.k):
        w = reduce(lambda a, b: a ^ b, (c.generators[i] for i in range(c.k) if mask >> i & 1), 0)
        tally[bin(w).count("1")] = tally.get(bin(w).count("1"), 0) + 1
        spanned.add(w)
    assert tally == c.weight_enumerator()
    assert sorted(c.words()) == sorted(spanned)


def test_code_constructor_guards():
    with pytest.raises(ValueError):
        BinaryCode(4, [0b10000])  # word beyond length
    with pytest.raises(ValueError):
        BinaryCode(4, [0b0011, 0b0011])  # dependent rows


def test_code_from_lines_round_trip():
    c = golay24()
    lines = ["".join(str(g >> i & 1) for i in range(c.n)) for g in c.generators]
    again = code_from_lines(lines, name="again")
    assert again.weight_enumerator() == c.weight_enumerator()
    with pytest.raises(ValueError):
        code_from_lines([])
    with pytest.raises(ValueError):
        code_from_lines(["0101", "011"])
    with pytest.raises(ValueError):
        code_from_lines(["01x1"])


def test_code_to_odd_lattice_guards():
    with pytest.raises(ValueError):
        code_to_odd_lattice(BinaryCode(4, [0b1111]))  # length not 0 mod 8
    with pytest.raises(ValueError):
        code_to_odd_lattice(BinaryCode(0, []))  # length 0 passes n % 8
    # self-dual but not doubly even: C = {00,11}^4 over length 8
    c = BinaryCode(8, [0b11, 0b1100, 0b110000, 0b11000000])
    assert c.is_self_dual() and not c.is_doubly_even()
    with pytest.raises(ValueError):
        code_to_odd_lattice(c)
    # not self-dual
    with pytest.raises(ValueError):
        code_to_odd_lattice(BinaryCode(8, [0b11111111]))


def test_hamming8_lattice_is_even_with_240_roots():
    L = code_to_odd_lattice(hamming8())
    assert L.dim == 8
    # dim-8 twist of the Hamming code lands on the even unimodular lattice
    assert check_unimodular(L) == "even"
    assert min_norm(L) == 2
    assert theta_by_enumeration(L, 2).coeff(8) == 240


def test_leech_lattice_from_golay(leech_lattice, leech_theta):
    L = leech_lattice
    assert L.dim == 24
    assert check_unimodular(L) == "even"
    t = leech_theta
    assert [t.coeff(4 * m) for m in range(4)] == [1, 0, 0, 0]  # min norm 4
    assert t.coeff(16) == 196560
