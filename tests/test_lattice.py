"""Lattice enumeration against brute-force boxes and classical counts."""

import gc
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from unimodular import lattice
from unimodular.constructions import (
    a15_plus_fixture,
    build_shave29,
    build_shave31,
    d16_plus_fixture,
)
from unimodular.lattice import (
    Coset,
    Lattice,
    check_unimodular,
    class_minima,
    enumerate_short,
    even_sublattice,
    find_any,
    has_vector_below,
    lattice_from_json_dict,
    lattice_to_json_dict,
    min_norm,
    shadow_by_enumeration,
    shadow_cosets,
    sublattice,
    theta_by_enumeration,
    verify_min_norm,
    zn,
)
from unimodular.linalg import (
    clear_denominators,
    det_frac,
    hnf_rows_frac,
    identity,
    lll_reduce_gram,
    mat_frac,
    mat_inverse,
    matmul,
    transpose,
)
from unimodular.qseries import theta2


def _brute_vectors(target, max_norm):
    """Complete search over an exact box: (x_i + t_i)^2 <= (G^-1)_ii * R.

    Returns (x, norm) for every integer x with |x + t|^2 <= R."""
    if isinstance(target, Coset):
        base, off = target.base, target.offset
    else:
        base, off = target, [Fraction(0)] * target.dim
    g = base.gram
    n = base.dim
    ginv = mat_inverse(g)
    R = Fraction(max_norm)
    axes = []
    for i in range(n):
        w = ginv[i][i] * R
        b = math.isqrt(w.numerator // w.denominator) + 1
        center = -off[i]
        lo = math.floor(center) - b
        hi = math.ceil(center) + b
        axes.append(range(lo, hi + 1))
    # the norm of x + t is v gi v^T / (dg dt^2) for v = dt x + ti in ints
    dg, gi = clear_denominators(g)
    dt, (ti,) = clear_denominators([off])
    den = dg * dt * dt
    found = []
    for x in itertools.product(*axes):
        v = [dt * c + t for c, t in zip(x, ti)]
        norm = Fraction(sum(a * sum(map(operator.mul, row, v)) for a, row in zip(v, gi)), den)
        if norm <= R:
            found.append((x, norm))
    return found


def _brute_counts(target, max_norm):
    counts = {}
    for _, norm in _brute_vectors(target, max_norm):
        counts[norm] = counts.get(norm, 0) + 1
    return counts


def _random_skewed_lattice(rng, n):
    """Diagonal gram hidden behind a few gentle integer shears."""
    diag = [rng.randrange(1, 4) for _ in range(n)]
    b = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(6 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        b[i] = [x + q * y for x, y in zip(b[i], b[j])]
    gram = matmul(b, transpose(b))
    return Lattice(gram, gens=b)


def e8_lattice():
    """Even unimodular dim-8 lattice: D8 plus the all-halves glue vector."""
    rows = []
    for i in range(7):
        r = [0] * 8
        r[i], r[i + 1] = 1, -1
        rows.append(r)
    r = [0] * 8
    r[6], r[7] = 1, 1
    rows.append(r)
    rows.append([Fraction(1, 2)] * 8)
    basis = hnf_rows_frac(rows)
    assert len(basis) == 8
    return Lattice(matmul(basis, transpose(basis)), gens=basis, name="E8")


# ---------------------------------------------------------------------------
# enumeration correctness


def test_enumeration_matches_brute_force_lattices():
    rng = random.Random(1234)
    for _ in range(12):
        n = rng.randrange(1, 4)
        L = _random_skewed_lattice(rng, n)
        R = rng.randrange(2, 7)
        assert enumerate_short(L, R) == _brute_counts(L, R)


def test_enumeration_matches_brute_force_cosets():
    rng = random.Random(977)
    for _ in range(12):
        n = rng.randrange(1, 4)
        L = _random_skewed_lattice(rng, n)
        off = [Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))) for _ in range(n)]
        c = Coset(L, off)
        R = rng.randrange(2, 6)
        assert enumerate_short(c, R) == _brute_counts(c, R)


def test_enumeration_z3_sum_of_three_squares():
    counts = enumerate_short(zn(3), 6)
    assert [counts.get(Fraction(k), 0) for k in range(7)] == [1, 6, 12, 8, 6, 24, 24]


def test_collect_returns_matching_vectors():
    counts, vecs = enumerate_short(zn(2), 2, collect=True)
    assert sorted(vecs) == [
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)
    ]
    assert counts[Fraction(1)] == 4 and counts[Fraction(2)] == 4
    # every counted vector is collected, with matching norms
    L = _random_skewed_lattice(random.Random(5), 3)
    counts, vecs = enumerate_short(L, 5, collect=True)
    tally = {}
    for v in vecs:
        tally[L.norm_of(v)] = tally.get(L.norm_of(v), 0) + 1
    assert tally == counts


def test_collect_on_cosets_matches_brute_force():
    # symmetric cosets (-t = t mod Z^n) take the mirror path, the last one
    # through a nontrivial reduction transform; the others do not
    rng = random.Random(2024)
    skewed = _random_skewed_lattice(rng, 3)
    cosets = [
        (Coset(zn(3), [Fraction(1, 2)] * 3), 3),
        (Coset(zn(4), [Fraction(1, 2)] * 4), 3),
        (Coset(skewed, [Fraction(1, 2), 0, Fraction(1, 2)]), 6),
        (Coset(zn(3), [Fraction(1, 3), 0, Fraction(1, 2)]), 3),
        (Coset(skewed, [Fraction(1, 3), Fraction(-1, 2), Fraction(2, 3)]), 6),
    ]
    for c, R in cosets:
        counts, vecs = enumerate_short(c, R, collect=True)
        brute = _brute_vectors(c, R)
        assert sorted(vecs) == sorted(x for x, _ in brute)
        assert sorted(c.norm_of(x) for x in vecs) == sorted(n for _, n in brute)
        assert counts == _brute_counts(c, R)


def _random_generic_lattice(rng, n, min_det):
    """A rationally scaled lattice with a generic basis: its reduced
    Gram-Schmidt table is far from diagonal."""
    while True:
        b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        gram = matmul(b, transpose(b))
        if det_frac(gram) >= min_det:
            break
    scale = rng.choice((Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)))
    return Lattice([[scale * x for x in row] for row in gram])


def _random_rational_target(rng, n, min_det):
    """A `_random_generic_lattice`, or one of its cosets."""
    L = _random_generic_lattice(rng, n, min_det)
    if rng.random() < 0.3:
        return L
    off = [Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3, 4))) for _ in range(n)]
    return Coset(L, off)


def _walk(target, R):
    """Counts by norm, as enumerate_short returns them, and the walk's stats."""
    counts, _, scale, stats = lattice._enum(target, R)
    return {Fraction(u, scale): c for u, c in counts.items()}, stats


def _count_with_limit(monkeypatch, target, R, limit):
    monkeypatch.setattr(lattice, "MEMO_LIMIT", limit)
    return _walk(target, R)


def test_memoised_counts_match_brute_force(monkeypatch):
    # the count walk memoises subtree histograms; default limit, a tiny limit
    # that drops the memo midway, and no memo at all
    rng = random.Random(4711)
    hits = switched = 0
    for _ in range(40):
        n = rng.randrange(2, 5)
        # a larger determinant keeps the brute-force box small
        target = _random_rational_target(rng, n, 4 ** n)
        R = Fraction(rng.randrange(4, 13), 2)
        brute = _brute_counts(target, R)
        for limit in (1024, 3, 0):
            counts, stats = _count_with_limit(monkeypatch, target, R, limit)
            assert counts == brute
            assert stats.lookups >= stats.hits + stats.stored
            assert stats.stored <= limit
            hits += stats.hits
            switched += stats.memo_off
    assert hits > 0 and switched > 0


def test_memoised_counts_on_half_offset_cosets(monkeypatch):
    # -t = t mod the lattice: the zero prefix's roots are not memoised and the
    # other subtrees are counted twice
    rng = random.Random(808)
    skewed = _random_skewed_lattice(rng, 4)
    cosets = [
        Coset(zn(4), [Fraction(1, 2)] * 4),
        Coset(zn(4), [Fraction(1, 2), 0, Fraction(1, 2), 0]),
        Coset(skewed, [0, Fraction(1, 2), Fraction(1, 2), 0]),
        Coset(skewed, [Fraction(1, 2), 0, 0, Fraction(-3, 2)]),
        zn(4),
        skewed,
    ]
    hits = 0
    for c in cosets:
        brute = _brute_counts(c, 5)
        for limit in (1024, 3):
            counts, stats = _count_with_limit(monkeypatch, c, 5, limit)
            assert counts == brute
            hits += stats.hits
    assert hits > 0


def test_memoised_counts_on_and_off_the_norm_grid():
    # a radius equal to a norm keeps that norm; a radius just below drops it
    rng = random.Random(99)
    for _ in range(6):
        n = rng.randrange(2, 5)
        target = _random_rational_target(rng, n, 4 ** n)
        brute = _brute_counts(target, 6)
        for norm in sorted(brute)[1:4]:
            for R in (norm, norm - Fraction(1, 7), norm + Fraction(1, 7)):
                want = {k: v for k, v in brute.items() if k <= R}
                assert enumerate_short(target, R) == want


def test_memo_and_plain_walk_agree_in_higher_dimension(monkeypatch):
    # too many points for a box; the walk without memo is the reference
    hits = 0
    for seed in range(300):
        rng = random.Random(seed)
        target = _random_rational_target(rng, rng.randrange(3, 8), 1)
        R = rng.choice((4, 8, 12))
        plain, _ = _count_with_limit(monkeypatch, target, R, 0)
        memo, stats = _count_with_limit(monkeypatch, target, R, 1024)
        assert memo == plain
        hits += stats.hits
    assert hits > 0


def _sigma(k, m):
    return sum(t ** k for t in range(1, m + 1) if m % t == 0)


def test_d16_plus_theta_through_memo_hits():
    # Theta of an even unimodular 16-dimensional lattice is E4^2, so the
    # norm-2m count is 480 sigma_7(m)
    counts, stats = _walk(d16_plus_fixture(), 10)
    assert stats.hits > 0 and not stats.memo_off
    assert counts == {Fraction(0): 1, **{Fraction(2 * m): 480 * _sigma(7, m)
                                         for m in range(1, 6)}}


def test_leech_walk_switches_the_memo_off(leech_lattice):
    # no two subtrees repeat often enough: the memo fills and is dropped.
    # Leech norms are even, so the radius-3 walk is the radius-2 walk
    counts, stats = _walk(leech_lattice, 3)
    assert counts == {Fraction(0): 1}
    assert stats.memo_off and stats.stored == lattice.MEMO_LIMIT
    assert stats.hits < stats.lookups // 10
    assert sum(stats.nodes) > 10 * lattice.MEMO_LIMIT


def test_find_any_and_min_norm():
    rng = random.Random(31)
    for _ in range(8):
        L = _random_skewed_lattice(rng, 3)
        mu = min_norm(L)
        hit = find_any(L, mu)
        assert hit is not None and hit[0] == mu
        assert L.norm_of(hit[1]) == mu
        assert find_any(L, mu - Fraction(1, 4)) is None
        assert verify_min_norm(L, mu)
        assert not verify_min_norm(L, mu + 1)
        assert not verify_min_norm(L, mu - Fraction(1, 2))


def test_min_norm_checks_off_the_quarter_grid():
    # diag(1, 7/8) has minimum 7/8, which lies within 1/4 below mu = 1
    L = Lattice([[1, 0], [0, Fraction(7, 8)]])
    brute = _brute_counts(L, 1)
    assert min(k for k in brute if k > 0) == Fraction(7, 8)
    assert not verify_min_norm(L, 1)
    assert verify_min_norm(L, Fraction(7, 8))
    # has_vector_below agrees with the box count on scaled lattices whose
    # norm steps are off the quarter grid
    rng = random.Random(78)
    for scale in (Fraction(7, 8), Fraction(2, 3), Fraction(5, 7), Fraction(3)):
        base = _random_skewed_lattice(rng, rng.randrange(1, 4))
        L = Lattice([[scale * x for x in row] for row in base.gram])
        brute = _brute_counts(L, 10 * scale)
        norms = sorted(k for k in brute if k > 0)
        for mu in norms + [k + Fraction(1, 10) for k in norms]:
            assert has_vector_below(L, mu) == (norms[0] < mu)
        assert verify_min_norm(L, norms[0])


#: bases B (Gram B B^T) whose LLL basis has no vector of minimal norm: its
#: shortest rows have norm 19 and 12, the minima are 18 and 11
_LLL_MISSES = [
    [[0, 1, 3, -3, 1], [-3, 3, 3, 1, 2], [-1, -2, -2, -3, 3], [-3, 1, 0, -3, 0],
     [-2, -1, 2, -2, -3]],
    [[3, -2, 1, 1, 3, 1], [-1, 3, 2, -2, 2, -3], [0, 2, -3, 2, -3, -2],
     [-2, 1, 1, 1, -2, -2], [3, -1, 2, -3, 0, 0], [3, 1, 2, -1, 2, -1]],
]


def _box_size(L):
    R = min(L.gram[i][i] for i in range(L.dim))
    ginv = mat_inverse(L.gram)
    bounds = [math.isqrt(int(ginv[i][i] * R)) for i in range(L.dim)]
    return bounds, math.prod(2 * b + 1 for b in bounds)


def _box_minimum(L):
    """Least nonzero norm, by a complete search of the box
    x_i^2 <= (G^-1)_ii R, R the least diagonal entry (a basis vector's norm)."""
    bounds, _ = _box_size(L)
    den, g = clear_denominators(L.gram)
    n = L.dim
    best = min(sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
               for x in itertools.product(*[range(-b, b + 1) for b in bounds]) if any(x))
    return Fraction(best, den)


def test_min_norm_matches_box_oracle():
    # the walk looks only below the shortest reduced row; scaled copies put
    # the norms off the quarter grid
    lattices = []
    for b in _LLL_MISSES:
        gram = matmul(b, transpose(b))
        lattices += [Lattice(gram), Lattice([[Fraction(5, 7) * x for x in r] for r in gram])]
    # LLL keeps the first row (norm 100 >= 99/100 * 100 is no swap)
    lattices.append(Lattice([[100, 0, 0], [0, 99, 0], [0, 0, 101]]))
    rng = random.Random(2718)
    while len(lattices) < 30:
        n = rng.randrange(3, 7)
        b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        gram = matmul(b, transpose(b))
        if det_frac(gram) == 0:
            continue
        scale = rng.choice((1, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(7, 8)))
        L = Lattice([[scale * x for x in r] for r in gram])
        if _box_size(L)[1] <= 4000:
            lattices.append(L)
    first_longer = below_rows = 0
    for L in lattices:
        mu = _box_minimum(L)
        assert min_norm(L) == mu
        U = lattice._reduced_data(L)[1]
        first_longer += L.norm_of(U[0]) > mu
        below_rows += min(L.norm_of(row) for row in U) > mu
    assert first_longer >= 5 and below_rows == 4


def test_grid_snapped_walk_matches_unsnapped(monkeypatch):
    # a lattice walk stops at the last multiple of g = gcd(G_ii, 2 G_ij) at
    # or below its radius; without the snap it walks to the radius itself
    rng = random.Random(1618)
    fewer = 0
    for k in range(40):
        base = _random_integral_lattice(rng, rng.randrange(4, 9), k % 2 == 0)
        scale = rng.choice((1, Fraction(2, 3), Fraction(5, 7), 3))
        L = Lattice([[scale * x for x in r] for r in base.gram])
        R = scale * Fraction(rng.randrange(12, 30), rng.choice((3, 4, 5)))
        walks = [_walk(L, R), lattice._enum(L, R, collect=True)]
        with monkeypatch.context() as mp:
            mp.setattr(lattice, "_grid_radius", lambda L, r, strict=False: Fraction(r))
            plain = [_walk(L, R), lattice._enum(L, R, collect=True)]
        assert walks[0][0] == plain[0][0]
        assert sorted(walks[1][1]) == sorted(plain[1][1])
        # the collect walk keeps no memo, so its nodes show the pruning
        snapped_nodes, plain_nodes = sum(walks[1][3].nodes), sum(plain[1][3].nodes)
        assert snapped_nodes <= plain_nodes
        fewer += snapped_nodes < plain_nodes
    assert fewer >= 10


def _class_minima_by_collect(L, R):
    """Least norm per mod-2 class of the coordinates, from collected vectors."""
    _, vecs = enumerate_short(L, R, collect=True)
    den, g = clear_denominators(L.gram)
    out = {}
    for x in vecs:
        nz = [(i, a) for i, a in enumerate(x) if a]
        c = sum(1 << i for i, a in nz if a & 1)
        u = sum(a * b * g[i][j] for i, a in nz for j, b in nz)
        if u < out.get(c, u + 1):
            out[c] = u
    return {c: Fraction(u, den) for c, u in out.items()}


def _as_table(mins, dim, cap):
    """A {class: least norm} map as a list over the 2^dim classes, with cap
    for the classes it does not reach."""
    table = [cap] * (1 << dim)
    for c, u in mins.items():
        table[c] = u
    return table


def _random_integral_lattice(rng, n, even):
    """B B^T for a random integer B, or a random basis of the even root
    lattice A_n; either way the LLL transform is far from the identity."""
    if even:
        a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
        v = identity(n)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            v[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(v[i], v[j])]
        return Lattice(matmul(matmul(v, a), transpose(v)))
    while True:
        b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        gram = matmul(b, transpose(b))
        if det_frac(gram) != 0:
            return Lattice(gram)


def test_class_walk_minima_match_collected_vectors():
    # the class walk reuses the class maps of repeated subtrees, flipped by
    # their parity masks; the collected vectors are the oracle for the
    # table its runs are written into, and unreached classes read the cap
    rng = random.Random(3141)
    a15, d16 = a15_plus_fixture(), d16_plus_fixture()
    cases = [(zn(3), 3), (zn(5), 2), (a15, 3), (a15, 5), (d16, 3), (d16, 5)]
    for k in range(16):
        cases.append((_random_integral_lattice(rng, rng.randrange(2, 7), k % 2 == 0), 8))
    for k in range(8):
        cases.append((_random_integral_lattice(rng, rng.randrange(5, 8), k % 2 == 0), 12))
    skewed = random_hits = 0
    for L, R in cases:
        counts, _, scale, stats = lattice._enum(L, R, classes=True)
        mins = _class_minima_by_collect(L, R)
        table = class_minima(L, R, R + 1)
        assert list(table) == _as_table(mins, L.dim, R + 1)
        assert table.count(R + 1) == len(table) - len(mins)
        assert {Fraction(u, scale): v for u, v in counts.items()} == enumerate_short(L, R)
        if L in (a15, d16):
            assert stats.hits > 0
        else:
            random_hits += stats.hits > 0
        skewed += lattice._reduced_data(L)[1] != identity(L.dim)
    assert skewed >= 16 and random_hits >= 12
    with pytest.raises(ValueError):
        lattice._enum(Coset(zn(2), [Fraction(1, 2), 0]), 2, classes=True)


def test_class_minima_are_the_class_walk_in_ints():
    # one byte per class: its least norm, or the cap where no vector of
    # norm <= R reaches it
    for L, R, cap in ((zn(3), 3, 4), (zn(3), 1, 9), (a15_plus_fixture(), 3, 4),
                      (e8_lattice(), 4, 255)):
        got = class_minima(L, R, cap)
        assert type(got) is bytearray and len(got) == 1 << L.dim
        mins = _class_minima_by_collect(L, R)
        assert list(got) == _as_table(mins, L.dim, cap) and got[0] == 0
        assert all(got[c] == cap for c in range(len(got)) if c not in mins)
    assert list(class_minima(zn(3), 1, 9)) == [0, 1, 1, 9, 1, 9, 9, 9]
    with pytest.raises(ValueError, match="integral"):
        class_minima(Lattice([[1, 0], [0, Fraction(1, 2)]]), 2, 3)


def test_class_walk_with_a_dropped_memo(monkeypatch):
    # a memo that fills up midway is dropped and the rest of the walk pushes
    # its classes down; counts and minima stay the same
    for L, R in ((d16_plus_fixture(), 4), (a15_plus_fixture(), 3)):
        counts, _, _, stats = lattice._enum(L, R, classes=True)
        table = class_minima(L, R, R + 1)
        assert not stats.memo_off
        assert list(table) == _as_table(_class_minima_by_collect(L, R), L.dim, R + 1)
        for limit in (1, 4):
            with monkeypatch.context() as mp:
                mp.setattr(lattice, "MEMO_LIMIT", limit)
                got, _, _, stats = lattice._enum(L, R, classes=True)
                assert class_minima(L, R, R + 1) == table
            assert got == counts
            assert stats.memo_off and stats.stored == limit


def test_class_walk_needs_dimension_at_most_64():
    # classes are packed into 64-bit words; the walk refuses before reducing
    L = zn(65)
    with pytest.raises(ValueError, match="64"):
        lattice._enum(L, 1, classes=True)
    assert L._reduced is None


def test_class_walk_leaves_no_reference_cycles():
    # the walk's memo is freed on return, not at the next cyclic collection
    L = d16_plus_fixture()
    lattice._reduced_data(L)
    gc.collect()
    gc.disable()
    try:
        assert lattice._enum(L, 4, classes=True)[3].hits > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _runs_table(runs, scale, dim, cap):
    """The class runs of a walk written into a list over the 2^dim classes,
    highest norm first as `class_minima` writes its byte table, so a class
    ends with its least norm and an unreached one reads cap."""
    table = [cap] * (1 << dim)
    for u in sorted(runs, reverse=True):
        for c in runs[u]:
            table[c] = Fraction(u, scale)
    return table


def _brute_class_minima(L, R):
    """Least norm per mod-2 class of the coordinates, over the exact box."""
    out = {}
    for x, norm in _brute_vectors(L, R):
        c = sum((a & 1) << i for i, a in enumerate(x))
        if norm < out.get(c, norm + 1):
            out[c] = norm
    return out


def test_walks_with_centres_wider_than_64_bits():
    # an integer Gram scaled by about 10^30 puts the Gram-Schmidt table, and
    # so the centres, far past 64 bits; count, coset and class walks still
    # match the box, so the derived slot width leaves no slot to overflow
    rng = random.Random(6502)
    hits = wide = 0
    for _ in range(10):
        n = rng.randrange(2, 5)
        while True:
            b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
            gram = matmul(b, transpose(b))
            if det_frac(gram) >= 2 ** n:
                break
        scale = 10 ** 30 + rng.randrange(10 ** 6)
        L = Lattice([[scale * x for x in row] for row in gram])
        R = scale * rng.randrange(8, 16)
        dmul, _, _, d, lam, m, M, _, _ = lattice._reduced_data(L)
        wide += max(abs(lam[i][j]) for i in range(n) for j in range(i)) >= 1 << 64
        assert lattice._slot_bits(d, lam, m, int(R * dmul * M), 1) > 64
        brute = _brute_counts(L, R)
        # the norms pass a byte, so the runs go to a list table, not
        # class_minima's bytes
        counts, runs, scale_u, stats = lattice._enum(L, R, classes=True)
        assert {Fraction(u, scale_u): v for u, v in counts.items()} == brute
        assert _runs_table(runs, scale_u, n, None) == _as_table(_brute_class_minima(L, R), n, None)
        hits += stats.hits
        counts, stats = _walk(L, R)
        assert counts == brute
        hits += stats.hits
        off = [Fraction(rng.randrange(-3, 4), rng.choice((2, 3, 4))) for _ in range(n)]
        c = Coset(L, off)
        counts, stats = _walk(c, R)
        assert counts == _brute_counts(c, R)
        hits += stats.hits
    assert hits > 0 and wide >= 6


def test_benchmark_walks_keep_their_counters(leech_lattice):
    # the walks are deterministic, so their work counters are pinned: nodes,
    # lookups, hits, stored subtrees and whether the memo was dropped
    walks = [
        (d16_plus_fixture(), 6, (164, 490, 342, 148, False)),
        (a15_plus_fixture(), 6, (288, 824, 551, 273, False)),
        (leech_lattice, 2, (12928, 1072, 42, lattice.MEMO_LIMIT, True)),
    ]
    for L, R, want in walks:
        st = lattice._enum(L, R)[3]
        assert (sum(st.nodes), st.lookups, st.hits, st.stored, st.memo_off) == want
        assert len(st.level_lookups) == len(st.level_hits) == L.dim
        assert all(h <= k for h, k in zip(st.level_hits, st.level_lookups))
    # per level (of the looked-up subtree's root): D16+ hits on every level
    # below 14, Leech on none of 11 and 13..18
    d16 = lattice._enum(d16_plus_fixture(), 6)[3]
    assert all(d16.level_hits[:14]) and not any(d16.level_hits[14:])
    leech = lattice._enum(leech_lattice, 2)[3]
    assert leech.level_hits[11] == 0 and not any(leech.level_hits[13:19])
    assert leech.level_hits[12] > 0


def test_class_walks_keep_their_counters():
    # the glue search's class walks (D16+ <= 5 is its walk for target 4,
    # A15+ <= 3 for target 3) are pinned like the count walks above: nodes,
    # lookups, hits, stored class maps, and the class entries the hits merged
    walks = [
        (d16_plus_fixture(), 5, (111, 259, 164, 95, 60874)),
        (a15_plus_fixture(), 3, (129, 234, 120, 114, 5984)),
    ]
    for L, R, want in walks:
        st = lattice._enum(L, R, classes=True)[3]
        assert (sum(st.nodes), st.lookups, st.hits, st.stored, st.merged) == want
        assert not st.memo_off
    # a count walk merges no classes
    assert lattice._enum(d16_plus_fixture(), 5)[3].merged == 0


def test_find_any_skips_zero_in_shifted_coset():
    c = Coset(zn(2), [Fraction(1, 2), Fraction(0)])
    norm, x = find_any(c, 3)
    assert norm == Fraction(1, 4)
    assert c.norm_of(x) == norm


def test_find_any_agrees_with_the_count_walk():
    # find_any finds a nonzero vector exactly when the count walk to the
    # same norm counts one
    rng = random.Random(2025)
    for _ in range(30):
        L = _random_skewed_lattice(rng, rng.randrange(1, 6))
        for mu in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3, Fraction(17, 4), 5, 7):
            r = lattice._grid_radius(L, mu, strict=True)
            assert (find_any(L, r) is not None) == any(k > 0 for k in enumerate_short(L, r))
    # on cosets (offsets over 2 and 3) its vector is one the collect walk
    # finds
    for _ in range(30):
        n = rng.randrange(1, 5)
        L = _random_skewed_lattice(rng, n)
        c = Coset(L, [Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))) for _ in range(n)])
        R = rng.randrange(1, 6)
        hit = find_any(c, R)
        _, vecs = enumerate_short(c, R, collect=True)
        if hit is None:
            assert all(c.norm_of(v) == 0 for v in vecs)
        else:
            norm, x = hit
            assert 0 < norm == c.norm_of(x) <= R and tuple(x) in vecs


def test_find_any_stops_at_the_first_hit():
    # on Z^8 below 2 the walk stops at the first unit vector, one node per
    # level, and keeps no memo
    z8 = zn(8)
    _, vecs, _, st = lattice._enum(z8, lattice._grid_radius(z8, 2, strict=True),
                                   first_only=True)
    assert len(vecs) == 1 and sum(map(abs, vecs[0])) == 1
    assert sum(st.nodes) <= z8.dim + 1 and st.lookups == 0


def test_find_any_is_the_collect_walks_first_nonzero_vector():
    # an existence walk keeps only k_j per level and the collect walk the
    # coordinate lists, in the same order: its first nonzero vector is the
    # collect walk's, on lattices and on cosets (offsets over 2, 3 and 4)
    rng = random.Random(4812)
    found = 0
    for k in range(200):
        n = rng.randrange(1, 6)
        L = _random_skewed_lattice(rng, n)
        t = L if k % 2 else Coset(L, [Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3, 4)))
                                      for _ in range(n)])
        R = Fraction(rng.randrange(1, 13), 2)
        _, vecs = enumerate_short(t, R, collect=True)
        first = next((list(v) for v in vecs if t.norm_of(v)), None)
        hit = find_any(t, R)
        assert (hit and hit[1]) == first
        if hit:
            assert hit[0] == t.norm_of(first)
            found += 1
    assert 50 <= found < 200


def test_certificate_walks_keep_no_memo(leech_lattice):
    # has_vector_below and min_norm are count walks with memo=False: the
    # memo walk's counts, no lookups and nothing stored; Leech below 4 is
    # pinned (the memo walk takes 12,928 nodes and 1,072 lookups)
    r = lattice._grid_radius(leech_lattice, 4, strict=True)
    counts, _, _, st = lattice._enum(leech_lattice, r, memo=False)
    assert counts == lattice._enum(leech_lattice, r)[0]
    assert (sum(st.nodes), st.lookups, st.hits, st.stored, st.memo_off) == (12994, 0, 0, 0, False)
    rng = random.Random(1729)
    for k in range(30):
        n = rng.randrange(1, 7)
        t = _random_skewed_lattice(rng, n)
        if k % 2:
            t = Coset(t, [Fraction(rng.randrange(-3, 4), rng.choice((2, 3))) for _ in range(n)])
        R = rng.randrange(2, 9)
        counts, _, _, st = lattice._enum(t, R, memo=False)
        assert counts == lattice._enum(t, R)[0]
        assert st.lookups == st.stored == 0 and not st.memo_off
    # Z^8 has vectors below 2, the unit vectors
    assert has_vector_below(zn(8), 2) and not has_vector_below(zn(8), 1)


def _memo_walk_has_vector_below(L, mu):
    """has_vector_below by the default count walk, which memoises."""
    return any(k > 0 for k in enumerate_short(L, lattice._grid_radius(L, mu, strict=True)))


def test_memo_free_certificates_match_the_memo_walk():
    # on random skewed lattices (minimum at most 9) the box in dimension
    # <= 5 decides the minimum; the memo-free certificates give the memo
    # walk's answers
    rng = random.Random(1101)
    for _ in range(40):
        L = _random_skewed_lattice(rng, rng.randrange(1, 6))
        mu0 = _box_minimum(L)
        assert min_norm(L) == mu0
        for mu in {Fraction(1, 2), 1, 2, 3, 4, 5, 9, mu0, mu0 + Fraction(1, 2)}:
            assert has_vector_below(L, mu) == _memo_walk_has_vector_below(L, mu) == (mu0 < mu)
            assert verify_min_norm(L, mu) == (mu == mu0)
    for n in range(1, 13):
        L = zn(n)
        assert min_norm(L) == 1 and verify_min_norm(L, 1) and not verify_min_norm(L, 2)
        assert not has_vector_below(L, 1) and has_vector_below(L, 2)
        assert _memo_walk_has_vector_below(L, 2)


def test_memo_free_certificates_on_the_built_lattices(leech_lattice, rm32_lattice,
                                                      glue30, glue32):
    built = [(a15_plus_fixture(), 2), (d16_plus_fixture(), 2), (e8_lattice(), 2),
             (build_shave29(), 3), (glue30, 3), (build_shave31(), 3), (glue32, 4),
             (leech_lattice, 4), (rm32_lattice, 4)]
    for L, mu in built:
        assert not _memo_walk_has_vector_below(L, mu)
        assert min_norm(L) == mu and verify_min_norm(L, mu)


def _plain_targets(rng, count):
    """Random generic lattices and cosets, n 1..7, in turn: a lattice, a
    coset fixed by negation (offsets in Z/2) and a coset with offsets over
    1..4 (fixed by negation only when they fall in Z/2)."""
    for k in range(count):
        n = rng.randrange(1, 8)
        L = _random_generic_lattice(rng, n, 4 ** min(n, 4))
        if k % 3 == 0:
            yield L, rng.randrange(2, 7)
        elif k % 3 == 1:
            yield Coset(L, [Fraction(rng.randrange(-3, 4), 2) for _ in range(n)]), rng.randrange(2, 7)
        else:
            yield (Coset(L, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(n)]),
                   rng.randrange(2, 7))


def _is_symmetric(target):
    return all((2 * t).denominator == 1 for t in lattice._as_coset(target).offset)


def test_memo_free_count_walks_match_the_memo_walk_and_the_box():
    # a count walk with memo=False: the memo walk's counts, the box's in
    # dimension <= 5, and per level the nodes of a collect walk, which keeps
    # no memo either; symmetric cosets count each vector twice
    # off the zero prefix and the zero vector once
    rng = random.Random(2611)
    seen = set()
    for target, R in _plain_targets(rng, 90):
        counts, _, scale, st = lattice._enum(target, R, memo=False)
        assert counts == lattice._enum(target, R)[0]
        assert st.nodes == lattice._enum(target, R, collect=True)[3].nodes
        assert st.lookups == st.stored == st.dropped_at == 0
        n = lattice._as_coset(target).base.dim
        if n <= 5:
            assert {Fraction(u, scale): c for u, c in counts.items()} == _brute_counts(target, R)
            seen.add((_is_symmetric(target), n))
    assert {sym for sym, _ in seen} == {True, False} and {n for _, n in seen} == {1, 2, 3, 4, 5}


def test_dropped_memo_walks_finish_in_the_plain_walk(monkeypatch):
    # with a tiny MEMO_LIMIT the memo drops early and the rest of a count
    # walk keeps none: the memo-free walk's counts, the drop reported.  The
    # radii are raised so that every walk misses more than 4 times
    rng = random.Random(3141)
    targets = [(t, R + 12) for t, R in _plain_targets(rng, 60)
               if lattice._as_coset(t).base.dim >= 4]
    for limit in (0, 1, 4):
        monkeypatch.setattr(lattice, "MEMO_LIMIT", limit)
        for target, R in targets:
            want = lattice._enum(target, R, memo=False)[0]
            counts, _, _, st = lattice._enum(target, R)
            assert counts == want
            assert st.memo_off and st.stored == limit
            assert 0 < st.dropped_at <= sum(st.nodes)
    assert any(_is_symmetric(t) for t, _ in targets) and not all(_is_symmetric(t) for t, _ in targets)


def test_memo_drop_is_reported_where_it_happens(leech_lattice):
    # Leech <= 2 drops its memo after 1,054 of its 12,928 nodes; the theta
    # workload's walks never drop it
    assert lattice._enum(leech_lattice, 2)[3].dropped_at == 1054
    for L in (d16_plus_fixture(), a15_plus_fixture()):
        st = lattice._enum(L, 6)[3]
        assert st.dropped_at == 0 and not st.memo_off


def test_certificate_walks_keep_their_node_counts(leech_lattice, glue30, glue32):
    # the memo-free walks below each built lattice's minimum, pinned; a
    # first_only walk, which finds nothing there, walks the same tree
    walks = [(glue30, 3, 16020), (build_shave29(), 3, 16049), (build_shave31(), 3, 15053),
             (glue32, 4, 33712), (leech_lattice, 4, 12994)]
    for L, mu, want in walks:
        r = lattice._grid_radius(L, mu, strict=True)
        counts, _, _, st = lattice._enum(L, r, memo=False)
        assert counts == {0: 1} and sum(st.nodes) == want
        _, found, _, first = lattice._enum(L, r, first_only=True)
        assert not found and first.nodes == st.nodes


def test_zero_prefix_chain_edges_match_the_box():
    # on Z^1..Z^5, where LLL keeps the identity basis, these offsets are the
    # reduced ones: an integer offset puts the zero vector at x = -t, counted
    # once, and a half offset only in the last or only in the first
    # coordinate ends the chain of roots at the top or at the leaf level.
    # Every walk's counts and the collected vectors are the box's, the
    # memo-free walk's nodes the collect walk's, and find_any's vector the
    # first nonzero one collected
    for n in range(1, 6):
        L = zn(n)
        assert lattice._reduced_data(L)[1] == identity(n)
        offsets = ([(-1) ** i * (i + 1) for i in range(n)],
                   [0] * (n - 1) + [Fraction(1, 2)], [Fraction(1, 2)] + [0] * (n - 1))
        for c in [Coset(L, off) for off in offsets]:
            for R in (0, Fraction(1, 4), Fraction(1, 2), 1, 2, 3):
                counts, vecs = enumerate_short(c, R, collect=True)
                assert counts == _brute_counts(c, R) == enumerate_short(c, R)
                assert enumerate_short(c, R, memo=False) == counts
                assert sorted(vecs) == sorted(x for x, _ in _brute_vectors(c, R))
                nodes = lattice._enum(c, R, collect=True)[3].nodes
                assert lattice._enum(c, R, memo=False)[3].nodes == nodes
                first = next((list(v) for v in vecs if c.norm_of(v)), None)
                assert (find_any(c, R) or (None, None))[1] == first


def _stack_depth():
    """The number of Python frames on the stack, the caller's included."""
    f, depth = sys._getframe(1), 0
    while f is not None:
        f, depth = f.f_back, depth + 1
    return depth


def test_walks_make_no_python_recursion():
    # Z^64 to norm 1 walks down all 64 levels from its top root, in six
    # modes, under a recursion limit 25 frames above this test: the walk is
    # a loop
    z64 = zn(64)
    half = Coset(z64, [0] * 63 + [Fraction(1, 2)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 25)
    try:
        walks = [lattice._enum(z64, 1), lattice._enum(z64, 1, memo=False),
                 lattice._enum(z64, 1, collect=True), lattice._enum(z64, 1, first_only=True),
                 lattice._enum(z64, 1, classes=True), lattice._enum(half, 1)]
    finally:
        sys.setrecursionlimit(limit)
    units = [tuple(s * (i == j) for j in range(64)) for i in range(64) for s in (1, -1)]
    scale = walks[0][2]
    for counts, _, _, _ in walks[:3] + walks[4:5]:
        assert counts == {0: 1, scale: 128}
    assert sorted(walks[2][1]) == sorted(units + [(0,) * 64])
    assert walks[3][1][0] in units
    runs = walks[4][1]
    assert list(runs[0]) == [0] and set(runs[scale]) == {1 << i for i in range(64)}
    counts, _, coset_scale, _ = walks[5]
    assert {Fraction(u, coset_scale): c for u, c in counts.items()} == {Fraction(1, 4): 2}


# ---------------------------------------------------------------------------
# unimodular structure


def test_zn_classification_and_theta():
    L = zn(4)
    assert check_unimodular(L) == "odd"
    assert min_norm(L) == 1
    t = theta_by_enumeration(L, 3)
    # r4(m): 8 sum of divisors not divisible by 4
    assert [t.coeff(4 * m) for m in range(4)] == [1, 8, 24, 32]


def test_e8_even_unimodular():
    L = e8_lattice()
    assert check_unimodular(L) == "even"
    assert L.det() == 1
    t = theta_by_enumeration(L, 4)
    assert t.coeff(4) == 0 and t.coeff(8) == 240 and t.coeff(16) == 2160


def test_check_unimodular_rejections():
    assert check_unimodular(Lattice([[2]])).startswith("not-unimodular(det")
    assert check_unimodular(Lattice([[Fraction(1, 2)]])).startswith(
        "not-unimodular(non-integral"
    )
    for gram in ([[1, 2], [2, 1]],  # det -3
                 [[1, 1], [1, 1]],  # det 0
                 [[-1]],
                 [[2, 1, 0], [1, 1, 0], [0, 0, -1]]):  # det -1, indefinite
        assert check_unimodular(Lattice(gram)) == "not-unimodular(not positive definite)"


def _sheared(rng, g):
    """u g u^T for a random unimodular u, a product of row additions."""
    n = len(g)
    u = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        q = rng.choice((-2, -1, 1, 2))
        if i != j:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return matmul(matmul(u, g), transpose(u))


def _random_symmetric_gram(rng, n):
    """An integer symmetric matrix of one of three kinds: unconstrained
    (often indefinite), a a^T + shift (positive definite, any det), or a
    sheared Z^n or E8 (det 1)."""
    kind = rng.randrange(3)
    if kind == 0:
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        return [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == 1:
        a = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        g = matmul(a, transpose(a))
        for i in range(n):
            g[i][i] += rng.randrange(0, 3)
        return g
    return _sheared(rng, e8_lattice().int_gram[1] if n == 8 else identity(n))


def test_check_unimodular_matches_det_and_lll_oracle():
    # one Gram-Schmidt pass gives the verdict that LLL's positive
    # definiteness gate and the Bareiss determinant give
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        n = rng.randrange(1, 9)
        g = _random_symmetric_gram(rng, n)
        L = Lattice(g)
        try:
            lll_reduce_gram(g)
        except ValueError:
            want = "not-unimodular(not positive definite)"
        else:
            det = L.det()
            if det != 1:
                want = f"not-unimodular(det={det})"
            else:
                want = "odd" if any(g[i][i] % 2 for i in range(n)) else "even"
        assert check_unimodular(L) == want
        seen.add(want.split("=")[0])
    assert seen == {"not-unimodular(not positive definite)", "not-unimodular(det",
                    "odd", "even"}


def test_int_forms_are_kept_from_the_constructor():
    gens = [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 3)]]
    L = Lattice(matmul(gens, transpose(gens)), gens=gens)
    dg, gi = L.int_gram
    assert dg == 36 and gi == [[13, 4], [4, 4]]
    assert L.int_gens == (6, [[3, 2], [0, 2]])
    assert L.det() == Fraction(13 * 4 - 4 * 4, 36 ** 2) and not L.is_integral()
    assert zn(2).int_gram == (1, identity(2)) and zn(2).is_integral()
    assert Lattice([[2]]).int_gens is None


def _random_rational_forms(rng, n, integral):
    """(gram, gens, scale) with gram = scale gens gens^T, for random
    generators over small denominators (or integer ones when integral)."""
    dens = (1,) if integral else (1, 2, 3, 4, 6)
    gens = [[Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n + 1)]
            for _ in range(n)]
    scale = Fraction(1) if integral else Fraction(rng.randint(1, 5), rng.choice(dens))
    gram = [[scale * x for x in row] for row in matmul(gens, transpose(gens))]
    return gram, gens, scale


def _int_forms(rng, m):
    """m as (d, k d m) for the lcm d of its denominators and a random k >= 1:
    integer forms in any terms."""
    den, mi = clear_denominators(m)
    k = rng.randint(1, 6)
    return den * k, [[k * x for x in row] for row in mi]


def test_from_ints_matches_the_rational_constructor():
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(1, 6)
        gram, gens, scale = _random_rational_forms(rng, n, integral=trial % 3 == 0)
        for with_gens in (False, True):
            R = Lattice(gram, gens=gens if with_gens else None, scale_sq=scale, name="R")
            I = Lattice.from_ints(_int_forms(rng, gram),
                                  _int_forms(rng, gens) if with_gens else None,
                                  scale_sq=scale, name="R")
            assert "gram" not in vars(I) and "gens" not in vars(I)  # views are lazy
            assert I.int_gram == R.int_gram == clear_denominators(gram)
            assert I.int_gens == R.int_gens
            assert I.int_gens == (clear_denominators(gens) if with_gens else None)
            assert I.is_integral() == R.is_integral()
            assert I.is_integral() == all(x.denominator == 1 for row in gram for x in row)
            assert I.det() == R.det() == det_frac(gram)
            assert I.gram == R.gram == gram and I.gram is I.gram
            assert I.gens == R.gens == (gens if with_gens else None)
            assert (I.dim, I.scale_sq, I.name) == (R.dim, R.scale_sq, R.name)


def test_from_ints_lowers_a_doubled_gram():
    # an even doubled Gram over 2 is integral; the doubling builds its
    # lattices this way
    L = Lattice.from_ints((2, [[4, 2], [2, 2]]), (2, [[2, 2], [0, 2]]))
    assert L.int_gram == (1, [[2, 1], [1, 1]]) and L.is_integral()
    assert L.int_gens == (1, [[1, 1], [0, 1]]) and L.det() == 1
    assert check_unimodular(L) == "odd"
    assert Lattice.from_ints((6, [[3, 0], [0, 9]])).int_gram == (2, [[1, 0], [0, 3]])


@pytest.mark.parametrize("gram, gens, scale", [
    ([], None, 1),  # dimension 0
    ([[1, 0]], None, 1),  # not square
    ([[1, 2], [3, 1]], None, 1),  # not symmetric
    ([[1, 0, 0], [0, 1, 5], [0, 4, 1]], None, 1),
    ([[1]], None, 0),  # scale
    ([[1]], None, -2),
    ([[1, 0], [0, 1]], [[1, 0]], 1),  # generator count
    ([[2, 0], [0, 1]], [[1, 0], [0, 1]], 1),  # gram mismatch
    ([[2, 1], [1, 2]], [[1, 1], [0, 1]], 2),
    ([[Fraction(1, 2)]], [[1]], Fraction(1, 3)),
    ([[1, 0], [0, 1]], [[1, 0], [0]], 1),  # ragged generators
    ([[0]], [[]], 1),  # empty generator rows
], ids=["dim0", "square", "symmetric", "symmetric3", "scale0", "scale-", "gen-count",
        "mismatch", "mismatch2", "mismatch3", "ragged", "empty-gens"])
def test_from_ints_rejects_what_the_rational_constructor_rejects(gram, gens, scale):
    with pytest.raises(ValueError) as rational:
        Lattice(gram, gens=gens, scale_sq=scale)
    dg, gi = clear_denominators(mat_frac(gram))
    igens = None if gens is None else clear_denominators(mat_frac(gens))
    with pytest.raises(ValueError) as integer:
        Lattice.from_ints((3 * dg, [[3 * x for x in row] for row in gi]), igens, scale_sq=scale)
    assert str(integer.value) == str(rational.value)


def test_from_ints_rejects_a_bad_denominator():
    for den in (0, -1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            Lattice.from_ints((den, [[1]]))


def test_sublattice_matches_the_rational_products():
    gens = [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 3)]]
    gram = [[3 * x for x in row] for row in matmul(gens, transpose(gens))]
    L = Lattice(gram, gens=gens, scale_sq=3, name="L")
    rows = [[2, 1], [0, 3]]
    for div in (1, 2, 3):
        S = sublattice(L, rows, div=div, name="S")
        r = [[Fraction(x, div) for x in row] for row in rows]
        assert S.gram == matmul(matmul(r, L.gram), transpose(r))
        assert S.gens == matmul(r, L.gens)
        assert S.scale_sq == 3 and S.name == "S"
    assert sublattice(Lattice([[2, 1], [1, 2]]), [[1, 1]]).gram == [[6]]
    # even_sublattice is the sublattice on the even coordinates
    E = even_sublattice(zn(3))
    assert E.gram == sublattice(zn(3), lattice._even_coords(zn(3))).gram
    assert E.name == "Z3_0"


def test_even_sublattice_index_two():
    L = zn(3)
    L0 = even_sublattice(L)
    assert L0.det() == 4
    counts = enumerate_short(L0, 4)
    assert all(k % 2 == 0 for k in counts)
    # index 2: even-norm vectors of L are exactly the vectors of L0
    full = enumerate_short(L, 4)
    assert all(counts.get(k, 0) == v for k, v in full.items() if k % 2 == 0)


def test_shadow_of_zn_is_half_integer_grid():
    for n in range(1, 6):
        s = shadow_by_enumeration(zn(n), 3)
        expect = theta2(s.trunc) ** n
        assert s.agrees_with(expect, upto=min(s.trunc, expect.trunc))


def _shadow_offsets_by_inverse(L):
    """The two shadow offsets t = v E^-1 for v = w/2 and w/2 + e_p, with E
    L0's basis rows, E^-1 a Fraction inverse, w = G^-1 diag(G) mod 2 read
    off the rational inverse of G and p the first odd diagonal entry."""
    g = L.gram
    n = L.dim
    ginv = mat_inverse(g)
    w = [sum(ginv[i][j] * g[j][j] for j in range(n)) % 2 for i in range(n)]
    p = next(i for i in range(n) if g[i][i] % 2)
    einv = mat_inverse(lattice._even_coords(L))
    v1 = [x / 2 for x in w]
    v2 = [x + (i == p) for i, x in enumerate(v1)]
    return [[sum(v[i] * einv[i][j] for i in range(n)) for j in range(n)] for v in (v1, v2)]


def test_shadow_cosets_offsets_match_a_fraction_inverse(rm32_lattice, glue30):
    rng = random.Random(31)
    lattices = [a15_plus_fixture(), build_shave29(), build_shave31(), glue30, rm32_lattice]
    lattices += [Lattice(_sheared(rng, identity(rng.randrange(1, 13)))) for _ in range(40)]
    for L in lattices:
        c1, c2 = shadow_cosets(L)
        assert [c1.offset, c2.offset] == _shadow_offsets_by_inverse(L)


def test_shadow_cosets_structure():
    c1, c2 = shadow_cosets(zn(3))
    assert not c1.is_lattice() and not c2.is_lattice()
    # shadow norms of Z^n lie in n/4 + 2Z
    for c in (c1, c2):
        for norm, cnt in enumerate_short(c, 4).items():
            assert (norm - Fraction(3, 4)) % 2 == 0 and cnt > 0
    with pytest.raises(ValueError):
        shadow_cosets(e8_lattice())  # even lattice has no shadow


# ---------------------------------------------------------------------------
# construction guards and serialization


def test_lattice_constructor_guards():
    with pytest.raises(ValueError):
        Lattice([[1, 0]])  # not square
    with pytest.raises(ValueError):
        Lattice([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        Lattice([[1, 0], [0, 1]], gens=[[1, 0]])  # generator count
    with pytest.raises(ValueError):
        Lattice([[2, 0], [0, 1]], gens=[[1, 0], [0, 1]])  # gram mismatch
    with pytest.raises(ValueError):
        Lattice([[1]], scale_sq=0)
    with pytest.raises(ValueError):
        Lattice([])  # dimension 0


def test_floats_are_rejected():
    # Fraction(0.1) is 3602879701896397 / 2^55, not 1/10: where an exact
    # rational is meant a float is a TypeError, as it is for QSeries
    with pytest.raises(TypeError):
        Lattice([[0.1]])
    with pytest.raises(TypeError):
        Lattice([[1, 0], [0, 1]], gens=[[1.0, 0], [0, 1]])
    with pytest.raises(TypeError):
        Lattice([[1]], scale_sq=0.5)
    with pytest.raises(TypeError):
        Lattice.from_ints((1, [[1]]), scale_sq=0.5)
    with pytest.raises(TypeError):
        Coset(zn(2), [0.5, 0])
    assert Lattice([[Fraction(1, 10)]]).int_gram == (10, [[1]])


def test_json_round_trip():
    for L in (zn(3), e8_lattice(), _random_skewed_lattice(random.Random(2), 3)):
        M = lattice_from_json_dict(lattice_to_json_dict(L))
        assert M.gram == L.gram and M.gens == L.gens and M.scale_sq == L.scale_sq


def test_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        lattice_from_json_dict({"dim": 2, "gram": [["1", "0"]]})
    with pytest.raises(ValueError):
        lattice_from_json_dict({"gram": [["1"]]})
