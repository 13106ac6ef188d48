"""Glue doubling and shave projections, from toy cases to the frozen data."""

import hashlib
import random
from fractions import Fraction

import pytest

from unimodular import constructions, lattice
from unimodular.bounds import fit_from_theta, shadow_theta
from unimodular.codes import code_to_odd_lattice, golay24
from unimodular.constructions import (
    GLUE_A15_T3,
    GLUE_D16_T4,
    GLUE_MAX_TARGET,
    SHAVE_30,
    SHAVE_32,
    GlueMap,
    _bad_finder,
    _coset_minima,
    _flags,
    _image_tables,
    _Mod2Space,
    a15_plus_fixture,
    build_glue30,
    build_shave29,
    build_shave31,
    d16_plus_fixture,
    find_glue,
    find_shave_vector,
    glue_double,
    project_shave,
)
from unimodular.lattice import (
    Lattice,
    check_unimodular,
    enumerate_short,
    even_sublattice,
    min_norm,
    shadow_by_enumeration,
    sublattice,
    theta_by_enumeration,
    verify_min_norm,
    zn,
)
from unimodular.linalg import (
    gf2_inverse,
    hnf_rows,
    hnf_rows_frac,
    int_matmul,
    matmul,
    parity_kernel_basis,
    transpose,
)


# ---------------------------------------------------------------------------
# base fixtures


def test_a15_plus_fixture():
    L = a15_plus_fixture()
    assert L.dim == 15 and L.name == "A15+"
    assert check_unimodular(L) == "odd"
    assert verify_min_norm(L, 2)
    counts = enumerate_short(L, 3)
    assert counts[Fraction(2)] == 240 and counts[Fraction(3)] == 3640


def test_d16_plus_fixture():
    L = d16_plus_fixture()
    assert L.dim == 16 and L.name == "D16+"
    assert check_unimodular(L) == "even"
    assert verify_min_norm(L, 2)
    assert enumerate_short(L, 2)[Fraction(2)] == 480


def test_a15_plus_shadow_consistency():
    # enumerated shadow vs the shadow attached to the theta fit
    L = a15_plus_fixture()
    fit = fit_from_theta(15, theta_by_enumeration(L, 3))
    s_enum = shadow_by_enumeration(L, 3)
    s_fit = shadow_theta(15, fit, s_enum.trunc)
    assert s_enum.agrees_with(s_fit, upto=min(s_enum.trunc, s_fit.trunc))


# ---------------------------------------------------------------------------
# doubling on small lattices


def test_identity_glue_for_trivial_target():
    g = find_glue(zn(4), 1)
    assert g is not None and g.images == (1, 2, 4, 8) and g.target == 1
    M = glue_double(zn(4), g)
    assert M.dim == 8 and check_unimodular(M) == "odd" and min_norm(M) == 1


def test_glue_double_of_z1():
    M = glue_double(zn(1), (1,))
    assert M.dim == 2 and check_unimodular(M) == "odd" and min_norm(M) == 1


def test_glue_double_rejects_bad_maps():
    with pytest.raises(ValueError):
        glue_double(zn(2), (1, 1))  # not a bijection mod 2
    with pytest.raises(ValueError):
        glue_double(zn(2), (3, 2))  # e0 -> e0+e1 changes the norm parity
    with pytest.raises(ValueError):
        glue_double(zn(2), (1,))  # wrong length
    # on an even lattice, t_v with q(v) = 0 keeps B but not q
    D = d16_plus_fixture()
    space = _Mod2Space(D)
    v = next(c for c in range(1, 1 << space.m) if space.q_of(c) == 0)
    sigma = [1 << i for i in range(space.m)]
    space.apply_transvection(sigma, v)
    assert all(space.b(sigma[i], sigma[j]) == space.b(1 << i, 1 << j)
               for i in range(space.m) for j in range(space.m))
    with pytest.raises(ValueError):
        glue_double(D, sigma)


def test_glue_map_json():
    g = GlueMap(2, 1, (1, 2))
    assert g.to_json_dict() == {"dim": 2, "target": 1, "images": [1, 2]}


def test_find_glue_fails_on_impossible_target():
    # minimal norm 4 in dimension 30 is impossible, so no map can exist
    A = a15_plus_fixture()
    assert find_glue(A, 4, seed=1) is None


def test_find_glue_rejects_a_base_too_large_for_its_tables():
    with pytest.raises(ValueError, match="at most 20"):
        find_glue(zn(21))


def test_find_glue_reproduces_frozen_map():
    assert find_glue(a15_plus_fixture(), 3, seed=0).images == GLUE_A15_T3


def test_find_glue_rejects_a_target_its_byte_tables_cannot_hold():
    # the coset minima are capped at 2*target - 2 and kept in 7 bits of a
    # key byte; a larger target is refused before any walk
    L = a15_plus_fixture()
    with pytest.raises(ValueError, match="target of at most %d, not 200" % GLUE_MAX_TARGET):
        find_glue(L, 200)
    with pytest.raises(ValueError, match="not %d" % (GLUE_MAX_TARGET + 1)):
        find_glue(L, GLUE_MAX_TARGET + 1)
    assert L._reduced is None
    # with no target, the search descends from 2*min(L): refused before the
    # class walk when that start is too large
    big = Lattice([[2 * GLUE_MAX_TARGET]])
    with pytest.raises(ValueError, match="not %d" % (4 * GLUE_MAX_TARGET)):
        find_glue(big)


def test_find_glue_rejects_a_target_below_1():
    # every target up to min(L) returns the identity map, so 0 and -5 were
    # "found" without a check; they are refused before any walk
    L = a15_plus_fixture()
    for low in (0, -5):
        with pytest.raises(ValueError, match="target of at least 1, not %d" % low):
            find_glue(L, low)
    assert L._reduced is None


def test_find_glue_outputs_are_pinned():
    # the search's RNG sequence, tables and partner order, over four cases
    # and fourteen seeds each, pinned by one digest of (target, images)
    out = []
    for build, target in ((a15_plus_fixture, 3), (d16_plus_fixture, 4),
                          (a15_plus_fixture, None), (d16_plus_fixture, None)):
        L = build()
        for seed in range(14):
            g = find_glue(L, target, seed=seed)
            out.append(None if g is None else (g.target, g.images))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "4da1c6f2bb22539c690827c61391526754e865a09465f3090c0d62f248b4d6d0"


def test_partner_flags_match_the_class_scan():
    # a partner list is the classes y with q(y) = a and m1(y) >= r, read off
    # one key byte per class, in ascending y
    L = d16_plus_fixture()
    space = _Mod2Space(L)
    mt = _coset_minima(L, 5, 6)
    keys = bytes(x | qc << 7 for x, qc in zip(mt, space.q))
    for a in (0, 1):
        for r in range(8):
            want = [y for y in range(1 << space.m) if space.q[y] == a and mt[y] >= r]
            assert list(_flags(keys, lambda b: b >> 7 == a and b & 127 >= r)) == want


def _apply(images, c):
    """A GF(2)-linear map applied to one class, bit by bit."""
    out = 0
    for i, img in enumerate(images):
        if c >> i & 1:
            out ^= img
    return out


def test_gf2_inverse_round_trip():
    rng = random.Random(55)
    for m in (1, 2, 7, 15, 16):
        for _ in range(5):
            images = [1 << i for i in range(m)]
            for _ in range(4 * m):  # random row operations keep it invertible
                i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
                if i != j:
                    images[i] ^= images[j]
            inv = gf2_inverse(images)
            for i in range(m):
                assert _apply(images, inv[i]) == 1 << i
                assert _apply(inv, images[i]) == 1 << i
            classes = [rng.randrange(1 << m) for _ in range(50)]
            lo, hi = _image_tables(images)
            h = (m + 1) // 2
            assert [lo[c & ((1 << h) - 1)] ^ hi[c >> h] for c in classes] == \
                [_apply(images, c) for c in classes]
    with pytest.raises(ValueError):
        gf2_inverse([1, 2, 3])


@pytest.mark.parametrize("build, tgt", [(a15_plus_fixture, 3), (a15_plus_fixture, 4),
                                        (d16_plus_fixture, 4)])
def test_low_class_bad_set_matches_full_scan(build, tgt):
    # the search scores only the low classes; a full scan applies sigma to
    # every class
    L = build()
    space = _Mod2Space(L)
    m, need = space.m, 2 * tgt
    mt = _coset_minima(L, need - 3, need - 2)
    bad_classes = _bad_finder(mt, need)
    rng = random.Random(tgt)
    sigma = [1 << i for i in range(m)]
    sizes = []
    for _ in range(6):
        assert space.is_isometry(sigma)
        img = [0]
        for e in sigma:
            img += [x ^ e for x in img]
        full = [c for c in range(1, 1 << m) if mt[c] + mt[img[c]] < need]
        assert bad_classes(sigma) == full
        sizes.append(len(full))
        for _ in range(3):
            v = rng.randrange(1, 1 << m)
            if space.q[v] == space.move_parity:
                space.apply_transvection(sigma, v)
    assert len(set(sizes)) > 2


# ---------------------------------------------------------------------------
# the integer builds against the rational formulas


def _doubling_oracle(L, images):
    """The doubling as rationals: gram = basis diag(G, G)/2 basis^T over the
    HNF of the doubled base and glue rows, gens = [B_l gens | B_r gens]."""
    m = L.dim
    rows = []
    for i in range(m):
        rows.append([2 if j == i else 0 for j in range(2 * m)])
        rows.append([2 if j == m + i else 0 for j in range(2 * m)])
    for i in range(m):
        rows.append([1 if j == i else 0 for j in range(m)]
                    + [images[i] >> j & 1 for j in range(m)])
    basis = hnf_rows(rows)
    zero = [Fraction(0)] * m
    metric = ([[x / 2 for x in row] + zero for row in L.gram]
              + [zero + [x / 2 for x in row] for row in L.gram])
    gram = matmul(matmul(basis, metric), transpose(basis))
    left = matmul([r[:m] for r in basis], L.gens)
    right = matmul([r[m:] for r in basis], L.gens)
    gens = [a + b for a, b in zip(left, right)]
    return gram, gens, L.scale_sq / 2, "double(%s)" % L.name


def _shave_oracle(L, v):
    """The shave as rationals: hnf_rows_frac of the rows k - (k.Gv/4) v over
    the kernel of x.v mod 2, and the Gram in the metric of L."""
    n = L.dim
    gv = [sum(L.gram[i][j] * v[j] for j in range(n)) for i in range(n)]
    kernel = parity_kernel_basis([int(x) % 2 for x in gv], n)
    rows = []
    for k in kernel:
        coeff = sum(a * b for a, b in zip(k, gv)) / 4
        rows.append([x - coeff * w for x, w in zip(k, v)])
    basis = hnf_rows_frac(rows)
    gram = matmul(matmul(basis, L.gram), transpose(basis))
    return gram, matmul(basis, L.gens), L.scale_sq, "shave(%s)" % L.name


def _assert_same(M, oracle):
    gram, gens, scale_sq, name = oracle
    assert M.gram == gram and M.gens == gens
    assert (M.scale_sq, M.name) == (scale_sq, name)


def _random_isometry(L, rng):
    space = _Mod2Space(L)
    sigma = [1 << i for i in range(space.m)]
    for _ in range(4 * space.m):
        v = rng.randrange(1, 1 << space.m)
        if space.q[v] == space.move_parity:
            space.apply_transvection(sigma, v)
    return sigma


def test_glue_double_matches_rational_formula():
    for build, tgt in ((a15_plus_fixture, 3), (d16_plus_fixture, 4)):
        L = build()
        for seed in range(8):
            images = find_glue(L, tgt, seed=seed).images
            _assert_same(glue_double(L, images), _doubling_oracle(L, images))
    rng = random.Random(10)
    for n in (4, 6):
        L = zn(n)
        for _ in range(6):
            images = _random_isometry(L, rng)
            _assert_same(glue_double(L, images), _doubling_oracle(L, images))


def _norm4_vectors(L, count, rng, skip):
    """`count` distinct norm-4 vectors other than `skip`, among the basis
    vectors and the sums and differences of two of them."""
    n, g = L.dim, L.gram
    cands = [tuple(int(k == i) for k in range(n)) for i in range(n) if g[i][i] == 4]
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                if g[i][i] + g[j][j] + 2 * s * g[i][j] == 4:
                    cands.append(tuple(1 if k == i else s if k == j else 0
                                       for k in range(n)))
    return rng.sample([c for c in cands if c != skip], count)


def test_project_shave_matches_rational_formula(glue30, glue32):
    rng = random.Random(11)
    cases = [(zn(4), v) for v in ((1, 1, 1, 1), (2, 0, 0, 0), (1, -1, 1, -1), (0, 0, -2, 0))]
    for L, frozen in ((glue30, SHAVE_30), (glue32, SHAVE_32)):
        cases += [(L, v) for v in _norm4_vectors(L, 8, rng, frozen) + [frozen]]
    for L, v in cases:
        assert L.norm_of(v) == 4
        _assert_same(project_shave(L, v), _shave_oracle(L, v))


def _random_integral_lattice(seed, n, even):
    """A random symmetric integer Gram (not necessarily definite), with an
    even diagonal when even, and at least one odd diagonal entry if not."""
    rng = random.Random(seed)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
        if even:
            g[i][i] = 2 * rng.randint(-2, 2)
    if not even:
        i = rng.randrange(n)
        g[i][i] = 2 * rng.randint(-2, 2) + 1
    return Lattice(g)


def random_even_7():
    return _random_integral_lattice(1, 7, even=True)


def random_even_9():
    return _random_integral_lattice(2, 9, even=True)


def random_odd_6():
    return _random_integral_lattice(3, 6, even=False)


def random_odd_10():
    return _random_integral_lattice(4, 10, even=False)


@pytest.mark.parametrize("build", [a15_plus_fixture, d16_plus_fixture, lambda: zn(5),
                                   random_even_7, random_even_9, random_odd_6, random_odd_10])
def test_direct_norm_form_matches_table(build):
    L = build()
    space = _Mod2Space(L)
    assert space.even == all(L.int_gram[1][i][i] % 2 == 0 for i in range(L.dim))
    assert space.is_isometry([1 << i for i in range(space.m)])
    assert "q" not in vars(space)  # the isometry check never builds the table
    assert type(space.q) is bytes and len(space.q) == 1 << space.m
    assert [space.q_of(c) for c in range(1 << space.m)] == list(space.q)


def _b_by_rows(space, x, v):
    """B(x, v) mod 2 as the sum of B(e_i, v) over the bits i of x."""
    return sum((row & v).bit_count() for i, row in enumerate(space.brows) if x >> i & 1) & 1


@pytest.mark.parametrize("build", [a15_plus_fixture, d16_plus_fixture, random_even_7,
                                   random_odd_6])
def test_bilinear_masks_match_the_row_loop(build):
    # B(x, v) is the parity of x & bmask(v); is_isometry compares one mask
    # per image with the rows of B, so it agrees with the pairwise form
    L = build()
    space = _Mod2Space(L)
    m = space.m
    rng = random.Random(m)
    for _ in range(200):
        x, v = rng.randrange(1 << m), rng.randrange(1 << m)
        assert space.b(x, v) == _b_by_rows(space, x, v)
    broken = 0
    for _ in range(20):
        sigma = _random_isometry(L, rng)
        assert space.is_isometry(sigma)
        # a random row operation keeps the map invertible and may break B or q
        i, j = rng.sample(range(m), 2)
        other = sigma[:i] + [sigma[i] ^ sigma[j]] + sigma[i + 1:]
        pairwise = all(space.q_of(other[k]) == space.q_of(1 << k) for k in range(m)) and all(
            _b_by_rows(space, other[k], other[l]) == _b_by_rows(space, 1 << k, 1 << l)
            for k in range(m) for l in range(m))
        assert space.is_isometry(other) == pairwise
        broken += not pairwise
    assert broken > 0


@pytest.mark.parametrize("build", [a15_plus_fixture, d16_plus_fixture, build_glue30,
                                   build_shave29, lambda: code_to_odd_lattice(golay24())],
                         ids=["A15+", "D16+", "glue30", "shave29", "leech"])
def test_builds_make_no_fraction_matrix(build):
    # the builds hand Lattice its integer forms; the Fraction views wait
    # for a reader
    L = build()
    assert "gram" not in vars(L) and "gens" not in vars(L)
    assert L.is_integral() and L.det() == 1
    dG, Gi = L.int_gens
    assert L.gens == [[Fraction(x, dG) for x in row] for row in Gi]


def _fraction_gram(L):
    """scale_sq gens gens^T by a plain Fraction triple loop."""
    gens = L.gens
    n, width = len(gens), len(gens[0])
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = Fraction(0)
            for k in range(width):
                s += gens[i][k] * gens[j][k]
            gram[i][j] = L.scale_sq * s
    return gram


def _without_gens(L):
    """L's Gram alone: a build on it multiplies out R G R^T."""
    return Lattice.from_ints(L.int_gram, scale_sq=L.scale_sq, name=L.name)


def test_grams_from_generators_match_a_fraction_oracle(leech_lattice, rm32_lattice,
                                                       glue30, glue32):
    # every build whose base has generators makes its Gram from them
    a15, d16 = a15_plus_fixture(), d16_plus_fixture()
    shave29, shave31 = project_shave(glue30, SHAVE_30), project_shave(glue32, SHAVE_32)
    built = [leech_lattice, rm32_lattice, a15, d16, glue30, glue32, shave29, shave31,
             even_sublattice(a15)]
    for L in built:
        assert L.int_gens is not None
        assert L.gram == _fraction_gram(L), L.name
    # the doubling and the sublattice builder agree with R G R^T, the
    # route of a base without generators
    for base, images, L in ((a15, GLUE_A15_T3, glue30), (d16, GLUE_D16_T4, glue32)):
        M = glue_double(_without_gens(base), images, name=L.name)
        assert M.int_gens is None and M.int_gram == L.int_gram
    for base, v, L in ((glue30, SHAVE_30, shave29), (glue32, SHAVE_32, shave31)):
        assert project_shave(_without_gens(base), v).int_gram == L.int_gram
    assert even_sublattice(_without_gens(a15)).int_gram == even_sublattice(a15).int_gram
    rng = random.Random(25)
    for L in (a15, d16, glue30):
        rows = [[rng.randint(-2, 2) for _ in range(L.dim)] for _ in range(L.dim)]
        for div in (1, 2, 3):
            assert (sublattice(L, rows, div).int_gram
                    == sublattice(_without_gens(L), rows, div).int_gram)


def test_generators_that_disagree_with_the_gram_are_refused():
    # a Gram and generators given together are still checked
    L = a15_plus_fixture()
    gens = [row[:] for row in L.gens]
    gens[3][5] += 1
    with pytest.raises(ValueError, match="generators do not match gram"):
        Lattice(L.gram, gens=gens, scale_sq=L.scale_sq)
    dG, Gi = L.int_gens
    Gi = [row[:] for row in Gi]
    Gi[0][0] += 1
    with pytest.raises(ValueError, match="generators do not match gram"):
        Lattice.from_ints(L.int_gram, (dG, Gi), scale_sq=L.scale_sq)


def test_gram_from_generators_is_one_product(monkeypatch):
    # from generators alone the Gram is one product and is not re-checked;
    # given both, the check is one product
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return int_matmul(a, b)

    monkeypatch.setattr(lattice, "int_matmul", counted)
    gens = (4, [[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    L = Lattice.from_ints(None, gens, scale_sq=Fraction(2, 3))
    assert calls == [3]
    assert L.gram == _fraction_gram(L)
    assert Lattice.from_ints(L.int_gram, gens, scale_sq=Fraction(2, 3)).int_gram == L.int_gram
    assert calls == [3, 3]


# ---------------------------------------------------------------------------
# the frozen 30- and 32-dimensional doublings


def test_glue30_structure(glue30):
    assert glue30.dim == 30 and glue30.name == "glue30"
    assert check_unimodular(glue30) == "odd"
    assert verify_min_norm(glue30, 3)
    assert glue30.norm_of(SHAVE_30) == 4


def test_glue32_structure(glue32):
    assert glue32.dim == 32 and glue32.name == "glue32"
    assert check_unimodular(glue32) == "even"
    assert glue32.norm_of(SHAVE_32) == 4
    # full minimal-norm verification runs in the acceptance suite


def test_frozen_d16_map_is_accepted():
    # glue_double validates the mod-2 isometry property on construction
    assert len(GLUE_D16_T4) == 16
    M = glue_double(d16_plus_fixture(), GLUE_D16_T4)
    assert M.dim == 32 and M.det() == 1


# ---------------------------------------------------------------------------
# shaving


def test_project_shave_small_cases():
    L3 = project_shave(zn(4), (1, 1, 1, 1))
    assert L3.dim == 3 and check_unimodular(L3) == "odd" and min_norm(L3) == 1
    L3 = project_shave(zn(4), (2, 0, 0, 0))
    assert L3.dim == 3 and check_unimodular(L3) == "odd" and min_norm(L3) == 1
    assert L3.name == "shave(Z4)"


def test_project_shave_guards():
    with pytest.raises(ValueError):
        project_shave(zn(4), (1, 0, 0, 0))  # norm 1
    with pytest.raises(ValueError):
        project_shave(zn(4), (1, 1, 1))  # wrong length
    half = Lattice([[4, Fraction(1, 2)], [Fraction(1, 2), 1]])
    assert half.norm_of((1, 0)) == 4
    with pytest.raises(ValueError, match="integral lattice"):
        project_shave(half, (1, 0))  # x.v is not an integer


def test_project_shave_rejects_non_integral_coordinates():
    # int() once truncated both to (2, 0, 0, 0), a valid shave vector of Z4
    for v in ((Fraction(5, 2), 0, 0, 0), (2.7, 0, 0, 0)):
        with pytest.raises(ValueError, match="integer coordinates"):
            project_shave(zn(4), v)
    # an integral Fraction is an integer coordinate
    assert (project_shave(zn(4), (Fraction(2), 0, 0, 0)).int_gram
            == project_shave(zn(4), (2, 0, 0, 0)).int_gram)


def test_find_shave_vector_on_z4():
    v = find_shave_vector(zn(4), 1)
    assert v is not None and zn(4).norm_of(v) == 4
    assert min_norm(project_shave(zn(4), v)) >= 1


def test_find_shave_vector_on_the_doubled_lattices(glue30, glue32, monkeypatch):
    # the walk to norm 4 runs for minutes on these; a basis vector or a sum
    # of two is taken before it starts
    def no_walk(*args, **kwargs):
        raise AssertionError("find_shave_vector walked to norm 4")

    monkeypatch.setattr(constructions, "enumerate_short", no_walk)
    for L in (glue30, glue32):
        v = find_shave_vector(L, 3)
        assert v is not None and L.norm_of(v) == 4
        assert min_norm(project_shave(L, v)) >= 3


def test_shave29_structure(glue30):
    L = project_shave(glue30, SHAVE_30)
    assert L.dim == 29
    assert check_unimodular(L) == "odd"
    assert L.det() == 1


def test_shave31_structure(glue32):
    L = project_shave(glue32, SHAVE_32)
    assert L.dim == 31
    assert check_unimodular(L) == "odd"
    assert L.det() == 1


def test_shave_builders_compose():
    L29 = build_shave29()
    assert (L29.dim, L29.name) == (29, "shave29")
    assert check_unimodular(L29) == "odd"
    L31 = build_shave31()
    assert (L31.dim, L31.name) == (31, "shave31")
    assert check_unimodular(L31) == "odd"
