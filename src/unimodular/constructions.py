"""Explicit unimodular lattices built by gluing and projection.

Two ways to manufacture optimal lattices in dimensions where no classical
lattice is at hand:

  * doubling: given a unimodular lattice L of dimension m and a map sigma
    of L/2L preserving the mod-2 bilinear form and norm parity, the span
    of sqrt(1/2)*(2L + 2L) and the diagonal classes (u, sigma u)/sqrt2 is
    a unimodular lattice of dimension 2m; its minimal norm is governed by
    the coset minima m1(c) = min{|x|^2 : x = c mod 2L}, and `find_glue`
    searches the orthogonal group of L/2L for a sigma pairing every class
    with a partner so that m1(u) + m1(sigma u) stays large;

  * shaving: projecting the sublattice {x : x.v even} of a unimodular
    lattice along a norm-4 vector v yields a unimodular lattice one
    dimension lower, losing at most 1 from the minimal norm.

Both builds, and the fixtures A15+ and D16+, run on integer matrices: the
HNF of integer rows and the integer forms that are a `Lattice`'s state
(`int_gram`, `int_gens`).  The result's forms go to `Lattice.from_ints`,
so no Fraction matrix is made; the shave is a `sublattice` of L.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from math import prod
from operator import mul, xor

from .lattice import (
    Lattice,
    class_minima,
    enumerate_short,
    has_vector_below,
    min_norm,
    sublattice,
)
from .linalg import (
    gf2_inverse,
    hnf_rows,
    int_matmul,
    parity_kernel_basis,
    transpose,
)

# ---------------------------------------------------------------------------
# fixture lattices


def _a15_roots() -> list[list[int]]:
    """The simple roots e_i - e_(i+1) of A15 in Z^16."""
    return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(16)] for i in range(15)]


def a15_plus_fixture() -> Lattice:
    """The 15-dimensional odd unimodular lattice A15+ (minimal norm 2).

    A15 = {x in Z^16 : sum x = 0} has dual quotient Z/16; adjoining the
    order-4 glue class [4] = ((1/4)^12, (-3/4)^4) cuts the determinant
    from 16 to 1.
    """
    glue = [1] * 12 + [-3] * 4  # 4 times the glue class
    rows = [[4 * x for x in r] for r in _a15_roots()] + [glue]
    return _span_lattice(rows, 4, 15, name="A15+")


def d16_plus_fixture() -> Lattice:
    """The 16-dimensional even unimodular lattice D16+ (minimal norm 2).

    D16 = {x in Z^16 : sum x even} plus the halfspin class (1/2)^16.
    """
    rows = [[2 * x for x in r] for r in _a15_roots() + [[1, 1] + [0] * 14]] + [[1] * 16]
    return _span_lattice(rows, 2, 16, name="D16+")


def _span_lattice(rows, den: int, dim: int, name: str) -> Lattice:
    """The lattice spanned by the rows / den, for integer rows of rank dim:
    with H the HNF of the rows, its generators are H / den, from which
    `Lattice.from_ints` makes its Gram H H^T / den^2."""
    basis = hnf_rows(rows)
    assert len(basis) == dim
    return Lattice.from_ints(None, (den, basis), name=name)


# ---------------------------------------------------------------------------
# the quadratic space L/2L


def _int_gram(L: Lattice) -> list[list[int]]:
    """The Gram matrix of L as ints; ValueError when some entry is not an
    integer."""
    if not L.is_integral():
        raise ValueError("doubling and shaving need an integral lattice")
    return L.int_gram[1]


#: bytes.translate table swapping the bytes 0 and 1
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """The bytewise xor of two byte strings of one length, as one big-int
    xor."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


class _Mod2Space:
    """Bitmask model of (L/2L, bilinear form B, norm form q).

    Classes are integers whose bit i is the coefficient of basis vector i
    mod 2.  For an odd lattice q(c) = |x|^2 mod 2 (a linear form); for an
    even lattice q(c) = |x|^2/2 mod 2 (a genuine quadratic form).  `q_of`
    reads q(c) off the integer Gram; `q` is the table over all 2^m
    classes as bytes, built on first use by doubling.  The transvection
    t_v : x -> x + B(x,v) v preserves both forms exactly when q(v) = 0
    (odd case) or q(v) = 1 (even case).
    """

    def __init__(self, L: Lattice):
        g = _int_gram(L)
        m = L.dim
        self.g = g
        self.m = m
        self.brows = [sum((g[i][j] & 1) << j for j in range(m)) for i in range(m)]
        self.even = all(g[i][i] % 2 == 0 for i in range(m))
        self.move_parity = 1 if self.even else 0

    def q_of(self, c: int) -> int:
        """q(c) for one class: |x|^2 mod 2, or |x|^2/2 mod 2 when L is even,
        x the sum of the basis vectors in c."""
        g = self.g
        bits = [i for i in range(self.m) if c >> i & 1]
        if not self.even:
            return sum(g[i][i] for i in bits) & 1
        return (sum(g[i][i] // 2 for i in bits)
                + sum(g[i][j] for k, i in enumerate(bits) for j in bits[k + 1:])) & 1

    @cached_property
    def q(self) -> bytes:
        # q(c + e_i) = q(c) + q(e_i) + B(c, e_i) for c below bit i (the
        # cross term vanishes mod 2 in the odd case): each step doubles the
        # table, its new half the old one xor the table of B(c, e_i) over
        # c < 2^i, flipped when q(e_i) = 1; that parity table doubles too,
        # each new half the old one, flipped when bit t of row i is set
        g = self.g
        q = b"\x00"
        for i in range(self.m):
            half = q
            if self.even:
                row, par = self.brows[i], b"\x00"
                for t in range(i):
                    par += par.translate(_FLIP) if row >> t & 1 else par
                half = _xor_bytes(q, par)
            if (g[i][i] // 2 if self.even else g[i][i]) & 1:
                half = half.translate(_FLIP)
            q += half
        return q

    def bmask(self, v: int) -> int:
        """The class whose bit i is B(e_i, v), so that B(x, v) is the parity
        of x & bmask(v)."""
        return sum(((row & v).bit_count() & 1) << i for i, row in enumerate(self.brows))

    def b(self, x: int, v: int) -> int:
        return (x & self.bmask(v)).bit_count() & 1

    def apply_transvection(self, sigma_e: list[int], v: int) -> None:
        mask = self.bmask(v)
        for i, e in enumerate(sigma_e):
            if (e & mask).bit_count() & 1:
                sigma_e[i] = e ^ v

    def is_isometry(self, sigma_e: list[int]) -> bool:
        if any(not 0 <= e < 1 << self.m for e in sigma_e):
            return False
        try:
            gf2_inverse(sigma_e)
        except ValueError:
            return False
        masks = [self.bmask(e) for e in sigma_e]
        for i, (e, row) in enumerate(zip(sigma_e, self.brows)):
            if self.q_of(e) != self.q_of(1 << i):
                return False
            for j in range(i, self.m):
                if (e & masks[j]).bit_count() & 1 != row >> j & 1:
                    return False
        return True


def _image_tables(images: list[int]) -> tuple[list[int], list[int]]:
    """The GF(2)-linear map with the given basis images as two tables, one
    over the low h = ceil(m/2) bits of a class and one over the rest:
    sigma(c) = lo[c & (2^h - 1)] ^ hi[c >> h] (two byte tables when
    m = 16)."""
    h = (len(images) + 1) // 2
    lo, hi = [0], [0]
    for table, part in ((lo, images[:h]), (hi, images[h:])):
        for img in part:
            table += [t ^ img for t in table]
    return lo, hi


def _coset_minima(L: Lattice, cutoff: int, cap: int) -> bytearray:
    """m1(c) = min norm in the coset c + 2L, capped at `cap`, for every
    class c, as a byte table over the 2^m classes, from one class walk of
    the vectors of norm <= cutoff.

    Classes not reached by any vector of norm <= cutoff get the cap, which
    must be cutoff + 1, so that capping never overstates a minimum and no
    reached class needs capping, and fit a byte.  The zero class is capped
    too: its true minimum 4*min(L) is accounted for separately by the
    doubled base lattice.
    """
    assert cap == cutoff + 1 and cap < 256
    mt = class_minima(L, cutoff, cap)
    mt[0] = cap
    return mt


def _flags(table: bytes | bytearray, keep) -> array:
    """The indices c of table whose byte b satisfies keep(b), in ascending
    order, as an array('L'): one bytes.translate of the table to 0/1 flags
    and one itertools.compress."""
    return array("L", compress(range(len(table)), table.translate(bytes(map(keep, range(256))))))


def _bad_finder(mt: bytearray, need: int):
    """The function sigma -> sorted nonzero classes c with
    m1(c) + m1(sigma c) < need, for a mod-2 isometry sigma given by its
    basis images.

    A pair sum below need has a summand below need/2, so only the low
    classes (2 m1(c) < need) are scored: the bad set is the low classes c
    with a bad pair together with sigma^-1 of the low classes y with one.
    """
    # the zero class is never low: its byte is the cap 2*target - 2, and
    # target >= 2 wherever a table is scored
    low = _flags(mt, lambda b: 2 * b < need)
    # each low class c with the two halves of its m bits (see _image_tables)
    # and the least m1 of a good partner
    h = len(mt).bit_length() // 2
    scored = [(c, c & ((1 << h) - 1), c >> h, need - mt[c]) for c in low]

    def bad(sigma_e: list[int]) -> list[int]:
        lo, hi = _image_tables(sigma_e)
        found = {c for c, a, b, r in scored if mt[lo[a] ^ hi[b]] < r}
        lo, hi = _image_tables(gf2_inverse(sigma_e))
        found.update([y for _, a, b, r in scored if mt[y := lo[a] ^ hi[b]] < r])
        return sorted(found)

    return bad


@dataclass
class GlueMap:
    """A mod-2 isometry suitable for doubling: images[i] is the class of
    sigma(basis vector i) as a bitmask, and every nonzero class satisfies
    m1(c) + m1(sigma c) >= 2*target."""

    dim: int
    target: int
    images: tuple

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "target": self.target, "images": list(self.images)}


#: the glue search's walk: restarts, and steps per restart
GLUE_RESTARTS = 6
GLUE_MAX_STEPS = 6000
#: the largest base dimension m the glue search takes; its tables have 2^m
#: entries of one byte each
GLUE_MAX_DIM = 20
#: the largest target the glue search takes: a class's key byte holds its
#: coset minimum, capped at 2*target - 2, in 7 bits beside its norm form
GLUE_MAX_TARGET = 64


def _check_target(target: int) -> None:
    if target < 1:
        raise ValueError("glue search takes a target of at least 1, not %d" % target)
    if target > GLUE_MAX_TARGET:
        raise ValueError("glue search takes a target of at most %d, not %d"
                         % (GLUE_MAX_TARGET, target))


def find_glue(L: Lattice, target: int | None = None, seed: int = 0) -> GlueMap | None:
    """Search O(L/2L, B, q) for a doubling map reaching the given minimal
    norm (descending from 2*min(L) when no target is given).

    Random transvection walk with targeted repairs: a class u still paired
    too low is sent onto a partner y with m1(u) + m1(y) large by composing
    with t_v, v = sigma(u) xor y, whenever that v is an admissible
    transvection.  Returns None if every restart stalls.  A base of
    dimension above GLUE_MAX_DIM, or a target below 1 or above
    GLUE_MAX_TARGET, is a ValueError, raised before any 2^m table is built
    and, for a given target, before any walk.
    """
    if L.dim > GLUE_MAX_DIM:
        raise ValueError("glue search takes a base of dimension at most %d, not %d"
                         % (GLUE_MAX_DIM, L.dim))
    if target is not None:
        _check_target(target)
    space = _Mod2Space(L)
    m, q = space.m, space.q
    mu = int(min_norm(L))
    targets = [target] if target is not None else list(range(2 * mu, 0, -1))
    rng = random.Random(seed)
    for tgt in targets:
        if tgt <= mu:
            ident = [1 << i for i in range(m)]
            return GlueMap(m, tgt, tuple(ident))  # every pair sum is >= 2mu
        _check_target(tgt)
        cap = 2 * tgt - 2
        mt = _coset_minima(L, 2 * tgt - 3, cap)
        # one key byte per class: its coset minimum, and its norm form in bit 7
        keys = (int.from_bytes(mt, "little") | int.from_bytes(q, "little") << 7).to_bytes(
            len(mt), "little")
        need = 2 * tgt
        bad_classes = _bad_finder(mt, need)
        partner_lists = {}
        for _ in range(GLUE_RESTARTS):
            sigma_e = [1 << i for i in range(m)]
            for _ in range(2 * m):  # random start inside the group
                v = rng.randrange(1, 1 << m)
                if q[v] == space.move_parity:
                    space.apply_transvection(sigma_e, v)
            stall = 0
            best = None
            for _ in range(GLUE_MAX_STEPS):
                bad = bad_classes(sigma_e)
                score = len(bad)
                if score == 0:
                    assert space.is_isometry(sigma_e)
                    return GlueMap(m, tgt, tuple(sigma_e))
                if best is None or score < best:
                    best, stall = score, 0
                else:
                    stall += 1
                    if stall > 400:
                        break
                x = bad[rng.randrange(score)]
                key = (q[x], need - mt[x])
                if key not in partner_lists:
                    # the classes y with q(y) = q(x) and m1(y) >= need - m1(x)
                    partner_lists[key] = _flags(keys, lambda b, a=key[0], r=key[1]:
                                                b >> 7 == a and b & 127 >= r)
                partners = partner_lists[key]
                img_x = reduce(xor, (e for i, e in enumerate(sigma_e) if x >> i & 1), 0)
                moved = False
                if partners:
                    for _ in range(8):
                        y = partners[rng.randrange(len(partners))]
                        v = img_x ^ y
                        if v and q[v] == space.move_parity and space.b(img_x, v) == 1:
                            space.apply_transvection(sigma_e, v)
                            moved = True
                            break
                if not moved:
                    for _ in range(32):
                        v = rng.randrange(1, 1 << m)
                        if q[v] == space.move_parity:
                            space.apply_transvection(sigma_e, v)
                            break
    return None


# ---------------------------------------------------------------------------
# doubling


def glue_double(L: Lattice, glue, name: str | None = None) -> Lattice:
    """Double L against a mod-2 isometry into a 2m-dimensional unimodular
    lattice containing sqrt2*(L + L) with glue classes (u, sigma u)/sqrt2.

    `glue` is a GlueMap or a sequence of m basis-image bitmasks.  The
    coordinates below carry the inner product (1/2) * diag(G, G), so the
    doubled base rows 2e_i have norm 2 G_ii and the glue rows (e_i, sigma
    e_i) have norm (G_ii + |sigma e_i|^2)/2.

    Everything runs on ints: the HNF basis B = [B_l | B_r] of the glue
    rows and the rows (0, 2e_j), which span the doubled base too, the
    integer Gram G and the cleared generators `L.int_gens` = (dG, Gi).
    When L has generators, the doubled lattice's are [B_l Gi | B_r Gi] / dG
    with scale_sq L.scale_sq / 2, and `Lattice.from_ints` makes the Gram
    from them in one product.  Otherwise the Gram is (B_l G B_l^T + B_r G
    B_r^T) / 2.  Either way `from_ints` brings it to lowest terms: over 1
    when every entry is even, as it is for a mod-2 isometry.
    """
    images = list(glue.images if isinstance(glue, GlueMap) else glue)
    m = L.dim
    if len(images) != m:
        raise ValueError("glue map must provide %d basis images" % m)
    space = _Mod2Space(L)
    if not space.is_isometry(images):
        raise ValueError("glue map must be a mod-2 isometry preserving norms")
    # (2e_i, 0) = 2(e_i, sigma e_i) - (0, 2 sigma e_i): these 2m rows span
    # the doubled base as well as the glue classes
    rows = [[int(i == k) for k in range(m)] + [img >> j & 1 for j in range(m)]
            for i, img in enumerate(images)]
    rows += [[0] * m + [2 * (j == k) for k in range(m)] for j in range(m)]
    basis = hnf_rows(rows)
    assert len(basis) == 2 * m
    # the index of the doubled base: the HNF of a full-rank square matrix
    # is upper triangular, so its determinant is the product of the pivots
    assert prod(basis[i][i] for i in range(2 * m)) == 1 << m
    left = [row[:m] for row in basis]
    right = [row[m:] for row in basis]
    name = name or "double(%s)" % (L.name or "L")
    # a + b concatenates the halves
    if L.int_gens is not None:
        dG, Gi = L.int_gens
        gens = dG, [a + b for a, b in zip(int_matmul(left, Gi), int_matmul(right, Gi))]
        return Lattice.from_ints(None, gens, scale_sq=L.scale_sq / 2, name=name)
    g = space.g
    # [B_l G | B_r G] [B_l | B_r]^T
    gram = 2, int_matmul([a + b for a, b in zip(int_matmul(left, g), int_matmul(right, g))],
                         transpose(basis))
    return Lattice.from_ints(gram, scale_sq=L.scale_sq / 2, name=name)


# ---------------------------------------------------------------------------
# shaving


def project_shave(L: Lattice, v, name: str | None = None) -> Lattice:
    """Project {x in L : x.v even} along a norm-4 vector v of L.

    The image pi(x) = x - (x.v/4) v is a unimodular lattice of dimension
    dim(L) - 1; norms drop by (x.v)^2/4, so the minimal norm loses at most
    1.  L must be integral and v's coordinates integers (ValueError
    otherwise), so that x.v is an integer.  Coordinates of the result are
    still rational combinations of the basis of L, and the Gram matrix is
    computed with the metric of L.

    The kernel rows k of x.v mod 2 are scaled by 4 to the integer rows
    4k - (k.Gv) v, whose HNF H is 4 times the HNF of the projected rows
    (row HNF commutes with positive scaling); the result is the
    `sublattice` H / 4 of L.
    """
    n = L.dim
    w = list(v)
    v = [int(x) for x in w]
    if v != w:
        raise ValueError("shave vector must have integer coordinates, got %s"
                         % ", ".join(map(str, w)))
    if len(v) != n:
        raise ValueError("expected %d coordinates" % n)
    g = _int_gram(L)
    gv = [sum(map(mul, row, v)) for row in g]
    norm = sum(map(mul, v, gv))
    if norm != 4:
        raise ValueError("shave vector must have norm 4, got %s" % norm)
    kernel = parity_kernel_basis([x & 1 for x in gv], n)
    rows = []
    for krow in kernel:
        dot = sum(map(mul, krow, gv))
        rows.append([4 * x - dot * w for x, w in zip(krow, v)])
    basis4 = hnf_rows(rows)  # 4 times the basis of the result
    assert len(basis4) == n - 1
    return sublattice(L, basis4, div=4, name=name or "shave(%s)" % (L.name or "L"))


def _norm4_candidates(L: Lattice):
    """Norm-4 vectors of L: the basis vectors, then the sums and differences
    of two basis vectors, then every norm-4 vector of a walk to norm 4.
    The generator is lazy, so the walk runs only when no cheap candidate
    is taken."""
    n = L.dim
    dg, g = L.int_gram
    four = 4 * dg  # norm 4 on the integer Gram g = dg * gram
    for i in range(n):
        if g[i][i] == four:
            yield [int(k == i) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                if g[i][i] + g[j][j] + 2 * s * g[i][j] == four:
                    yield [1 if k == i else s if k == j else 0 for k in range(n)]
    _, vecs = enumerate_short(L, 4, collect=True)
    yield from (list(x) for x in vecs if L.norm_of(x) == 4)


def find_shave_vector(L: Lattice, target) -> list[int] | None:
    """First norm-4 vector of L whose shave keeps minimal norm >= target.

    The basis vectors and two-term sums come first: on glue30 and glue32
    the first of them already works, while the walk to norm 4 that
    follows them takes minutes there."""
    seen = set()
    for x in _norm4_candidates(L):
        key = tuple(x) if x[next(i for i, c in enumerate(x) if c)] > 0 \
            else tuple(-c for c in x)
        if key in seen:
            continue
        seen.add(key)
        if not has_vector_below(project_shave(L, x), target):
            return x
    return None


# ---------------------------------------------------------------------------
# frozen glue and shave data (found by the searches above with seed 0)

#: doubling map for A15+ reaching minimal norm 3 in dimension 30
GLUE_A15_T3: tuple = (1, 24956, 20842, 28706, 3574, 4048, 16132, 6056,
                      15158, 8730, 14844, 32178, 17326, 16854, 11462)
#: doubling map for D16+ reaching minimal norm 4 in dimension 32
GLUE_D16_T4: tuple = (53884, 50764, 48694, 7344, 59519, 30642, 39452, 12065,
                      58576, 35124, 24329, 39775, 60175, 41605, 44631, 46761)
#: norm-4 shave vectors for the doubled lattices
SHAVE_30: tuple = (0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
SHAVE_32: tuple = (0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def build_glue30() -> Lattice:
    """30-dimensional odd unimodular lattice of minimal norm 3."""
    return glue_double(a15_plus_fixture(), GLUE_A15_T3, name="glue30")


def build_glue32() -> Lattice:
    """32-dimensional even unimodular lattice of minimal norm 4."""
    return glue_double(d16_plus_fixture(), GLUE_D16_T4, name="glue32")


def build_shave29() -> Lattice:
    """29-dimensional unimodular lattice of minimal norm 3."""
    return project_shave(build_glue30(), SHAVE_30, name="shave29")


def build_shave31() -> Lattice:
    """31-dimensional unimodular lattice of minimal norm 3."""
    return project_shave(build_glue32(), SHAVE_32, name="shave31")
