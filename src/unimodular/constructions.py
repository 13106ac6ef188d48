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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .lattice import Lattice, enumerate_short, has_vector_below, min_norm
from .linalg import (
    det_bareiss,
    hnf_rows,
    hnf_rows_frac,
    matmul,
    parity_kernel_basis,
    transpose,
)

if TYPE_CHECKING:  # numpy is imported where the glue search needs it
    import numpy as np


# ---------------------------------------------------------------------------
# fixture lattices


def a15_plus_fixture() -> Lattice:
    """The 15-dimensional odd unimodular lattice A15+ (minimal norm 2).

    A15 = {x in Z^16 : sum x = 0} has dual quotient Z/16; adjoining the
    order-4 glue class [4] = ((1/4)^12, (-3/4)^4) cuts the determinant
    from 16 to 1.
    """
    rows = []
    for i in range(15):
        r = [Fraction(0)] * 16
        r[i] = Fraction(1)
        r[i + 1] = Fraction(-1)
        rows.append(r)
    glue = [Fraction(1, 4)] * 12 + [Fraction(-3, 4)] * 4
    rows.append(glue)
    basis = hnf_rows_frac(rows)
    assert len(basis) == 15
    gram = matmul(basis, transpose(basis))
    return Lattice(gram, gens=basis, scale_sq=1, name="A15+")


def d16_plus_fixture() -> Lattice:
    """The 16-dimensional even unimodular lattice D16+ (minimal norm 2).

    D16 = {x in Z^16 : sum x even} plus the halfspin class (1/2)^16.
    """
    rows = []
    for i in range(15):
        r = [Fraction(0)] * 16
        r[i] = Fraction(1)
        r[i + 1] = Fraction(-1)
        rows.append(r)
    r = [Fraction(0)] * 16
    r[0] = r[1] = Fraction(1)
    rows.append(r)
    rows.append([Fraction(1, 2)] * 16)
    basis = hnf_rows_frac(rows)
    assert len(basis) == 16
    gram = matmul(basis, transpose(basis))
    return Lattice(gram, gens=basis, scale_sq=1, name="D16+")


# ---------------------------------------------------------------------------
# the quadratic space L/2L


def _int_gram(L: Lattice) -> list[list[int]]:
    g = []
    for row in L.gram:
        if any(x.denominator != 1 for x in row):
            raise ValueError("glue constructions need an integral lattice")
        g.append([int(x) for x in row])
    return g


def _parity(arr: np.ndarray) -> np.ndarray:
    """Parity of the popcount of each entry (entries < 2^32)."""
    import numpy as np

    v = arr.astype(np.int64)
    for k in (16, 8, 4, 2, 1):
        v ^= v >> k
    return (v & 1).astype(np.uint8)


class _Mod2Space:
    """Bitmask model of (L/2L, bilinear form B, norm form q).

    Classes are integers whose bit i is the coefficient of basis vector i
    mod 2.  For an odd lattice q(c) = |x|^2 mod 2 (a linear form); for an
    even lattice q(c) = |x|^2/2 mod 2 (a genuine quadratic form).  The
    transvection t_v : x -> x + B(x,v) v preserves both forms exactly when
    q(v) = 0 (odd case) or q(v) = 1 (even case).
    """

    def __init__(self, L: Lattice):
        import numpy as np

        g = _int_gram(L)
        m = L.dim
        self.m = m
        self.brows = [sum((g[i][j] & 1) << j for j in range(m)) for i in range(m)]
        self.even = all(g[i][i] % 2 == 0 for i in range(m))
        self.move_parity = 1 if self.even else 0
        size = 1 << m
        idx = np.arange(size, dtype=np.int64)
        if self.even:
            q = np.zeros(size, dtype=np.uint8)
            for i in range(m):
                half = 1 << i
                qe = (g[i][i] // 2) & 1
                cross = _parity(idx[:half] & self.brows[i])
                q[half:2 * half] = q[:half] ^ qe ^ cross
        else:
            q = np.zeros(size, dtype=np.uint8)
            for i in range(m):
                half = 1 << i
                q[half:2 * half] = q[:half] ^ (g[i][i] & 1)
        self.q = q

    def b(self, x: int, v: int) -> int:
        acc = 0
        xx = x
        i = 0
        while xx:
            if xx & 1:
                acc ^= bin(self.brows[i] & v).count("1") & 1
            xx >>= 1
            i += 1
        return acc

    def images_all(self, sigma_e: list[int]) -> np.ndarray:
        """sigma applied to every class, by subset-xor doubling."""
        import numpy as np

        size = 1 << self.m
        img = np.zeros(size, dtype=np.int64)
        for i in range(self.m):
            half = 1 << i
            img[half:2 * half] = img[:half] ^ sigma_e[i]
        return img

    def apply_transvection(self, sigma_e: list[int], v: int) -> None:
        for i in range(self.m):
            if self.b(sigma_e[i], v):
                sigma_e[i] ^= v

    def is_isometry(self, sigma_e: list[int]) -> bool:
        rows = list(sigma_e)
        rank = 0
        for bit in range(self.m):
            piv = next((r for r in range(rank, self.m) if rows[r] >> bit & 1), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for r in range(self.m):
                if r != rank and rows[r] >> bit & 1:
                    rows[r] ^= rows[rank]
            rank += 1
        if rank != self.m:
            return False
        for i in range(self.m):
            if int(self.q[sigma_e[i]]) != int(self.q[1 << i]):
                return False
            for j in range(i, self.m):
                if self.b(sigma_e[i], sigma_e[j]) != self.b(1 << i, 1 << j):
                    return False
        return True


def _coset_minima(L: Lattice, cutoff: int, cap: int) -> np.ndarray:
    """m1(c) = min norm in the coset c + 2L, capped at `cap`.

    Classes not reached by any vector of norm <= cutoff get the cap, which
    must satisfy cap <= cutoff + 1 so that capping never overstates a
    minimum.  The zero class is capped too: its true minimum 4*min(L) is
    accounted for separately by the doubled base lattice.
    """
    import numpy as np

    assert cap <= cutoff + 1
    g = np.array(_int_gram(L), dtype=np.int64)
    _, vecs = enumerate_short(L, cutoff, collect=True)
    mt = np.full(1 << L.dim, cap, dtype=np.int64)
    if vecs:
        arr = np.array(vecs, dtype=np.int64)
        norms = ((arr @ g) * arr).sum(axis=1)
        classes = (arr & 1) @ (1 << np.arange(L.dim, dtype=np.int64))
        np.minimum.at(mt, classes, norms)
    mt[0] = cap
    return mt


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


def find_glue(L: Lattice, target: int | None = None, seed: int = 0,
              max_steps: int = 6000, restarts: int = 6) -> GlueMap | None:
    """Search O(L/2L, B, q) for a doubling map reaching the given minimal
    norm (descending from 2*min(L) when no target is given).

    Random transvection walk with targeted repairs: a class u still paired
    too low is sent onto a partner y with m1(u) + m1(y) large by composing
    with t_v, v = sigma(u) xor y, whenever that v is an admissible
    transvection.  Returns None if every restart stalls.
    """
    import numpy as np

    space = _Mod2Space(L)
    m = space.m
    mu = int(min_norm(L))
    targets = [target] if target is not None else list(range(2 * mu, 0, -1))
    rng = random.Random(seed)
    for tgt in targets:
        if tgt <= mu:
            ident = [1 << i for i in range(m)]
            return GlueMap(m, tgt, tuple(ident))  # every pair sum is >= 2mu
        cutoff = 2 * tgt - 3
        cap = 2 * tgt - 2
        mt = _coset_minima(L, cutoff, cap)
        if int(mt[space.q == 0].max(initial=0)) + int(mt.max()) < 2 * tgt:
            continue  # no partner class is deep enough; target hopeless
        need = 2 * tgt
        for _ in range(restarts):
            sigma_e = [1 << i for i in range(m)]
            for _ in range(2 * m):  # random start inside the group
                v = rng.randrange(1, 1 << m)
                if int(space.q[v]) == space.move_parity:
                    space.apply_transvection(sigma_e, v)
            stall = 0
            best = None
            for _ in range(max_steps):
                img = space.images_all(sigma_e)
                bad = np.nonzero(mt + mt[img] < need)[0]
                bad = bad[bad != 0]
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
                x = int(bad[rng.randrange(len(bad))])
                partners = np.nonzero(
                    (space.q == space.q[x]) & (mt >= need - mt[x]))[0]
                moved = False
                if len(partners):
                    for _ in range(8):
                        y = int(partners[rng.randrange(len(partners))])
                        v = int(img[x]) ^ y
                        if v and int(space.q[v]) == space.move_parity \
                                and space.b(int(img[x]), v) == 1:
                            space.apply_transvection(sigma_e, v)
                            moved = True
                            break
                if not moved:
                    for _ in range(32):
                        v = rng.randrange(1, 1 << m)
                        if int(space.q[v]) == space.move_parity:
                            space.apply_transvection(sigma_e, v)
                            break
    return None


# ---------------------------------------------------------------------------
# doubling


def _blockdiag2(g: list[list]) -> list[list]:
    m = len(g)
    zero = [Fraction(0)] * m
    out = []
    for i in range(m):
        out.append(list(g[i]) + list(zero))
    for i in range(m):
        out.append(list(zero) + list(g[i]))
    return out


def glue_double(L: Lattice, glue, name: str | None = None) -> Lattice:
    """Double L against a mod-2 isometry into a 2m-dimensional unimodular
    lattice containing sqrt2*(L + L) with glue classes (u, sigma u)/sqrt2.

    `glue` is a GlueMap or a sequence of m basis-image bitmasks.  The
    coordinates below carry the inner product (1/2) * diag(G, G), so the
    doubled base rows 2e_i have norm 2 G_ii and the glue rows (e_i, sigma
    e_i) have norm (G_ii + |sigma e_i|^2)/2.
    """
    images = list(glue.images if isinstance(glue, GlueMap) else glue)
    m = L.dim
    if len(images) != m:
        raise ValueError("glue map must provide %d basis images" % m)
    space = _Mod2Space(L)
    if not space.is_isometry(images):
        raise ValueError("glue map must be a mod-2 isometry preserving norms")
    rows = []
    for i in range(m):
        r = [0] * (2 * m)
        r[i] = 2
        rows.append(r)
        r = [0] * (2 * m)
        r[m + i] = 2
        rows.append(r)
    for i in range(m):
        r = [0] * (2 * m)
        r[i] = 1
        for j in range(m):
            if images[i] >> j & 1:
                r[m + j] = 1
        rows.append(r)
    basis = hnf_rows(rows)
    assert len(basis) == 2 * m
    assert abs(det_bareiss(basis)) == 1 << m  # index of the doubled base
    half = Fraction(1, 2)
    metric = _blockdiag2([[half * x for x in row] for row in L.gram])
    gram = matmul(matmul(basis, metric), transpose(basis))
    gens = None
    if L.gens is not None:
        left = matmul([row[:m] for row in basis], L.gens)
        right = matmul([row[m:] for row in basis], L.gens)
        gens = [a + b for a, b in zip(left, right)]
    return Lattice(gram, gens=gens, scale_sq=L.scale_sq * half,
                   name=name or "double(%s)" % (L.name or "L"))


# ---------------------------------------------------------------------------
# shaving


def project_shave(L: Lattice, v, name: str | None = None) -> Lattice:
    """Project {x in L : x.v even} along a norm-4 vector v of L.

    The image pi(x) = x - (x.v/4) v is a unimodular lattice of dimension
    dim(L) - 1; norms drop by (x.v)^2/4, so the minimal norm loses at most
    1.  Coordinates of the result are still rational combinations of the
    basis of L, and the Gram matrix is computed with the metric of L.
    """
    n = L.dim
    v = [int(x) for x in v]
    if len(v) != n:
        raise ValueError("expected %d coordinates" % n)
    gv = [sum(L.gram[i][j] * v[j] for j in range(n)) for i in range(n)]
    norm = sum(a * b for a, b in zip(v, gv))
    if norm != 4:
        raise ValueError("shave vector must have norm 4, got %s" % norm)
    parities = [int(x) % 2 for x in gv]
    kernel = parity_kernel_basis(parities, n)
    rows = []
    for krow in kernel:
        dot = sum(a * b for a, b in zip(krow, gv))
        coeff = Fraction(dot, 4)
        rows.append([Fraction(x) - coeff * w for x, w in zip(krow, v)])
    basis = hnf_rows_frac(rows)
    assert len(basis) == n - 1
    gram = matmul(matmul(basis, L.gram), transpose(basis))
    gens = None
    if L.gens is not None:
        gens = matmul(basis, L.gens)
    return Lattice(gram, gens=gens, scale_sq=L.scale_sq,
                   name=name or "shave(%s)" % (L.name or "L"))


def find_shave_vector(L: Lattice, target) -> list[int] | None:
    """First norm-4 vector of L whose shave keeps minimal norm >= target."""
    counts, vecs = enumerate_short(L, 4, collect=True)
    seen = set()
    for x in vecs:
        if L.norm_of(x) != 4:
            continue
        key = tuple(x) if x[next(i for i, c in enumerate(x) if c)] > 0 \
            else tuple(-c for c in x)
        if key in seen:
            continue
        seen.add(key)
        if not has_vector_below(project_shave(L, x), target):
            return list(x)
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
