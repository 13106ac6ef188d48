"""Lattices held as integer matrices over one denominator.

A lattice is a symmetric positive definite Gram matrix over Q, optionally
with an embedding (generator rows and a scale so that
gram = scale_sq * gens gens^T).  A `Lattice` holds both as integer forms,
gram = gi / dg and gens = Gi / dG in lowest terms, and every engine reads
those; the rational matrices are views made on first read.  Builders hand
over the integer forms (`Lattice.from_ints`), so a construction makes no
Fraction matrix.  A coset is a lattice translate, its offset written in
coordinates of the base lattice's basis.

Short-vector enumeration is exact Fincke-Pohst: the Gram matrix is LLL
reduced (delta = 99/100), and fraction-free Gram-Schmidt data turns the
search into scaled big-integer arithmetic (isqrt bounds, no floating
point).  One loop over an explicit stack walks the tree in every mode,
stepping each coordinate through its coset class with the offset folded
into per-level constants.  A node holds the centres of its level and the
levels below as one packed int, one fixed-width slot per level with the
width derived per walk from a bound on every centre, so a child's centres
are one big-int multiply-add.  When a coset is fixed by negation, only
canonical representatives are walked and counts are doubled.  A count
walk stores the norm histogram of each subtree under an exact key, the
packed centres reduced in one big-int step per level, and reuses it when
the subtree repeats.  A lattice walk stops at the last norm the lattice's
norm grid allows at or below its radius, and a class walk gathers the
classes of L/2L it reaches in runs by norm: it stores each subtree's runs
next to its histogram, relative to the parity mask by which reducing the
subtree to its key flips the classes, as 64-bit words that a repeat flips
with one big-int xor.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import mul, xor

from .linalg import (
    as_fraction,
    clear_denominators,
    det_bareiss,
    gauss_solve,
    gf2_inverse,
    identity,
    int_matmul,
    integral_gso,
    lll_reduce_gram,
    mat_frac,
    parity_kernel_basis,
    transpose,
    vecmat,
)
from .qseries import QSeries, parse_rat, rat_str


class Lattice:
    """Exact lattice, held as its integer forms.

    The state is `int_gram` = (dg, gi), the Gram matrix gram = gi / dg, and
    with an embedding `int_gens` = (dG, Gi), the generators gens = Gi / dG
    (gram = scale_sq gens gens^T), each in lowest terms: dg > 0 and
    gcd(dg, gi) = 1, so L is integral exactly when dg = 1.  Integrality,
    parity, the determinant, LLL and every integer product read
    `int_gram` and `int_gens`; `gram` and `gens` are Fraction views built
    on first read (serialization and error text read them).

    `Lattice(gram, gens)` takes matrices of ints and Fractions and clears
    them once; `Lattice.from_ints` takes the integer forms directly, and
    with no Gram makes it from the generators.  Both set the forms through
    `_set_forms`, which runs the checks, and a Gram and generators given
    together are checked to agree by `_check_gens`.  A float entry or
    scale_sq is a TypeError.
    """

    def __init__(self, gram, gens=None, scale_sq=1, name=""):
        self._set_forms(clear_denominators(mat_frac(gram)),
                        None if gens is None else clear_denominators(mat_frac(gens)),
                        scale_sq, name)
        self._check_gens()

    @classmethod
    def from_ints(cls, int_gram, int_gens=None, scale_sq=1, name="") -> "Lattice":
        """The lattice with Gram gi / dg and generators Gi / dG for
        int_gram = (dg, gi) and int_gens = (dG, Gi) (or None), integer
        matrices over positive integer denominators, in any terms.

        With int_gram None the Gram is made from the generators, scale_sq
        Gi Gi^T / dG^2 as one product over the lowered Gi, and is not
        checked against them: the two agree by construction.  Builders
        whose base has generators take this route.
        """
        L = cls.__new__(cls)
        if int_gram is None:
            dG, Gi = int_gens = _lowest_terms(*int_gens)
            p, q = as_fraction(scale_sq).as_integer_ratio()
            gram = [[p * x for x in row] for row in int_matmul(Gi, transpose(Gi))]
            L._set_forms(_lowest_terms(q * dG * dG, gram), int_gens, scale_sq, name)
        else:
            L._set_forms(_lowest_terms(*int_gram),
                         None if int_gens is None else _lowest_terms(*int_gens), scale_sq, name)
            L._check_gens()
        return L

    def _set_forms(self, int_gram, int_gens, scale_sq, name):
        dg, gi = int_gram
        n = len(gi)
        if n == 0:
            raise ValueError("a lattice needs dimension at least 1")
        if any(len(row) != n for row in gi):
            raise ValueError("gram matrix must be square")
        if gi != transpose(gi):
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if gi[i][j] != gi[j][i])
            raise ValueError(f"gram matrix not symmetric at ({i},{j})")
        self.int_gram = int_gram
        self.scale_sq = as_fraction(scale_sq)
        if self.scale_sq <= 0:
            raise ValueError("scale_sq must be positive")
        if int_gens is not None:
            dG, Gi = int_gens
            if len(Gi) != n:
                raise ValueError("generator count must equal the dimension")
            if not Gi[0] or any(len(row) != len(Gi[0]) for row in Gi):
                raise ValueError("generator rows must be non-empty and of equal length")
        self.int_gens = int_gens
        self.name = name
        self._reduced = None

    def _check_gens(self):
        """ValueError unless scale_sq gens gens^T = gram, for a Gram and
        generators given together."""
        if self.int_gens is None:
            return
        (dg, gi), (dG, Gi) = self.int_gram, self.int_gens
        # scale * Gi Gi^T / dG^2 == gi / dg over the ints, a row at a time;
        # both sides are symmetric, so the first mismatch in row order has
        # j >= i
        lhs = self.scale_sq.numerator * dg
        rhs = self.scale_sq.denominator * dG * dG
        for i, (dots, row) in enumerate(zip(int_matmul(Gi, transpose(Gi)), gi)):
            left, right = [lhs * x for x in dots], [rhs * x for x in row]
            if left != right:
                j = next(j for j in range(len(gi)) if left[j] != right[j])
                raise ValueError(
                    f"generators do not match gram at ({i},{j}): "
                    f"{self.scale_sq * Fraction(dots[j], dG * dG)} != {Fraction(row[j], dg)}"
                )

    @cached_property
    def gram(self) -> list[list[Fraction]]:
        dg, gi = self.int_gram
        return [[Fraction(x, dg) for x in row] for row in gi]

    @cached_property
    def gens(self) -> list[list[Fraction]] | None:
        if self.int_gens is None:
            return None
        dG, Gi = self.int_gens
        return [[Fraction(x, dG) for x in row] for row in Gi]

    @property
    def dim(self) -> int:
        return len(self.int_gram[1])

    def det(self) -> Fraction:
        dg, gi = self.int_gram
        return Fraction(det_bareiss(gi), dg ** self.dim)

    def is_integral(self) -> bool:
        return self.int_gram[0] == 1

    def norm_of(self, coords) -> Fraction:
        """Norm (squared length) of the vector with the given basis
        coordinates, v gi v^T / (dg dv^2) for v = dv * coords in ints."""
        dv, (v,) = clear_denominators([list(coords)])
        dg, g = self.int_gram
        return Fraction(sum(a * sum(map(mul, row, v)) for a, row in zip(v, g) if a),
                        dg * dv * dv)

    def __repr__(self):
        tag = self.name or "lattice"
        return f"<{tag}: dim {self.dim}, det {self.det()}>"


def _lowest_terms(den: int, m) -> tuple[int, list[list[int]]]:
    """(den, m) over the gcd of den and m's entries; ValueError unless den
    is a positive integer."""
    if type(den) is not int or den <= 0:
        raise ValueError(f"denominator must be a positive integer, got {den!r}")
    g = gcd(den, *[x for row in m for x in row])
    return (den, m) if g == 1 else (den // g, [[x // g for x in row] for row in m])


class Coset:
    """Translate base + offset; offset in base-basis coordinates, ints and
    Fractions (a float is a TypeError)."""

    def __init__(self, base: Lattice, offset):
        self.base = base
        self.offset = [as_fraction(x) for x in offset]
        if len(self.offset) != base.dim:
            raise ValueError("offset length must equal the base dimension")

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for x in self.offset)

    def norm_of(self, coords) -> Fraction:
        return self.base.norm_of([c + t for c, t in zip(coords, self.offset)])

    def __repr__(self):
        return f"<coset of {self.base!r} + {[str(x) for x in self.offset]}>"


def zn(n: int) -> Lattice:
    """The cubic lattice Z^n."""
    return Lattice.from_ints(None, (1, identity(n)), name=f"Z{n}")


# -- unimodularity -----------------------------------------------------------


def check_unimodular(L: Lattice) -> str:
    """Classify L: 'odd', 'even' or 'not-unimodular(detail)'.  One
    `integral_gso` pass, no LLL: it raises unless L is positive definite,
    and its last leading minor is the determinant."""
    dg, g = L.int_gram
    if dg != 1:
        i, j = next((i, j) for i, row in enumerate(g) for j, x in enumerate(row) if x % dg)
        return f"not-unimodular(non-integral entry {Fraction(g[i][j], dg)} at ({i},{j}))"
    try:
        det = integral_gso(g)[0][-1]
    except ValueError:
        return "not-unimodular(not positive definite)"
    if det != 1:
        return f"not-unimodular(det={det})"
    if any(g[i][i] & 1 for i in range(L.dim)):
        return "odd"
    return "even"


def sublattice(L: Lattice, rows, div: int = 1, name: str = "") -> Lattice:
    """The lattice with basis R / div under L's inner product, for
    independent integer rows R in L's coordinates (so R / div need not lie
    in L: the shave's basis is a projection).

    With L's integer forms gram = gi / dg and gens = Gi / dG, its
    generators are R Gi / (dG div), and `Lattice.from_ints` makes its Gram
    from them; without generators its Gram is R gi R^T / (dg div^2).
    """
    if L.int_gens is not None:
        dG, Gi = L.int_gens
        return Lattice.from_ints(None, (dG * div, int_matmul(rows, Gi)),
                                 scale_sq=L.scale_sq, name=name)
    dg, g = L.int_gram
    gram = dg * div * div, int_matmul(int_matmul(rows, g), transpose(rows))
    return Lattice.from_ints(gram, scale_sq=L.scale_sq, name=name)


def even_sublattice(L: Lattice) -> Lattice:
    """Even vectors of an odd integral lattice (index 2).

    For odd unimodular L the result has determinant 4.
    """
    if not L.is_integral():
        raise ValueError("even sublattice requires an integral lattice")
    return sublattice(L, _even_coords(L), name=f"{L.name}_0" if L.name else "")


def _even_coords(L: Lattice):
    """Basis (rows, in L-coordinates) of the even-norm kernel sublattice of
    an integral lattice."""
    _, g = L.int_gram
    return parity_kernel_basis([g[i][i] & 1 for i in range(L.dim)], L.dim)


def shadow_cosets(L: Lattice) -> tuple[Coset, Coset]:
    """The two cosets of the even sublattice whose union is the shadow.

    The shadow of an odd unimodular L is dual(L_0) minus L; it is cut out by
    the half characteristic vectors w/2, where G w = diag(G) (mod 2).  The
    returned pair is closed under negation.
    """
    verdict = check_unimodular(L)
    if verdict != "odd":
        raise ValueError(f"shadow requires an odd unimodular lattice, got {verdict}")
    n = L.dim
    _, g = L.int_gram
    # w = G^-1 diag(G) mod 2, G symmetric: the xor of the columns of G^-1
    # mod 2 (bit j of an image is coordinate j) at the odd diagonal entries
    odd = [i for i in range(n) if g[i][i] & 1]
    inv = gf2_inverse([sum((g[i][j] & 1) << j for j in range(n)) for i in range(n)])
    w = reduce(xor, [inv[i] for i in odd])
    half_w = [Fraction(w >> i & 1, 2) for i in range(n)]
    L0 = even_sublattice(L)
    # the offsets t E = w/2 and w/2 + e_p, E L0's basis rows: one solve
    rhs = [[h, h + (i == odd[0])] for i, h in enumerate(half_w)]
    t1, t2 = transpose(gauss_solve(transpose(_even_coords(L)), rhs))
    c1, c2 = Coset(L0, t1), Coset(L0, t2)
    assert not c1.is_lattice() and not c2.is_lattice()
    return c1, c2


# -- exact enumeration -------------------------------------------------------


def _reduced_data(L: Lattice):
    """LLL-reduce the Gram matrix once per lattice; cache scaled-integer data.

    Returns (dmul, U, Uinv, d, lam, m, M, least, step): dmul clears
    denominators of the Gram matrix, U is the reduction transform (rows of
    the reduced basis in original coordinates) and Uinv its inverse, d/lam
    the fraction-free Gram-Schmidt table of the reduced integer Gram,
    m[i] = M / (d[i-1] d[i]) for the common budget denominator M, least the
    smallest diagonal entry of the reduced integer Gram and step the gcd of
    its G_ii and 2 G_ij (see `_grid_radius`).  The LLL hands over d/lam.
    """
    if L._reduced is not None:
        return L._reduced
    dmul, gint = L.int_gram
    gred, U, Uinv, d, lam = lll_reduce_gram(gint, Fraction(99, 100))
    pairs = [(d[i - 1] if i else 1) * d[i] for i in range(len(d))]
    M = lcm(*pairs)
    m = [M // p for p in pairs]
    n = len(gred)
    least = min(gred[i][i] for i in range(n))
    step = gcd(*[gred[i][i] for i in range(n)],
               *[2 * gred[i][j] for i in range(n) for j in range(i)])
    L._reduced = (dmul, U, Uinv, d, lam, m, M, least, step)
    return L._reduced


def _grid_radius(L: Lattice, radius, strict=False) -> Fraction:
    """The largest multiple of g at or below radius (strictly below it
    when strict), g the rational gcd of the G_ii and 2 G_ij.

    Every norm of L is an integer combination of the G_ii and 2 G_ij, so a
    multiple of g, and g is the same for every basis: no norm lies between
    the result and the radius.
    """
    dmul, *_, step = _reduced_data(L)
    g = Fraction(step, dmul)
    radius = Fraction(radius)
    return g * (-(-radius // g) - 1 if strict else radius // g)


def _as_coset(target) -> Coset:
    if isinstance(target, Lattice):
        return Coset(target, [0] * target.dim)
    if isinstance(target, Coset):
        return target
    raise TypeError("expected a Lattice or Coset")


#: most subtree histograms (with their class maps, in a class walk) one
#: walk stores; past it the memo is dropped and the rest of the walk pushes
#: its vectors down as usual
MEMO_LIMIT = 1024
#: byte order of an array('Q') of classes, for its runs read as one int
_BYTE_ORDER = sys.byteorder


@dataclass
class EnumStats:
    """Work of one enumeration: nodes walked per level (empty ones are
    skipped), and the subtree memo of a count or class walk: lookups and
    hits per level of the subtree's root, stored subtrees, the nodes walked
    when the memo was dropped at MEMO_LIMIT (0 if it never was), and in a
    class walk the class entries its hits merged.  `lookups` and `hits`
    are the totals, and `memo_off` whether the memo was dropped."""

    nodes: list
    level_lookups: list
    level_hits: list
    stored: int = 0
    dropped_at: int = 0
    merged: int = 0

    @property
    def memo_off(self) -> bool:
        return self.dropped_at > 0

    @property
    def lookups(self) -> int:
        return sum(self.level_lookups)

    @property
    def hits(self) -> int:
        return sum(self.level_hits)


def _pack_classes(runs: dict) -> tuple:
    """A subtree's class runs as (classes, groups, count): classes is one
    int whose 64-bit words are the runs, each without repeats, groups the
    (norm, byte length) of each run and count the number of words."""
    cs, groups = array("Q"), []
    for u, run in runs.items():
        n = len(cs)
        cs.extend(set(run))
        groups.append((u, 8 * (len(cs) - n)))
    return int.from_bytes(cs, _BYTE_ORDER), groups, len(cs)


def _slot_bits(d, lam, m, top, delta) -> int:
    """Width W of one packed centre slot for a walk with budget top.

    Top-down, |w_l| <= Wb_l = (A_l + C_l) // d_l with A_l = isqrt(top // m_l)
    and C_l = sum_{k > l} |lam[k][l]| Wb_k, which also bounds every partial
    sum of c_l.  The key reduction subtracts k_i delta lam[i][l] from c_l
    for each level i > l it reduces, so c_l stays within R_l = C_l +
    delta sum_{k > l} |lam[k][l]| K_k, with |k_l| <= K_l = R_l // (d_l
    delta) + 1, and a reduced c_l lies in [0, d_l delta).  With B the
    largest R_l and d_l delta, W = bitlength(B) + 1 and a slot holding
    c + 2^(W-1) lies in [0, 2^W): no slot borrows from its neighbour.
    """
    n = len(d)
    wb, rb, kb = [0] * n, [0] * n, [0] * n
    for l in range(n - 1, -1, -1):
        col = [abs(lam[k][l]) for k in range(l + 1, n)]
        c = sum(map(mul, col, wb[l + 1:]))
        wb[l] = (isqrt(top // m[l]) + c) // d[l]
        rb[l] = c + delta * sum(map(mul, col, kb[l + 1:]))
        kb[l] = rb[l] // (d[l] * delta) + 1
    return max(*rb, *[dl * delta for dl in d]).bit_length() + 1


def _enum(target, max_norm, collect=False, first_only=False, classes=False, memo=True):
    """Walk {x + t : x in Z^n, |x + t|^2 <= max_norm} exactly.

    Returns (counts, vectors, scale, stats): counts maps scaled integer
    norms to counts (scale M * dmul * delta^2), vectors (when requested)
    holds integer rows x in the original basis, mirror pairs expanded, and
    stats is the walk's EnumStats.  With first_only, stops at the first
    nonzero vector.  With classes (dimension <= 64), vectors is instead
    the runs {scaled norm: array('Q') of classes}, the class of x being
    x mod 2 (bit i is x_i): a class reached is in the run of its least
    norm, maybe in higher runs too.  A lattice walk lowers its radius to
    the last multiple of the norm step at or below it (`_grid_radius`).

    In reduced coordinates w = delta * (x + t), w_i = s_i (mod delta), and
    level i adds m_i * (d_i w_i + c_i)^2 with the centre
    c_i = sum_{l > i} lam[l][i] w_l.  A node at level j holds c_0..c_j as
    one packed int X, slot i holding c_i + 2^(W-1) in W bits (W from
    `_slot_bits`, so no slot overflows); its child's centres are
    X + w_j LP[j], LP[j] the row lam[j][:j] packed the same way.  The walk
    steps k_j in w_j = sp_j + delta k_j, sp_j = s_j mod delta, with the
    offset folded into per-level constants, so a step adds d_j delta to
    Z = d_j w_j + c_j and delta LP[j] to the centres, no modulo.  Each node
    does only the work its mode reads: per level, a class walk keeps the
    class fixed above (the xor of the parity masks of the rows U[i] with
    x_red[i] odd), a collect walk the O(n) coordinates xo[j] of
    x_red[j:] . U[j:], and a first_only walk only k_j, building x once.

    When -t = t mod Z^n, one of each +/- pair is walked and counted twice:
    the zero prefix, w = 0 from level n - 1 down to the first level whose
    w_j cannot be 0, is a chain of roots, each walking its w_j > 0 with
    zero centres.  They are walked deepest first, after the zero vector
    when the coset holds it (counted once): the order of one tree whose
    prefix walks w_j >= 0.  Any other walk has the one root n - 1.

    A count or class walk memoises subtrees unless memo is False: below a
    level-j node the histogram {norm of levels <= j: count} depends only on
    c_0..c_j and the budget, and shifting w_j by delta * k keeps every
    partial norm while adding d_j delta k to c_j and lam[j][l] delta k to
    each lower c_l.  Reducing each c_i modulo d_i delta from level j down,
    one packed step of k times PL[i] = d_i delta e_i + delta lam[i][:i]
    per level, names the subtree exactly: the key is (reduced X, budget),
    its level implied by X's size.  A repeat adds the stored histogram
    shifted by the norm above.  In a class walk (delta = 1) the reduction
    flips the subtree's classes by the mask, the xor of the masks of U[i]
    over the odd k_i.  A leaf adds its two classes (even and odd w_0) with
    their least norms; a subtree's runs are stored relative to its mask as
    one int of 64-bit words, each run without repeats, and a repeat flips
    them by the class above and the mask in one big-int xor and adds each
    run to its shifted norm's run in one C-level call.  A certificate's
    walk below a minimum passes memo False: it finds only the zero vector,
    so its subtree histograms are empty and rarely repeat.  Past
    MEMO_LIMIT the memo is dropped and the rest of the walk keeps none.

    One loop over an explicit stack walks every mode, with no recursion,
    whose frames would cross CPython's frame-stack chunks.  Entering a
    child pushes its parent's loop state.  A memo miss pushes it with its
    norm base, histogram, runs and key onto a stack of its own, and the
    subtree fills a fresh histogram: the frames pushed meanwhile lie above
    it, and no miss is pushed once the memo drops.
    """
    coset = _as_coset(target)
    L = coset.base
    n = L.dim
    if classes and n > 64:
        raise ValueError(f"a class walk packs classes into 64 bits; dimension {n} > 64")
    max_norm = Fraction(max_norm)
    dmul, U, Uinv, d, lam, m, M, _, _ = _reduced_data(L)
    # offset in reduced coordinates, s / delta in lowest terms, from the
    # cleared offset t = ti / dt in ints
    dt, (ti,) = clear_denominators([coset.offset])
    s = vecmat(ti, Uinv)
    g = gcd(dt, *s)
    delta, s = dt // g, [x // g for x in s]
    # when -t = t mod Z^n, walk one of each +/- pair and double the count
    sym = all((2 * si) % delta == 0 for si in s)
    if classes and any(s):
        raise ValueError("a class walk needs a lattice, not a coset")
    if delta == 1:
        max_norm = _grid_radius(L, max_norm)
    top = int(max_norm * dmul * delta * delta * M)
    stats = EnumStats([0] * n, [0] * n, [0] * n)
    if top < 0:
        return {}, ({} if classes else [] if collect or first_only else None), 1, stats
    counts: dict[int, int] = {}
    vecs = [] if (collect or first_only) else None
    runs = {} if classes else None
    memo = {} if memo and vecs is None else None
    count_walk = vecs is None and runs is None
    nodes, lookups, hits = stats.nodes, stats.level_lookups, stats.level_hits
    period = [dj * delta for dj in d]
    # w_j = sp[j] + delta k_j, and x_red[j] = k_j - fl[j]
    sp = [si % delta for si in s]
    fl = [si // delta for si in s]
    pair, m0, P0 = (2 if sym else 1), m[0], period[0]
    # packed centres: slot i of an int holds c_i + bias in W bits
    W = _slot_bits(d, lam, m, top, delta)
    bias, slot = 1 << (W - 1), (1 << W) - 1
    sh = [W * i for i in range(n)]
    low = [(1 << t) - 1 for t in sh]
    LP = [sum(lam[j][i] << sh[i] for i in range(j)) for j in range(n)]
    PL = [(period[i] << sh[i]) + delta * LP[i] for i in range(n)]
    # per level j >= 1, the constants of a step and of entering a node, the
    # offset folded into bn: a child's Z at k = 0 is its centre slot less bn
    steps = [None] + [(period[j], m[j], period[j - 1], m[j - 1], delta * lam[j][j - 1],
                       delta * LP[j]) for j in range(1, n)]
    enter = [None] + [(low[j], sh[j - 1], bias - d[j - 1] * sp[j - 1], sp[j], LP[j])
                      for j in range(1, n)]
    # per level, of its open node: the last k, the child's k and the class
    # fixed above; a collect walk's mirror vector is -x - (2s/delta) . U
    khs, ks, kcs = [0] * n, [0] * n, [0] * n
    xo = [None] * n + [[0] * n] if collect else None
    shift = vecmat([2 * si // delta for si in s], U) if collect and sym else None
    # in a class walk, pm[j] is the parity mask of the row U[j]
    pm = [sum((a & 1) << i for i, a in enumerate(row)) for row in U] if classes else [0] * n

    def memo_key(j, Y, rem):
        # the subtree's key and, in a class walk, its parity mask
        mask = 0
        for i in range(j, -1, -1):
            k = (((Y >> sh[i]) & slot) - bias) // period[i]
            if k:
                Y -= k * PL[i]
                if classes and k & 1:
                    mask ^= pm[i]
        return (Y, rem), mask

    def merge(hit, above, out, mout, flip):
        # adds a subtree's histogram at the norm above it and, in a class
        # walk, its runs: every stored class flipped by one big-int xor,
        # each norm's words added to its run by one C-level call
        h, packed = hit
        for u, c in h.items():
            out[u + above] = out.get(u + above, 0) + c
        if packed:
            cs, groups, count = packed
            stats.merged += count
            if flip:
                cs ^= int.from_bytes(flip.to_bytes(8, _BYTE_ORDER) * count, _BYTE_ORDER)
            cs = memoryview(cs.to_bytes(8 * count, _BYTE_ORDER))
            i = 0
            for u, nb in groups:
                mout.setdefault(u + above, array("Q")).frombytes(cs[i:i + nb])
                i += nb

    root = sum(bias << t for t in sh)

    def walk(j, k, kh):
        # walks root j's w_j = sp[j] + delta k_j for k_j = k..kh, pushing
        # each vector's scaled norm into out (base - rem is the norm above
        # a node) and, in a class walk, its class into the run of its norm
        # in mout; True when a first_only walk finds its vector.  At a node
        # Z = d_j w_j + c_j and cn is the child's Z at k = 0.  A frame holds
        # the next child's X, Z and cn: all a lean (memo-free count) walk keeps
        nonlocal memo
        X, rem, base, out, mout, flip = root, top, top, counts, runs, 0
        Z = period[j] * k + d[j] * sp[j]
        khs[j] = kh
        lean = count_walk and memo is None
        stack, misses = [], []
        push, pop = stack.append, stack.pop
        while True:
            if j:
                lowj, shn, bn, sj, LPj = enter[j]
                P, mj, Pn, mn, ln, step = steps[j]
                X = (X & lowj) + (sj + delta * k) * LPj
                cn = (X >> shn) - bn
                left = kh - k + 1
            else:
                acc = base - rem
                if count_walk:
                    for _ in range(k, kh + 1):
                        u = acc + m0 * Z * Z
                        out[u] = out.get(u, 0) + pair
                        Z += P0
                elif collect:
                    for q in range(k - fl[0], kh + 1 - fl[0]):
                        u = acc + m0 * Z * Z
                        out[u] = out.get(u, 0) + pair
                        v = tuple([a + q * b for a, b in zip(xo[1], U[0])])
                        vecs.append(v)
                        if sym:
                            vecs.append(tuple([-a - b for a, b in zip(v, shift)]))
                        Z += P0
                elif first_only:
                    # no leaf holds the zero vector: the first one reached
                    # ends the walk
                    ks[0] = k
                    vecs.append(tuple(vecmat([a - b for a, b in zip(ks, fl)], U)))
                    return True
                else:
                    # a class leaf reaches two classes, kc for even w_0 and
                    # kc ^ pm[0] for odd; each goes to the runs once, with
                    # its least norm
                    best = [None, None]
                    for k in range(k, kh + 1):
                        u = acc + m0 * Z * Z
                        out[u] = out.get(u, 0) + pair
                        b = best[k & 1]
                        if b is None or u < b:
                            best[k & 1] = u
                        Z += P0
                    kc = kcs[0]
                    for u, c in zip(best, (kc, kc ^ pm[0])):
                        if u is not None:
                            mout.setdefault(u, array("Q")).append(c)
                left = 0
            while True:
                if left:
                    left -= 1
                    r = rem - mj * Z * Z
                    A = isqrt(r // mn)
                    lo = -((A + cn) // Pn)
                    hn = (A - cn) // Pn
                    if lo <= hn:
                        if lean:
                            push((X + step, rem, Z + P, cn + ln, left))
                        elif memo is None:
                            # a collect, first_only or memo-free class walk
                            k = khs[j] - left
                            khs[j - 1] = hn
                            push((X + step, rem, Z + P, cn + ln, left))
                            ks[j] = k
                            kcs[j - 1] = kcs[j] ^ pm[j] if k & 1 else kcs[j]
                            if collect:
                                q = k - fl[j]
                                xo[j] = [a + q * b for a, b in zip(xo[j + 1], U[j])]
                        else:
                            key, mask = memo_key(j - 1, X, r)
                            lookups[j - 1] += 1
                            if classes:
                                k = khs[j] - left
                                khs[j - 1] = hn
                                flip = (kcs[j] ^ pm[j] if k & 1 else kcs[j]) ^ mask
                            hit = memo.get(key)
                            if hit is not None:
                                hits[j - 1] += 1
                                merge(hit, base - r, out, mout, flip)
                                Z += P
                                cn += ln
                                X += step
                                continue
                            misses.append((X + step, rem, Z + P, cn + ln, left,
                                           base, out, mout, key, flip))
                            base, out = r, {}
                            if classes:
                                mout, kcs[j - 1] = {}, mask
                        j -= 1
                        nodes[j] += 1
                        rem = r
                        Z = Pn * lo + cn
                        k = lo
                        kh = hn
                        break
                    Z += P
                    cn += ln
                    X += step
                elif stack:
                    X, rem, Z, cn, left = pop()
                    j += 1
                    P, mj, Pn, mn, ln, step = steps[j]
                elif misses:
                    # a miss's subtree is done: store it, add it as a hit
                    h, hm, r = out, mout, base
                    X, rem, Z, cn, left, base, out, mout, key, flip = misses.pop()
                    j += 1
                    P, mj, Pn, mn, ln, step = steps[j]
                    hit = h, (_pack_classes(hm) if classes else None)
                    if memo is not None:
                        if len(memo) < MEMO_LIMIT:
                            memo[key] = hit
                            stats.stored += 1
                        else:
                            memo = None
                            stats.dropped_at = sum(nodes)
                            lean = count_walk
                    merge(hit, base - r, out, mout, flip)
                else:
                    return

    # the roots, top down, each a node; a root below n - 1 whose w_j >= 0
    # hold nothing is no node and ends the chain
    roots = []
    for j in range(n - 1, -1, -1):
        A = isqrt(top // m[j])
        lo, kh = -((A + d[j] * sp[j]) // period[j]), (A - d[j] * sp[j]) // period[j]
        if kh < 0 and j < n - 1:
            break
        nodes[j] += 1
        roots.append((j, (0 if sp[j] else 1) if sym else lo, kh))
        if not sym or sp[j]:
            break
        if collect:
            xo[j] = [a - fl[j] * b for a, b in zip(xo[j + 1], U[j])]
    else:
        # the zero vector, x = -t
        counts[0] = 1
        if collect:
            vecs.append(tuple(xo[0]))
        if classes:
            runs[0] = array("Q", [0])
    for j, k, kh in reversed(roots):
        if k <= kh and walk(j, k, kh):
            break
    return counts, (runs if classes else vecs), M * dmul * delta * delta, stats


def enumerate_short(target, max_norm, collect: bool = False, memo: bool = True):
    """Count vectors of each exact norm <= max_norm in a lattice or coset.

    Returns a dict norm -> count (norm 0 included when the zero vector is in
    the coset).  With collect=True returns (counts, vectors) where vectors
    are integer coordinate rows x in the base basis (the coset element is
    x + offset), mirror pairs expanded.  With memo=False the walk stores no
    subtrees (see `_enum`).
    """
    counts, vecs, scale, _ = _enum(target, max_norm, collect=collect, memo=memo)
    counts = {Fraction(u, scale): cnt for u, cnt in counts.items()}
    return (counts, vecs) if collect else counts


def class_minima(L: Lattice, radius, cap: int) -> bytearray:
    """A byte table over the 2^dim classes x mod 2 (bit i is x_i) of an
    integral lattice L: each class's least norm over the x of norm <=
    radius, and cap where none reaches it.

    One class walk of `_enum`; then, with the walk's memo gone, one C-level
    scatter per run, highest norm first, so a class ends with its least
    norm.  ValueError unless L is integral and every value fits a byte.
    """
    if not L.is_integral():
        raise ValueError("class minima need an integral lattice")
    _, runs, scale, _ = _enum(L, radius, classes=True)
    table = bytearray([cap]) * (1 << L.dim)
    for u in sorted(runs, reverse=True):
        deque(map(table.__setitem__, runs.pop(u), repeat(u // scale)), 0)
    return table


def find_any(target, max_norm):
    """First nonzero vector of norm <= max_norm, or None.

    Returns (norm, x) with x integer coordinates in the base basis.
    """
    _, vecs, _, _ = _enum(target, max_norm, first_only=True)
    if not vecs:
        return None
    x = vecs[0]
    return _as_coset(target).norm_of(x), list(x)


def min_norm(L: Lattice) -> Fraction:
    """Minimal nonzero norm.

    The shortest row of the reduced basis has norm `bound`, read off the
    reduced Gram diagonal; the walk only looks strictly below it, and when
    it finds no nonzero vector there the minimum is the bound itself.  The
    walk keeps no memo, as in `has_vector_below`.
    """
    dmul, *_, least, _ = _reduced_data(L)
    bound = Fraction(least, dmul)
    nz = [k for k in enumerate_short(L, _grid_radius(L, bound, strict=True), memo=False)
          if k > 0]
    return min(nz) if nz else bound


def has_vector_below(L: Lattice, mu) -> bool:
    """True when some nonzero vector of L has norm < mu.  A count walk
    with no memo: when a certificate holds, its subtrees hold only the zero
    vector and rarely repeat."""
    return any(k > 0 for k in enumerate_short(L, _grid_radius(L, mu, strict=True), memo=False))


def verify_min_norm(L: Lattice, mu) -> bool:
    """Certify min(L) = mu: no nonzero vector below mu, one at mu."""
    mu = Fraction(mu)
    if has_vector_below(L, mu):
        return False
    hit = find_any(L, mu)
    return hit is not None and hit[0] == mu


def theta_by_enumeration(L, max_norm: int) -> QSeries:
    """Theta series of a lattice or coset, certified through q^max_norm."""
    counts = enumerate_short(L, max_norm)
    terms = {}
    for norm, cnt in counts.items():
        e = norm * 4
        if e.denominator != 1:
            raise ValueError(f"norm {norm} is not on the quarter grid")
        terms[int(e)] = cnt
    return QSeries(terms, 4 * int(max_norm) + 1)


def shadow_by_enumeration(L: Lattice, max_norm: int) -> QSeries:
    """Theta series of the shadow of an odd unimodular lattice, by counting."""
    c1, c2 = shadow_cosets(L)
    return theta_by_enumeration(c1, max_norm) + theta_by_enumeration(c2, max_norm)


# -- serialization -----------------------------------------------------------


def lattice_to_json_dict(L: Lattice) -> dict:
    out = {
        "name": L.name,
        "dim": L.dim,
        "gram": [[rat_str(x) for x in row] for row in L.gram],
    }
    if L.gens is not None:
        out["generators"] = [[rat_str(x) for x in row] for row in L.gens]
        out["scale_sq"] = rat_str(L.scale_sq)
    return out


def _rat_rows(rows) -> list[list[Fraction]]:
    """A JSON list of lists of exact rationals; a string row is not read
    digit by digit."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError(f"expected a list of lists, not {rows!r}")
    return [[parse_rat(x) for x in row] for row in rows]


def lattice_from_json_dict(d: dict) -> Lattice:
    gens = None
    scale = Fraction(1)
    try:
        dim = d["dim"]
        if type(dim) is not int:  # bool is an int subclass, and not a dimension
            raise TypeError(f"dim must be an integer, not {dim!r}")
        name = d.get("name", "")
        if not isinstance(name, str):
            raise TypeError(f"name must be a string, not {name!r}")
        gram = _rat_rows(d["gram"])
        if "generators" in d:
            gens = _rat_rows(d["generators"])
            scale = parse_rat(d.get("scale_sq", 1))
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"invalid lattice file: {exc}") from exc
    if len(gram) != dim or any(len(r) != dim for r in gram):
        raise ValueError(f"invalid lattice file: gram must be {dim}x{dim}")
    return Lattice(gram, gens=gens, scale_sq=scale, name=name)
