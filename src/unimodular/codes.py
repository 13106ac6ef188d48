"""Binary linear codes and the lattices they generate.

Codewords are bitmask integers (bit i = coordinate i).  A doubly even
self-dual code C of length n gives an n-dimensional unimodular lattice
spanned by (1/sqrt 8) { (-3, 1^(n-1)), 2u for u in C, 4e_i +- 4e_j }:
for n = 32 this produces odd unimodular lattices of minimal norm 4, for
n = 24 (the Golay code) the even Leech lattice.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Lattice
from .linalg import hnf_rows

MAX_ENUM_DIM = 28  # weight enumerators walk all 2^k codewords


class BinaryCode:
    """Linear code over GF(2), kept as independent generator bitmasks."""

    def __init__(self, length: int, generators, name: str = ""):
        self.n = int(length)
        self.name = name
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = int(g[::-1], 2) if g else 0
            g = int(g)
            if g < 0 or g >> self.n:
                raise ValueError("codeword beyond the code length")
            gens.append(g)
        # row reduce to check independence
        basis = []
        for g in gens:
            r = g
            for b in basis:
                r = min(r, r ^ b)
            if r == 0:
                raise ValueError("dependent generator rows")
            basis.append(r)
            basis.sort(reverse=True)
        self.generators = gens

    @property
    def k(self) -> int:
        return len(self.generators)

    def words(self):
        """All 2^k codewords by Gray-code walk (k capped for safety)."""
        if self.k > MAX_ENUM_DIM:
            raise ValueError(f"refusing to walk 2^{self.k} codewords")
        w = 0
        yield 0
        for i in range(1, 1 << self.k):
            w ^= self.generators[(i & -i).bit_length() - 1]
            yield w

    def weight_enumerator(self) -> dict[int, int]:
        """Map weight -> number of codewords of that weight."""
        counts: dict[int, int] = {}
        for w in self.words():
            wt = w.bit_count()
            counts[wt] = counts.get(wt, 0) + 1
        return counts

    def is_self_dual(self) -> bool:
        """k = n/2 and every pair of generators (incl. self) orthogonal."""
        if 2 * self.k != self.n:
            return False
        gens = self.generators
        return all(
            (gens[i] & gens[j]).bit_count() % 2 == 0
            for i in range(self.k)
            for j in range(i, self.k)
        )

    def is_doubly_even(self) -> bool:
        """All codeword weights divisible by 4.

        Checked on generators: row weights = 0 (mod 4) plus pairwise even
        intersections force every codeword weight to 0 (mod 4).
        """
        gens = self.generators
        if any(g.bit_count() % 4 for g in gens):
            return False
        return all(
            (gens[i] & gens[j]).bit_count() % 2 == 0
            for i in range(self.k)
            for j in range(i + 1, self.k)
        )

    def min_distance(self) -> int:
        return min(wt for wt in self.weight_enumerator() if wt > 0)

    def __repr__(self):
        return f"<code {self.name or ''} [{self.n},{self.k}]>"


# -- fixtures -----------------------------------------------------------------


def hamming8() -> BinaryCode:
    """The [8,4] extended Hamming code [I | J - I] (doubly even self-dual)."""
    rows = ["10000111", "01001011", "00101101", "00011110"]
    return BinaryCode(8, rows, name="hamming8")


def golay24() -> BinaryCode:
    """The [24,12] extended binary Golay code.

    Built from the cyclic [23,12,7] code with quadratic-residue generator
    polynomial x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, plus an overall
    parity bit; weight distribution 1, 759, 2576, 759, 1 at weights
    0, 8, 12, 16, 24.
    """
    gpoly = sum(1 << e for e in (0, 2, 4, 5, 6, 10, 11))
    rows = []
    for i in range(12):
        w = gpoly << i
        if w.bit_count() % 2:
            w |= 1 << 23
        rows.append(w)
    return BinaryCode(24, rows, name="golay24")


def reed_muller_2_5() -> BinaryCode:
    """The Reed-Muller code RM(2,5): length 32, dimension 16, doubly even
    self-dual, 620 words of weight 8."""
    pts = range(32)
    rows = []
    ones = (1 << 32) - 1
    rows.append(ones)
    xs = []
    for i in range(5):
        xi = sum(((p >> i) & 1) << p for p in pts)
        xs.append(xi)
    rows.extend(xs)
    for i in range(5):
        for j in range(i + 1, 5):
            rows.append(xs[i] & xs[j])
    return BinaryCode(32, rows, name="rm(2,5)")


def code_from_lines(lines, name="") -> BinaryCode:
    """Parse a code from 0/1 strings, one generator row per line."""
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows:
        raise ValueError("empty code file")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged code rows")
    if any(set(r) - {"0", "1"} for r in rows):
        raise ValueError("code rows must be 0/1 strings")
    return BinaryCode(n, rows, name=name)


BUILTIN_CODES = {
    "hamming8": hamming8,
    "golay24": golay24,
    "rm32": reed_muller_2_5,
}


# -- code lattice -------------------------------------------------------------


def code_to_odd_lattice(code: BinaryCode) -> Lattice:
    """Unimodular lattice from a doubly even self-dual code of length 8k.

    Spanned by (1/sqrt 8) times: the all-but-one-negative vector
    (-3, 1, ..., 1), the doubled codewords 2u, and 4 D_n (vectors 4e_i +-
    4e_j).  For n = 32 the result is odd with minimal norm 4; for the Golay
    code it is the even Leech lattice.
    """
    n = code.n
    if n < 8 or n % 8:
        raise ValueError("code length must be a positive multiple of 8, not %d" % n)
    if not code.is_self_dual():
        raise ValueError("code must be self-dual")
    if not code.is_doubly_even():
        raise ValueError("code must be doubly even")
    rows = [[-3] + [1] * (n - 1)]
    for g in code.generators:
        rows.append([2 * ((g >> i) & 1) for i in range(n)])
    for i in range(n - 1):
        r = [0] * n
        r[i], r[i + 1] = 4, -4
        rows.append(r)
    r = [0] * n
    r[0] = r[1] = 4
    rows.append(r)
    basis = hnf_rows(rows)
    assert len(basis) == n
    return Lattice.from_ints(None, (1, basis), scale_sq=Fraction(1, 8), name=f"L({code.name})")
