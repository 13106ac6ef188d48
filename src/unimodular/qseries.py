"""Exact truncated q-series on the quarter-integer exponent grid.

A series is a finite map from exponents-in-quarters to rational
coefficients: the key e stands for the monomial q^(e/4).  Integer-exponent
series are the special case e = 0 (mod 4).  Every series carries a
truncation bound: coefficients at exponents >= trunc are unknown, not
zero, and all arithmetic propagates the largest bound it can still
guarantee (the minimum of the operand bounds, shifted by the valuation of
the other factor under multiplication).

Coefficients are exact rationals in one normal form: an int when the
coefficient is integral, a reduced fractions.Fraction when it is not, and
a zero is never stored.  Almost every series the engines build is
integral (theta2, theta3, theta4, delta8, g2, h2, E4, Delta24 and their
products), so the arithmetic runs on ints: a product clears each factor
to integer numerators over one common denominator, convolves in ints and
divides once; a rational scalar p/q scales the cleared numerators by p
and the denominator by q, one int pass.  Each series clears itself once,
on first use, and keeps the cleared form, so a cached basis series is
not cleared again by every product and combination it enters; a product,
power or combination divided by 1 is made with its cleared form, so it
is never scanned.
There is no floating point: a float coefficient, exponent or truncation
is a TypeError, and `QSeries.coeff` returns a Fraction, so dividing what
it returns stays exact.

A power f^k is not built from products.  It is one pass of J.C.P.
Miller's recurrence over f's nonzero terms per coefficient, on f's own
exponent grid, in ints with exact divisions, for any k when f is a unit
(constant term +-1 once cleared).  That costs O(T * #terms) for T
coefficients, so the sparse thetas and Euler's pentagonal series reach
any power, theta3's negative ones too, without a dense product; each
classical quotient then costs one product, and delta8 / theta3^8, the
theta basis's step, is one product of two such powers by Jacobi's
identity.  A dense series is raised along a product chain
(`power_chain`), one product per power.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index

from .linalg import clear_denominators


def rat_str(x) -> str:
    """Render an exact rational as 'p' or 'p/q'."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s) -> Fraction:
    """Parse 'p' or 'p/q' (or an int) into a Fraction.  A float or a bool
    is a TypeError: neither is an exact rational as written."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, (bool, float)):
        raise TypeError("%r is not an exact rational" % (s,))
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % s) from None


def _exact(c):
    """c in normal form: an int when integral, else a reduced Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficient %r is not an int or a Fraction" % (c,))


def _from_nums(nums, den: int, trunc: int) -> "QSeries":
    """The series of the terms c / den of (e, int c) pairs, each e < trunc,
    in normal form, zeros dropped.  Over den 1 every term is an int, so the
    series keeps its terms as its cleared form and no later product or
    combination scans them again."""
    if den == 1:
        s = QSeries._make({e: c for e, c in nums if c}, trunc)
        s._ints = 1, s.terms.items()
        return s
    out = {}
    for e, c in nums:
        if c:
            q, r = divmod(c, den)
            out[e] = Fraction(c, den) if r else q
    return QSeries._make(out, trunc)


def _monomial_str(e: int) -> str:
    if e == 0:
        return ""
    if e % 4 == 0:
        k = e // 4
        return "q" if k == 1 else f"q^{k}"
    return f"q^({e}/4)"


class QSeries:
    """Truncated series sum_e c_e q^(e/4), immutable by convention.

    terms: dict exponent-in-quarters -> nonzero coefficient in normal form
    (int, or Fraction with denominator > 1), sorted, every key < trunc.
    trunc: first unknown exponent (in quarters), at least 1.
    The cleared form of `terms` is computed on first use and kept.
    """

    __slots__ = ("terms", "trunc", "_ints")

    def __init__(self, terms=(), trunc: int = 1):
        trunc = index(trunc)
        if trunc < 1:
            raise ValueError("truncation must be positive")
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for e, c in items:
            e = index(e)
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            c = _exact(c)
            if e < trunc and c:
                acc[e] = acc[e] + c if e in acc else c
        self.terms = {e: _exact(c) for e, c in sorted(acc.items()) if c}
        self.trunc = trunc
        self._ints = None

    @classmethod
    def _make(cls, terms: dict, trunc: int) -> "QSeries":
        """Wrap terms that are already in normal form, sorted and < trunc."""
        s = object.__new__(cls)
        s.terms = terms
        s.trunc = trunc
        s._ints = None
        return s

    def _cleared(self):
        """(den, (e, den * c_e) pairs in exponent order), den the lcm of the
        denominators.  Computed once per series, unless the series was made
        with it; an integral series (den 1) hands out its own items, so the
        cache costs it no copy."""
        if self._ints is None:
            terms = self.terms
            # in normal form a coefficient is integral exactly when an int
            if all(type(c) is int for c in terms.values()):
                self._ints = 1, terms.items()
            else:
                den, (nums,) = clear_denominators([list(terms.values())])
                self._ints = den, list(zip(terms, nums))
        return self._ints

    def __reduce__(self):
        # a copy or a pickle carries terms and truncation only: the cleared
        # form of an integral series is a view of its terms, which neither
        # copies nor pickles, and a copy clears itself again on first use
        return QSeries._make, (self.terms, self.trunc)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def one(trunc: int) -> "QSeries":
        return QSeries({0: 1}, trunc)

    # -- inspection -------------------------------------------------------

    def coeff(self, e: int) -> Fraction:
        """Coefficient of q^(e/4); e must lie below the truncation."""
        if e >= self.trunc:
            raise ValueError(f"exponent {e}/4 is beyond truncation {self.trunc}/4")
        return Fraction(self.terms.get(e, 0))

    def items(self):
        """Sorted (exponent-in-quarters, coefficient) pairs."""
        return list(self.terms.items())

    def valuation(self) -> int:
        """Least stored exponent; equals trunc for the (known-)zero series."""
        return next(iter(self.terms), self.trunc)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries({0: other}, self.trunc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = min(self.trunc, o.trunc)
        acc = dict(self.terms)
        for e, c in o.terms.items():
            acc[e] = acc[e] + c if e in acc else c
        return QSeries._make(
            {e: _exact(c) for e, c in sorted(acc.items()) if e < t and c}, t)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._make({e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # k = p/q scales the cleared numerators by p and the denominator
            # by q: one int pass, divided once
            p = other.numerator
            if not p:
                return QSeries._make({}, self.trunc)
            den, nums = self._cleared()
            return _from_nums(((e, c * p) for e, c in nums), den * other.denominator, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.trunc + other.valuation(), other.trunc + self.valuation())
        da, a = self._cleared()
        db, b = other._cleared()
        acc = [0] * t
        if b:
            b0 = other.valuation()
            for e1, c1 in a:
                if e1 + b0 >= t:
                    break
                for e2, c2 in b:
                    e = e1 + e2
                    if e >= t:
                        break
                    acc[e] += c1 * c2
        return _from_nums(enumerate(acc), da * db, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self^k for k >= 0, in one sparse pass (`_power`), known as far as
        k - 1 products would know it: up to trunc + (k-1)*valuation."""
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _power(self, k)

    def truncate(self, t: int) -> "QSeries":
        """Forget coefficients at exponents >= t (cannot extend knowledge).
        Cutting nothing returns the series itself, its cleared form kept."""
        t = index(t)
        if t >= self.trunc:
            return self
        return QSeries._make({e: c for e, c in self.terms.items() if e < t}, t)

    def subs_q2(self) -> "QSeries":
        """Substitute q -> q^2: doubles every exponent and the truncation."""
        return QSeries._make({2 * e: c for e, c in self.terms.items()}, 2 * self.trunc)

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries({0: other}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((tuple(self.terms.items()), self.trunc))

    def agrees_with(self, other: "QSeries", upto: int | None = None) -> bool:
        """True when coefficients match at every exponent < upto.

        Default upto is the shared truncation.
        """
        t = min(self.trunc, other.trunc)
        if upto is not None:
            if upto > t:
                raise ValueError("comparison window exceeds truncation")
            t = upto
        for e in set(self.terms) | set(other.terms):
            if e < t and self.terms.get(e, 0) != other.terms.get(e, 0):
                return False
        return True

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms.items():
            mono = _monomial_str(e)
            if not mono:
                parts.append((c < 0, rat_str(abs(c))))
            elif abs(c) == 1:
                parts.append((c < 0, mono))
            else:
                parts.append((c < 0, f"{rat_str(abs(c))}*{mono}"))
        out = []
        for i, (neg, body) in enumerate(parts):
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def __repr__(self):
        return f"QSeries({self}, trunc={self.trunc}/4)"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "den4": [[e, rat_str(c)] for e, c in self.terms.items()],
            "trunc": self.trunc,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "QSeries":
        return QSeries([(int(e), parse_rat(c)) for e, c in d["den4"]], int(d["trunc"]))


def _power(f: QSeries, k: int) -> QSeries:
    """f^k in one sparse pass, by J.C.P. Miller's recurrence (Knuth, TAOCP
    vol. 2, 4.7), known up to trunc + (k-1)*valuation.

    Write f = q^e0 * F(q^g), g the gcd of the exponent gaps, with F cleared
    to integer numerators A_i over den.  Then G = F^k satisfies
    G_0 = A_0^k and j*A_0*G_j = sum_{i>=1} ((k+1)*i - j) * A_i * G_(j-i),
    which costs one pass over F's nonzero terms per coefficient of G.
    Every G_j is an integer, so each division is exact, and the result is
    divided once by den^k.  A negative k needs e0 = 0 and A_0 = +-1, else
    it is a ValueError: then F is a unit, G is integral, and f^k is G times
    den^|k|."""
    if k == 0:
        return QSeries.one(f.trunc)
    e0 = f.valuation()
    if k < 0 and (e0 or abs(f.terms[0] * f._cleared()[0]) != 1):
        raise ValueError("a negative power needs valuation 0 and a constant term +-1/den")
    t = f.trunc + (k - 1) * e0
    if not f.terms:
        return QSeries._make({}, t)
    den, nums = f._cleared()
    # a monomial has no gaps; g = trunc - e0 leaves G_0 alone below trunc
    g = gcd(*(e - e0 for e, _ in nums)) or f.trunc - e0
    (_, a0), *rest = nums
    # f^k = G / den^k; for k < 0, A_0^k = A_0^|k| and f^k = G * den^|k|
    scale, den = (1, den ** k) if k > 0 else (den ** -k, 1)
    tail = [((e - e0) // g, c) for e, c in rest]  # (i, A_i), i ascending
    out = [a0 ** abs(k)]
    for j in range(1, -(-(f.trunc - e0) // g)):  # while e0 + g*j < trunc
        acc = 0
        for i, c in tail:
            if i > j:
                break
            acc += ((k + 1) * i - j) * c * out[j - i]
        q, r = divmod(acc, j * a0)
        assert not r, "inexact step %d in the power recurrence" % j
        out.append(q)
    return _from_nums(((k * e0 + g * j, c * scale) for j, c in enumerate(out)), den, t)


def combine(coeffs, basis) -> QSeries:
    """sum_j coeffs[j] * basis[j], known up to the basis truncation.

    Every term is brought over one common denominator, summed in ints and
    divided once."""
    if len(coeffs) != len(basis):
        raise ValueError("expected %d coefficients" % len(basis))
    t = min(b.trunc for b in basis)
    parts = []
    for a, b in zip(coeffs, basis):
        a = _exact(a)
        if a:
            d, nums = b._cleared()
            parts.append((a.numerator, a.denominator * d, nums))
    den = lcm(*(q for _, q, _ in parts))
    acc = [0] * t
    for p, q, nums in parts:
        f = p * (den // q)
        for e, c in nums:
            if e >= t:
                break
            acc[e] += f * c
    return _from_nums(enumerate(acc), den, t)


def power_chain(base: QSeries, first: QSeries, count: int, trunc: int) -> list[QSeries]:
    """[first, first*base, first*base^2, ...], count series, each truncated
    at `trunc`: the successive powers a basis needs, one product apart."""
    out = [first.truncate(trunc)]
    for _ in range(count - 1):
        out.append((out[-1] * base).truncate(trunc))
    return out


def power_basis(a: QSeries, top: int, step: int, bpowers, trunc: int) -> list[QSeries]:
    """[a^(top - step*j) * bpowers[j] for each j], each truncated at `trunc`:
    each power of a taken directly by `QSeries.__pow__` and one product per
    term.  The caller builds bpowers, b^j for the basis's second factor b."""
    return [(a ** (top - step * j) * b).truncate(trunc) for j, b in enumerate(bpowers)]


# -- classical series --------------------------------------------------------
#
# All constructors take the truncation in quarters and build integer
# coefficients.  The theta series are read off their exponents; every other
# classical series is a quotient of thetas or a power of Euler's pentagonal
# series, so it costs powers by `_power` and at most one product:
# delta8 / theta3^8 is the product of the powers q J^4 and theta3^-12 of
# two sparse series, with no delta8 built.


@lru_cache(maxsize=None)
def theta3(trunc: int) -> QSeries:
    """theta3(q) = 1 + 2q + 2q^4 + 2q^9 + ... (exponents m^2)."""
    terms = {0: 1}
    m = 1
    while 4 * m * m < trunc:
        terms[4 * m * m] = 2
        m += 1
    return QSeries(terms, trunc)


@lru_cache(maxsize=None)
def theta4(trunc: int) -> QSeries:
    """theta4(q) = theta3(-q) = 1 - 2q + 2q^4 - 2q^9 + ... (alternating m^2)."""
    # q^(m^2) sits at 4m^2 quarters, and m^2 has the parity of m
    return QSeries._make({e: -c if e // 4 & 1 else c for e, c in theta3(trunc).terms.items()},
                         trunc)


@lru_cache(maxsize=None)
def theta2(trunc: int) -> QSeries:
    """theta2(q) = 2q^(1/4) + 2q^(9/4) + ... (exponents (2m+1)^2/4)."""
    terms = {}
    m = 0
    while (2 * m + 1) ** 2 < trunc:
        terms[(2 * m + 1) ** 2] = 2
        m += 1
    return QSeries(terms, trunc)


@lru_cache(maxsize=None)
def delta8(trunc: int) -> QSeries:
    """delta8 = theta2^4 theta4^4 / 16 = q prod_m (1-q^(2m-1))^8 (1-q^(4m))^8
    = q - 8q^2 + 28q^3 - ..., the weight-4 form for the theta expansion of
    odd unimodular lattices.  The engines use it through `delta8_ratio`,
    which does not build it, so it is that ratio's independent check."""
    if trunc < 8:
        raise ValueError("truncation too small for delta8")
    return (theta2(trunc) ** 4).truncate(trunc) * theta4(trunc) ** 4 * Fraction(1, 16)


@lru_cache(maxsize=None)
def delta8_ratio(trunc: int) -> QSeries:
    """delta8 / theta3^8 = g2 h2 / 16 = q - 24q^2 + ..., the step of the
    theta basis: delta8^j theta3^(n-8j) = theta3^n (delta8 / theta3^8)^j.

    By Jacobi's identity theta2 theta3 theta4 = 2 q^(1/4) J with
    J = prod_m (1-q^(2m))^3 = sum_m (-1)^m (2m+1) q^(m(m+1)) (SPLAG ch. 4,
    4.1), delta8 = q J^4 / theta3^4, so the ratio is q J^4 theta3^-12.
    q^(1/4) J = sum_m (-1)^m (2m+1) q^((2m+1)^2/4) lies on theta2's
    exponents, and its 4th power is q J^4: two power passes over sparse
    series and one product, no delta8 built."""
    if trunc < 8:
        raise ValueError("truncation too small for delta8")
    # the 4th power of a series of valuation 1/4 is known 3/4 further
    terms, m = {}, 0
    while (2 * m + 1) ** 2 < trunc - 3:
        terms[(2 * m + 1) ** 2] = (-1) ** m * (2 * m + 1)
        m += 1
    return _power(QSeries._make(terms, trunc - 3), 4) * _power(theta3(trunc), -12)


@lru_cache(maxsize=None)
def g2(trunc: int) -> QSeries:
    """g2 = theta2^4 / theta3^4 = 16q prod_m ((1+q^(2m))/(1+q^(2m-1)))^8
    = 16q - 128q^2 + ...; g2 + h2 = 1."""
    if trunc < 8:
        raise ValueError("truncation too small")
    return (theta2(trunc) ** 4).truncate(trunc) * _power(theta3(trunc), -4)


@lru_cache(maxsize=None)
def h2(trunc: int) -> QSeries:
    """h2 = theta4^4 / theta3^4 = prod_m ((1-q^(2m-1))/(1+q^(2m-1)))^8
    = 1 - 16q + 128q^2 - ...; g2 + h2 = 1."""
    if trunc < 8:
        raise ValueError("truncation too small")
    return theta4(trunc) ** 4 * _power(theta3(trunc), -4)


@lru_cache(maxsize=None)
def eisenstein_e4(trunc: int) -> QSeries:
    """E4 in the nome x = q^2: 1 + 240 sum sigma3(m) x^m, x^m at 8m quarters."""
    if trunc < 9:
        raise ValueError("truncation too small for eisenstein_e4")
    mmax = (trunc - 1) // 8
    terms = {0: 1}
    for m in range(1, mmax + 1):
        sigma3 = sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
        terms[8 * m] = 240 * sigma3
    return QSeries(terms, trunc)


@lru_cache(maxsize=None)
def cusp_delta24(trunc: int) -> QSeries:
    """The weight-12 cusp form in the nome x = q^2: x prod (1-x^m)^24,
    that is x P(x)^24 with Euler's pentagonal series
    P = prod (1-x^m) = sum_k (-1)^k x^(k(3k-1)/2), k over all integers."""
    if trunc < 9:
        raise ValueError("truncation too small for cusp_delta24")
    t = trunc - 8  # the leading x lifts the power's truncation to trunc
    terms, k = {0: 1}, 1
    while 4 * k * (3 * k - 1) < t:  # x^(k(3k-1)/2) at 8 * k(3k-1)/2 quarters
        for m in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            terms[8 * m] = (-1) ** k
        k += 1
    return _from_nums(((e + 8, c) for e, c in (QSeries(terms, t) ** 24).terms.items()), 1, trunc)
