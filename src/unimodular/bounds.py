"""Certified upper bounds for the minimal norm of unimodular lattices.

The theta series of an n-dimensional odd unimodular lattice L lies in the
ring generated by theta3 and the weight-4 form delta8, so

    Theta_L = sum_{j=0}^{[n/8]} a_j * delta8^j * theta3^(n-8j)

with integer a_j, and the theta series of its shadow S (the translates of
the even sublattice inside the dual that are not in L) is obtained by the
standard imaginary transformation of each basis term:

    Theta_S = sum_j (-1)^j / 16^j * a_j * theta4(q^2)^(8j) * theta2^(n-8j).

If L has minimal norm mu, the coefficients of q^1 .. q^(mu-1) in Theta_L
vanish; this forces a_0 .. a_(mu-1) and leaves a_mu .. a_[n/8] free.  Both
series must then have coefficients that could count lattice vectors:

  * every coefficient is a nonnegative integer;
  * vectors come in +/- pairs, so all shadow coefficients and all theta
    coefficients beyond the constant term are even;
  * writing beta_r for the number of shadow vectors of norm r, at most one
    beta_r with r < (mu+2)/2 is nonzero, beta_r = 0 for r < mu/4, and
    beta_r <= 2 for r < mu/2 (differences and sums of shadow vectors land
    in L, which has minimal norm mu);
  * if 2k shadow vectors have norm s < (mu+2)/2, picking one from each
    antipodal pair gives k vectors whose pairwise inner products are
    forced into a small set; if only one inner product b is possible the
    Gram matrix (s-b)I + bJ must be positive semidefinite of rank <= n.

`feasibility_scan` decides whether such a coefficient assignment exists
for a given (n, mu); `mu_upper` combines the odd scan with the classical
even-lattice bound (extremal modular form) into a certified upper bound,
and `table1` tabulates the results.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .linalg import clear_denominators
from .qseries import (
    QSeries,
    combine,
    cusp_delta24,
    delta8_ratio,
    eisenstein_e4,
    power_basis,
    power_chain,
    rat_str,
    theta2,
    theta3,
    theta4,
)

# Elimination reasons, ordered from shallowest to deepest check.  A scan
# that needs a deeper check to kill every branch reports the deepest
# reason used.
R_PREFIX = "prefix violation"
R_NONINT = "non-integral coefficient"
R_NEG = "negative coefficient"
R_PARITY = "parity violation"
R_COUNT = "shadow-count violation"
R_RANK = "rank obstruction"
R_UNBOUNDED = "unbounded free coefficient"
R_LIMIT = "candidate limit exceeded"

#: Per-coefficient kill rules of a complete branch, tried in this order:
#: (reason, adjective for the detail, test that kills the coefficient).
#: A value c/den passes all three exactly when c >= 0 and 2*den divides c:
#: it is integral iff den | c, nonnegative iff c >= 0, and then even iff
#: 2*den | c.  `feasibility_scan` tests that on its int window first and
#: runs this table only on a window that fails it.
_COEFF_RULES = (
    (R_NONINT, "", lambda c: c.denominator != 1),
    (R_NEG, "", lambda c: c < 0),
    (R_PARITY, "odd ", lambda c: c % 2 != 0),
)
_SEVERITY = {r: i for i, r in enumerate(
    (R_PREFIX, *(rule[0] for rule in _COEFF_RULES), R_COUNT, R_RANK))}

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "inconclusive"

MAX_CANDIDATES = 4096


# ---------------------------------------------------------------------------
# basis series


@lru_cache(maxsize=None)
def theta_basis(n: int, trunc: int) -> tuple[QSeries, ...]:
    """Basis delta8^j * theta3^(n-8j), j = 0..[n/8], truncated at `trunc`:
    the chain theta3^n * r^j with r = delta8 / theta3^8, one product per
    j >= 1 after theta3^n, which the power recurrence builds."""
    if n < 1:
        raise ValueError("dimension must be positive")
    # below dimension 8 the basis is theta3^n alone, and r is not built
    r = delta8_ratio(trunc) if n >= 8 else None
    return tuple(power_chain(r, theta3(trunc) ** n, n // 8 + 1, trunc))


@lru_cache(maxsize=None)
def shadow_basis(n: int, trunc: int) -> tuple[QSeries, ...]:
    """Shadow counterparts (-1/16)^j * theta4(q^2)^(8j) * theta2^(n-8j)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    # theta4(q^2) is sparse, so each of its powers is taken directly
    t4q2 = theta4(trunc).subs_q2().truncate(trunc)
    t4pows = [t4q2 ** (8 * j) for j in range(n // 8 + 1)]
    basis = power_basis(theta2(trunc), n, 8, t4pows, trunc)
    return tuple(s * Fraction((-1) ** j, 16 ** j) for j, s in enumerate(basis))


def lattice_theta(n: int, coeffs, trunc: int) -> QSeries:
    """sum a_j * delta8^j * theta3^(n-8j) for the given coefficients."""
    return combine(coeffs, theta_basis(n, trunc))


def shadow_theta(n: int, coeffs, trunc: int) -> QSeries:
    """Shadow theta series attached to the same coefficients."""
    return combine(coeffs, shadow_basis(n, trunc))


def default_trunc(n: int, mu: int) -> int:
    """Truncation (in quarter-norm units) covering every checked window."""
    return max(4 * (mu + 4) + 1, n + 33)


# ---------------------------------------------------------------------------
# prefix fit


def back_substitute(basis, targets, step: int):
    """Fit sum_j a_j * basis[j] to the coefficients `targets` at the
    exponents step*m (m = 0, 1, ...) of a unitriangular basis: basis[j]
    vanishes below step*j and has coefficient 1 there.

    Returns (coeffs, residual).  coeffs holds a_0..a_(k-1) for
    k = min(len(targets), len(basis)); the equations m >= len(basis) are
    overdetermined checks, and residual lists (m, fitted - target) for each
    one the fit misses.
    """
    last = len(targets) - 1
    if any(b.trunc <= step * last for b in basis[:last]):
        raise ValueError("basis truncated below exponent %d/4" % (step * last))
    # the sums run on the stored coefficients, ints for an integral basis
    coeffs = []
    residual = []
    for m, target in enumerate(targets):
        e = step * m
        acc = sum(a * b.terms.get(e, 0) for a, b in zip(coeffs, basis) if a)
        if m < len(basis):
            coeffs.append(target - acc)
        elif acc != target:
            residual.append((m, Fraction(acc - target)))
    return [Fraction(a) for a in coeffs], residual


@dataclass
class ThetaFit:
    """Partially determined basis coefficients for a minimal-norm target.

    coeffs[j] is the forced value of a_j, or None for a free coefficient.
    prefix_residual lists (m, value) pairs where a fully forced fit fails
    to kill the q^m theta coefficient, m < mu.
    """

    dim: int
    mu: int
    trunc: int
    coeffs: list
    prefix_residual: list = field(default_factory=list)

    @property
    def free(self) -> list[int]:
        return [j for j, a in enumerate(self.coeffs) if a is None]

    def resolved(self, assignment: dict) -> list[Fraction]:
        out = []
        for j, a in enumerate(self.coeffs):
            out.append(Fraction(assignment[j]) if a is None else a)
        return out


def solve_prefix(n: int, mu: int) -> ThetaFit:
    """Force a_0..a_(mu-1) from Theta_L = 1 + O(q^mu).

    The basis is unitriangular in the q-grading (delta8^j starts at q^j
    with coefficient 1), so the first min(mu, [n/8]+1) coefficients are
    determined; any further prefix equations are overdetermined checks and
    land in prefix_residual when violated.  The series are truncated at
    `default_trunc(n, mu)`.
    """
    if mu < 1:
        raise ValueError("minimal norm target must be >= 1")
    trunc = default_trunc(n, mu)
    basis = theta_basis(n, trunc)
    forced, residual = back_substitute(basis, [1] + [0] * (mu - 1), 4)
    # an integral unitriangular basis and integer targets force integers
    assert all(a.denominator == 1 for a in forced)
    coeffs = [int(a) for a in forced] + [None] * (len(basis) - len(forced))
    return ThetaFit(n, mu, trunc, coeffs, residual)


def fit_from_theta(n: int, theta: QSeries) -> list[Fraction]:
    """Recover the basis coefficients of a known lattice theta series.

    Needs the coefficients of q^0..q^[n/8]; raises if `theta` is truncated
    too early.
    """
    jmax = n // 8
    if theta.trunc <= 4 * jmax:
        raise ValueError("theta series must be known past q^%d" % jmax)
    basis = theta_basis(n, max(4 * jmax + 1, 8))
    return back_substitute(basis, [theta.coeff(4 * m) for m in range(jmax + 1)], 4)[0]


# ---------------------------------------------------------------------------
# Gram-matrix obstruction


@dataclass
class GramCheck:
    """Outcome of the pairwise inner-product test for k shadow vectors of
    norm s in a lattice of minimal norm mu: the admissible inner products
    tset and whether the Gram matrix they force is impossible.  `detail`
    explains the outcome, formatted from the fields when it is read."""

    dim: int
    mu: int
    s: Fraction
    k: int
    tset: tuple
    contradiction: bool

    @property
    def detail(self) -> str:
        k, s, tset = self.k, self.s, self.tset
        if k < 2:
            return "fewer than two vectors, nothing to compare"
        if len(tset) == 0:
            return "no admissible inner product (test inconclusive)"
        if len(tset) > 1:
            return "several admissible inner products %s" % ", ".join(rat_str(t) for t in tset)
        b = tset[0]
        lam2 = s + (k - 1) * b
        if lam2 < 0:
            return ("%d vectors of norm %s with pairwise inner product %s give "
                    "a Gram matrix with negative eigenvalue %s"
                    % (k, rat_str(s), rat_str(b), rat_str(lam2)))
        rank = k - 1 + (lam2 > 0)
        if rank > self.dim:
            return ("%d vectors of norm %s with pairwise inner product %s span "
                    "rank %d > dimension %d" % (k, rat_str(s), rat_str(b), rank, self.dim))
        return "Gram matrix (s-b)I + bJ with b=%s is admissible (rank %d)" % (rat_str(b), rank)


def gram_obstruction(n: int, s, k: int, mu: int) -> GramCheck:
    """Check whether k norm-s shadow vectors can coexist in dimension n.

    For distinct shadow vectors u, v (no antipodal pairs among the k), both
    u-v and u+v are nonzero lattice vectors, neither shorter than mu, and
    |t| < s for t = u.v.  The shadow is the two cosets of the even
    sublattice L0 in L0* outside L.  For odd n, L0*/L0 is Z/4, the two
    cosets are each other's negatives, and choosing from each antipodal
    pair the vector in one fixed coset puts every u-v in L0, so |u-v|^2 is
    even.  For even n, L0*/L0 is (Z/2)^2, each coset is its own negative,
    and the k vectors may split across the cosets; for u, v in different
    cosets u-v lies in L but not in L0, so |u-v|^2 is odd.  That confines t
    to

        T = { t : |t| < s, 2s-2t an integer >= mu (even for odd n),
                           2s+2t an integer >= mu }.

    If T = {b}, the Gram matrix of the k vectors is (s-b)I + bJ with
    eigenvalues s-b (k-1 times) and s+(k-1)b; it must be positive
    semidefinite of rank <= n.  If T has several elements the test is
    inconclusive.  The test runs in quarter-ints: `_admissible` gives 4t for
    each t in T, and 4*lam2 = 4s + (k-1)*4b decides the contradiction.
    """
    s = Fraction(s)
    if s <= 0:
        raise ValueError("shadow norm must be positive")
    if (4 * s).denominator != 1:  # then |u+v|^2 is never an integer
        return GramCheck(n, mu, s, k, (), False)
    s4 = int(4 * s)
    tset4, tset = _admissible(n, s4, mu)
    return GramCheck(n, mu, s, k, tset, _contradiction(n, s4, tset4, k))


def _admissible(n: int, s4: int, mu: int) -> tuple:
    """(4t for each t in T, T as Fractions), T ascending, for shadow norm
    s = s4/4: the part of the Gram test that (n, s, mu) fixes."""
    # q1 = |u-v|^2 is at least mu (and even for odd n); |u+v|^2 = 4s - q1 is
    # an integer and must be at least mu; |t| < s means 0 < q1 < 4s.  So q1
    # runs from mu (rounded up to even for odd n) to min(4s - mu, 4s - 1),
    # and 4t = 4s - 2 q1.
    top = min(s4 - mu, s4 - 1)
    q1s = range(mu + (mu % 2), top + 1, 2) if n % 2 else range(mu, top + 1)
    tset4 = tuple(s4 - 2 * q1 for q1 in reversed(q1s))
    return tset4, tuple(Fraction(t4, 4) for t4 in tset4)


def _contradiction(n: int, s4: int, tset4: tuple, k: int) -> bool:
    """Whether k vectors of norm s4/4 with the one inner product tset4[0]/4
    force an impossible Gram matrix; False unless k >= 2 and |T| = 1."""
    if k < 2 or len(tset4) != 1:
        return False
    # the other eigenvalue s-b is positive since b < s; the rank is k-1 plus
    # one when lam2 > 0
    lam4 = s4 + (k - 1) * tset4[0]
    return lam4 < 0 or k - 1 + (lam4 > 0) > n


# ---------------------------------------------------------------------------
# feasibility scan


@dataclass
class Branch:
    """One assignment of the free coefficients, with its verdict.

    A complete branch (every free coefficient assigned) keeps the scan's
    `fit`; its coefficients, and its theta and shadow series through
    `lattice_theta` / `shadow_theta`, are derived from the fit and the
    assignment, each built once, on first read.  A branch cut off while
    the free coefficients were resolved has no fit, coefficients or series.
    A rank kill's `detail` is its obstruction's, formatted when read.
    """

    assignment: dict
    verdict: str
    reason: str | None = None
    _detail: str | None = None
    obstruction: GramCheck | None = None
    fit: ThetaFit | None = None

    @property
    def detail(self) -> str | None:
        if self.reason == R_RANK:
            return self.obstruction.detail
        return self._detail

    @cached_property
    def coeffs(self) -> list | None:
        return None if self.fit is None else self.fit.resolved(self.assignment)

    @cached_property
    def theta(self) -> QSeries | None:
        if self.fit is None:
            return None
        th = lattice_theta(self.fit.dim, self.coeffs, self.fit.trunc)
        assert th.coeff(0) == 1
        return th

    @cached_property
    def shadow(self) -> QSeries | None:
        if self.fit is None:
            return None
        return shadow_theta(self.fit.dim, self.coeffs, self.fit.trunc)

    def to_json_dict(self) -> dict:
        d = {
            "assignment": {str(j): rat_str(a) for j, a in self.assignment.items()},
            "verdict": self.verdict,
        }
        if self.reason:
            d["reason"] = self.reason
        if self.detail:
            d["detail"] = self.detail
        if self.coeffs is not None:
            d["coefficients"] = [rat_str(a) for a in self.coeffs]
        if self.theta is not None:
            d["theta"] = str(self.theta)
        if self.shadow is not None:
            d["shadow"] = str(self.shadow)
        return d


@dataclass
class FeasibilityReport:
    """Outcome of scanning dimension `dim` for minimal norm `mu`.  A
    feasible report's `theta` and `shadow` are the witness series of its
    first feasible branch, built when read."""

    dim: int
    mu: int
    verdict: str
    reason: str | None
    detail: str | None
    fit: ThetaFit
    branches: list

    @property
    def feasible(self) -> bool:
        return self.verdict == FEASIBLE

    def _witness(self) -> Branch | None:
        feasible = [b for b in self.branches if b.verdict == FEASIBLE]
        return feasible[0] if feasible and self.verdict == FEASIBLE else None

    @property
    def theta(self) -> QSeries | None:
        w = self._witness()
        return w and w.theta

    @property
    def shadow(self) -> QSeries | None:
        w = self._witness()
        return w and w.shadow

    def to_json_dict(self) -> dict:
        d = {
            "dim": self.dim,
            "mu": self.mu,
            "verdict": self.verdict,
            "forced": {
                str(j): rat_str(a)
                for j, a in enumerate(self.fit.coeffs)
                if a is not None
            },
            "free": self.fit.free,
            "branches": [b.to_json_dict() for b in self.branches],
        }
        if self.reason:
            d["reason"] = self.reason
        if self.detail:
            d["detail"] = self.detail
        if self.theta is not None:
            d["theta"] = str(self.theta)
            d["shadow"] = str(self.shadow)
        return d

    def summary(self) -> str:
        head = "n=%d mu=%d: %s" % (self.dim, self.mu, self.verdict)
        if self.reason:
            head += " (%s)" % self.reason
        return head


def _shadow_grid(n: int, trunc: int) -> list[int]:
    """Shadow exponents (quarter-norm units): e = n mod 8 up to n+32."""
    e0 = n % 8
    return list(range(e0, min(n + 32, trunc - 1) + 1, 8))


def _solve_even_congruence(sv: int, tv: int, den: int):
    """Integers a with (sv + tv*a)/den an even integer (sign unconstrained).

    Returns (a0, step) describing the progression, or a reason string when
    empty: R_NONINT if (sv + tv*a)/den is never an integer, R_PARITY if
    integral values exist but never even.
    """
    # need sv + tv*a == 0 (mod 2*den)
    g = math.gcd(tv, 2 * den)
    if sv % g != 0:
        g1 = math.gcd(tv, den)
        return R_NONINT if sv % g1 != 0 else R_PARITY
    step = 2 * den // g
    a0 = (-sv // g * pow(tv // g, -1, step)) % step
    return a0, step


def _affine_bounds(constraints):
    """Integer interval from constraints s + t*a >= 0 (and <= cap).

    Each constraint is (s, t, cap) with t != 0; `cap` is None for a pure
    nonnegativity constraint.  Returns (lo, hi) with None marking an
    unbounded side.  Floor division keeps the bounds exact for int and
    Fraction input alike.
    """
    lo = None
    hi = None
    for s, t, cap in constraints:
        # s + t*a >= 0: a >= ceil(-s/t) for t > 0, a <= floor(-s/t) for t < 0
        if t > 0:
            b = -(s // t)
            lo = b if lo is None else max(lo, b)
        else:
            b = -s // t
            hi = b if hi is None else min(hi, b)
        if cap is not None:
            # s + t*a <= cap
            if t > 0:
                b = (cap - s) // t
                hi = b if hi is None else min(hi, b)
            else:
                b = -((s - cap) // t)
                lo = b if lo is None else max(lo, b)
    return lo, hi


def _progression_in(a0: int, step: int, lo: int, hi: int) -> list[int]:
    first = lo + (a0 - lo) % step
    if first > hi:
        return []
    return list(range(first, hi + 1, step))


def feasibility_scan(n: int, mu: int) -> FeasibilityReport:
    """Decide whether some odd unimodular theta/shadow pair in dimension n
    is compatible with minimal norm mu.

    Free coefficients are resolved from the top down (a_[n/8] first): the
    shadow coefficient at e = n-8j is the first place a_j appears, and
    requiring it to be an even integer in [0, 2] (the cap applies below
    norm mu/2) pins a_j to finitely many integers.  The last free
    coefficient is additionally bounded by nonnegativity over the whole
    checked window of both series.  Every complete assignment is then
    checked on that window (the shadow on `_shadow_grid`, theta at
    q^mu .. q^(mu+4)), read off the int window the resolution already
    carries, one rule at a time in severity order, so a branch reports the
    shallowest rule that kills it.  The check is decided in ints: one
    C-level pass tests the three coefficient rules at once (see
    `_COEFF_RULES`, whose loop runs only on a window that fails), the
    count rules read the grid's prefixes below mu/4, mu/2 and (mu+2)/2,
    and the Gram test's admissible set is computed once per scan for each
    shadow norm below (mu+2)/2; a Fraction is made only for a kill's
    detail.  No series is built for the check: a branch builds its theta
    and shadow series only when they are read.

    A free coefficient that is neither capped nor resolved last has no
    bound, and the scan is inconclusive.  This is why (n, 1) is
    inconclusive for 18 <= n <= 48 although Z^n exists: with mu = 1 only a
    shadow norm below 1/2 is capped, so some a_j other than the last is
    uncapped.  `mu_upper` never scans mu = 1 there, because (n, 2) is
    infeasible only for n <= 13, n != 12.
    """
    fit = solve_prefix(n, mu)
    trunc = fit.trunc
    if fit.prefix_residual:
        m, val = fit.prefix_residual[0]
        return FeasibilityReport(
            n, mu, INFEASIBLE, R_PREFIX,
            "forced fit leaves theta coefficient %s at q^%d" % (rat_str(val), m),
            fit, [])

    sbasis = shadow_basis(n, trunc)
    tbasis = theta_basis(n, trunc)
    grid = _shadow_grid(n, trunc)
    tgrid = [4 * m for m in range(mu, mu + 5) if 4 * m < trunc]
    free = fit.free  # ascending; resolution order is reversed
    branches: list[Branch] = []
    # Resolution reads each series only on its checked window: the shadow
    # on `grid`, theta at q^mu .. q^(mu+4).  Window k of a series is carried
    # as den * (its coefficients there), in ints over one denominator for the
    # whole scan: `fixed0` for the forced part (whose coefficients are
    # ints), `step[j]` per unit of a free a_j, so a branch adds int lists
    # instead of building series.
    den, step = clear_denominators(
        [[sb.terms.get(e, 0) for e in grid] + [tb.terms.get(e, 0) for e in tgrid]
         for sb, tb in zip(sbasis, tbasis)])
    fixed0 = [sum(a * w[k] for a, w in zip(fit.coeffs, step) if a)
              for k in range(len(step[0]))]
    # Everything a complete branch's check needs that depends only on the
    # scan: the ascending grid's prefixes e < mu (norm below mu/4), e < 2mu
    # (below mu/2) and e < 2mu + 4 (below (mu+2)/2), and the Gram test's
    # admissible set for each shadow norm of the last prefix.
    n_mu, n_cap, n_low = (bisect_left(grid, e) for e in (mu, 2 * mu, 2 * mu + 4))
    gram = [(Fraction(e, 4), *_admissible(n, e, mu)) for e in grid[:n_low]]
    den2 = 2 * den

    def norm(k: int) -> str:  # shadow norm of grid entry k, for a detail
        return rat_str(Fraction(grid[k], 4))

    def final_check(assignment: dict, fixed: list[int]) -> Branch:
        # `fixed` is the branch's window over `den`.  Theta below q^mu needs
        # no check: the forced part vanishes there (no prefix residual) and
        # every free a_j has j >= mu, with delta8^j vanishing below q^j.
        br = Branch(dict(assignment), FEASIBLE, fit=fit)

        def kill(reason: str, detail: str | None = None) -> Branch:
            br.verdict, br.reason, br._detail = INFEASIBLE, reason, detail
            return br

        if min(fixed) < 0 or any(map(den2.__rmod__, fixed)):
            # some coefficient rule fails (see _COEFF_RULES); the table
            # names the first one, on the values in normal form
            vals = [Fraction(c, den) if c % den else c // den for c in fixed]
            svals = vals[:len(grid)]
            tvals = [(e // 4, c) for e, c in zip(tgrid, vals[len(grid):])]
            for reason, adj, fails in _COEFF_RULES:
                for k, c in enumerate(svals):
                    if fails(c):
                        return kill(reason, "%sshadow coefficient %s at norm %s"
                                    % (adj, rat_str(c), norm(k)))
                for m, c in tvals:
                    if fails(c):
                        return kill(reason, "%stheta coefficient %s at q^%d"
                                    % (adj, rat_str(c), m))
            raise AssertionError("no coefficient rule fails on %s" % vals)
        # shadow count rules; every window value is now den times an even
        # integer >= 0
        for k in range(n_cap):
            c = fixed[k]
            if k < n_mu and c:
                return kill(R_COUNT, "shadow coefficient %d at norm %s below mu/4"
                            % (c // den, norm(k)))
            if c > den2:
                return kill(R_COUNT, "shadow coefficient %d at norm %s exceeds 2"
                            % (c // den, norm(k)))
        low = [k for k in range(n_low) if fixed[k]]
        if len(low) > 1:
            return kill(R_COUNT, "two shadow norms below (mu+2)/2: %s and %s"
                        % (norm(low[0]), norm(low[1])))
        # Gram-matrix rank obstruction on the fixed[k] / den2 antipodal
        # pairs of norm s
        for k in low:
            s, tset4, tset = gram[k]
            pairs = fixed[k] // den2
            br.obstruction = GramCheck(n, mu, s, pairs, tset,
                                       _contradiction(n, grid[k], tset4, pairs))
            if br.obstruction.contradiction:
                return kill(R_RANK)
        return br

    overflow: list[tuple[str, str]] = []  # (reason, detail)

    def resolve(idx: int, assignment: dict, fixed: list[int]):
        # idx counts down through `free`; free[idx] is the next coefficient
        if overflow:
            return
        if idx < 0:
            branches.append(final_check(assignment, fixed))
            return
        j = free[idx]
        last = idx == 0
        e_j = n - 8 * j
        k_j = n // 8 - j  # grid index of e_j
        t_j = step[j][k_j]
        assert t_j != 0
        prog = _solve_even_congruence(fixed[k_j], t_j, den)
        if isinstance(prog, str):
            branches.append(Branch(
                dict(assignment), INFEASIBLE, prog,
                "no integer a_%d makes the shadow coefficient at norm %s an "
                "even integer" % (j, rat_str(Fraction(e_j, 4)))))
            return
        a0, stride = prog
        own_cap = 2 * den if e_j < 2 * mu else None
        constraints = [(fixed[k_j], t_j, own_cap)]
        if own_cap is None:
            # No cap bounds this strip, so borrow nonnegativity constraints
            # from deeper coefficients that depend only on a_j.  This keeps
            # the candidate set finite without changing the verdict: a value
            # they exclude would fail the negativity pass anyway.  Window
            # entries past the shadow grid are theta's, which count from
            # q^mu on, so all of them are checked.
            if last:
                constraints += [(f, t, None) for k, (f, t) in enumerate(zip(fixed, step[j]))
                                if t != 0 and k != k_j]
        lo, hi = _affine_bounds(constraints)
        if lo is None or hi is None:
            overflow.append((R_UNBOUNDED,
                             "coefficient a_%d is not bounded by the checked window" % j))
            return
        cands = _progression_in(a0, stride, lo, hi)
        if not cands:
            # a capped strip has its one capped constraint; an uncapped one
            # only nonnegativity constraints
            reason = R_COUNT if own_cap is not None else R_NEG
            branches.append(Branch(
                dict(assignment), INFEASIBLE, reason,
                "no admissible value for a_%d: every choice violates the %s"
                % (j, "nonnegativity of some coefficient"
                   if reason == R_NEG else "shadow count cap below mu/2")))
            return
        if len(cands) > MAX_CANDIDATES:
            overflow.append((R_LIMIT, "coefficient a_%d admits %d candidates (limit %d)"
                             % (j, len(cands), MAX_CANDIDATES)))
            return
        for a in cands:
            assignment[j] = a
            resolve(idx - 1, assignment, [f + a * t for f, t in zip(fixed, step[j])])
            del assignment[j]

    resolve(len(free) - 1, {}, fixed0)
    # resolve refers to itself through its closure cell; drop that cycle so
    # the branches are freed with the report, without the cyclic collector
    del resolve

    if overflow:
        reason, detail = overflow[0]
        return FeasibilityReport(n, mu, INCONCLUSIVE, reason, detail, fit, branches)
    if any(b.verdict == FEASIBLE for b in branches):
        return FeasibilityReport(n, mu, FEASIBLE, None, None, fit, branches)
    if not branches:
        return FeasibilityReport(
            n, mu, INFEASIBLE, R_COUNT,
            "no candidate assignment for the free coefficients", fit, [])
    deepest = max(branches, key=lambda b: _SEVERITY.get(b.reason, 0))
    return FeasibilityReport(
        n, mu, INFEASIBLE, deepest.reason, deepest.detail, fit, branches)


# ---------------------------------------------------------------------------
# even lattices: extremal modular form


@dataclass
class EvenScan:
    """Largest minimal norm compatible with an even unimodular theta."""

    dim: int
    mu: int
    coeffs: list
    series: QSeries  # exponents in quarter-norm units (multiples of 8)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "mu": self.mu,
            "coefficients": [rat_str(c) for c in self.coeffs],
            "series": str(self.series),
        }


def even_extremal_scan(n: int) -> EvenScan | None:
    """Even unimodular lattices exist only for 8 | n; their theta series is
    a weight-n/2 polynomial in E4 and Delta24, so the minimal norm is at
    most 2[n/24] + 2.  Returns the largest feasible even minimal norm with
    its witness series, or None when n is not a multiple of 8.
    """
    if n % 8 != 0 or n < 8:
        return None
    m_count = n // 24 + 1
    trunc = 8 * (n // 24 + 6) + 1
    d24pows = power_chain(cusp_delta24(trunc), QSeries.one(trunc), m_count, trunc)
    basis = power_basis(eisenstein_e4(trunc), n // 8, 3, d24pows, trunc)
    xmax = (trunc - 1) // 8  # largest x-power available (x = q^2)

    for mu in range(2 * (n // 24) + 4, 0, -2):
        # the cusp form basis is unitriangular in x
        coeffs, residual = back_substitute(basis, [1] + [0] * (mu // 2 - 1), 8)
        if residual:
            continue
        coeffs += [Fraction(0)] * (m_count - len(coeffs))
        series = combine(coeffs, basis)
        # the kill rules of a scan branch, past the constant term
        good = not any(fails(series.coeff(8 * i))
                       for i in range(1, xmax + 1) for _, _, fails in _COEFF_RULES)
        if good and series.coeff(0) == 1:
            return EvenScan(n, mu, coeffs, series)
    raise AssertionError("no even theta fit found for n=%d" % n)


# ---------------------------------------------------------------------------
# certified upper bound and the table


@dataclass
class BoundCertificate:
    """mu_upper(n) together with the scans that prove it."""

    dim: int
    mu_upper: int
    odd_mu: int
    even_mu: int  # 0 when no even unimodular lattice exists in dim n
    odd_witness: FeasibilityReport
    odd_elimination: FeasibilityReport
    even_scan: EvenScan | None

    def to_json_dict(self) -> dict:
        d = {
            "dim": self.dim,
            "mu_upper": self.mu_upper,
            "odd_mu": self.odd_mu,
            "even_mu": self.even_mu or None,
            "odd_witness": self.odd_witness.to_json_dict(),
            "odd_elimination": self.odd_elimination.to_json_dict(),
        }
        if self.even_scan is not None:
            d["even_scan"] = self.even_scan.to_json_dict()
        return d


def mu_upper(n: int) -> BoundCertificate:
    """Certified upper bound on the minimal norm of any n-dimensional
    unimodular lattice: the largest mu that survives the odd scan, or the
    even extremal bound when 8 | n, whichever is larger.

    Only an infeasible scan eliminates a minimal norm.  The odd bound is
    the mu of the witness, the first scan below the elimination that is not
    infeasible: feasible, or inconclusive when the scan cannot decide."""
    if n < 1:
        raise ValueError("dimension must be positive")
    mu = n // 8 + 2
    report = feasibility_scan(n, mu)
    while report.verdict != INFEASIBLE:  # safety: should not trigger below dim 48
        mu += 1
        if mu > n // 8 + 8:
            raise AssertionError("odd scan failed to terminate at n=%d" % n)
        report = feasibility_scan(n, mu)
    elimination = report
    witness = None
    while mu > 1:
        lower = feasibility_scan(n, mu - 1)
        if lower.verdict != INFEASIBLE:
            witness = lower
            break
        elimination = lower
        mu -= 1
    if witness is None:
        raise AssertionError("Z^n must pass the scan")
    odd_mu = witness.mu
    ev = even_extremal_scan(n)
    even_mu = ev.mu if ev is not None else 0
    return BoundCertificate(
        n, max(odd_mu, even_mu), odd_mu, even_mu, witness, elimination, ev)


#: Best known minimal norms (with attaining constructions) for reference
#: alongside the certified analytic bounds.  `external` marks values that
#: need a classification beyond the bounds computed here.
KNOWN_MINIMA: dict[int, dict] = {}
for _n in range(1, 8):
    KNOWN_MINIMA[_n] = dict(lo=1, hi=1, note="Z^n is optimal", external=False)
KNOWN_MINIMA[8] = dict(lo=2, hi=2, note="E8", external=False)
for _n in (9, 10, 11):
    KNOWN_MINIMA[_n] = dict(lo=1, hi=1, note="Z^n is optimal", external=False)
KNOWN_MINIMA[12] = dict(lo=2, hi=2, note="D12+ attains 2", external=False)
KNOWN_MINIMA[13] = dict(lo=1, hi=1, note="Z^13 is optimal", external=False)
for _n in range(14, 23):
    KNOWN_MINIMA[_n] = dict(lo=2, hi=2, note="minimum-2 lattices known",
                            external=False)
KNOWN_MINIMA[23] = dict(lo=3, hi=3, note="shorter Leech lattice O23",
                        external=False)
KNOWN_MINIMA[24] = dict(lo=4, hi=4, note="Leech lattice", external=False)
KNOWN_MINIMA[25] = dict(
    lo=2, hi=2, external=True,
    note="classification of 25-dimensional unimodular lattices (Borcherds) "
         "gives 2; the analytic bound is 3")
KNOWN_MINIMA[26] = dict(lo=3, hi=3, note="unique minimum-3 lattice (Borcherds)",
                        external=False)
KNOWN_MINIMA[27] = dict(lo=3, hi=3, note="three minimum-3 lattices known",
                        external=False)
KNOWN_MINIMA[28] = dict(lo=3, hi=3, note="38 minimum-3 lattices known",
                        external=False)
for _n in (29, 30, 31):
    KNOWN_MINIMA[_n] = dict(lo=3, hi=3,
                            note="glue/shave constructions attain 3",
                            external=False)
KNOWN_MINIMA[32] = dict(
    lo=4, hi=4, external=False,
    note="code lattices from doubly even self-dual length-32 codes")
KNOWN_MINIMA[33] = dict(lo=3, hi=3, note="minimum-3 examples known",
                        external=False)
for _n in (34, 35, 37, 38, 39):
    KNOWN_MINIMA[_n] = dict(
        lo=3, hi=4, external=False,
        note="minimum 3 attained; existence of minimum 4 open")
KNOWN_MINIMA[36] = dict(lo=4, hi=4, note="minimum-4 example known",
                        external=False)
KNOWN_MINIMA[40] = dict(lo=4, hi=4, note="extremal lattices attain 4",
                        external=False)
del _n


def _table_row(n: int) -> dict:
    cert = mu_upper(n)
    row = {
        "n": n,
        "bound": cert.mu_upper,
        "odd": cert.odd_mu,
        "even": cert.even_mu or None,
    }
    known = KNOWN_MINIMA.get(n)
    if known:
        row["known"] = (
            str(known["lo"]) if known["lo"] == known["hi"]
            else "%d-%d" % (known["lo"], known["hi"]))
        row["note"] = known["note"]
        row["external"] = known["external"]
    return row


def table1(lo: int = 8, hi: int = 40) -> list[dict]:
    """Certified upper bounds (with known values) for lo <= n <= hi."""
    return [_table_row(n) for n in range(lo, hi + 1)]
