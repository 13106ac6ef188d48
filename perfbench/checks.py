"""Oracles for the benchmark, written apart from the program.

Nothing here imports `unimodular`.  Series are plain dicts mapping an
exponent in quarters (key e stands for q^(e/4), the program's grid) to an
exact coefficient; results of the program are read through their data
attributes only (`QSeries.terms`/`.trunc`, `Lattice.gram`, report fields),
so a check never runs program code and never disturbs a traced run.

Every `check_*` function returns None when the result is right and a
one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

# ---------------------------------------------------------------------------
# truncated q-series on the quarter grid


def series_mul(a: dict, b: dict, trunc: int) -> dict:
    out: dict = {}
    bs = sorted(b.items())
    for e1, c1 in sorted(a.items()):
        if e1 >= trunc:
            break
        for e2, c2 in bs:
            e = e1 + e2
            if e >= trunc:
                break
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def series_pow(a: dict, k: int, trunc: int) -> dict:
    result = {0: 1}
    base = a
    while k:
        if k & 1:
            result = series_mul(result, base, trunc)
        k >>= 1
        if k:
            base = series_mul(base, base, trunc)
    return result


def series_lin(pairs, trunc: int) -> dict:
    """sum c * s over (c, s) pairs, truncated."""
    out: dict = {}
    for c, s in pairs:
        for e, x in s.items():
            if e < trunc:
                out[e] = out.get(e, 0) + c * x
    return {e: x for e, x in out.items() if x}


def theta3(trunc: int) -> dict:
    """sum_{k in Z} q^(k^2)."""
    out = {}
    k = 0
    while 4 * k * k < trunc:
        out[4 * k * k] = 1 if k == 0 else 2
        k += 1
    return out


def theta4(trunc: int) -> dict:
    """sum_{k in Z} (-1)^k q^(k^2)."""
    return {e: c * (-1 if (e // 4) % 2 else 1) for e, c in theta3(trunc).items()}


def theta2(trunc: int) -> dict:
    """sum_{k in Z} q^((k+1/2)^2)."""
    out = {}
    k = 0
    while (2 * k + 1) ** 2 < trunc:
        out[(2 * k + 1) ** 2] = 2
        k += 1
    return out


def theta4_q2(trunc: int) -> dict:
    return {2 * e: c for e, c in theta4(trunc).items() if 2 * e < trunc}


def delta8(trunc: int) -> dict:
    """theta2^4 theta4^4 / 16 = q - 8 q^2 + ..."""
    prod = series_mul(series_pow(theta2(trunc), 4, trunc),
                      series_pow(theta4(trunc), 4, trunc), trunc)
    return {e: Fraction(c, 16) for e, c in prod.items()}


def odd_theta(n: int, coeffs, trunc: int) -> dict:
    """sum_j a_j delta8^j theta3^(n-8j)."""
    d8, t3 = delta8(trunc), theta3(trunc)
    return series_lin(
        [(a, series_mul(series_pow(d8, j, trunc), series_pow(t3, n - 8 * j, trunc), trunc))
         for j, a in enumerate(coeffs) if a], trunc)


def odd_shadow(n: int, coeffs, trunc: int) -> dict:
    """sum_j a_j (-1/16)^j theta4(q^2)^(8j) theta2^(n-8j)."""
    t4q2, t2 = theta4_q2(trunc), theta2(trunc)
    return series_lin(
        [(a * Fraction(-1, 16) ** j,
          series_mul(series_pow(t4q2, 8 * j, trunc), series_pow(t2, n - 8 * j, trunc), trunc))
         for j, a in enumerate(coeffs) if a], trunc)


def theta_coeffs_for(n: int, series: dict, trunc: int) -> list:
    """Coefficients a_0..a_[n/8] matching `series` at q^0..q^[n/8].

    delta8^j theta3^(n-8j) = q^j + ..., so the system is unitriangular.
    """
    coeffs: list = []
    acc: dict = {}
    for j in range(n // 8 + 1):
        a = Fraction(series.get(4 * j, 0)) - Fraction(acc.get(4 * j, 0))
        coeffs.append(a)
        acc = series_lin([(1, acc), (a, odd_theta(n, [0] * j + [1], trunc))], trunc)
    return coeffs


def series_diff(got: dict, want: dict, trunc: int) -> str | None:
    """First exponent below trunc where two series differ, as a reason."""
    for e in range(trunc):
        g, w = Fraction(got.get(e, 0)), Fraction(want.get(e, 0))
        if g != w:
            return "coefficient of q^(%d/4) is %s, expected %s" % (e, g, w)
    return None


def norm_counts(counts: dict) -> dict:
    """Enumeration output {norm: count} as quarter-grid series terms."""
    out = {}
    for norm, cnt in counts.items():
        e = Fraction(norm) * 4
        if e.denominator != 1:
            raise ValueError("norm %s is off the quarter grid" % norm)
        out[int(e)] = cnt
    return out


def sigma(k: int, m: int) -> int:
    return sum(d ** k for d in range(1, m + 1) if m % d == 0)


# ---------------------------------------------------------------------------
# exact matrices


def det(gram) -> Fraction:
    """Determinant by Gaussian elimination over Q with row pivoting."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        p = a[col][col]
        out *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def kind_of(gram) -> str:
    """'even' or 'odd' for an integral Gram matrix, by its diagonal."""
    return "even" if all(Fraction(row[i]) % 2 == 0 for i, row in enumerate(gram)) else "odd"


def _mod2_rank(rows, m: int) -> int:
    rows = list(rows)
    rank = 0
    for bit in range(m):
        piv = next((r for r in range(rank, len(rows)) if rows[r] >> bit & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r] >> bit & 1:
                rows[r] ^= rows[rank]
        rank += 1
    return rank


def _class_form(gram, x: int, y: int) -> int:
    """x^T G y for 0/1 coordinate vectors given as bitmasks."""
    m = len(gram)
    return sum(int(gram[i][j]) for i in range(m) if x >> i & 1
               for j in range(m) if y >> j & 1)


def check_mod2_isometry(gram, images) -> str | None:
    """images[i] (a bitmask) is sigma(e_i) in L/2L.  sigma must be invertible
    mod 2, keep x.y mod 2, and keep |x|^2 mod 2 (odd L) or |x|^2/2 mod 2
    (even L) on the basis, which with the bilinear form fixes it everywhere.
    """
    m = len(gram)
    if len(images) != m:
        return "map has %d images for a rank-%d lattice" % (len(images), m)
    if any(not 0 < v < 1 << m for v in images):
        return "image outside the nonzero classes of L/2L"
    if _mod2_rank(images, m) != m:
        return "map is not invertible mod 2"
    even = kind_of(gram) == "even"
    for i in range(m):
        for j in range(i, m):
            if _class_form(gram, images[i], images[j]) % 2 != int(gram[i][j]) % 2:
                return "bilinear form changes on (e%d, e%d)" % (i, j)
        if even:
            if (_class_form(gram, images[i], images[i]) // 2) % 2 != (int(gram[i][i]) // 2) % 2:
                return "quadratic form changes on e%d" % i
    return None


# ---------------------------------------------------------------------------
# series engine


#: the paper's table of certified upper bounds, 8 <= n <= 40 (n = 25 reads
#: the analytic bound 3; the classification value 2 is external)
PAPER_BOUNDS = {
    8: 2, 9: 1, 10: 1, 11: 1, 12: 2, 13: 1, 14: 2, 15: 2, 16: 2,
    17: 2, 18: 2, 19: 2, 20: 2, 21: 2, 22: 2, 23: 3, 24: 4, 25: 3,
    26: 3, 27: 3, 28: 3, 29: 3, 30: 3, 31: 3, 32: 4, 33: 3, 34: 4,
    35: 4, 36: 4, 37: 4, 38: 4, 39: 4, 40: 4,
}
#: rows the paper leaves open between 3 and 4
PAPER_OPEN = (34, 35, 37, 38, 39)


def check_table(rows) -> str | None:
    got = {row["n"]: row["bound"] for row in rows}
    if got != PAPER_BOUNDS:
        bad = sorted(n for n in set(got) | set(PAPER_BOUNDS)
                     if got.get(n) != PAPER_BOUNDS.get(n))
        return "bounds differ from the paper at n = %s" % bad
    for row in rows:
        if row["n"] in PAPER_OPEN and row.get("known") != "3-4":
            return "n=%d should be open between 3 and 4" % row["n"]
    return None


def counting_rule_violation(n: int, mu: int, theta, shadow) -> str | None:
    """Rules a theta/shadow pair of an odd unimodular lattice of minimal
    norm >= mu must obey, over every coefficient the series carry."""
    tt, st = theta.terms, shadow.terms
    if Fraction(tt.get(0, 0)) != 1:
        return "theta constant term is not 1"
    for e, c in tt.items():
        if e >= theta.trunc or e == 0:
            continue
        if e % 4:
            return "theta has a term at non-integral norm %s" % Fraction(e, 4)
        if e < 4 * mu:
            return "theta has %s vectors of norm %d < mu" % (c, e // 4)
        c = Fraction(c)
        if c.denominator != 1 or c < 0 or c % 2:
            return "theta coefficient %s at q^%d is not a nonnegative even integer" % (c, e // 4)
    low = []
    for e, c in st.items():
        if e >= shadow.trunc:
            continue
        c = Fraction(c)
        if (e - n) % 8:
            return "shadow term at norm %s is off the n/4 + 2Z grid" % Fraction(e, 4)
        if c.denominator != 1 or c < 0 or c % 2:
            return "shadow coefficient %s at norm %s is not a nonnegative even integer" % (
                c, Fraction(e, 4))
        if e < mu and c:
            return "shadow vectors of norm %s < mu/4" % Fraction(e, 4)
        if e < 2 * mu and c > 2:
            return "%s shadow vectors of norm %s < mu/2" % (c, Fraction(e, 4))
        if e < 2 * mu + 4 and c:
            low.append(e)
    if len(low) > 1:
        return "shadow vectors at two norms below (mu+2)/2"
    return None


def check_feasible_scan(report, n: int, mu: int) -> str | None:
    if report.verdict != "feasible":
        return "scan (%d,%d) is %s, expected feasible" % (n, mu, report.verdict)
    why = counting_rule_violation(n, mu, report.theta, report.shadow)
    if why:
        return "witness: " + why
    for br in report.branches:
        if br.verdict == "feasible":
            why = counting_rule_violation(n, mu, br.theta, br.shadow)
            if why:
                return "feasible branch %s: %s" % (br.assignment, why)
    return None


def check_scan_9_2(report) -> str | None:
    """mu = 2 forces a_1 = -18 (theta3^9 has 18 norm-1 vectors) and the
    shadow then starts 9/4 q^(1/4): not an integer, so the scan dies."""
    if report.verdict != "infeasible" or report.reason != "non-integral coefficient":
        return "scan (9,2) is %s (%s)" % (report.verdict, report.reason)
    if list(report.fit.coeffs) != [1, -18]:
        return "forced coefficients %s, expected [1, -18]" % report.fit.coeffs
    trunc = 12
    shadow = odd_shadow(9, [1, -18], trunc)
    got = report.branches[0].shadow.terms if report.branches else {}
    if Fraction(got.get(1, 0)) != shadow[1]:
        return "shadow lead %s, expected %s" % (got.get(1, 0), shadow[1])
    return None


def check_scan_33_4(report) -> str | None:
    """Paper: a_4 in {0, 2^16}; 2^16 leaves -16 norm-9/4 shadow vectors;
    0 leaves 110 of them, 55 pairwise-1/4 vectors in 33 dimensions."""
    if report.verdict != "infeasible":
        return "scan (33,4) is %s" % report.verdict
    if list(report.fit.coeffs[:4]) != [1, -66, 660, -880]:
        return "forced coefficients %s" % report.fit.coeffs[:4]
    by_a4 = {b.assignment.get(4): b for b in report.branches}
    if set(by_a4) != {0, 2 ** 16}:
        return "branches a_4 = %s, expected {0, 65536}" % sorted(by_a4)
    big, zero = by_a4[2 ** 16], by_a4[0]
    if big.reason != "negative coefficient" or Fraction(big.shadow.terms.get(9, 0)) != -16:
        return "a_4 = 2^16 branch: %s" % big.reason
    if zero.reason != "rank obstruction" or Fraction(zero.shadow.terms.get(9, 0)) != 110:
        return "a_4 = 0 branch: %s" % zero.reason
    ob = zero.obstruction
    if ob is None or ob.k != 55 or tuple(ob.tset) != (Fraction(1, 4),) or not ob.k > 33:
        return "a_4 = 0 branch lacks the 55-vector rank obstruction"
    return None


def check_scan_values(report, n: int, theta_vals: dict, shadow_vals: dict) -> str | None:
    """The paper's exact witness coefficients (keys in quarter units)."""
    for e, want in theta_vals.items():
        if Fraction(report.theta.terms.get(e, 0)) != want:
            return "(%d) theta at q^(%d/4): %s, paper %s" % (n, e, report.theta.terms.get(e, 0), want)
    for e, want in shadow_vals.items():
        if Fraction(report.shadow.terms.get(e, 0)) != want:
            return "(%d) shadow at q^(%d/4): %s, paper %s" % (n, e, report.shadow.terms.get(e, 0), want)
    return None


#: |Aut E8| = |W(E8)|
AUT_E8 = 696729600


def genus_classes(n: int, trunc: int):
    """(theta series, |Aut|) for each class of odd unimodular lattices in
    dimension n <= 12: Z^n; E8 + Z^(n-8) from n = 9; D12+ at n = 12."""
    if n > 12:
        raise ValueError("classes listed only up to dimension 12")
    t2, t3, t4 = theta2(trunc), theta3(trunc), theta4(trunc)
    out = [(series_pow(t3, n, trunc), 2 ** n * factorial(n))]
    if n >= 9:
        e8 = series_lin([(Fraction(1, 2), series_pow(s, 8, trunc)) for s in (t2, t3, t4)], trunc)
        out.append((series_mul(e8, series_pow(t3, n - 8, trunc), trunc),
                    AUT_E8 * 2 ** (n - 8) * factorial(n - 8)))
    if n == 12:
        d12 = series_lin([(Fraction(1, 2), series_pow(s, 12, trunc)) for s in (t2, t3, t4)], trunc)
        out.append((d12, 2 ** 11 * factorial(12)))
    return out


def mass_average(n: int, trunc: int) -> dict:
    classes = genus_classes(n, trunc)
    mass = sum(Fraction(1, aut) for _, aut in classes)
    return series_lin([(Fraction(1, aut) / mass, th) for th, aut in classes], trunc)


def check_genus_average(avg, n: int) -> str | None:
    """Constant term 1, nonnegative coefficients, a combination of the
    delta8^j theta3^(n-8j) with a shadow of nonnegative coefficients (true
    of every class, so of the average), and for n <= 12 the mass-weighted
    average over the listed classes."""
    series, trunc = avg.series.terms, avg.series.trunc
    if avg.dim != n:
        return "average is for dimension %d" % avg.dim
    if Fraction(series.get(0, 0)) != 1:
        return "constant term is %s" % series.get(0, 0)
    if any(Fraction(c) < 0 for c in series.values()):
        return "negative average count"
    coeffs = theta_coeffs_for(n, series, trunc)
    why = series_diff(series, odd_theta(n, coeffs, trunc), trunc)
    if why:
        return "not a theta3/delta8 combination: " + why
    if any(c < 0 for c in odd_shadow(n, coeffs, trunc).values()):
        return "average shadow has a negative coefficient"
    if n <= 12:
        why = series_diff(series, mass_average(n, trunc), trunc)
        if why:
            return "differs from the mass-weighted class average: " + why
    return None


# ---------------------------------------------------------------------------
# lattice engine


def check_lattice(L, dim: int, kind: str | None = None) -> str | None:
    """Built lattice: right dimension, integral, determinant 1 (recomputed
    here), and of the stated kind."""
    if len(L.gram) != dim:
        return "dimension %d, expected %d" % (len(L.gram), dim)
    if any(Fraction(x).denominator != 1 for row in L.gram for x in row):
        return "Gram matrix is not integral"
    d = det(L.gram)
    if d != 1:
        return "determinant %s" % d
    if kind and kind_of(L.gram) != kind:
        return "lattice is %s, expected %s" % (kind_of(L.gram), kind)
    return None


def check_kind(verdict, L, kind: str) -> str | None:
    """check_unimodular's verdict against the paper's kind and the
    diagonal parity of the Gram matrix."""
    if verdict != kind or kind_of(L.gram) != kind:
        return "verdict %r, expected %r" % (verdict, kind)
    return None


def check_glue_map(glue, gram, target: int) -> str | None:
    if glue is None:
        return "search found no map"
    if glue.target != target:
        return "map reaches target %s, expected %d" % (glue.target, target)
    return check_mod2_isometry(gram, list(glue.images))


def check_d16_theta(counts, max_norm: int) -> str | None:
    """D16+ is even unimodular of rank 16: its theta series is E8(q^2)-like,
    1 + 480 sum sigma7(m) q^(2m)."""
    want = {0: 1}
    for m in range(1, max_norm // 2 + 1):
        want[8 * m] = 480 * sigma(7, m)
    return series_diff(norm_counts(counts), want, 4 * max_norm + 1)


#: A15+ has minimal norm 2, so a_1 cancels the 30 norm-1 vectors of theta3^15
A15_COEFFS = [1, -30]


def check_a15_theta(theta, max_norm: int) -> str | None:
    trunc = 4 * max_norm + 1
    return series_diff(theta.terms, odd_theta(15, A15_COEFFS, trunc), trunc)


def check_a15_shadow(coset_counts, max_norm: int) -> str | None:
    """The two shadow cosets together carry the shadow series of the fitted
    coefficients; neither holds the zero vector."""
    trunc = 4 * max_norm + 1
    total: dict = {}
    for counts in coset_counts:
        terms = norm_counts(counts)
        if terms.get(0):
            return "a shadow coset contains the zero vector"
        for e, c in terms.items():
            total[e] = total.get(e, 0) + c
    return series_diff(total, odd_shadow(15, A15_COEFFS, trunc), trunc)
