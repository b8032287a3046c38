"""Integer partitions, partial Bell-type coefficients and the power-of-a-series
asymptotic expansion, applied to the mixed-cell partition numbers.

For a series phi(t) = sum a_n t^n with a_0 = 1, the coefficient of t^n in
phi(t)^lam satisfies the exact finite identity

    [t^n] phi^lam = sum_{j=0..n} B(n,j) * (lam)_{n-j},

where B(n,j) collects the integer partitions of n into n-j parts with
coefficient products a_1^{k_1} a_2^{k_2} .../ (k_1! k_2! ...).  Dividing
by (lam)_n gives the expansion

    [t^n] phi^lam / (lam)_n  ~  sum_{j=0..m} B(n,j) / (lam-n+j)_j,

whose truncation at m < n is the asymptotic approximation for large lam.
Everything here stays an exact rational.

B(n,j) is computed as [t^n] A(t)^(n-j) / (n-j)! with A = sum_{i>=1} a_i t^i
(Comtet, Advanced Combinatorics, section 3.3).  The power takes out the
valuation of A and runs Miller's recurrence below it (exact._miller_power,
the kernel of the series powers) on a_1..a_(j+1) alone, so B(n,j) costs
O(j^2) products however large n is, builds no series, and nothing walks
the partitions.  integer_partitions enumerates them all and is kept as
the test oracle for partial_bell, not used to compute anything.  The
expansion forms each denominator (lam-n+j)_j from the previous one by a
single product, an int when lam is.

Application: the mixed-cell numbers with special-set parameter scaled by
the block count k have generating function phi(t)^k / k! with phi(0) = 0
and [t^1] phi = 1, so phi = t * psi with psi(0) = 1 and

    [t^d] psi^k = k! * S(k+d, k) / (k+d)!        (d = n - k).

The normalized mode estimates exactly that.  Every exact value here,
the psi_j and the exact sides of both modes, comes from partial_deg,
divided by a falling factorial rather than a ratio of factorials:
k! S(k+d, k) / (k+d)! = S(k+d, k) / (k+d)_d.  partial_deg reads column
k of the weight scheme (schemes module), which computes only the d + 1
coefficients of U^k it needs and no factorial of k, so a row costs the
same at k = 10^5 as at k = 100.  Beyond it, a literal mode evaluates the
uncorrected published-style normalization for the audit.

report_text and report_json render rows as `asympt` prints them, as the
audit renders its findings.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .exact import Rational, _miller_power, format_rational, rational
from .partial import partial_deg

__all__ = [
    "integer_partitions",
    "partial_bell",
    "VanishingPochhammer",
    "hsu_expansion",
    "AsymptoticRow",
    "asymptotic_partial",
    "decimal_str",
    "report_text",
    "report_json",
]

# a row forms up to d+1 partial Bell numbers of d (literal mode: d = n;
# normalized mode: the offset d), the j-th costing O(j^2) products in
# Miller's recurrence, so a row costs O(d^3) and both modes cap d here.  On
# 2 shared vCPUs, as cold CLI calls (5 runs each), the worst literal row
# (k = 1, m = n = 140) takes 0.9 to 1.2 s and the worst normalized row
# measured (d = m = 140, k = 280) 1.1 to 1.4 s
LITERAL_MODE_N_CAP = 140


def integer_partitions(n: int, parts: int) -> list[tuple[int, ...]]:
    """All partitions of n with exactly `parts` parts, as multiplicity
    vectors (k_1, ..., k_n) with sum i*k_i = n and sum k_i = parts.

    A test oracle: partial_bell is checked against the sum over these."""
    if n < 0 or parts < 0:
        raise ValueError("arguments must be non-negative")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, left: int, max_part: int, acc: list[int]) -> None:
        if left == 0:
            if remaining == 0:
                mult = [0] * n
                for p in acc:
                    mult[p - 1] += 1
                out.append(tuple(mult))
            return
        top = min(max_part, remaining - (left - 1))
        for part in range(top, 0, -1):
            acc.append(part)
            rec(remaining - part, left - 1, part, acc)
            acc.pop()

    rec(n, parts, n if n else 0, [])
    return out


def partial_bell(n: int, j: int, a: Sequence[Rational]) -> Fraction:
    """sum over partitions of n into n-j parts of prod a_i^{k_i} / k_i!.

    Computed as [t^n] A(t)^(n-j) / (n-j)! with A = sum_{i>=1} a_i t^i
    (Comtet, Advanced Combinatorics, section 3.3): expanding the power
    counts each multiset of parts (n-j)! / prod k_i! times.  With
    A = t^v * U, Miller's recurrence gives [t^n] A^(n-j) from
    u_0..u_(n-v(n-j)) = a_v..a_(n-v(n-j-1)), all within a_1..a_(j+1), and
    A^(n-j) vanishes below t^(n+1) when a_1..a_(j+1) do.  So it reads
    a_1..a_(j+1) only and costs O(j^2) products, whatever n is.

    a is indexed by part size; a[0] is never used (parts are >= 1), and
    entries up to a[n] must exist.
    """
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n, got j=%r n=%r" % (j, n))
    if len(a) < n + 1:
        raise ValueError("coefficient sequence too short: need indices up to %d" % n)
    parts = n - j
    if parts <= 1:  # no part, or the one part n
        return Fraction(a[n]) if parts else Fraction(n == 0)
    w = _miller_power([0, *map(Fraction, a[1 : j + 2])], parts, n)
    return Fraction(w[-1], math.factorial(parts)) if w else Fraction(0)


class VanishingPochhammer(ValueError):
    """A denominator (lam-n+j)_j vanished; carries the offending j."""

    def __init__(self, j: int, lam: Rational, n: int):
        self.j = j
        super().__init__(
            "(lam-n+j)_j vanishes at j=%d for lam=%s, n=%d" % (j, lam, n)
        )


def hsu_expansion(a: Sequence[Rational], n: int, lam: Rational, m: int) -> Fraction:
    """Truncated expansion sum_{j=0..m} B(n,j) / (lam-n+j)_j.

    Requires a[0] = 1, 0 <= m <= n, and non-vanishing denominators.
    With m = n the sum reproduces [t^n] phi^lam / (lam)_n exactly.
    (lam-n+j)_j = (lam-n+j) * (lam-n+j-1)_(j-1), one product per j.
    """
    if Fraction(a[0]) != 1:
        raise ValueError("expansion needs a_0 = 1, got %s" % (a[0],))
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n, got m=%r n=%r" % (m, n))
    lam = rational(lam)  # an int when integral, and so are the denominators
    total = Fraction(0)
    den = 1
    for j in range(m + 1):
        if j:
            den *= lam - n + j
            if den == 0:
                raise VanishingPochhammer(j, lam, n)
        total += partial_bell(n, j, a) / den
    return total


def _psi_coeffs(
    gamma: Fraction, alpha: Fraction, beta: Fraction, ell: int, order: int
) -> list[Fraction]:
    """psi_0..psi_order, psi_j = [t^(j+1)] of e^(gamma*t) * mixed block series,
    that is S(j+1, 1) / (j+1)!: psi_0 = 1, an a_0 = 1 input for the expansion."""
    return [Fraction(partial_deg(j + 1, 1, ell, gamma, alpha, beta), math.factorial(j + 1))
            for j in range(order + 1)]


# k and n_total are ints, mode a str; estimate, exact and rel_error are
# Fractions or None, and note is a str or None
class AsymptoticRow(namedtuple("AsymptoticRow", ("k", "n_total", "mode", "estimate", "exact",
                                                 "rel_error", "note"), defaults=(None,))):
    """One estimate/exact comparison; note explains any undefined field."""

    __slots__ = ()


def asymptotic_partial(
    n: int,
    k: int,
    gamma: Rational,
    alpha: Rational,
    beta: Rational,
    ell: int,
    m: int,
    mode: str = "normalized",
) -> AsymptoticRow:
    """Estimate the mixed-cell number with special parameter gamma*k.

    Normalized mode targets [t^d] psi^k with d = n - k.  When n < k the
    given n is read as the offset d itself (total n + k); the returned
    row records the total actually used.  Estimate and exact value are
    exact rationals; the relative error is None when the exact value is
    zero or the row is otherwise undefined, with the reason in `note`.

    Literal mode evaluates the uncorrected normalization
    S(n,k)/((k)_n n!) against its own expansion; rows where that is
    undefined are flagged, never silently skipped.
    """
    g, a, b = Fraction(gamma), Fraction(alpha), Fraction(beta)
    if n < 0 or k < 0 or ell < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    # each mode fixes n_total, the coefficients, the expansion length d, the
    # scale on the estimate and the exact value (None where it is undefined)
    if mode == "normalized":
        n_total = n if n >= k else n + k
        d = n_total - k
        if d > LITERAL_MODE_N_CAP:
            raise ValueError(
                "normalized mode sums up to d+1 partial Bell numbers of the offset "
                "d = %d, each a series power of order d; capped at d=%d"
                % (d, LITERAL_MODE_N_CAP)
            )
        coeffs = _psi_coeffs(g, a, b, ell, d)
        scale = math.perm(k, d)  # (k)_d
        exact = Fraction(partial_deg(n_total, k, ell, g * k, a, b), math.perm(n_total, d))
    elif mode == "literal":
        if n > LITERAL_MODE_N_CAP:
            raise ValueError(
                "literal mode sums up to n+1 partial Bell numbers of n, each a series "
                "power of order n; capped at n=%d" % LITERAL_MODE_N_CAP
            )
        n_total = d = n
        # coefficient sequence as printed: k! * S(i,k)/i! with the unscaled
        # gamma, i.e. k! times the coefficients of one generating function
        coeffs = [Fraction(1)] + [
            Fraction(partial_deg(i, k, ell, g, a, b), math.perm(i, i - k)) if i >= k else 0
            for i in range(1, n + 1)
        ]
        scale = 1
        kn = math.perm(k, n)  # (k)_n
        exact = (Fraction(partial_deg(n, k, ell, g * k, a, b), kn * math.factorial(n))
                 if kn else None)
    else:
        raise ValueError("mode must be 'normalized' or 'literal', got %r" % (mode,))

    try:
        estimate = scale * hsu_expansion(coeffs, d, k, min(m, d))
    except VanishingPochhammer as exc:
        return AsymptoticRow(k, n_total, mode, None, exact, None, str(exc))
    if not exact:
        note = "exact value is zero" if exact == 0 else "(k)_n vanishes; left side undefined"
        return AsymptoticRow(k, n_total, mode, estimate, exact, None, note)
    return AsymptoticRow(k, n_total, mode, estimate, exact, abs(estimate - exact) / abs(exact))


def decimal_str(value: Fraction, digits: int = 6) -> str:
    """Fixed-precision decimal rendering of an exact rational, truncated to
    `digits` places; with 0 digits, the truncated integer part alone."""
    if digits < 0:
        raise ValueError("decimal_str needs digits >= 0, got %d" % digits)
    if digits == 0:
        return str(int(value))
    if value < 0:
        return "-" + decimal_str(-value, digits)
    scaled = value * 10 ** digits
    whole = scaled.numerator // scaled.denominator
    text = str(whole).rjust(digits + 1, "0")
    return "%s.%s" % (text[:-digits], text[-digits:])


# the text report: one column per field, '-' where it is null, then the note
_REPORT_LINE = "%6s %8s %-26s %-26s %-20s %-12s %s"
_REPORT_COLUMNS = ("k", "n_total", "estimate", "exact", "rel_error", "rel_error_decimal")


def report_json(rows: Sequence[AsymptoticRow]) -> list:
    """The rows as `asympt --format json` prints them, one object each, with
    rationals as text, an 8-place decimal and None where a field is undefined."""
    objects = []
    for row in rows:
        fields = {"k": row.k, "n_total": row.n_total, "mode": row.mode}
        for name in ("estimate", "exact", "rel_error"):
            value = getattr(row, name)
            fields[name] = None if value is None else format_rational(value)
        error = row.rel_error
        fields["rel_error_decimal"] = None if error is None else decimal_str(error, 8)
        fields["note"] = row.note
        objects.append(fields)
    return objects


def report_text(rows: Sequence[AsymptoticRow]) -> str:
    """The rows as `asympt` prints them: a header, then one line per row of
    its report_json fields, '-' where one is None, and its note."""
    lines = [_REPORT_LINE % ("k", "n_total", "estimate", "exact", "rel_error", "(decimal)", "note")]
    for fields in report_json(rows):
        cells = ["-" if fields[name] is None else fields[name] for name in _REPORT_COLUMNS]
        lines.append(_REPORT_LINE % (*cells, fields["note"] or ""))
    return "\n".join(lines)
