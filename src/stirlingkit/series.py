"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` holds coefficients c_0..c_N of a series
sum c_n t^n taken modulo t^(N+1).  All arithmetic stays below the
truncation order and all coefficients are exact rationals, so every
identity checked through this module is verified exactly mod t^(N+1).

Coefficient extraction in exponential-generating-function form
(n! * c_n) is the reference computation path for every number family
in this package.

Every family's generating function is P(t) * B(t)^k / k! with B(0) = 0,
so powers are taken with their valuation shifted out: B = t^v * U with
U(0) != 0 gives B^k = t^(vk) * U^k, and U^k is needed only mod
t^(N-vk+1).  J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section
4.7) yields those coefficients one by one, so a power costs
O((N-vk)^2) products whatever k is, and none when vk > N.

The recurrence is online: w_n needs only u_0..u_n and w_0..w_(n-1)
(J. van der Hoeven, "Relax, but don't be too lazy", J. Symbolic
Computation 34, 2002).  _miller_term computes one w_n and _product_term
one coefficient of a product, so the weight schemes of the schemes module
extend each column P * U^k one coefficient at a time, as values are read,
with the same arithmetic as the whole-series operations here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .exact import Rational, falling_factorial_deg


class TruncatedSeries:
    """Immutable dense series mod t^(order+1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Rational], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("need at least the constant coefficient")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(cs) < order + 1:
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif len(cs) > order + 1:
            cs = cs[: order + 1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError("coefficient %d beyond truncation order %d" % (n, self.order))
        return self.coeffs[n]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                "mismatched truncation orders: %d vs %d" % (self.order, other.order)
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-a for a in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            # run over the non-zero terms of the sparser factor
            if sum(map(bool, other.coeffs)) < sum(map(bool, self.coeffs)):
                self, other = other, self
            left = [(i, c.numerator, c.denominator) for i, c in enumerate(self.coeffs) if c]
            right_num = [c.numerator for c in other.coeffs]
            right_den = [c.denominator for c in other.coeffs]
            return TruncatedSeries(
                [_product_term(n, left, right_num, right_den) for n in range(self.order + 1)],
                self.order,
            )
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([a * other for a in self.coeffs], self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedSeries":
        """self^k mod t^(order+1), at a cost that does not grow with k.

        With self = t^v * U and u_0 = U(0) != 0, self^k = t^(vk) * U^k, so
        the power is zero once vk > order and otherwise needs U^k only mod
        t^(N+1), N = order - vk.  Its coefficients w_n follow from
        W' * U = k * U' * W (J.C.P. Miller's recurrence; Knuth, TAOCP
        vol. 2, section 4.7):

            w_0 = u_0^k,   w_n = sum_{i=1..n} ((k+1)i - n) u_i w_{n-i} / (n u_0),

        O(N^2) products in all (_miller_term).
        """
        if not isinstance(k, int) or k < 0:
            raise ValueError("series power needs an integer exponent >= 0")
        if k == 0:
            return TruncatedSeries.one(self.order)
        if k == 1:
            return self
        v = next((i for i, c in enumerate(self.coeffs) if c), None)
        if v is None or v * k > self.order:
            return TruncatedSeries.zero(self.order)
        top = self.order - v * k
        u0 = self.coeffs[v]
        terms = [(i, c.numerator, c.denominator)
                 for i, c in enumerate(self.coeffs[v + 1 : v + top + 1], 1) if c]
        w = [u0 ** k]
        w_num, w_den = [w[0].numerator], [w[0].denominator]
        for n in range(1, top + 1):
            w.append(_miller_term(n, k, u0, terms, w_num, w_den))
            w_num.append(w[n].numerator)
            w_den.append(w[n].denominator)
        return TruncatedSeries([0] * (v * k) + w, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return "TruncatedSeries([%s%s], order=%d)" % (head, tail, self.order)


def _product_term(n: int, left: list, right_num: list[int], right_den: list[int]) -> Fraction:
    """[t^n] of L * R from the non-zero terms (i, numerator, denominator) of
    L, in rising i, and the numerators and denominators of R up to t^n."""
    nums, dens = [], []
    for i, a_num, a_den in left:
        if i > n:
            break
        b_num = right_num[n - i]
        if b_num:
            nums.append(a_num * b_num)
            dens.append(a_den * right_den[n - i])
    return _fraction_sum(nums, dens)


def _miller_term(
    n: int, k: int, u0: Fraction, terms: list, w_num: list[int], w_den: list[int]
) -> Fraction:
    """w_n of U^k, n >= 1, by Miller's recurrence: terms are the non-zero
    (i, numerator, denominator) of U with i >= 1, in rising i, and w_num,
    w_den hold w_0..w_(n-1).  Needs only u_0..u_n, so U^k can be extended
    one coefficient at a time."""
    nums, dens = [], []
    for i, num, den in terms:
        if i > n:
            break
        nums.append(((k + 1) * i - n) * num * w_num[n - i])
        dens.append(den * w_den[n - i])
    return _fraction_sum(nums, dens) / (n * u0)


def _fraction_sum(nums: list[int], dens: list[int]) -> Fraction:
    """sum of nums[i] / dens[i], formed over the least common denominator
    and reduced once: the series products sum many terms whose
    denominators share most of their factors, and a Fraction sum would
    reduce after every term."""
    common = math.lcm(*dens)
    return Fraction(sum(a * (common // d) for a, d in zip(nums, dens)), common)


def exp_series(gamma: Rational, order: int) -> TruncatedSeries:
    """e^(gamma*t): coefficients gamma^n / n!."""
    g = Fraction(gamma)
    cs = []
    p = Fraction(1)
    for n in range(order + 1):
        cs.append(p / math.factorial(n))
        p *= g
    return TruncatedSeries(cs, order)


def degenerate_exp(x_param: Rational, lam: Rational, order: int) -> TruncatedSeries:
    """Degenerate exponential: coefficient of t^n is (x)_{n,lam} / n!.

    (x)_{n,lam} is the degenerate falling factorial; lam = 0 recovers
    e^(x*t) exactly.
    """
    cs = [
        Fraction(falling_factorial_deg(x_param, n, lam)) / math.factorial(n)
        for n in range(order + 1)
    ]
    return TruncatedSeries(cs, order)


def incomplete_exp(ell: int, order: int, strict: bool = False) -> TruncatedSeries:
    """Exponential truncated at degree ell (or ell-1 when strict).

    Coefficients 1/i! for i up to the bound, zero beyond; the result is
    a polynomial even when order exceeds the bound.
    """
    if ell < 0:
        raise ValueError("incomplete_exp needs ell >= 0")
    top = ell - 1 if strict else ell
    cs = [
        Fraction(1, math.factorial(i)) if i <= top else Fraction(0)
        for i in range(order + 1)
    ]
    return TruncatedSeries(cs, order)


def incomplete_degenerate_exp(
    x_param: Rational, lam: Rational, ell: int, order: int
) -> TruncatedSeries:
    """Degenerate exponential cut off after degree ell."""
    if ell < 0:
        raise ValueError("incomplete_degenerate_exp needs ell >= 0")
    cs = [
        Fraction(falling_factorial_deg(x_param, n, lam)) / math.factorial(n)
        if n <= ell
        else Fraction(0)
        for n in range(order + 1)
    ]
    return TruncatedSeries(cs, order)


def egf_coeff(series: TruncatedSeries, n: int) -> Fraction:
    """n! times the coefficient of t^n: the number encoded at index n."""
    return series.coefficient(n) * math.factorial(n)
