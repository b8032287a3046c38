"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` holds coefficients c_0..c_N of a series
sum c_n t^n taken modulo t^(N+1).  All arithmetic stays below the
truncation order and all coefficients are exact rationals, so every
identity checked through this module is verified exactly mod t^(N+1).

Coefficient extraction in exponential-generating-function form
(n! * c_n) reads a series as values.  The weight schemes' columns compute
every number family; whole series are the reference the tests hold them to.
A weight scheme's series views live here, so the value path never compiles
them: egf, read as the scheme's values, block_series and special_series.

Every family's generating function is P(t) * B(t)^k / k! with B(0) = 0,
so powers are taken with their valuation shifted out: B = t^v * U with
U(0) != 0 gives B^k = t^(vk) * U^k, and U^k is needed only mod
t^(N-vk+1).  J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section
4.7) yields those coefficients one by one, so a power costs
O((N-vk)^2) products whatever k is, and none when vk > N.

The recurrence is online: w_n needs only u_0..u_n and w_0..w_(n-1)
(J. van der Hoeven, "Relax, but don't be too lazy", J. Symbolic
Computation 34, 2002).  exact._miller_term computes one w_n and
_product_term one coefficient of a sum of products, each as a reduced
numerator-denominator pair: series powers and products, the audit's
binomial sums and the partial Bell numbers run on them.  The weight
schemes' columns run integer kernels of their own (schemes._egf_term,
schemes._ordinary_term) one coefficient at a time, without this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction

from .exact import Rational, _miller_power, _pair_sum, falling_factorial_deg


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
            right = [c.numerator for c in other.coeffs], [c.denominator for c in other.coeffs]
            product = [(1, left, right)]
            return TruncatedSeries(
                [Fraction(*_product_term(n, product)) for n in range(self.order + 1)], self.order)
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

        O(N^2) products in all (exact._miller_power).
        """
        if not isinstance(k, int) or k < 0:
            raise ValueError("series power needs an integer exponent >= 0")
        if k == 0:
            return TruncatedSeries.one(self.order)
        if k == 1:
            return self
        w = _miller_power(self.coeffs, k, self.order)
        return TruncatedSeries([0] * (self.order + 1 - len(w)) + w, self.order)

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


def _product_term(n: int, products: list) -> tuple:
    """[t^n] of sum c * L * R over products (c, L, R), as one reduced pair:
    c an int, L the non-zero terms (i, numerator, denominator) of a series
    in rising i, and R the lists of another's numerators and denominators."""
    nums, dens = [], []
    for c, left, (right_num, right_den) in products:
        for i, a_num, a_den in left:
            if i > n:
                break
            b_num = right_num[n - i]
            if b_num:
                nums.append(c * a_num * b_num)
                dens.append(a_den * right_den[n - i])
    return _pair_sum(nums, dens)


def egf(scheme, k: int, order: int) -> TruncatedSeries:
    """EGF of the pairs of a weight scheme with k blocks: special * block^k /
    k!, mod t^(order+1), read as values through WeightScheme.value, which
    alone reads the scheme's columns.  Blocks are non-empty, so it is zero
    when k > order and 1/k! is not formed."""
    if order < 0 or k < 0:
        raise ValueError("indices must be non-negative, got order=%r k=%r" % (order, k))
    if k > order:
        return TruncatedSeries.zero(order)
    scheme.value(k, order)  # one read fills the column as far as every other needs
    return TruncatedSeries(
        [_over(scheme.value(k, n), math.factorial(n)) for n in range(order + 1)], order)


def block_series(scheme, order: int) -> TruncatedSeries:
    """sum over sizes m >= 1 of bw(m) t^m / m! for a weight scheme."""
    return _series(scheme.block_weight, 1, order)


def special_series(scheme, order: int) -> TruncatedSeries:
    """sum over g >= 0 of sw(g) t^g / g! for a weight scheme."""
    return _series(scheme.special_weight, 0, order)


def _series(weight: Callable[[int], Rational], first: int, order: int) -> TruncatedSeries:
    """sum over sizes m >= first of weight(m) t^m / m!; a zero weight costs
    no m!."""
    return TruncatedSeries([0] * first + [
        _over(w, math.factorial(m)) if (w := weight(m)) else 0
        for m in range(first, order + 1)], order)


def _over(value: Rational, divisor: int) -> Fraction:
    """value / divisor as a Fraction, reduced once."""
    return Fraction(value.numerator, value.denominator * divisor)


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
