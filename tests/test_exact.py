import sys
import threading
from fractions import Fraction

import pytest

from stirlingkit.exact import (
    FallingFactorials,
    binomial,
    falling_factorial,
    falling_factorial_deg,
    format_rational,
    multinomial,
    parse_rational,
)

from conftest import random_rational


def test_falling_factorial_deg_examples():
    assert falling_factorial_deg(5, 0, 7) == 1
    assert falling_factorial_deg(3, 2, 1) == 6
    assert falling_factorial_deg(1, 3, 1) == 0
    assert falling_factorial_deg(2, 2, 0) == 4


def test_falling_factorial_deg_rejects_negative_n():
    with pytest.raises(ValueError):
        falling_factorial_deg(1, -1, 1)
    with pytest.raises(ValueError, match="size >= 0"):
        FallingFactorials(1, 1)(-1)


def test_falling_factorial_step_property(rng):
    for _ in range(60):
        t = random_rational(rng)
        lam = random_rational(rng)
        n = rng.randint(1, 8)
        assert falling_factorial_deg(t, n, lam) == falling_factorial_deg(
            t, n - 1, lam
        ) * (t - (n - 1) * lam)


def test_falling_factorial_homogeneity(rng):
    for _ in range(60):
        t = random_rational(rng)
        lam = random_rational(rng)
        c = random_rational(rng, lo=1)
        n = rng.randint(0, 7)
        assert falling_factorial_deg(c * t, n, c * lam) == c ** n * falling_factorial_deg(
            t, n, lam
        )


def test_falling_factorial_plain():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(17, 2), 0) == 1


def test_shared_falling_factorials_extend_once():
    # one instance serves a scheme's column and the recursions that read
    # its weights, so threads may extend it at once; a switch between
    # reading the last size and appending the next would append a size twice
    top, t, lam = 500, Fraction(7, 3), Fraction(1, 2)
    expected = [falling_factorial_deg(t, size, lam) for size in range(top + 1)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = FallingFactorials(t, lam)
            start = threading.Barrier(8, timeout=30)

            def extend():
                start.wait()
                for size in range(top + 1):
                    shared(size)

            threads = [threading.Thread(target=extend) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert shared.values == expected
    finally:
        sys.setswitchinterval(switch)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(9, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal(rng):
    for _ in range(80):
        n = rng.randint(1, 30)
        k = rng.randint(0, n)
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_multinomial_examples():
    assert multinomial(2, [1, 1, 0]) == 2
    assert multinomial(7, [7]) == 1
    assert multinomial(4, [2, 2]) == 6


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])
    with pytest.raises(ValueError):
        multinomial(4, [5, -1])


def test_parse_rational():
    assert parse_rational("7") == 7
    assert parse_rational("-3") == -3
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational(" +4/6 ") == Fraction(2, 3)


@pytest.mark.parametrize("bad", ["1.5", "3/-2", "3/0", "", "a/b", "1/2/3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_canonical(rng):
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(0) == "0"
    for _ in range(50):
        q = random_rational(rng)
        back = parse_rational(format_rational(q))
        assert back == q
        # canonical form invariant of every held value
        assert back.denominator > 0
        from math import gcd

        assert gcd(abs(back.numerator), back.denominator) == 1
