"""The recurrence route: a scheme's declared differential equation, read as
a recurrence.

Each family's factory declares the first-order linear differential
equations its two series satisfy, a*P' = p*P and a*B' = b*B + q with
a = 1 + a1*t, constants p and b and a polynomial q (WeightScheme.ode).
Then V_k = P*B^k/k! satisfies a*V_k' = (p + k*b)*V_k + q*V_(k-1), so
every value also follows from one short recurrence, which reads neither
series nor column: an independent route to the same values (Stanley,
Europ. J. Combin. 1, 1980, on D-finite series).  The scheme keeps the
declaration and the values read so far; this module, like the oracle,
holds only the code, which the value path never loads.
"""

from __future__ import annotations

import math

from .exact import Rational, check_indices, rational

__all__ = ["recurrence_value"]


def recurrence_value(n: int, k: int, scheme) -> Rational:
    """The value of scheme at (n, k) from its declared differential equation
    alone, an int when it is integral:

        V(n+1, k) = (p + k*b - a1*n) V(n, k) + sum_i C(n, i) q(i) V(n-i, k-1)

    from V(0, 0) = sw(0), so column 0 is sw(n).  Column j is kept from
    V(j, j) on and filled iteratively only to V(j + n - k, j), the band
    the read needs, so n has no depth limit; k > n builds nothing."""
    check_indices(n, k)
    if scheme.ode is None:
        raise ValueError("scheme %s declares no differential equation" % scheme.name)
    if k > n:
        return 0
    depth = n - k
    with scheme._lock:
        rows = scheme._rows
        if k < len(rows) and depth < len(rows[k]):
            return rational(rows[k][depth])
        a1, p, b, degree, q = scheme.ode
        q_hat = scheme._q
        for i in range(len(q_hat), min(degree, depth) + 1):
            q_hat.append(q(i))
        while len(rows) <= k:
            rows.append([] if rows else [rational(scheme.special_weight(0))])  # V(0, 0) = sw(0)
        # a fill leaves the columns no longer as j grows, so the ones
        # short of depth are j0..k
        j0 = k
        while j0 and len(rows[j0 - 1]) <= depth:
            j0 -= 1
        for j in range(j0, k + 1):
            # column j - 1 holds V(j-1, j-1) .. V(j-1 + depth, j-1) already
            column, lower, factor = rows[j], rows[j - 1] if j else (), p + j * b
            for d in range(len(column), depth + 1):
                m = j + d - 1  # V(m+1, j) from row m; V(j-1, j) = 0
                value = (factor - a1 * m) * column[d - 1] if d else 0
                for i in range(min(d, degree) + 1 if lower else 0):
                    if q_hat[i]:
                        value += math.comb(m, i) * q_hat[i] * lower[d - i]
                column.append(value)
        return rational(rows[k][depth])
