"""The brute-force ground truth: weighted mixed partitions, enumerated.

A mixed partition of {1..n} is a possibly-empty special set G plus k
non-empty blocks.  Attaching rational weights by size and summing over
every pair reproduces each number family.  This script enumerates the
pairs, shows the weights at work, and matches the sums against the
generating-function values.

Run top to bottom:  python demos/weighted_partition_oracle.py
"""

from stirlingkit import enumerate_mixed, format_rational, gen_stirling, oracle_sum, partial_deg
from stirlingkit.schemes import generalized_scheme, partial_degenerate_scheme


def fmt_pair(pair):
    special = "{%s}" % ",".join(map(str, sorted(pair.special_set)))
    blocks = " ".join("{%s}" % ",".join(map(str, sorted(b))) for b in pair.blocks)
    return "G=%s blocks: %s" % (special, blocks or "(none)")


# All pairs over {1,2,3} with one block.
print("mixed partitions of {1,2,3} with k=1:")
for pair in enumerate_mixed(3, 1):
    print("  " + fmt_pair(pair))

# Weighting them: the special set of size g carries (gamma)_{g,alpha},
# a block of size m carries (beta-alpha)_{m-1,alpha}.
alpha, beta, gamma = 1, 3, 2
scheme = generalized_scheme(alpha, beta, gamma)
print("\nweights under (alpha,beta,gamma) = (1,3,2):")
for pair in enumerate_mixed(3, 1):
    w = scheme.special_weight(len(pair.special_set))
    for b in pair.blocks:
        w *= scheme.block_weight(len(b))
    print("  %-28s weight %s" % (fmt_pair(pair), format_rational(w)))

total = oracle_sum(3, 1, scheme)
print(
    "sum of weights = %s, generating function gives %s"
    % (format_rational(total), format_rational(gen_stirling(3, 1, alpha, beta, gamma)))
)

# The mixed free/weighted family: blocks up to the threshold carry the
# degenerate weight, larger blocks are free, the special set is free too.
print("\nthreshold family at (gamma,alpha,beta,ell) = (2,1,3,1):")
scheme = partial_degenerate_scheme(2, 1, 3, 1)
for n in range(0, 7):
    row = []
    for k in range(n + 1):
        s = oracle_sum(n, k, scheme)
        assert s == partial_deg(n, k, 1, 2, 1, 3)
        row.append(format_rational(s))
    print("  n=%d: %s" % (n, "  ".join(row)))
print("every entry equals the generating-function value")

# The enumeration refuses silly sizes instead of hanging.
try:
    list(enumerate_mixed(50, 3))
except ValueError as exc:
    print("\ncap at work: %s" % exc)
