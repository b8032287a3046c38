"""Exact-arithmetic toolkit for the generalized / degenerate / incomplete
hierarchy of Stirling-type partition numbers.

Everything is an exact rational: values come from truncated generating
functions, are re-derivable through recursions and explicit sums, and
are pinned to a brute-force weighted-partition enumeration at small n.
An identity audit scores literal vs corrected forms of the classical
recurrences, and an asymptotics layer provides large-parameter
expansions with exact error reporting.
"""

from .asymptotics import (
    AsymptoticRow,
    asymptotic_partial,
    hsu_expansion,
    integer_partitions,
    partial_bell,
)
from .audit import AuditFinding, audit_ok, run_all, run_suite
from .core import stirling2, stirling2_associated, stirling2_restricted
from .exact import (
    binomial,
    falling_factorial,
    falling_factorial_deg,
    format_rational,
    multinomial,
    parse_rational,
)
from .families import FamilySpec, ValueTable, family_egf, family_value
from .generalized import degenerate_stirling, gen_stirling, gen_stirling_explicit
from .incomplete import (
    associated_from_free,
    free_atleast,
    free_atleast_recursion,
    gen_restricted,
    gen_restricted_recursion,
    gen_restricted_three_term,
)
from .oracle import MixedPartition, WeightScheme, enumerate_mixed, oracle_sum
from .partial import (
    colored_singleton,
    partial_deg,
    partial_deg_convolution,
    partial_deg_derivative_recursion,
    partial_deg_multinomial,
    partial_deg_recursion,
)
from .series import (
    TruncatedSeries,
    degenerate_exp,
    egf_coeff,
    exp_series,
    incomplete_degenerate_exp,
    incomplete_exp,
)

__version__ = "0.1.0"
