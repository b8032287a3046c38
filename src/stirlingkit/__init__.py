"""Exact-arithmetic toolkit for the generalized / degenerate / incomplete
hierarchy of Stirling-type partition numbers.

Everything is an exact rational: values come from truncated generating
functions, are re-derivable through recursions and explicit sums, and
are pinned to a brute-force weighted-partition enumeration at small n.
An identity audit scores literal vs corrected forms of the classical
recurrences, and an asymptotics layer provides large-parameter
expansions with exact error reporting.

`import stirlingkit` loads no submodule: each public name below, and
each submodule named in the map, is imported on first use (PEP 562), so
a caller pays only for the layers it touches.
"""

from importlib import import_module

# each submodule and the public names it provides
_EXPORTS = {
    "asymptotics": ("AsymptoticRow", "asymptotic_partial", "hsu_expansion",
                    "integer_partitions", "partial_bell"),
    "audit": ("AuditFinding", "associated_from_free", "audit_ok", "free_atleast_recursion",
              "gen_restricted_recursion", "gen_restricted_three_term",
              "partial_deg_convolution", "partial_deg_derivative_recursion",
              "partial_deg_multinomial", "partial_deg_recursion", "run_all", "run_suite"),
    "core": ("stirling2", "stirling2_associated", "stirling2_restricted"),
    "exact": ("binomial", "falling_factorial", "falling_factorial_deg", "format_rational",
              "multinomial", "parse_rational"),
    "families": ("FamilySpec", "ValueTable", "family_egf", "family_value"),
    "generalized": ("degenerate_stirling", "gen_stirling", "gen_stirling_explicit"),
    "incomplete": ("free_atleast", "gen_restricted"),
    "oracle": ("MixedPartition", "enumerate_mixed", "oracle_sum"),
    "partial": ("colored_singleton", "partial_deg"),
    "recurrence": (),
    "schemes": ("WeightScheme",),
    "series": ("TruncatedSeries", "degenerate_exp", "egf_coeff", "exp_series",
               "incomplete_degenerate_exp", "incomplete_exp"),
}
# public name -> the submodule that provides it
_SUBMODULES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    submodule = _SUBMODULES.get(name)
    if submodule is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + submodule, __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
