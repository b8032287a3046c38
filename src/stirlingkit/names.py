"""Names the command line and the library share: the value methods, the
kind of every family parameter, and the audit's suite names in report
order.  This module imports nothing, so the parser and its negative-word
join read them without loading the family registry or the audit, which
build families.METHODS / PARAMETERS and audit.SUITES on them."""

METHODS = ("egf", "recurrence", "explicit", "oracle")

# every family parameter and its kind; FamilySpec has these fields, in order
PARAMETERS = {
    "alpha": "rational",
    "beta": "rational",
    "gamma": "rational",
    "lam": "rational",
    "ell": "non-negative integer",
    "r": "non-negative integer",
    "s": "non-negative integer",
}

SUITES = ("bullets24", "thm21", "threeterm", "thm3", "s-gt-recursion", "thm13", "thm20",
          "multinomial", "derivative", "bell-closed-forms")

# "all" runs every suite, in the order above
SUITE_NAMES = SUITES + ("all",)
