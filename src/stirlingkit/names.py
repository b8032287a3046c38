"""Names the command line and the library share: the value methods, the
kind of every family parameter, the enumeration oracle's cap and the
audit's suite names in report order.  This module imports nothing, so the
parser and the table's up-front cap check read them without loading the
family registry, the oracle or the audit, which build families.METHODS /
PARAMETERS, oracle.ENUMERATION_CAP and audit.SUITES on them."""

METHODS = ("egf", "recurrence", "explicit", "oracle")

# The largest n the enumeration oracle walks.  Bell-like growth with an
# extra class: n = 11 is 4.2M pairs over all k, which the integer-key
# profile counter walks in 1.0 to 1.5 s (Python 3.11, 2 shared vCPUs).
ENUMERATION_CAP = 11

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
