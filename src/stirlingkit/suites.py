"""The identity audit's suite names, in report order.

The command line offers them as --suite choices when it builds its
parser; this module imports nothing, so that costs no audit import.
audit.SUITES maps each name to the suite function named after it.
"""

SUITES = ("bullets24", "thm21", "threeterm", "thm3", "s-gt-recursion", "thm13", "thm20",
          "multinomial", "derivative", "bell-closed-forms")

# "all" runs every suite, in the order above
SUITE_NAMES = SUITES + ("all",)
