"""Exception types shared across the package, and the settings the CLI
states before it loads the module that applies them."""

# Default root-location precision in bits, of ``dynsys`` and the CLI.
DEFAULT_PRECISION = 128

# Largest root-location precision in bits, applied by
# ``dynsys.periodic_points``: at 4096 bits ``periodic --curve 4,2,0`` takes
# 0.6 s as a process at n = 2 and 3.9-4.2 s at n = 3 on a 2-core container,
# and the D = 11 model (``--curve -4,-112,656``) 0.5 s and 4.3-4.4 s.
PRECISION_BUDGET = 4096

# Smallest root-location precision in bits, applied by the same check: far
# below it the zero rule's tolerance 2^(10 - precision) swallows points.
PRECISION_FLOOR = 64

# Default entry and lag bounds of ``sft.shift_equivalent`` and the CLI;
# ``sft.gl2z_similar`` searches |entries| <= ENTRY_BOUND, read per call.
ENTRY_BOUND = 10
LAG_BOUND = 6


class DomainError(ValueError):
    """A precondition of an operation was violated."""


class ParseError(ValueError):
    """A text form could not be parsed."""


class BudgetExceededError(DomainError):
    """An enumeration exceeded its configured budget."""
