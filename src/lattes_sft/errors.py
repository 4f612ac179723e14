"""Exception types shared across the package, and the precision bounds the
CLI states in its help text before it loads the module that applies them."""

# Largest root-location precision in bits, applied by
# ``dynsys.periodic_points``: at 4096 bits ``periodic --curve 4,2,0`` takes
# 0.6 s as a process at n = 2 and 3.9-4.2 s at n = 3 on a 2-core container,
# and the D = 11 model (``--curve -4,-112,656``) 0.5 s and 4.3-4.4 s.
PRECISION_BUDGET = 4096

# Smallest root-location precision in bits, applied by the same check: far
# below it the zero rule's tolerance 2^(10 - precision) swallows points.
PRECISION_FLOOR = 64


class DomainError(ValueError):
    """A precondition of an operation was violated."""


class ParseError(ValueError):
    """A text form could not be parsed."""


class BudgetExceededError(DomainError):
    """An enumeration exceeded its configured budget."""
