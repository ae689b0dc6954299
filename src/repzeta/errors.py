"""Shared exception types.

Precondition violations raise plain ValueError throughout the package;
budget exhaustion gets its own type so callers (and the CLI exit-code
mapping) can tell the two apart.  Every budget is a module constant,
read when its function is called: no function takes a budget argument,
and tests set a budget by monkeypatching its constant.
"""


class BudgetExceededError(RuntimeError):
    """A configured enumeration or work budget was exceeded."""
