"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: validation problems exit 1, failed
theorem assertions exit 2, internal invariant breaches exit 3.
"""

from __future__ import annotations


class AgendaLabError(Exception):
    """Base class for all package errors."""


class ValidationError(AgendaLabError):
    """Malformed or out-of-contract input."""


class UnsupportedCombinationError(ValidationError):
    """Inputs are individually valid but cannot be combined: a
    majority-override problem met by a reader of per-voter rows
    (`problems._require_voter_rows`) or paired with a rule other than
    simple majority (`problems._require_rule`, which `GameSpec` calls).
    Only `problems` raises it.
    """


class BudgetExceededError(AgendaLabError):
    """A call's work would exceed its configured budget.

    Raised by the work meter (`problems._Meter`) at the first charge past
    the budget, `required` being the work charged so far (a lower bound on
    the call's), and by the grids' point bound.  The message ends with
    the numbers, e.g. "(required 6,120,000, budget 5,000,000)".
    """

    def __init__(self, message: str, required: int | None = None, budget: int | None = None):
        if required is not None and budget is not None:
            message = f"{message} (required {required:,}, budget {budget:,})"
        super().__init__(message)
        self.required = required
        self.budget = budget


class GridGenericityError(AgendaLabError):
    """Tie audit failed after the allowed number of re-jitter attempts."""

    def __init__(self, message: str, player: int | None = None,
                 pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.player = player
        self.pair = pair


class RichnessError(ValidationError):
    """A custom adjournment protocol failed the richness validator."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SpatialDegeneracyError(AgendaLabError):
    """The constructive improvement search hit a degenerate configuration.

    Carries the name of the step that failed (for example, all projected
    gradients vanished), which pinpoints the genericity violation.
    """

    def __init__(self, message: str, step: str):
        super().__init__(message)
        self.step = step


class InternalInvariantError(AgendaLabError):
    """A cross-checked identity failed; signals a bug, never bad input."""
