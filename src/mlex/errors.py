"""Exception types shared across the package."""


class MlexError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MlexError):
    """A structural condition on a loaded or constructed object failed.

    ``clause`` names the violated condition using the short codes that
    also appear in CLI error output: "T1".."T3" for the normalization of
    the group, scalar and operation factor sets, "T4" for the action
    tables.
    """

    def __init__(self, message, clause=None, where=None):
        self.clause = clause
        self.where = where
        parts = [message]
        if clause is not None:
            parts.insert(0, f"{clause} violated")
        if where is not None:
            parts.append(f"at {where}")
        super().__init__(" ".join(parts))


class ParseError(MlexError):
    """Syntax error in a term or workspace file; carries a position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + loc)


class BudgetExceeded(MlexError):
    """An enumeration would exceed the configured candidate budget."""

    def __init__(self, needed, budget):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"enumeration needs {needed} candidates, exceeding budget {budget}"
        )


class ConsistencyError(MlexError):
    """Two independent routes to the same fact disagreed (internal check)."""
