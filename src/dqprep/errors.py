"""Exception types shared across the package."""

from __future__ import annotations


class DqprepError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(DqprepError):
    """A documented precondition of an operation was violated."""


class CompatibilityError(DqprepError):
    """A clause, lookup or prefix operation names an undeclared variable."""


NotInPrefixError = CompatibilityError  # the former name of the same error


class KernelUndefined(DqprepError):
    """A universal variable has no existential depending on it, so its
    kernel (and with it the outer-variable set) is undefined."""


class ParseError(DqprepError):
    """Malformed DQDIMACS input. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.reason = message
        super().__init__(message if line is None else f"line {line}: {message}")


class BudgetError(DqprepError):
    """An oracle call would exceed its enumeration budget. Distinct from
    any verdict so callers can skip instead of misreporting."""


class VerificationError(DqprepError):
    """A pipeline transformation disagreed with the oracle."""
