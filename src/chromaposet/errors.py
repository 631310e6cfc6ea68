"""Exception types shared across the package."""


class DomainError(ValueError):
    """Base class for invalid inputs to library operations."""


class SizeMismatchError(DomainError):
    """Two partitions (or a partition and a ground set) disagree in total size."""


class UnknownElementError(DomainError):
    """An element label does not belong to the poset."""


class InvalidSpecError(DomainError):
    """A poset specification is malformed."""


class DslParseError(InvalidSpecError):
    """Poset DSL text failed to parse; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class PreconditionError(DomainError):
    """A documented precondition of an operation does not hold."""


class FastPathInapplicableError(DomainError):
    """The closed-form route was requested but its hypotheses do not hold."""


class TooLargeError(DomainError):
    """Input exceeds the configured size limit."""


class BudgetExceededError(DomainError):
    """A search exceeded its node budget."""


class CertificateError(DomainError):
    """A chain-partition certificate failed validation."""


class InternalInvariantError(RuntimeError):
    """A guaranteed internal property failed; indicates a bug, not bad input."""
