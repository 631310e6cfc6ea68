"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input to a library operation; the CLI exits 1 on it."""


class DslParseError(DomainError):
    """Poset DSL or partition text failed to parse; ``offset`` is the byte
    position.  The CLI exits 2 on it."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class InternalInvariantError(RuntimeError):
    """A guaranteed internal property failed; indicates a bug, not bad input."""
