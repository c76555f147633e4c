"""Exception types shared across the package."""


class MsegError(Exception):
    """Base class for all errors raised by this package."""


class EmptySegmentError(MsegError, ValueError):
    """Raised when a segment would be empty (b > e)."""


class EmptyMultisegmentError(MsegError, ValueError):
    """Raised when an operation needs a nonzero multisegment."""


class PreconditionError(MsegError, ValueError):
    """Raised when an operation's stated precondition is violated."""


class TooLargeError(MsegError, ValueError):
    """Raised when an input or an exhaustive oracle exceeds its supported scale."""


class InvalidMatchingError(MsegError, ValueError):
    """Raised when a relation is not a valid matching for the given data."""


class NotApplicableError(MsegError, ValueError):
    """Raised when a decision procedure's applicability hypothesis fails."""


class SupportMismatchError(MsegError, ValueError):
    """Raised when a coefficient vector has a coordinate outside its pair set."""


class ParseError(MsegError, ValueError):
    """Raised on malformed multisegment expressions; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
