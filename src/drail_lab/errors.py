"""Shared exception types."""


class NumericalAbort(RuntimeError):
    """Raised when a training stage rejects a value the run made; maps to exit code 3."""
