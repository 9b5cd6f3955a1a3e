"""Exception types shared across the package."""


class SentarcError(Exception):
    """Base class for all domain errors raised by sentarc."""


class AfaError(SentarcError):
    """Fluctuation analysis cannot produce an estimate."""

