"""Exception types shared across the package."""


class SentarcError(Exception):
    """Base class for all domain errors raised by sentarc."""


class AfaError(SentarcError):
    """Fluctuation analysis cannot produce an estimate."""


class SeriesTooShortError(AfaError):
    """Input series shorter than the analysis requires."""


class DegenerateSeriesError(AfaError):
    """Series has no usable fluctuations (e.g. constant input)."""
