"""Exception hierarchy shared by all gnoc modules."""


class GnocError(Exception):
    """Base class for all errors raised by this package."""


# --- tech config loading ---

class ParseError(GnocError):
    pass


class InvalidValue(GnocError):
    pass


class MissingKey(GnocError):
    pass


# --- link grammar ---

class LinkError(GnocError):
    """An error in a link sentence, at a token position (None when unknown)."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class LexError(LinkError):
    pass


class GrammarError(LinkError):
    pass


class SubtypeError(LinkError):
    pass


# --- characterization tables ---

class FormatError(GnocError):
    pass


class DigestMismatch(GnocError):
    pass


class TableMismatch(GnocError):
    pass


class MonotonicityError(GnocError):
    pass


class CornerOrderError(MonotonicityError):
    pass


class SegmentTooLong(GnocError):
    pass


class SlewOutOfRange(GnocError):
    pass


class NotOnGrid(GnocError):
    pass


# --- analysis / synthesis ---

class ClockUnsatisfiable(GnocError):
    pass


class NoValidCandidate(GnocError):
    pass
