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

class LexError(GnocError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class GrammarError(GnocError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SubtypeError(GnocError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


# --- characterization tables ---

class FormatError(GnocError):
    pass


class DigestMismatch(GnocError):
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

class TableMismatch(GnocError):
    pass


class ClockUnsatisfiable(GnocError):
    pass


class NoValidCandidate(GnocError):
    pass
