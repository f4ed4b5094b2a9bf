"""Exception types shared across the package."""


class SupercohomError(Exception):
    pass


class FieldMismatch(SupercohomError):
    pass


class DivisionByZero(SupercohomError, ZeroDivisionError):
    pass


class NotCyclotomic(SupercohomError):
    pass


class LengthMismatch(SupercohomError):
    pass


class DegreeMismatch(SupercohomError):
    pass


class BasisMismatch(SupercohomError):
    pass


class OracleDisagreement(SupercohomError):
    """Two independent computations of the same quantity disagreed.

    This always indicates a bug (usually a sign error), never bad input.
    """


class WrongBidegree(SupercohomError):
    pass


class DegreeOutOfRange(SupercohomError):
    pass


class AllZero(SupercohomError):
    pass


class NotValidated(SupercohomError):
    """A computation needs an input that failed validation; report says how."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class NotCocycle(SupercohomError):
    pass


class ParseError(SupercohomError):
    pass


class ValidationError(SupercohomError):
    pass
