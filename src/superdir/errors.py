"""Exception types shared across the library and the command line tool."""


class SuperdirError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(SuperdirError, ValueError):
    """A vector or matrix does not match the array size."""


class DomainError(SuperdirError, ValueError):
    """An input lies outside its mathematically valid domain."""


class DegenerateInputError(SuperdirError, ValueError):
    """An input is degenerate, e.g. an all-zero excitation."""


class SingularMatrixError(SuperdirError, ArithmeticError):
    """A matrix that must be inverted is numerically singular."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class ConditioningError(SuperdirError, ArithmeticError):
    """A result lost too much precision to be trusted."""

    def __init__(self, message, effective_rank=None):
        super().__init__(message)
        self.effective_rank = effective_rank


class AccuracyError(SuperdirError, ArithmeticError):
    """A requested accuracy could not be certified."""


class InsufficientSamplingError(SuperdirError, ValueError):
    """Too few field samples for the requested expansion order."""


class DegenerateGeometryError(SuperdirError, ValueError):
    """The array geometry makes the requested estimate ill-posed."""

    def __init__(self, message, effective_rank=None):
        super().__init__(message)
        self.effective_rank = effective_rank


class DataError(SuperdirError, ValueError):
    """A data or configuration file is malformed."""


# failures of a well-posed computation: a sweep flags them, the CLI exits 3 on them
NUMERICAL_FAILURES = (SingularMatrixError, ConditioningError, AccuracyError, DegenerateGeometryError)
