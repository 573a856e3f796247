"""Exception hierarchy shared across the package.

Data-shaped problems (bad files, inconsistent matrices) derive from
``DataError``. The CLI maps ``UsageError`` to exit code 1,
``NumericalFailure`` (a non-finite state mid-sampling) to 4, and every
other ``ZinbregError`` to 2.
"""


class ZinbregError(Exception):
    """Base class for all package errors."""


class DataError(ZinbregError):
    """Invalid or inconsistent input data."""


class DimensionMismatch(DataError):
    pass


class ConstantCovariate(DataError):
    pass


class AllZeroFeature(DataError):
    pass


class EmptySample(DataError):
    pass


class NoSharedFeatures(DataError):
    def __init__(self, i, j):
        super().__init__(f"samples {i} and {j} share no feature with nonzero counts in both")
        self.pair = (i, j)

    def __reduce__(self):
        return (type(self), self.pair)


class DomainError(ZinbregError):
    """Argument outside the mathematical domain of a density or kernel."""


class NumericalFailure(ZinbregError):
    def __init__(self, iteration, detail=""):
        msg = f"non-finite state at iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.iteration = iteration
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.iteration, self.detail))


class EmptyTrace(ZinbregError):
    pass


class SingleClassTruth(ZinbregError):
    pass


class PoolTooSmall(DataError):
    pass


class ParseError(DataError):
    def __init__(self, path, line, column, detail):
        super().__init__(f"{path}:{line}:{column}: {detail}")
        self.path = path
        self.line = line
        self.column = column
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.path, self.line, self.column, self.detail))


class UnalignedSampleIds(DataError):
    pass


class NonIntegerCount(DataError):
    pass


class UsageError(ZinbregError):
    """Bad command line or config-file value."""
