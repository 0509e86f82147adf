"""Exception hierarchy shared by all modules."""


class RecipGeoError(Exception):
    """Base class for every error raised by recipgeo."""


# -- input validation ------------------------------------------------------

class DimensionMismatch(RecipGeoError):
    pass


class NonPositiveCoordinate(RecipGeoError):
    pass


class NonPositiveInput(RecipGeoError):
    pass


class UnsupportedChartPair(RecipGeoError):
    pass


class ZeroArgument(RecipGeoError):
    pass


class ZeroWeightVector(RecipGeoError):
    pass


class ZeroExponent(RecipGeoError):
    pass


class ZeroSum(RecipGeoError):
    pass


class Overflow(RecipGeoError):
    pass


# -- geometric degeneracies ------------------------------------------------

class ZeroCostPoint(RecipGeoError):
    """Raised where coth(S) is undefined (the R=1 hypersurface)."""


class SingularMetric(RecipGeoError):
    pass


class SingularLocus(RecipGeoError):
    pass


class ZeroQ(RecipGeoError):
    pass


class DegenerateDirection(RecipGeoError):
    pass


class DomainViolation(RecipGeoError):
    pass


# -- integration -----------------------------------------------------------

class InvalidSpan(RecipGeoError):
    pass


class InadmissibleInitialState(RecipGeoError):
    pass


class InvalidSampleCount(RecipGeoError):
    pass


class BlowupTime(RecipGeoError):
    pass


class OutOfSpan(RecipGeoError):
    pass


class RhsEvaluationFailure(RecipGeoError):
    """Wraps a failure inside a right-hand-side evaluation.

    Carries the parameter value at which the evaluation failed so
    integrators can report or retreat from the offending step.
    """

    def __init__(self, param: float, message: str = ""):
        self.param = param
        super().__init__(message or f"rhs evaluation failed at parameter {param!r}")
