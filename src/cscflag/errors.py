"""Exception types shared across the package."""


class CscflagError(Exception):
    """Base class for all package errors."""


class InvalidLieType(CscflagError):
    """Lie type string or rank constraint violated."""


class DimensionMismatch(CscflagError):
    """Vector length incompatible with the ambient root system."""


class IndexOutOfRange(CscflagError):
    """Simple-root index outside 1..rank."""


class ZeroWeight(CscflagError):
    """The zero weight does not define a line bundle."""


class NonPositiveClass(CscflagError):
    """Kahler class coefficients must all be positive."""


class NotSemiNegative(CscflagError):
    """Momentum construction requires a strictly negative bundle weight."""


class InternalInconsistency(CscflagError):
    """Certified root count contradicts what the theory guarantees."""


class WrongCase(CscflagError):
    """Asymptotic datum requested for the wrong curvature sign."""


class GridOutOfInterval(CscflagError):
    """Sample point outside the interior of the momentum interval."""


class StepTooLarge(CscflagError):
    """Error estimate of the RK4 oracle or the fiber-map quadrature exceeds
    its bound, or a coefficient of the oracle's Qtilde or P is beyond binary64."""


class InvalidRange(CscflagError):
    """Search range for the smooth-completion constant must be positive, and
    the search needs at least one sample."""


class SchemaError(CscflagError):
    """Job configuration does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):  # a batch worker's error reaches the parent
        return type(self), (self.path, self.message)
