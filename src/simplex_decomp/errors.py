"""Exception types shared across the package.

Everything derives from ValueError or LookupError so that generic callers
can still catch the standard categories; the CLI maps these onto its exit
codes.
"""


class DimensionMismatchError(ValueError):
    """Operands describe different Hilbert-space dimensions."""


class HermiticityError(ValueError):
    """A matrix violates its Hermiticity (or trace) contract beyond tolerance."""


class SimplexStructureError(ValueError):
    """Vertex data cannot describe a regular simplex (wrong count or shape)."""


class NotAFiducialError(ValueError):
    """The displacement orbit of the vector is not equiangular.

    Carries ``max_deviation``, the worst squared-overlap deviation from the
    equiangularity target.
    """

    def __init__(self, message: str, max_deviation: float):
        super().__init__(message)
        self.max_deviation = max_deviation


class ParameterRangeError(ValueError):
    """A family parameter lies outside its legal interval."""


class NotSeparableError(ValueError):
    """The requested state is outside the separable interval.

    Carries ``classification``, the nonlocality class of the offending state.
    """

    def __init__(self, message: str, classification=None):
        super().__init__(message)
        self.classification = classification


class InadmissibleRadiusError(ParameterRangeError):
    """The requested factor radius leaves the positive-semidefinite contour.

    Carries ``nearest``, the closest admissible radius, and ``intervals``,
    the admissible set.
    """

    def __init__(self, message: str, nearest: float, intervals):
        super().__init__(message)
        self.nearest = nearest
        self.intervals = intervals


class SicUnavailableError(LookupError):
    """No SIC-POVM is known for this dimension; run a fiducial search."""


class FiducialSearchError(LookupError):
    """Every seed of a multi-start fiducial search failed."""


class FiducialCacheError(ValueError):
    """A fiducial cache file is not valid JSON or misses a required field."""


class CertificateError(ValueError):
    """A decomposition failed its separability certificate.

    Carries ``report``, the failing verification report.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report
