"""Exception hierarchy shared across the package."""


class CurvitrackError(Exception):
    """Base class for all library errors."""


class DegenerateConfiguration(CurvitrackError):
    """Too few inliers or collinear points for a homography fit."""


class SingularFit(CurvitrackError):
    """Fitted matrix is non-invertible or badly conditioned."""


class HorizonPoint(CurvitrackError):
    """Projective denominator vanishes; the point maps to the horizon."""


class ParallelVerticals(CurvitrackError):
    """Vertical line segments are too close to parallel to intersect."""


class InsufficientHeightInfo(CurvitrackError):
    """All height samples lie on the ground plane."""


class NonMonotonic(CurvitrackError):
    """Input coordinates are not monotonically increasing."""


class TooShort(CurvitrackError):
    """Input span is shorter than required."""


class OutOfExtent(CurvitrackError):
    """Queried coordinate falls outside the spline extent."""


class AmbiguousMedian(CurvitrackError):
    """Point too close to the centerline for the yellow-line shift."""


class AllOutliers(CurvitrackError):
    """Too few homography instants survive outlier removal."""


class ConfigInvalid(CurvitrackError):
    """Simulation or pipeline configuration fails validation."""


class InsufficientAnnotations(CurvitrackError):
    """Not enough pole annotations for a GPS correction step."""


class DataInvariantViolation(CurvitrackError, ValueError):
    """Input file violates a documented invariant (bad record)."""
