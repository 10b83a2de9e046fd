"""Exception hierarchy shared by all limbscan modules."""


class LimbscanError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateConfiguration(LimbscanError):
    """Input geometry has insufficient rank for the requested fit."""


class EmptyCloud(LimbscanError):
    pass


class InvalidParams(LimbscanError, ValueError):
    """A parameter or input value is malformed or out of range."""


class OutOfFrame(LimbscanError):
    """A scene point projects outside the depth image."""


class IndexOutOfRange(LimbscanError):
    pass


class SeedOffArm(LimbscanError):
    """A search seed landed on a background (table-depth) pixel."""


class NoEdgeFound(LimbscanError):
    """A bidirectional search marched out of the image without a boundary."""


class TooFewPoints(LimbscanError):
    pass


class NoSurfaceAbove(LimbscanError):
    """No surface point lies in the up half-space of a centerline point."""


class DegenerateSegment(LimbscanError):
    """Joint landmarks of a segment coincide."""


class NonFiniteEnergy(LimbscanError):
    pass


class OutOfBindingReach(LimbscanError):
    """A point is farther than the binding reach from every graph node."""


class DimensionMismatch(LimbscanError):
    pass


class EmptyMask(LimbscanError):
    """A binary mask has no foreground pixels (lost target)."""


class VesselLost(LimbscanError):
    """A virtual frame contains no vessel cross-section."""


class TooFewFrames(LimbscanError):
    pass


class ConfigError(LimbscanError):
    """A pipeline configuration field is missing or out of range."""


class StageError(LimbscanError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
