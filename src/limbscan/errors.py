"""Exception hierarchy of limbscan, and the type and range check every
params class runs."""
import functools
import math
from dataclasses import field
from numbers import Integral


class LimbscanError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateConfiguration(LimbscanError):
    """Input geometry has insufficient rank for the requested fit."""


class InvalidParams(LimbscanError, ValueError):
    """An input such as an array, a file or its metadata is malformed or out of range."""


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
    """No skin plane lies above a centerline point within reach."""


class DegenerateSegment(LimbscanError):
    """Joint landmarks of a segment coincide."""


class NonFiniteEnergy(LimbscanError):
    pass


class OutOfBindingReach(LimbscanError):
    """A point is farther than the binding reach from every graph node."""


class VesselLost(LimbscanError):
    """A virtual frame contains no vessel cross-section."""


class TooFewFrames(LimbscanError):
    pass


class ConfigError(InvalidParams):
    """A parameter value is malformed or out of range (CLI exit 2)."""


class StageError(LimbscanError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


# annotation -> (accepts, description); Integral takes NumPy ints too, and
# floats take ints as they are, so a config written with `elbow_angle: 140`
# round-trips to the same report bytes
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, Integral) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: (isinstance(v, Integral) and not isinstance(v, bool))
              or (isinstance(v, float) and math.isfinite(v)), "a finite number"),
}


def bounded(default, interval: str):
    """A dataclass field whose value check_fields holds to interval, written
    like "(90, 180]" or "[0, inf)"."""
    return field(default=default, metadata={"range": interval})


@functools.cache
def _endpoints(interval: str) -> tuple[float, float, bool, bool]:
    """(lo, hi, lo closed, hi closed) of an interval such as "(90, 180]"."""
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def _within(value, interval: str) -> bool:
    lo, hi, lo_closed, hi_closed = _endpoints(interval)
    return ((lo <= value if lo_closed else lo < value)
            and (value <= hi if hi_closed else value < hi))


def check_fields(cls, values: dict, prefix: str = "") -> None:
    """Raise ConfigError for a key that is not a field of the dataclass cls,
    a value not of its field's annotated type, or a value outside the
    interval the field declares (see bounded). A field annotated with any
    other name, such as str or a config section, takes an instance of it."""
    fields = cls.__dataclass_fields__
    for name, value in values.items():
        if name not in fields:
            raise ConfigError(f"unknown config field '{prefix}{name}'")
        kind = fields[name].type
        accepts, what = _FIELD_TYPES.get(
            kind, (lambda v: type(v).__name__ == kind, f"a {kind}"))
        if not accepts(value):
            raise ConfigError(f"field '{prefix}{name}' must be {what}, got {value!r}")
        interval = fields[name].metadata.get("range")
        if interval is not None and not _within(value, interval):
            raise ConfigError(f"field '{prefix}{name}' must be in {interval}, got {value!r}")
