"""Exception types shared across the toolkit."""


class DasimError(Exception):
    """Base class for all toolkit errors."""


class MalformedGeocode(DasimError):
    """Geocode is not a 31-digit decimal string."""


class InconsistentGeocode(DasimError):
    """Geocode digits violate an internal consistency rule."""


class EmptyTarget(DasimError):
    """Target geography is unknown to the spine or contains no blocks."""


class SchemaError(DasimError):
    """Cell schema, aggregation matrix, or invariant definition is invalid."""


class ParameterError(DasimError):
    """A numeric parameter is outside its legal range."""


class EmptyInput(DasimError):
    """An operation that requires data received none."""


class CoverageError(DasimError):
    """A requested statistic or geography is not derivable from the inputs."""


class InfeasibleConstraints(DasimError):
    """Post-processing constraints cannot be satisfied simultaneously."""


class UsageError(DasimError):
    """Estimator inputs violate the independence discipline they require."""


class ConfigError(DasimError):
    """Run configuration file is malformed or carries unknown keys."""
