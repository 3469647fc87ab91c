"""Exception types shared across the package, and the check of field domains."""

from dataclasses import fields
from numbers import Integral


def domain(low, high=float("inf"), closed=False) -> dict:
    """Field metadata: values lie in (low, high), or in [low, high) if `closed`.
    NaN and +-inf lie outside every domain; a tuple field's holds per element."""
    return {"domain": (low, closed, high)}


POSITIVE, NONNEGATIVE = domain(0.0), domain(0.0, closed=True)


def check_domains(record) -> None:
    """Raise ValueError naming the first field of the dataclass `record` whose
    value lies outside the domain declared in its metadata, or is not an
    integer where the field's default is an int (per element for tuples)."""
    for f in fields(record):
        value = getattr(record, f.name)
        integral = type(f.default[0] if isinstance(f.default, tuple) else f.default) is int
        for v in value if isinstance(value, tuple) else (value,):
            if integral and not isinstance(v, Integral):
                raise ValueError(f"{f.name} = {v!r} is not an integer")
            if "domain" in f.metadata:
                low, closed, high = f.metadata["domain"]
                if not ((low <= v if closed else low < v) and v < high):
                    raise ValueError(f"{f.name} = {v!r} is outside {'[' if closed else '('}{low:g}, {high:g})")


class HopperlabError(Exception):
    """Base class for all package-specific errors."""


class WorkspaceError(HopperlabError):
    """Joint angle outside the configured linkage workspace."""


class ConfigError(HopperlabError):
    """Invalid or unparseable configuration."""


class MissingInputError(HopperlabError):
    """A required input artifact (log file, directory) is missing or unreadable."""


class SimulationError(HopperlabError):
    """Integration blew up or left the valid state space."""


class TrialMalformedError(HopperlabError):
    """A trial log does not contain the expected touchdown/transition/liftoff events."""


class DegenerateFitError(HopperlabError):
    """Regression design matrix is rank deficient (e.g. all depths equal)."""


class InsufficientDataError(HopperlabError):
    """Not enough samples or conditions to run the requested fit."""
