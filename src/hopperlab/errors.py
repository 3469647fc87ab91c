"""Exception types shared across the package."""


class HopperlabError(Exception):
    """Base class for all package-specific errors."""


class WorkspaceError(HopperlabError):
    """Joint angle outside the configured linkage workspace."""


class SingularityError(HopperlabError):
    """Leg Jacobian too close to the full-extension singularity."""


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
