"""Exception types shared across the library."""


class SweepDescentError(Exception):
    """Base class for all library errors."""


class NonConvergence(SweepDescentError):
    """An iterative geometric routine failed to reach its tolerance."""


class EmptySample(SweepDescentError):
    """A boundary sample required to be nonempty was empty."""


class DomainError(SweepDescentError):
    """A point lies outside the effective domain of a function."""


class OutOfReach(SweepDescentError):
    """A complement projection was requested beyond the prox-regular reach."""


class DegenerateDirection(SweepDescentError):
    """A projection direction collapsed below tolerance."""


class ThetaGuard(SweepDescentError):
    """The reverse step-size guard theta = K*dt/r < 1 was violated."""


class LevelUnderflow(SweepDescentError):
    """A sweep was asked to cross below the infimum of the function."""


class ReverseRefused(SweepDescentError):
    """Reverse sweeping requested without prox-regularity evidence."""


class MissingConstants(SweepDescentError):
    """A check needs estimated constants that were not supplied."""


class ConfigError(SweepDescentError):
    """An experiment configuration failed validation."""
