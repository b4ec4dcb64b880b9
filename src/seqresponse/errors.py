"""Exception types shared across the package.

Each top-level class names the command-line exit code and the stderr
label of the failures it stands for, so `cli.main` maps any library
error to its exit code in one place.
"""


class SeqResponseError(Exception):
    """Base class for all library errors."""

    exit_code: int
    label: str


class ConfigError(SeqResponseError):
    """An experiment config file is missing a field or holds a bad value."""

    exit_code, label = 1, "config error"


class WindowExceeded(ConfigError):
    """A composition or series asked for indices outside the schedule window."""


class InvalidSystem(SeqResponseError, ValueError):
    """The system breaks a hypothesis of the theory or of its discretization.

    A map that does not expand or has covering degree < 2, kicks too
    large for h_eps to be a diffeomorphism, maps of unequal degree, grid
    sizes that disagree, or a noise density without a Doeblin floor.
    """

    exit_code, label = 2, "invalid system"


class NotConverged(SeqResponseError):
    """An iteration missed its target: a pullback residual, a root solve, or the search for a block length M."""

    exit_code, label = 3, "did not converge"


class TailNotSmall(SeqResponseError):
    """The certified Neumann tail bound exceeds the requested tolerance."""

    exit_code, label = 4, "tolerance failure"
