"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class NoSpanningTree(ToolkitError):
    """The digraph has no spanning tree rooted at the leader."""


class SingularLaplacian(ToolkitError):
    """The follower Laplacian is numerically singular, so rho cannot be solved for."""


class DimensionMismatch(ToolkitError):
    """Inputs have inconsistent or invalid dimensions."""


class NotSymmetric(ToolkitError):
    """A matrix expected to be symmetric is not."""


class InfeasibleTopology(ToolkitError):
    """Gain synthesis is impossible (some mirror matrix is not positive definite)."""


class InputBoundViolated(ToolkitError):
    """The leader input exceeded its declared magnitude bound."""


class NonFinite(ToolkitError):
    """A computed derivative contains NaN or infinity."""


class Diverged(ToolkitError):
    """A simulated state left the admissible region.

    Carries the simulation time at which divergence was detected.
    """

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"state diverged at t={time:.6g} s")


class ConfigError(ToolkitError):
    """An experiment config file is unreadable or invalid.

    Carries the file path and, when available, the offending line number.
    """

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        loc = path or "<config>"
        if line is not None:
            loc = f"{loc}:{line}"
        super().__init__(f"{loc}: {message}")


class MalformedTrace(ToolkitError):
    """A trace CSV file does not follow the expected layout."""
