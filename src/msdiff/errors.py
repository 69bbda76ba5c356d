"""Exception hierarchy shared by all msdiff modules."""


class MsDiffError(Exception):
    """Base class for all msdiff errors."""


class DegenerateComposition(MsDiffError):
    """A composition entry is at (or below) the boundary where the
    requested quantity is not defined."""


class SingularSystem(MsDiffError):
    """A linear solve for the fluxes broke down."""


class EigSolverFailure(MsDiffError):
    """The symmetric eigensolver did not converge."""


class NotConvex(MsDiffError):
    """The mixture Gibbs energy is not strongly convex at this state;
    the diffusion operator loses parabolicity (phase-splitting regime)."""


class PositivityViolation(MsDiffError):
    """A concentration went negative beyond the noise threshold during
    time stepping; signals a CFL or model breach."""


class NonFiniteState(MsDiffError):
    """A reaction rate or a concentration became NaN or infinite during
    time stepping, e.g. when reaction rates overflow."""


class IsobaricDrift(MsDiffError):
    """Per-cell total concentrations drifted apart beyond the isobaric
    tolerance during time stepping."""


class MaxStepsExceeded(MsDiffError):
    """The simulation hit the configured step limit before t_end."""


class NonMonotoneFlux(MsDiffError):
    """The scalar flux function of the binary reference solver is not
    increasing on the traversed concentration range."""


class ConfigError(MsDiffError):
    """A run configuration failed to parse or validate."""
