"""Exception types shared across the package."""


class PetraceError(Exception):
    """Base class for all package-specific failures."""


class TimeStepUnderflow(PetraceError):
    """Stable time step fell below the configured floor.

    Signals imminent blow-up or exhausted spatial resolution; runs treat it
    as a normal termination reason.
    """


class DegenerateTrace(PetraceError):
    """Trace data incompatible with the profile decomposition (a(0) <= 0 or a_Z(0) >= 0)."""


class SingularWeight(PetraceError):
    """Weighted integrand blows up at z=0; the required vanishing condition fails numerically."""


class InsufficientData(PetraceError):
    """Not enough usable samples for a fit."""


class FitDegenerate(PetraceError):
    """Trajectory unsuitable for the requested regression."""


class OutOfRange(PetraceError):
    """Parameter outside the admissible interval."""


class InfeasibleBalance(PetraceError):
    """Mean-zero balancing would no longer be subordinate to the profile."""


class NonFiniteState(PetraceError):
    """A step ran away: its result holds samples that are not finite or, in
    the rescaled frame, scales that overflow.  Typically the step was far
    above the stable one, or a physical run went on past what the floats
    hold because its blow-up cap lies beyond them."""


class ConstraintLost(PetraceError):
    """A run that started on the zero-average constraint manifold left it:
    the re-pinning after a step found a defect too large to project out."""


class ScaleFitFailure(PetraceError):
    """The secant fit of the spatial scale nu left a discrete z=0 slope above
    the vanishing tolerance; ``residual`` is the best slope reached, at
    ``nu``."""

    def __init__(self, residual: float, nu: float):
        super().__init__(f"spatial-scale fit did not converge: best z=0 slope "
                         f"{residual:.3g} at nu={nu:.6g}")
        self.residual = residual
        self.nu = nu

    def __reduce__(self):
        # rebuild from the attributes, so the error survives pickling (a
        # sweep sub-run raises it in a worker process)
        return type(self), (self.residual, self.nu)
