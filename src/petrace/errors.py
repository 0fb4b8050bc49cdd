"""Exception types shared across the package."""


class PetraceError(Exception):
    """Base class for all package-specific failures."""


class NumericalFailure(PetraceError):
    """Base class for a computation that failed on usable input; the CLI
    then exits 3.  Input the package cannot use raises a direct
    PetraceError subclass instead, and the CLI exits 2."""


class TimeStepUnderflow(NumericalFailure):
    """Stable time step fell below its floor: imminent blow-up or exhausted
    spatial resolution.  The runs of both frames (run_to_blowup,
    run_to_time, run_selfsim) raise it."""


class DegenerateTrace(PetraceError):
    """Trace data incompatible with the profile decomposition (a(0) <= 0 or a_Z(0) >= 0)."""


class SingularWeight(NumericalFailure):
    """Weighted integrand blows up at z=0; the required vanishing condition fails numerically."""


class InsufficientData(NumericalFailure):
    """Not enough usable samples for a fit."""


class FitDegenerate(NumericalFailure):
    """Trajectory unsuitable for the requested regression."""


class OutOfRange(PetraceError):
    """Parameter outside the admissible interval."""


class InfeasibleBalance(PetraceError):
    """Mean-zero balancing would no longer be subordinate to the profile."""


class NonFiniteState(NumericalFailure):
    """A step ran away: its result holds samples that are not finite or, in
    the rescaled frame, scales that overflow.  Typically the step was far
    above the stable one, or a physical run went on past what the floats
    hold because its blow-up cap lies beyond them."""


class ConstraintLost(NumericalFailure):
    """A run that started on the zero-average constraint manifold left it:
    the re-pinning after a step found a defect too large to project out."""


class ScaleFitFailure(NumericalFailure):
    """No spatial scale nu pins the perturbation: the discrete z=0 slope
    condition has a root only when ``beta`` = -12 d1_at_lo(u[:5], 1), u the
    lam-scaled amplitude, lies in (0, 25), and a finite one only above ~1e-308."""

    def __init__(self, beta: float):
        super().__init__(f"no spatial scale pins the perturbation: beta={beta:.6g}, "
                         f"where a finite scale needs 0 < beta < 25")
        self.beta = beta

    def __reduce__(self):
        # rebuild from the attribute, so the error survives pickling (a
        # sweep sub-run raises it in a worker process)
        return type(self), (self.beta,)
