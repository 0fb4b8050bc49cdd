"""Physical-frame evolution of the trace system on Z in [0, 1].

State is the pair (a, c): a is the negative horizontal velocity gradient on
the symmetry axis, c the second horizontal derivative of temperature there.
The system is

    a_t = a^2 - (D^-1 a) a_Z - D^-1 c - int_0^1 (2 a^2 - D^-1 c) dZ,
    c_t = 2 a c - (D^-1 a) c_Z + sigma c_ZZ,

with zero mean of a and, for sigma=1, Dirichlet conditions on c, where
D^-1 denotes the running integral from Z=0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FitDegenerate, NonFiniteState, TimeStepUnderflow
from .grid import Field, Grid, cn_half, cumulative, d1, d1_at_lo, d2, definite

__all__ = ["TraceState", "SolverConfig", "StepResult", "Trajectory",
           "trace_rhs", "step", "run_to_blowup", "run_to_time"]

_CSV_HEADER = "t,max_a,max_c,mean_a,dt,a0,aZ0"
_PROBE_TAG = "a@"          # a probe column is named a@<Z>
_REASON_TAG = "# reason="

_MEAN_TOL = 1e-8    # relative to max(1, max|a|); the compatibility condition
_BC_TOL = 1e-10


@dataclass(frozen=True)
class TraceState:
    """Trace fields on Z in [0,1] at physical time t."""

    a: Field
    c: Field
    sigma: int
    t: float = 0.0
    # integral of a over [0, 1] (its mean) and max|a|, computed once by the
    # validation below and reused by the stepper and the run recorder
    mean_a: float = field(init=False, repr=False, compare=False)
    max_a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        ga, gc = self.a.grid, self.c.grid
        if ga != gc:
            raise ValueError("a and c must share a grid")
        if abs(ga.lo) > 1e-12 or abs(ga.hi - 1.0) > 1e-12:
            raise ValueError("trace fields live on [0, 1]")
        mean = definite(self.a.values, ga.h)
        amax = self.a.max_abs()
        if abs(mean) > _MEAN_TOL * max(1.0, amax):
            raise ValueError(f"compatibility condition violated: integral(a) = {mean:g}")
        object.__setattr__(self, "mean_a", mean)
        object.__setattr__(self, "max_a", amax)
        if self.sigma == 1:
            cscale = max(1.0, self.c.max_abs())
            if abs(self.c.values[0]) > _BC_TOL * cscale or abs(self.c.values[-1]) > _BC_TOL * cscale:
                raise ValueError("sigma=1 requires c(0) = c(1) = 0")

    @property
    def grid(self) -> Grid:
        return self.a.grid


@dataclass
class SolverConfig:
    n: int = 1025                     # not read: the initial state sets the grid
    dt_safety: float = 0.5
    blowup_cap: float | None = None   # None: resolved to 1e6 * max|a0| at run start
    dt_floor: float = 1e-15
    dt_max: float = 1.0
    t_max: float = math.inf
    max_steps: int = 5_000_000
    probe_Z: tuple[float, ...] = (0.0, 0.25, 0.5)

    def __post_init__(self):
        if not (0.0 < self.dt_safety <= 1.0):
            raise ValueError("dt_safety must lie in (0, 1]")
        if self.blowup_cap is not None and self.blowup_cap <= 0:
            raise ValueError("blowup_cap must be positive")
        if self.dt_floor <= 0:
            raise ValueError("dt_floor must be positive")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps!r}")
        if not all(0.0 <= z <= 1.0 for z in self.probe_Z):
            raise ValueError(f"probe heights must lie in [0, 1], got {self.probe_Z}")


@dataclass
class StepResult:
    state: TraceState
    dt: float
    blowup: bool
    mean_drift_rate: float = 0.0  # pre-projection d(int a)/dt over the step


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def _rhs(u, h, sigma, diffusion=True, P=None):
    """Time derivative of the stacked state u = (a, c), shape (2, n).

    P, if given, is ``cumulative(u, h)``: the running integrals (A, C)."""
    if P is None:
        P = cumulative(u, h)
    va, vc = u
    A, C = P
    sq = va * va
    K = definite(2.0 * sq - C, h)
    # k starts as the transport terms -A u_Z; adding the sources in place
    # gives the same floating-point sums as a^2 - A a_Z - C - K and
    # 2 a c - A c_Z
    k = d1(u, h)
    k *= -A
    k[0] += sq
    k[0] -= C
    k[0] -= K
    k[1] += 2.0 * va * vc
    if sigma == 1:
        if diffusion:
            k[1] += d2(vc, h)
        k[1, 0] = 0.0
        k[1, -1] = 0.0
    return k


def trace_rhs(state: TraceState) -> tuple[Field, Field]:
    """Instantaneous time derivative (da, dc) of the trace system."""
    u = np.stack((state.a.values, state.c.values))
    da, dc = _rhs(u, state.grid.h, state.sigma)
    return Field(state.grid, da), Field(state.grid, dc)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _rk4(u, h, sigma, dt, P1):
    # diffusion excluded here; for sigma=1 it is applied in the Strang halves.
    # P1 is the stage-1 antiderivative, already computed for the step size.
    k1 = _rhs(u, h, sigma, diffusion=False, P=P1)
    k2 = _rhs(u + 0.5 * dt * k1, h, sigma, diffusion=False)
    k3 = _rhs(u + 0.5 * dt * k2, h, sigma, diffusion=False)
    k4 = _rhs(u + dt * k3, h, sigma, diffusion=False)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stable_dt(state: TraceState, cfg: SolverConfig, A: np.ndarray) -> float:
    """Advective/reactive step size: dt_safety * min(h / max|D^-1 a|, 1 / max|a|).

    A is D^-1 a, ``cumulative(state.a.values, h)``, which the step's first
    RK stage needs as well."""
    amax = state.max_a
    Amax = float(np.max(np.abs(A)))
    dt = cfg.dt_max
    if Amax > 0.0:
        dt = min(dt, state.grid.h / Amax)
    if amax > 0.0:
        dt = min(dt, 1.0 / amax)
    return cfg.dt_safety * dt


def step(state: TraceState, cfg: SolverConfig, dt_cap: float | None = None) -> StepResult:
    """One time step.

    Explicit RK4 on the advection/reaction part; for sigma=1 the diffusion
    is wrapped around it as two unconditionally stable Crank-Nicolson half
    steps (Strang splitting), which leave c exactly 0 at both ends.
    Afterwards the spatial mean of a is projected out.  If the state already
    exceeds the blow-up cap, no step is taken and the blow-up flag is set.

    Raises NonFiniteState when a sample of the result is not finite: the
    step ran away.
    """
    cap = cfg.blowup_cap if cfg.blowup_cap is not None else math.inf
    if state.max_a >= cap:
        return StepResult(state, 0.0, True)

    h = state.grid.h
    u = np.stack((state.a.values, state.c.values))
    P = cumulative(u, h)
    dt = stable_dt(state, cfg, P[0])
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if dt < cfg.dt_floor:
        raise TimeStepUnderflow(f"dt={dt:g} below floor {cfg.dt_floor:g} at t={state.t:g}")

    if state.sigma == 1:
        u[1] = cn_half(u[1], h, 0.5 * dt)
        P[1] = cumulative(u[1], h)
    un = _rk4(u, h, state.sigma, dt, P)
    if state.sigma == 1:
        un[1] = cn_half(un[1], h, 0.5 * dt)

    na = un[0]
    mean_after = definite(na, h)
    drift_rate = (mean_after - state.mean_a) / dt
    na -= mean_after  # length of [0,1] is 1, so the integral is the mean

    # the check Field makes, in one pass over the stacked rows
    if not np.isfinite(un).all():
        raise NonFiniteState(f"non-finite samples after the step from t={state.t:g} "
                             f"over dt={dt:g}")
    g = state.grid
    new = TraceState(Field._trusted(g, un[0]), Field._trusted(g, un[1]), state.sigma,
                     state.t + dt)
    return StepResult(new, dt, False, drift_rate)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Per-step diagnostics of a run and the state it stopped at."""

    t: np.ndarray
    max_a: np.ndarray
    max_c: np.ndarray
    mean_a: np.ndarray
    dt: np.ndarray
    a0: np.ndarray                 # a(t, Z=0)
    aZ0: np.ndarray                # a_Z(t, Z=0), one-sided stencil
    drift_rate: np.ndarray         # pre-projection d(int a)/dt
    probe_Z: tuple[float, ...]     # heights i/(n-1) of the nodes probed
    probes: np.ndarray             # samples of a at the probe heights
    reason: str                    # blowup | t_max | dt_underflow | max_steps
    final_state: TraceState | None = None

    def __post_init__(self):
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def lam(self) -> np.ndarray:
        """Amplitude scale 1/a(t,0) along the run."""
        return 1.0 / self.a0

    @property
    def nu(self) -> np.ndarray:
        """Width scale -a(t,0)/a_Z(t,0) along the run."""
        return -self.a0 / self.aZ0

    def to_csv(self, path):
        """One line per sample (t, max|a|, max|c|, mean of a, dt, a(t,0),
        a_Z(t,0), then a at each probe height) under a header that names a
        probe column ``a@<Z>``, then a last line ``# reason=<stop reason>``."""
        cols = np.column_stack([self.t, self.max_a, self.max_c, self.mean_a, self.dt,
                                self.a0, self.aZ0, self.probes])
        header = ",".join([_CSV_HEADER, *(f"{_PROBE_TAG}{float(z)!r}" for z in self.probe_Z)])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in cols.tolist():  # Python floats format faster than numpy scalars
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
            fh.write(f"{_REASON_TAG}{self.reason}\n")

    @classmethod
    def from_csv(cls, path) -> Trajectory:
        """Read back what ``to_csv`` wrote, probe series included; a file
        without probe columns gives an empty ``probe_Z``.  The drift rate is
        not stored, so ``drift_rate`` is NaN.  A file without the header or
        the stop reason raises FitDegenerate."""
        lines = Path(path).read_text().splitlines()
        sep = "," + _PROBE_TAG
        head, _, probe_names = lines[0].partition(sep) if lines else ("", "", "")
        try:
            probe_Z = tuple(map(float, probe_names.split(sep))) if probe_names else ()
        except ValueError:  # a column after aZ0 that is not named a@<Z>
            probe_Z = None
        if (len(lines) < 3 or head != _CSV_HEADER or probe_Z is None
                or not lines[-1].startswith(_REASON_TAG)):
            raise FitDegenerate(f"{path} is not a trajectory that records its stop reason")
        data = np.loadtxt(lines[1:-1], delimiter=",", ndmin=2)
        if data.shape[1] != 7 + len(probe_Z):
            raise FitDegenerate(f"{path} has {data.shape[1]} columns under a header of "
                                f"{7 + len(probe_Z)}")
        n = len(data)
        return cls(t=data[:, 0], max_a=data[:, 1], max_c=data[:, 2], mean_a=data[:, 3],
                   dt=data[:, 4], a0=data[:, 5], aZ0=data[:, 6],
                   drift_rate=np.full(n, math.nan), probe_Z=probe_Z, probes=data[:, 7:],
                   reason=lines[-1][len(_REASON_TAG):])


def _probe_indices(grid: Grid, probe_Z):
    """The node nearest each probe height; heights that share a node are
    rejected, since their columns would repeat one series."""
    idx = [int(round(z * (grid.n - 1))) for z in probe_Z]
    if len(set(idx)) < len(idx):
        raise ValueError(f"probe heights {tuple(probe_Z)} share a node on a grid of "
                         f"{grid.n} nodes")
    return idx


def run_to_blowup(state0: TraceState, cfg: SolverConfig) -> Trajectory:
    """Step until max|a| reaches the blow-up cap (or another stop reason)."""
    cfg = replace(cfg)
    if cfg.blowup_cap is None:
        cfg.blowup_cap = 1e6 * max(state0.a.max_abs(), 1e-300)
    return _run(state0, cfg, t_end=None)


def run_to_time(state0: TraceState, cfg: SolverConfig, t_end: float) -> Trajectory:
    """Step until physical time t_end, landing on it exactly."""
    cfg = replace(cfg)
    if cfg.blowup_cap is None:
        cfg.blowup_cap = math.inf
    return _run(state0, cfg, t_end=t_end)


def _run(state0: TraceState, cfg: SolverConfig, t_end):
    rows = {k: [] for k in ("t", "max_a", "max_c", "mean_a", "dt", "a0", "aZ0", "drift", "probes")}
    idx = _probe_indices(state0.grid, cfg.probe_Z)
    h = state0.grid.h

    def record(st: TraceState, dt_used: float, drift: float):
        rows["t"].append(st.t)
        rows["max_a"].append(st.max_a)
        rows["max_c"].append(st.c.max_abs())
        rows["mean_a"].append(st.mean_a)
        rows["dt"].append(dt_used)
        rows["a0"].append(st.a.values[0])
        rows["aZ0"].append(d1_at_lo(st.a.values, h))
        rows["drift"].append(drift)
        rows["probes"].append([st.a.values[i] for i in idx])

    state = state0
    record(state, 0.0, 0.0)
    reason = "max_steps"
    limit = min(cfg.t_max, t_end) if t_end is not None else cfg.t_max
    for _ in range(cfg.max_steps):
        if state.t >= limit:
            reason = "t_max"
            break
        if math.isfinite(limit) and limit - state.t < max(cfg.dt_floor, 1e-15 * limit):
            reason = "t_max"  # within round-off of the landing time
            break
        cap_dt = limit - state.t if math.isfinite(limit) else None
        try:
            res = step(state, cfg, dt_cap=cap_dt)
        except TimeStepUnderflow:
            reason = "dt_underflow"
            break
        if res.blowup:
            reason = "blowup"
            break
        state = res.state
        record(state, res.dt, res.mean_drift_rate)
    else:
        reason = "max_steps"
    if reason == "max_steps" and state.t >= limit:
        reason = "t_max"

    probes = np.array(rows["probes"]) if rows["probes"] else np.empty((0, len(idx)))
    return Trajectory(
        t=np.array(rows["t"]),
        max_a=np.array(rows["max_a"]),
        max_c=np.array(rows["max_c"]),
        mean_a=np.array(rows["mean_a"]),
        dt=np.array(rows["dt"]),
        a0=np.array(rows["a0"]),
        aZ0=np.array(rows["aZ0"]),
        drift_rate=np.array(rows["drift"]),
        probe_Z=tuple(i / (state0.grid.n - 1) for i in idx),
        probes=probes,
        reason=reason,
        final_state=state,
    )
