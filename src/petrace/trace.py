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
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FitDegenerate, NonFiniteState, TimeStepUnderflow
from .grid import Field, Grid, cn_half, cumulative, d1, d1_at_lo, definite

__all__ = ["TraceState", "SolverConfig", "StepResult", "Trajectory",
           "step", "run_to_blowup", "run_to_time"]

_CSV_HEADER = "t,max_a,max_c,mean_a,dt,a0,aZ0"
_PROBE_TAG = "a@"          # a probe column is named a@<Z>
_REASON_TAG = "# reason="

_MEAN_TOL = 1e-8    # relative to max(1, max|a|); the compatibility condition
_BC_TOL = 1e-10
_DT_FLOOR = 1e-15   # the smallest step the physical run takes


@dataclass(frozen=True)
class TraceState:
    """Trace fields on Z in [0,1] at physical time t.

    The samples live in one read-only (2, n) array of the rows (a, c),
    which the stepper reads without stacking them again."""

    a: Field
    c: Field
    sigma: int
    t: float = 0.0
    # The stacked (a, c) samples, of which a and c are views, and their
    # running integrals D^-1 (a, c) (for sigma=1 D^-1 a alone), which the
    # step's first RK stage needs, both read-only; the integral of a over
    # [0, 1] (its mean, the last entry of D^-1 a), max|a| and max|c|.  All
    # are found once, by _adopt, and reused by the stepper and the run
    # recorder.
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _P: np.ndarray = field(init=False, repr=False, compare=False)
    mean_a: float = field(init=False, repr=False, compare=False)
    max_a: float = field(init=False, repr=False, compare=False)
    max_c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t!r}")
        ga, gc = self.a.grid, self.c.grid
        if ga != gc:
            raise ValueError("a and c must share a grid")
        if abs(ga.lo) > 1e-12 or abs(ga.hi - 1.0) > 1e-12:
            raise ValueError("trace fields live on [0, 1]")
        rows = np.stack((self.a.values, self.c.values))
        self._adopt(rows, ga, *np.abs(rows).max(axis=1).tolist())

    @classmethod
    def _from_rows(cls, rows, g, sigma, t, max_a, max_c) -> TraceState:
        """The state on the stacked finite rows (a, c) on grid g, with
        max_a = max|a| and max_c = max|c|: the step's constructor, which
        skips the checks of the grid and the copies Field makes."""
        st = object.__new__(cls)
        st.__dict__.update(sigma=sigma, t=t)
        st._adopt(rows, g, max_a, max_c)
        return st

    def _adopt(self, rows, g, max_a, max_c):
        """Take the stacked finite rows (a, c) on grid g, with their maxima,
        as the samples, without a copy, after the checks every state passes:
        the compatibility condition and, for sigma=1, c = 0 at both ends.
        For sigma=1 only a is integrated: the step's leading diffusion half
        step changes c, so no step reads the integral of this c."""
        P = cumulative(rows if self.sigma == 0 else rows[:1], g.h)
        mean = float(P[0, -1])  # definite(a), bit for bit
        if abs(mean) > _MEAN_TOL * max(1.0, max_a):
            raise ValueError(f"compatibility condition violated: integral(a) = {mean:g}")
        if self.sigma == 1:
            cscale = max(1.0, max_c)
            if abs(rows[1, 0]) > _BC_TOL * cscale or abs(rows[1, -1]) > _BC_TOL * cscale:
                raise ValueError("sigma=1 requires c(0) = c(1) = 0")
        rows.flags.writeable = P.flags.writeable = False
        self.__dict__.update(a=Field._trusted(g, rows[0]), c=Field._trusted(g, rows[1]),
                             _rows=rows, _P=P, mean_a=mean, max_a=max_a, max_c=max_c)

    @property
    def grid(self) -> Grid:
        return self.a.grid


@dataclass
class SolverConfig:
    n: int = 1025                     # not read: the initial state sets the grid
    dt_safety: float = 0.5
    blowup_cap: float | None = None   # None: run_to_blowup caps at 1e6 * max|a0|, else no cap
    t_max: float = math.inf
    max_steps: int = 5_000_000
    probe_Z: tuple[float, ...] = (0.0, 0.25, 0.5)

    def __post_init__(self):
        if not (0.0 < self.dt_safety <= 1.0):
            raise ValueError("dt_safety must lie in (0, 1]")
        if self.blowup_cap is not None and not 0 < self.blowup_cap < math.inf:
            raise ValueError(f"blowup_cap must be positive and finite, got {self.blowup_cap!r}")
        if math.isnan(self.t_max):
            raise ValueError("t_max must not be nan")
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

def _rhs(u, h, sigma, P=None):
    """Time derivative of the stacked state u = (a, c), shape (2, n), but
    for the sigma=1 diffusion, which the stepper applies by Crank-Nicolson.

    P, if given, holds the running integrals (A, C) of u, as
    ``cumulative(u, h)`` gives them."""
    if P is None:
        P = cumulative(u, h)
    va, vc = u
    A, C = P
    sq = va * va
    w = 2.0 * sq
    w -= C
    K = definite(w, h)
    # k starts as the transport products A u_Z; the sources minus them,
    # formed in place, are the same floating-point sums as
    # a^2 - A a_Z - C - K and 2 a c - A c_Z
    k = d1(u, h)
    k *= A
    ka, kc = k
    np.subtract(sq, ka, out=ka)
    ka -= C
    ka -= K
    np.multiply(va, 2.0, out=w)
    w *= vc
    np.subtract(w, kc, out=kc)
    if sigma == 1:
        kc[0] = kc[-1] = 0.0
    return k


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _rk4(f, x, dt, k1):
    """One classical RK4 step over dt of x' = f(*x), the step of both frames.

    x is a tuple of arrays and floats, f returns their derivatives as a
    tuple of the same kinds, and k1 = f(*x), which both frames already have.
    Each stage input x + c k and the result x + dt/6 (k1 + 2 k2 + 2 k3 + k4)
    is new, so nothing is written: f may keep what it is given and returns."""
    def stage(k, c):
        return f(*(xi + c * ki for xi, ki in zip(x, k)))

    k2 = stage(k1, 0.5 * dt)
    k3 = stage(k2, 0.5 * dt)
    k4 = stage(k3, dt)
    return tuple(xi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4))


def stable_dt(state: TraceState, cfg: SolverConfig) -> float:
    """Advective/reactive step size: dt_safety * min(1, h / max|D^-1 a|, 1 / max|a|)."""
    amax = state.max_a
    Amax = float(np.abs(state._P[0]).max())
    dt = 1.0
    if Amax > 0.0:
        dt = min(dt, state.grid.h / Amax)
    if amax > 0.0:
        dt = min(dt, 1.0 / amax)
    return cfg.dt_safety * dt


def step(state: TraceState, cfg: SolverConfig, dt: float) -> StepResult:
    """One time step over exactly dt; the run loop ``_march`` picks it.

    Explicit RK4 on the advection/reaction part; for sigma=1 the diffusion
    is wrapped around it as two unconditionally stable Crank-Nicolson half
    steps (Strang splitting), which leave c exactly 0 at both ends.
    Afterwards the spatial mean of a is projected out.  If the state already
    exceeds the blow-up cap, no step is taken and the blow-up flag is set.
    The step reads the state's stacked rows and running integrals, and
    the stepped state passes the checks of a constructed one.

    Raises ValueError unless 0 < dt < inf (NaN included), and
    NonFiniteState when a sample of the result is not finite: the step ran
    away.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    cap = cfg.blowup_cap if cfg.blowup_cap is not None else math.inf
    if state.max_a >= cap:
        return StepResult(state, 0.0, True)

    h, sigma = state.grid.h, state.sigma
    u, P = state._rows, state._P
    if sigma == 1:
        u = u.copy()  # the state's rows are read-only
        u[1] = cn_half(u[1], h, 0.5 * dt)
        P = (P[0], cumulative(u[1], h))
    un, = _rk4(lambda v: (_rhs(v, h, sigma),), (u,), dt, (_rhs(u, h, sigma, P=P),))
    if sigma == 1:
        un[1] = cn_half(un[1], h, 0.5 * dt)

    na = un[0]
    mean_after = definite(na, h)
    drift_rate = (mean_after - state.mean_a) / dt
    na -= mean_after  # length of [0,1] is 1, so the integral is the mean

    # one scan per row: a maximum is NaN or inf when a sample of its row is
    # not finite, so it is also the check Field makes
    amax, cmax = np.abs(un).max(axis=1).tolist()
    if not (amax < math.inf and cmax < math.inf):
        raise NonFiniteState(f"non-finite samples after the step from t={state.t:g} "
                             f"over dt={dt:g}")
    new = TraceState._from_rows(un, state.grid, sigma, state.t + dt, amax, cmax)
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
    reason: str                    # blowup | t_max | max_steps
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
        """Width scale -a(t,0)/a_Z(t,0) along the run; not finite where
        a_Z(t,0) = 0, which the fit rejects without a numpy warning."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return -self.a0 / self.aZ0

    def to_csv(self, path):
        """One line per sample (t, max|a|, max|c|, mean of a, dt, a(t,0),
        a_Z(t,0), then a at each probe height) under a header that names a
        probe column ``a@<Z>``, then a last line ``# reason=<stop reason>``."""
        cols = np.column_stack([self.t, self.max_a, self.max_c, self.mean_a, self.dt,
                                self.a0, self.aZ0, self.probes])
        header = ",".join([_CSV_HEADER, *(f"{_PROBE_TAG}{float(z)!r}" for z in self.probe_Z)])
        _write_csv(path, header, cols, self.reason)

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


def _write_csv(path, header, rows, reason=None, flags=None):
    """Write ``rows`` (a 2-D array or a sequence of rows) under the header
    line, every value as a full-precision decimal (``%.17g``).  ``flags``,
    if given, is a last column of integers, an empty field where it is NaN;
    ``reason``, if given, is written as a last line ``# reason=<reason>``.
    The lines go to the file one at a time."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k, row in enumerate(np.asarray(rows, float)):
            line = ",".join(f"{x:.17g}" for x in row.tolist())
            if flags is not None:
                line += "," if math.isnan(flags[k]) else f",{int(flags[k])}"
            fh.write(line + "\n")
        if reason is not None:
            fh.write(_REASON_TAG + reason + "\n")


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
    if cfg.blowup_cap is None:
        cfg = replace(cfg, blowup_cap=1e6 * max(state0.max_a, 1e-300))
    return _run(state0, cfg)


def run_to_time(state0: TraceState, cfg: SolverConfig, t_end: float) -> Trajectory:
    """Step until physical time t_end, landing on it exactly; t_end takes
    the place of ``cfg.t_max``."""
    return _run(state0, replace(cfg, t_max=t_end))


def _march(x, clock, end, floor, max_steps, stable, advance, row, stride=1):
    """The run loop of both frames: step x until ``clock(x)`` lands on
    ``end`` within max(floor, 1e-15 end), which is checked before the step
    budget of ``max_steps``.  The loop picks every step: the stable step
    ``stable(x)``, clipped to the time left, and raises TimeStepUnderflow
    when it falls below ``floor``.  ``advance(x, dt)`` steps over exactly
    dt and returns the next x, or None on blow-up.  ``row(x)`` tabulates
    the start, every ``stride``-th step and the final x, always the last
    row.  Returns the rows as a float64 array, the final x and the stop
    reason ("end", "max_steps" or "blowup").

    Each row is appended to one array("d") as it is made, not kept as a
    tuple of boxed floats, and the rows are returned as a view of it."""
    buf = array("d", row(x))
    width = len(buf)
    for k in range(max_steps + 1):
        left = end - clock(x)
        if left < max(floor, 1e-15 * end):  # also past the end; an infinite end never lands
            reason = "end"
            break
        if k == max_steps:
            reason = "max_steps"
            break
        dt = min(stable(x), left)
        if dt < floor:
            raise TimeStepUnderflow(f"step {dt:g} below floor {floor:g} at time {clock(x):g}")
        nxt = advance(x, dt)
        if nxt is None:
            reason = "blowup"
            break
        x = nxt
        if (k + 1) % stride == 0:
            buf.extend(row(x))
    if k % stride:
        buf.extend(row(x))
    return np.frombuffer(buf).reshape(-1, width), x, reason


def _run(state0: TraceState, cfg: SolverConfig) -> Trajectory:
    """Step by the run loop ``_march`` until a stop reason, landing on t_max
    exactly; one row per state, in Trajectory's field order (t, max|a|,
    max|c|, mean of a, dt, a(t,0), a_Z(t,0), drift rate, a at each probe
    node).  A stable step below the floor is not a stop reason:
    TimeStepUnderflow propagates, as it does from run_selfsim."""
    if cfg.t_max < state0.t:
        raise ValueError(f"t_max={cfg.t_max:g} lies before the start t={state0.t:g}")
    idx = _probe_indices(state0.grid, cfg.probe_Z)
    h = state0.grid.h

    def advance(res: StepResult, dt: float):
        res = step(res.state, cfg, dt)
        return None if res.blowup else res

    def row(res: StepResult):
        st = res.state
        va = st.a.values
        return (st.t, st.max_a, st.max_c, st.mean_a, res.dt, va[0], d1_at_lo(va, h),
                res.mean_drift_rate, *va[idx])

    arr, last, stop = _march(StepResult(state0, 0.0, False), lambda res: res.state.t,
                             cfg.t_max, _DT_FLOOR, cfg.max_steps,
                             lambda res: stable_dt(res.state, cfg), advance, row)
    return Trajectory(*arr.T[:8], probe_Z=tuple(i / (state0.grid.n - 1) for i in idx),
                      probes=arr[:, 8:], reason="t_max" if stop == "end" else stop,
                      final_state=last.state)
