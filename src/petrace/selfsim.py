"""Dynamic-rescaling frame for the trace system.

The physical fields are written as

    a(t, Z) = (phi(z) + atil(s, z)) / lam,   z = Z / nu,
    c(t, Z) = ctil(s, z) / lam**(1+sigma),   ds/dt = 1 / lam,

around the blow-up profile phi(z) = exp(-z).  The scales (lam, nu) are
pinned by requiring the perturbation and its slope to vanish at z = 0,
which turns them into ODEs coupled to the perturbation fields; the sum of
their logarithmic rates is exactly -1.  The perturbation lives on the
moving domain [0, 1/nu] and carries the zero-average constraint
int (phi + atil) dz = 0.

The solver keeps the fields on the fixed lattice xi_j = nu z_j = j/(n-1),
the physical Z nodes on [0, 1]; at scale nu the nodes are z = xi/nu, those
of Grid(0, 1/nu, n).  Evolving at fixed xi takes the domain stretch out of
the transport, and every map between the frames or between successive
scales (decompose, reconstruct, the re-pinning after each step) sends node
to node, so none of them interpolates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (ConstraintLost, DegenerateTrace, NonFiniteState, ScaleFitFailure,
                     TimeStepUnderflow)
from .grid import Field, Grid, cn_half, cumulative, d1, d1_at_lo, d2, definite
from .trace import _REASON_TAG

__all__ = [
    "SelfSimilarState",
    "ModulationRates",
    "SelfsimConfig",
    "SelfsimTrajectory",
    "phi",
    "psi",
    "s_from_lambda",
    "decompose",
    "reconstruct",
    "reorthogonalize",
    "build_state",
    "modulation_rates",
    "perturbation_rhs",
    "step_selfsim",
    "stable_ds",
    "run_selfsim",
]

_ORTH_TOL_VALUE = 1e-10
_ORTH_TOL_SLOPE = 1e-8
_INT_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


def phi(z):
    """Blow-up profile exp(-z)."""
    return np.exp(-z)


def psi(z):
    """Tail bump 1 - (1+z) exp(-z): vanishing value and slope at 0, unit tail."""
    return -np.expm1(-z) - z * np.exp(-z)


def s_from_lambda(lam: float) -> float:
    """Larger root s >= 1 of s exp(-s) = lam (the rescaled-clock epoch of an
    amplitude scale).

    Newton's method on g(s) = s - log s + log lam, which is increasing and
    convex for s >= 1, from s = -log lam (where g <= 0), safeguarded by
    bisection inside the bracket [1, 800] it keeps.
    """
    if not (0.0 < lam < math.exp(-1.0)):
        raise ValueError(f"lam={lam:g} outside (0, 1/e)")
    target = -math.log(lam)
    lo, hi = 1.0, 800.0
    s = target
    for _ in range(200):
        g = s - math.log(s) - target
        if g == 0.0:
            break
        if g > 0.0:
            hi = s
        else:
            lo = s
        slope = 1.0 - 1.0 / s
        nxt = s - g / slope if slope > 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= 2.0 * _EPS * s:
            return nxt
        s = nxt
    return s


def _on_domain(g: Grid, hi: float) -> bool:
    return abs(g.lo) <= 1e-12 and abs(g.hi - hi) <= 1e-9 * g.hi


def _check_pinned(va, vc, h, lam, nu, sigma):
    """The conditions every state meets: positive scales, atil and its
    discrete slope vanishing at z = 0, and ctil vanishing on the boundary
    (at z = 0, and for sigma=1 also at z = 1/nu)."""
    if not (lam > 0.0 and nu > 0.0):
        raise ValueError("lam and nu must be positive")
    if abs(va[0]) > _ORTH_TOL_VALUE:
        raise ValueError(f"atil(0) = {va[0]:g} violates the vanishing condition")
    if abs(d1_at_lo(va, h)) > _ORTH_TOL_SLOPE:
        raise ValueError("atil_z(0) violates the vanishing-slope condition")
    edge = abs(vc[0]) if sigma == 0 else max(abs(vc[0]), abs(vc[-1]))
    # the tolerance is relative to max|ctil| above 1, so that scan is only
    # needed when the edge exceeds the absolute tolerance
    if edge > _ORTH_TOL_VALUE and edge > _ORTH_TOL_VALUE * max(1.0, float(np.max(np.abs(vc)))):
        raise ValueError("sigma=0 requires ctil(0) = 0" if sigma == 0
                         else "sigma=1 requires ctil(0) = ctil(1/nu) = 0")


@lru_cache(maxsize=8)
def _lattice(n: int) -> np.ndarray:
    """The fixed lattice xi_j = j/(n-1), built once per node count (read-only)."""
    xi = np.linspace(0.0, 1.0, n)
    xi.flags.writeable = False
    return xi


@dataclass(frozen=True)
class SelfSimilarState:
    """Rescaled state on z in [0, 1/nu] at self-similar time s.

    t tracks the accumulated physical time (dt = lam ds) and is purely
    bookkeeping.
    """

    atil: Field
    ctil: Field
    lam: float
    nu: float
    s: float
    sigma: int
    t: float = 0.0

    # On a state made by step_selfsim: the zero-average defect its re-pinning
    # left unprojected (None when the projection fired).
    _lost_defect = None

    def __post_init__(self):
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        if not (self.lam > 0.0 and self.nu > 0.0):
            raise ValueError("lam and nu must be positive")
        g = self.atil.grid
        if g != self.ctil.grid:
            raise ValueError("atil and ctil must share a grid")
        if not _on_domain(g, 1.0 / self.nu):
            raise ValueError("self-similar domain must be [0, 1/nu]")
        _check_pinned(self.atil.values, self.ctil.values, g.h, self.lam, self.nu, self.sigma)

    @classmethod
    def _from_rows(cls, y, g, lam, nu, s, sigma, t, lost_defect):
        """The state on the stacked rows y = (atil, ctil) on grid g, which
        the caller has validated; y is frozen and becomes the state's
        samples without a copy."""
        y.flags.writeable = False
        st = object.__new__(cls)
        st.__dict__.update(atil=Field._trusted(g, y[0]), ctil=Field._trusted(g, y[1]),
                           lam=lam, nu=nu, s=s, sigma=sigma, t=t, _rows=y,
                           _lost_defect=lost_defect)
        return st

    @property
    def grid(self) -> Grid:
        return self.atil.grid

    @cached_property
    def _rows(self) -> np.ndarray:
        """The stacked (atil, ctil) samples, read-only."""
        y = np.stack((self.atil.values, self.ctil.values))
        y.flags.writeable = False
        return y

    @cached_property
    def _stage1(self) -> "_Stage":
        """The first RK stage at this state's own (lam, nu), on the nodes
        xi/nu, computed once: stable_ds, modulation_rates, perturbation_rhs
        and step_selfsim all read it.  Its arrays are read-only."""
        n, nu = self.grid.n, self.nu
        sg = _scale_rates(self._rows, _lattice(n) / nu, (1.0 / nu) / (n - 1),
                          self.lam, nu, self.sigma)
        for arr in (sg.z, sg.ph, sg.em1, sg.P0, sg.P1):
            arr.flags.writeable = False
        return sg

    def zero_average_defect(self) -> float:
        """int (phi + atil) dz; zero for states reachable from zero-mean
        physical data, order one for toy states built around a bare
        profile."""
        g = self.grid
        return definite(phi(g.nodes) + self.atil.values, g.h)


@dataclass(frozen=True)
class ModulationRates:
    dlog_lambda: float
    dlog_nu: float


# ---------------------------------------------------------------------------
# rates and right-hand sides on the stacked (atil, ctil) rows
# ---------------------------------------------------------------------------

class _Stage(NamedTuple):
    """What one right-hand-side evaluation at (lam, nu) shares: the nodes z
    and their spacing h, phi(z) and expm1(-z), the antiderivatives
    P0 = D^-1 atil and P1 = D^-1 ctil, I2 = int (phi + atil)^2, and the
    log-rates of (lam, nu)."""

    z: np.ndarray
    h: float
    ph: np.ndarray
    em1: np.ndarray
    P0: np.ndarray
    P1: np.ndarray
    I2: float
    dlam: float
    dnu: float


def _log_rates(I2, Cint, lam, nu, sigma):
    q = lam if sigma == 0 else 1.0
    dlam = -1.0 + 2.0 * nu * I2 - q * nu * nu * Cint
    return dlam, -1.0 - dlam


def _scale_rates(y, z, h, lam, nu, sigma) -> _Stage:
    """The stage of the stacked (atil, ctil) at (lam, nu) on the nodes z:
    both antiderivatives in one call, and I2 with Cint = int D^-1 ctil in
    one call on a (2, n) stack."""
    mz = -z
    ph = np.exp(mz)
    P = cumulative(y, h)
    w = np.empty_like(P)
    np.square(ph + y[0], out=w[0])
    w[1] = P[1]
    I2, Cint = definite(w, h).tolist()
    return _Stage(z, h, ph, np.expm1(mz), P[0], P[1], I2,
                  *_log_rates(I2, Cint, lam, nu, sigma))


def _with_ctil(sg: _Stage, vc, lam, nu, sigma) -> _Stage:
    """Stage sg with ctil replaced by vc: only D^-1 ctil, its integral and
    the rates change.  Bitwise what _scale_rates gives on the new rows."""
    P1 = cumulative(vc, sg.h)
    dlam, dnu = _log_rates(sg.I2, definite(P1, sg.h), lam, nu, sigma)
    return sg._replace(P1=P1, dlam=dlam, dnu=dnu)


def _field_rhs(y, sg: _Stage, lam, nu, sigma, fixed_z=False):
    """Time derivative of the stacked (atil, ctil), given their stage sg.

    By default: at fixed xi = nu z and without the sigma=1 diffusion, as
    the stepper integrates it (it applies the diffusion by Crank-Nicolson).
    The transport speed there, -D^-1(phi + atil), vanishes at both ends of
    the domain (at z = 1/nu by the zero-average constraint), so no boundary
    condition is needed.  ``fixed_z`` gives the full derivative at fixed z:
    domain-stretch transport dnu z d/dz and diffusion included.
    """
    z, h, ph, dlam, dnu = sg.z, sg.h, sg.ph, sg.dlam, sg.dnu
    q = lam if sigma == 0 else 1.0
    transport = sg.em1 - sg.P0
    if fixed_z:
        transport += dnu * z
    rhs = transport * d1(y, h)
    va, vc = y
    # the constant source 2 nu I2 - q nu^2 Cint is dlam + 1
    rhs[0] += (va * (dlam + 2.0 * ph + va) + ph * (sg.P0 - dnu * z)
               + (dlam + 1.0) * (ph - 1.0) - q * nu * sg.P1)
    rhs[1] += vc * ((2.0 * dlam if sigma == 1 else dlam) + 2.0 * (va + ph))
    if sigma == 1:
        if fixed_z:
            rhs[1] += (lam / (nu * nu)) * d2(vc, h)
        rhs[1, 0] = rhs[1, -1] = 0.0
    return rhs


def modulation_rates(st: SelfSimilarState) -> ModulationRates:
    """Log-rates of (lam, nu); their sum is -1 by construction."""
    sg = st._stage1
    return ModulationRates(sg.dlam, sg.dnu)


def perturbation_rhs(st: SelfSimilarState, rates: ModulationRates) -> tuple[Field, Field]:
    """Time derivative (atil_s, ctil_s) of the perturbation fields at fixed z.

    ``rates`` must be the modulation rates of the same state; the nonlocal
    source then cancels the perturbation and its slope at z = 0 to
    round-off.
    """
    sg = st._stage1
    dlam = sg.dlam
    if abs(dlam - rates.dlog_lambda) > 1e-12 * max(1.0, abs(dlam)):
        raise ValueError("rates inconsistent with the state")
    rhs = _field_rhs(st._rows, sg, st.lam, st.nu, st.sigma, fixed_z=True)
    g = st.grid
    return Field(g, rhs[0]), Field(g, rhs[1])


# ---------------------------------------------------------------------------
# pinning the scales: decomposition, reconstruction, re-orthogonalization
# ---------------------------------------------------------------------------

def _secant_nu(G, nu_guess: float) -> float:
    """Secant iteration for the spatial scale: drive the discrete slope of
    the re-pinned perturbation at z = 0 to zero.

    Raises ScaleFitFailure when the best residual misses the vanishing-slope
    tolerance a state is validated against.
    """
    x0, x1 = nu_guess, nu_guess * (1.0 + 1e-6)
    f0, f1 = G(x0), G(x1)
    best_x, best_f = (x0, f0) if abs(f0) < abs(f1) else (x1, f1)
    for _ in range(30):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (x2 > 0.0) or not math.isfinite(x2):
            break
        x0, f0, x1, f1 = x1, f1, x2, G(x2)
        if abs(f1) < abs(best_f):
            best_x, best_f = x1, f1
        if abs(f1) <= 1e-13 or abs(x1 - x0) <= 1e-16 * x1:
            break
    if not abs(best_f) <= _ORTH_TOL_SLOPE:
        raise ScaleFitFailure(best_f, best_x)
    return best_x


_PROJECT_THRESHOLD = 1e-6


def _project_zero_average(atil, z, h, ez):
    """Remove the zero-average defect of atil, in place, along the tail bump
    psi, which keeps the z=0 vanishing conditions intact; ez = exp(-z).

    The projection only fires near the constraint manifold: for states that
    carry an order-one defect on purpose (bare-profile diagnostics) the
    constraint is not theirs to satisfy, and forcing it would corrupt them.
    Returns None when it fired, else the defect it left in place.
    """
    defect = definite(ez + atil, h)
    if abs(defect) > _PROJECT_THRESHOLD:
        return defect
    ps = -np.expm1(-z) - z * ez  # psi(z), on the exp(-z) already formed
    atil -= (defect / definite(ps, h)) * ps
    return None


def _pin(u, nu_guess):
    """Turn the lam-scaled amplitude u (samples on the lattice xi), in place,
    into the perturbation about the profile at the spatial scale whose
    nodes xi/nu make its discrete slope at z = 0 vanish.  Returns (nu, grid,
    the defect the projection left, or None)."""
    n = u.shape[0]
    head = u[:5]
    k = np.arange(5.0)

    def G(nu_bar):
        hz = (1.0 / nu_bar) / (n - 1)
        return d1_at_lo(head - np.exp(-hz * k), hz)

    nu = _secant_nu(G, nu_guess)
    g = Grid(0.0, 1.0 / nu, n)
    z = g.nodes
    ez = np.exp(-z)
    u -= ez
    u[0] = 0.0
    return nu, g, _project_zero_average(u, z, g.h, ez)


def decompose(a: Field, c: Field, sigma: int, s0: float) -> SelfSimilarState:
    """Split physical trace fields into profile, perturbation and scales.

    lam = 1/a(0) and nu is fixed (up to a one-dimensional refinement against
    the discrete slope stencil) by a_Z(0) = -1/(lam nu), so that the
    perturbation and its slope vanish at z = 0.  The physical nodes on
    [0, 1] are the lattice xi, so atil and ctil are the scaled physical
    samples node for node.  The zero-average defect is projected out along
    the tail bump.
    """
    g = a.grid
    if c.grid != g or not _on_domain(g, 1.0):
        raise ValueError("decompose needs a and c on one grid on [0, 1]")
    va = a.values
    a0 = float(va[0])
    d0 = d1_at_lo(va, g.h)
    if a0 <= 0.0 or d0 >= 0.0:
        raise DegenerateTrace(f"a(0)={a0:g}, a_Z(0)={d0:g}: profile matching impossible")
    lam = 1.0 / a0
    atil = lam * va
    nu, gz, _ = _pin(atil, -1.0 / (lam * d0))
    ctil = lam ** (1 + sigma) * c.values
    if sigma == 1:
        ctil[-1] = 0.0
    return SelfSimilarState(Field(gz, atil), Field(gz, ctil), lam, nu, s0, sigma)


def reconstruct(st: SelfSimilarState) -> tuple[Field, Field]:
    """Physical trace fields (a, c) on [0, 1] from a rescaled state, node
    for node."""
    a = (np.exp(-st.grid.nodes) + st.atil.values) / st.lam
    c = st.ctil.values / st.lam ** (1 + st.sigma)
    g = Grid(0.0, 1.0, st.grid.n)
    return Field(g, a), Field(g, c)


def _reorthogonalize(va, vc, z, h, lam, nu, sigma):
    """Re-pin the scales so the perturbation and its discrete slope vanish
    at z = 0 exactly.  The fields sit on the nodes z = xi/nu; the new nodes
    xi/nu_bar carry the same physical samples, so the map is nodal.
    Returns the stacked rows (atil, ctil), lam, nu, the grid, and the
    defect the projection left (None when it fired)."""
    one_plus = 1.0 + float(va[0])
    if one_plus <= 0.0:
        raise DegenerateTrace("perturbation reached -1 at the origin")
    d0 = d1_at_lo(va, h)
    if d0 >= 1.0:
        raise DegenerateTrace("perturbation slope reached 1 at the origin")
    ratio = 1.0 / one_plus
    y = np.empty((2, va.shape[0]))
    np.add(np.exp(-z), va, out=y[0])
    y[0] *= ratio
    nu_bar, g, lost = _pin(y[0], nu * one_plus / (1.0 - d0))
    np.multiply(vc, ratio ** (1 + sigma), out=y[1])
    y[1, 0] = 0.0
    if sigma == 1:
        y[1, -1] = 0.0
    return y, lam / one_plus, nu_bar, g, lost


def build_state(atil: Field, ctil: Field, lam: float, nu: float, s: float,
                sigma: int, t: float = 0.0) -> SelfSimilarState:
    """Construct a state from raw perturbation fields on [0, 1/nu].

    Hand-built samples rarely satisfy the discrete z=0 vanishing conditions
    to their tight tolerances, so the fields are routed through one
    re-orthogonalization (which moves the mismatch into the scales) before
    the validated state is assembled.
    """
    g = atil.grid
    if ctil.grid != g or not _on_domain(g, 1.0 / nu):
        raise ValueError("build_state needs atil and ctil on one grid on [0, 1/nu]")
    y, lam2, nu2, gnew, _ = _reorthogonalize(
        atil.values, ctil.values, g.nodes, g.h, lam, nu, sigma)
    return SelfSimilarState(Field(gnew, y[0]), Field(gnew, y[1]), lam2, nu2, s, sigma, t)


def reorthogonalize(st: SelfSimilarState) -> SelfSimilarState:
    """Re-pin the scales so the perturbation and its discrete slope vanish
    at z = 0 exactly, moving to the grid of the re-pinned scale."""
    return build_state(st.atil, st.ctil, st.lam, st.nu, st.s, st.sigma, st.t)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _exp_scales(loglam, lognu):
    """(lam, nu) from their logarithms; NonFiniteState when either is not a
    positive finite float."""
    try:
        lam, nu = math.exp(loglam), math.exp(lognu)
    except OverflowError:
        lam = nu = math.inf
    if not (0.0 < lam < math.inf and 0.0 < nu < math.inf):
        raise NonFiniteState(f"scales out of range: log lam = {loglam:g}, log nu = {lognu:g}")
    return lam, nu


def step_selfsim(st: SelfSimilarState, ds: float) -> SelfSimilarState:
    """One RK4 step of (atil, ctil, log lam, log nu) over ds at fixed xi = nu z.

    Each stage evaluates the right-hand side on the nodes z = xi/nu of its
    own nu, so the domain stretch belongs to the frame and the transport
    keeps only -D^-1(phi + atil); the first stage is the state's own, which
    stable_ds may already have computed.  For sigma=1 the diffusion is
    applied as two Crank-Nicolson half steps around the advection/reaction
    update (Strang), on the grid of the scale before and after the step.
    Afterwards the state is re-orthogonalized: the scales are re-pinned so
    the perturbation and its discrete slope vanish at z = 0 exactly, and
    the nodes xi/nu of the re-pinned nu take the old samples node for node.

    Raises NonFiniteState when the scales overflow or a sample is not
    finite: the step ran away.
    """
    if ds < 0.0:
        raise ValueError("ds must be non-negative")
    if ds == 0.0:
        return st
    n, sigma = st.grid.n, st.sigma
    xi = _lattice(n)
    lam, nu = st.lam, st.nu
    y = st._rows
    sg = st._stage1

    if sigma == 1:
        # the leading half step changes ctil only: the atil parts of the
        # state's stage stand
        y = y.copy()
        y[1] = cn_half(y[1], sg.h, 0.5 * ds * lam / (nu * nu))
        sg = _with_ctil(sg, y[1], lam, nu, sigma)

    def f(y, loglam, lognu):
        la, nn = _exp_scales(loglam, lognu)
        sg = _scale_rates(y, xi / nn, (1.0 / nn) / (n - 1), la, nn, sigma)
        return _field_rhs(y, sg, la, nn, sigma), sg.dlam, sg.dnu, la

    loglam, lognu = math.log(lam), math.log(nu)
    k1 = _field_rhs(y, sg, lam, nu, sigma), sg.dlam, sg.dnu, lam
    k2 = f(y + 0.5 * ds * k1[0], loglam + 0.5 * ds * k1[1], lognu + 0.5 * ds * k1[2])
    k3 = f(y + 0.5 * ds * k2[0], loglam + 0.5 * ds * k2[1], lognu + 0.5 * ds * k2[2])
    k4 = f(y + ds * k3[0], loglam + ds * k3[1], lognu + ds * k3[2])

    c6 = ds / 6.0
    y = y + c6 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    loglam += c6 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    lognu += c6 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    t = st.t + c6 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    lam, nu = _exp_scales(loglam, lognu)
    h = (1.0 / nu) / (n - 1)

    if sigma == 1:
        y[1] = cn_half(y[1], h, 0.5 * ds * lam / (nu * nu))

    y, lam, nu, g, lost = _reorthogonalize(y[0], y[1], xi / nu, h, lam, nu, sigma)
    # the checks SelfSimilarState makes, in one pass over the stacked rows
    if not np.isfinite(y).all():
        raise NonFiniteState(f"non-finite samples after the step from s={st.s:g} "
                             f"over ds={ds:g}")
    _check_pinned(y[0], y[1], g.h, lam, nu, sigma)
    return SelfSimilarState._from_rows(y, g, lam, nu, st.s + ds, sigma, t, lost)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class SelfsimConfig:
    s_end: float
    ds_safety: float = 0.25
    stride: int = 1
    params: object | None = None   # FrameworkParams for energy/trapped columns
    max_steps: int = 2_000_000
    ds_floor: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.ds_safety) and self.ds_safety > 0.0):
            raise ValueError(f"ds_safety must be positive and finite, got {self.ds_safety!r}")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride!r}")


@dataclass
class SelfsimTrajectory:
    s: np.ndarray
    lam: np.ndarray
    nu: np.ndarray
    max_atil: np.ndarray
    max_ctil: np.ndarray
    t: np.ndarray
    Ia2: np.ndarray
    Ea2: np.ndarray
    Ic2_or_T: np.ndarray
    Ec2: np.ndarray
    trapped: np.ndarray
    ctil_edge: np.ndarray | None = None   # ctil at z = 1/nu (free for sigma=0)
    final_state: SelfSimilarState | None = None
    reason: str = "s_end"   # "s_end", or "max_steps" when the step budget ran out first

    def to_csv(self, path):
        """One line per sample under a header (an empty ``trapped`` where no
        verdict was taken), then a last line ``# reason=<stop reason>``."""
        cols = np.column_stack([self.s, self.lam, self.nu, self.max_atil,
                                self.max_ctil, self.Ia2, self.Ea2, self.Ic2_or_T])
        with open(path, "w") as fh:
            fh.write("s,lambda,nu,max_atil,max_ctil,I_a2,E_a2,I_c2_or_T,trapped\n")
            for row, trap in zip(cols, self.trapped):
                txt = ",".join(f"{x:.17g}" for x in row)
                if np.isnan(trap):
                    fh.write(txt + ",\n")
                else:
                    fh.write(txt + f",{int(trap)}\n")
            fh.write(f"{_REASON_TAG}{self.reason}\n")


def stable_ds(st: SelfSimilarState, ds_safety: float = 0.25) -> float:
    """CFL-style step: the transport speed at fixed z (including the domain
    stretch term, which dominates at the right edge) against the grid
    spacing.  The stepper transports at fixed xi, where the stretch term is
    absent, so this bound is conservative there.  It reads the state's first
    RK stage, which the step from the state then reuses."""
    sg = st._stage1
    speed = sg.dnu * sg.z + sg.em1 - sg.P0
    wmax = float(np.max(np.abs(speed)))
    return ds_safety * sg.h / max(1.0, wmax)


def run_selfsim(st0: SelfSimilarState, cfg: SelfsimConfig) -> SelfsimTrajectory:
    """March to s_end, sampling scales, sup norms and (optionally) the
    weighted energies and the trapped verdict along the way.  The result's
    ``reason`` says whether s_end was reached or max_steps ran out.

    The start must satisfy the zero-average constraint, and every step must
    keep it: a step whose re-pinning cannot project the defect out raises
    ConstraintLost.
    """
    from . import diagnostics  # local import to avoid a module cycle

    rows = []

    def record(st):
        edge = float(st.ctil.values[-1])
        if cfg.params is not None:
            rep = diagnostics.energy_report(st, cfg.params)
            verdict = diagnostics.check_trapped(rep, cfg.params, st.lam, st.nu)
            ict = rep.Ic2 if st.sigma == 0 else rep.T_k_eta
            rows.append((st.s, st.lam, st.nu, st.atil.max_abs(), st.ctil.max_abs(),
                         st.t, rep.Ia2, rep.Ea2, ict, rep.Ec2 if st.sigma == 0 else math.nan,
                         1.0 if verdict.passed else 0.0, edge))
        else:
            rows.append((st.s, st.lam, st.nu, st.atil.max_abs(), st.ctil.max_abs(),
                         st.t, math.nan, math.nan, math.nan, math.nan, math.nan, edge))

    if abs(st0.zero_average_defect()) > _INT_TOL:
        raise ValueError("trajectory start must satisfy int(phi + atil) = 0")
    if cfg.s_end < st0.s:
        raise ValueError(f"s_end={cfg.s_end:g} lies before the start s={st0.s:g}")
    st = st0
    record(st)
    k = 0
    reason = "s_end"
    while st.s < cfg.s_end:
        remaining = cfg.s_end - st.s
        if remaining < max(cfg.ds_floor, 1e-14 * cfg.s_end):
            break  # within round-off of the landing time
        if k >= cfg.max_steps:
            reason = "max_steps"
            if k % cfg.stride:
                record(st)  # the trajectory ends where the run stopped
            break
        ds = min(stable_ds(st, cfg.ds_safety), remaining)
        if ds < cfg.ds_floor:
            raise TimeStepUnderflow(f"ds={ds:g} below floor at s={st.s:g}")
        st = step_selfsim(st, ds)
        if st._lost_defect is not None:
            raise ConstraintLost(f"zero-average defect {st._lost_defect:.3g} above the "
                                 f"projection threshold {_PROJECT_THRESHOLD:g} at s={st.s:g}")
        k += 1
        if k % cfg.stride == 0 or st.s >= cfg.s_end:
            record(st)

    arr = np.array(rows)
    return SelfsimTrajectory(
        s=arr[:, 0], lam=arr[:, 1], nu=arr[:, 2], max_atil=arr[:, 3],
        max_ctil=arr[:, 4], t=arr[:, 5], Ia2=arr[:, 6], Ea2=arr[:, 7],
        Ic2_or_T=arr[:, 8], Ec2=arr[:, 9], trapped=arr[:, 10],
        ctil_edge=arr[:, 11], final_state=st, reason=reason,
    )
