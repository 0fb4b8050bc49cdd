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
to node, so none of them interpolates.  decompose, build_state and
step_selfsim make their states by one re-pinning path, _repin; every
state is checked and computes its first RK stage on one path, _adopt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .errors import ConstraintLost, DegenerateTrace, NonFiniteState, ScaleFitFailure
from .grid import Field, Grid, cn_half, cumulative, d1, d1_at_lo, definite
from .trace import _march, _rk4, _write_csv

__all__ = [
    "SelfSimilarState",
    "SelfsimConfig",
    "SelfsimTrajectory",
    "phi",
    "psi",
    "s_from_lambda",
    "decompose",
    "reconstruct",
    "build_state",
    "step_selfsim",
    "stable_ds",
    "run_selfsim",
]

_ORTH_TOL_VALUE = 1e-10
_ORTH_TOL_SLOPE = 1e-8
_INT_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
_DS_FLOOR = 1e-12   # the smallest step the driver takes


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


def _on_domain(g: Grid, nu: float) -> bool:
    return 0.0 < nu < math.inf and abs(g.lo) <= 1e-12 and abs(g.hi - 1.0 / nu) <= 1e-9 * g.hi


def _check_pinned(y, g, lam, nu, s, t, sigma):
    """The conditions every state meets: sigma 0 or 1, positive finite
    scales, a finite clock, atil and its discrete slope vanishing at z = 0,
    ctil vanishing on the boundary (at z = 0, and for sigma=1 also at
    z = 1/nu), and the domain [0, 1/nu]."""
    va, vc = y
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    if not (0.0 < lam < math.inf and 0.0 < nu < math.inf):
        raise ValueError("lam and nu must be positive and finite")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("s and t must be finite")
    if abs(va[0]) > _ORTH_TOL_VALUE:
        raise ValueError(f"atil(0) = {va[0]:g} violates the vanishing condition")
    if abs(d1_at_lo(va, g.h)) > _ORTH_TOL_SLOPE:
        raise ValueError("atil_z(0) violates the vanishing-slope condition")
    edge = abs(vc[0]) if sigma == 0 else max(abs(vc[0]), abs(vc[-1]))
    # the tolerance is relative to max|ctil| above 1, so that scan is only
    # needed when the edge exceeds the absolute tolerance
    if edge > _ORTH_TOL_VALUE and edge > _ORTH_TOL_VALUE * max(1.0, float(np.max(np.abs(vc)))):
        raise ValueError("sigma=0 requires ctil(0) = 0" if sigma == 0
                         else "sigma=1 requires ctil(0) = ctil(1/nu) = 0")
    if not _on_domain(g, nu):
        raise ValueError("self-similar domain must be [0, 1/nu]")


@lru_cache(maxsize=8)
def _lattice(n: int) -> np.ndarray:
    """The fixed lattice xi_j = j/(n-1), built once per node count (read-only)."""
    xi = np.linspace(0.0, 1.0, n)
    xi.flags.writeable = False
    return xi


@dataclass(frozen=True)
class SelfSimilarState:
    """Rescaled state on z in [0, 1/nu] at self-similar time s.

    t is the physical time, a running sum of dt = lam ds that stops moving
    once lam ds falls below one ulp of t: run from tests/helpers.deep_state(0)
    (s = 35, t = 0) to s = 100, it stalls at s ~ 68.4, and its last 1778
    rows hold 14 distinct values (ROADMAP item 8).
    """

    atil: Field
    ctil: Field
    lam: float
    nu: float
    s: float
    sigma: int
    t: float = 0.0
    # Made once, by _adopt, with the state: the stacked (atil, ctil) samples,
    # of which atil and ctil are views, and the first RK stage at (lam, nu)
    # that stable_ds and step_selfsim read, all read-only.  On a re-pinned
    # state (decompose, build_state, step_selfsim), the zero-average defect
    # its re-pinning left unprojected (None when the projection fired).
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _stage1: _Stage = field(init=False, repr=False, compare=False)
    _lost_defect = None

    def __post_init__(self):
        g = self.atil.grid
        if g != self.ctil.grid:
            raise ValueError("atil and ctil must share a grid")
        self._adopt(np.stack((self.atil.values, self.ctil.values)), g)

    @classmethod
    def _from_rows(cls, y, g, lam, nu, s, sigma, t, lost_defect):
        """The state on the stacked rows y = (atil, ctil) on grid g: _repin's
        constructor, which skips the copies Field makes."""
        st = object.__new__(cls)
        st.__dict__.update(lam=lam, nu=nu, s=s, sigma=sigma, t=t, _lost_defect=lost_defect)
        st._adopt(y, g)
        return st

    def _adopt(self, y, g):
        """Take the stacked rows y = (atil, ctil) on grid g as the samples,
        without a copy, after the checks every state passes, and compute
        the first RK stage at (lam, nu) on the nodes xi/nu once."""
        n, lam, nu, sigma = g.n, self.lam, self.nu, self.sigma
        _check_pinned(y, g, lam, nu, self.s, self.t, sigma)
        sg = _scale_rates(y, _lattice(n) / nu, (1.0 / nu) / (n - 1), lam, nu, sigma)
        for arr in (y, sg.z, sg.ph, sg.em1, sg.P0, sg.P1):
            arr.flags.writeable = False
        self.__dict__.update(atil=Field._trusted(g, y[0]), ctil=Field._trusted(g, y[1]),
                             _rows=y, _stage1=sg)

    @property
    def grid(self) -> Grid:
        return self.atil.grid

    def zero_average_defect(self) -> float:
        """int (phi + atil) dz; zero for states reachable from zero-mean
        physical data, order one for toy states built around a bare
        profile."""
        g = self.grid
        return definite(phi(g.nodes) + self.atil.values, g.h)


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


def _field_rhs(y, sg: _Stage, lam, nu, sigma):
    """Time derivative of the stacked (atil, ctil), given their stage sg, at
    fixed xi = nu z and without the sigma=1 diffusion, as the stepper
    integrates it (it applies the diffusion by Crank-Nicolson).  The
    transport speed there, -D^-1(phi + atil), vanishes at both ends of the
    domain (at z = 1/nu by the zero-average constraint), so no boundary
    condition is needed.
    """
    z, h, ph, dlam, dnu = sg.z, sg.h, sg.ph, sg.dlam, sg.dnu
    q = lam if sigma == 0 else 1.0
    rhs = (sg.em1 - sg.P0) * d1(y, h)
    va, vc = y
    # the constant source 2 nu I2 - q nu^2 Cint is dlam + 1
    rhs[0] += (va * (dlam + 2.0 * ph + va) + ph * (sg.P0 - dnu * z)
               + (dlam + 1.0) * (ph - 1.0) - q * nu * sg.P1)
    rhs[1] += vc * ((2.0 * dlam if sigma == 1 else dlam) + 2.0 * (va + ph))
    if sigma == 1:
        rhs[1, 0] = rhs[1, -1] = 0.0
    return rhs


# ---------------------------------------------------------------------------
# pinning the scales: decomposition, reconstruction, re-orthogonalization
# ---------------------------------------------------------------------------

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


def _pinned_nu(head, n: int) -> float:
    """The spatial scale nu at which the discrete slope d1_at_lo of
    head - exp(-z), on the nodes z_k = k h with h = (1/nu)/(n-1), vanishes;
    head is the first five samples of the lam-scaled amplitude.

    The stencil is exact on quartics, so that slope is (q(w) - beta)/(12 h)
    with w = 1 - exp(-h), q(w) = 12w + 6w^2 + 4w^3 + 3w^4 and
    beta = -12 d1_at_lo(head, 1).  q rises and is convex for w >= 0 and maps
    (0, 1) onto (0, 25), so a scale exists exactly when 0 < beta < 25.
    Newton's method from w = beta/12, where q >= beta, descends to the root
    monotonically; it stops at the first iterate that does not decrease.
    Raises ScaleFitFailure when beta leaves (0, 25) or nu is not finite.
    """
    beta = -12.0 * d1_at_lo(head, 1.0)
    if not 0.0 < beta < 25.0:
        raise ScaleFitFailure(beta)
    w = beta / 12.0
    while True:
        q = (((3.0 * w + 4.0) * w + 6.0) * w + 12.0) * w
        nxt = w - (q - beta) / (12.0 * (((w + 1.0) * w + 1.0) * w + 1.0))
        if not nxt < w:
            break
        w = nxt
    nu = -1.0 / (math.log1p(-w) * (n - 1)) if w > 0.0 else math.inf
    if not nu < math.inf:
        raise ScaleFitFailure(beta)
    return nu


def _repin(amp, vc, lam, sigma, s, t) -> SelfSimilarState:
    """The pinned state of the lam-scaled amplitude amp (profile included)
    and the temperature vc, both sampled on the lattice xi: the one path by
    which decompose, build_state and step_selfsim make their states.

    Both rows are divided by amp(0), and lam with them, so that atil(0) = 0;
    nu is the scale whose nodes xi/nu make the discrete slope of atil at
    z = 0 vanish, and the nodes xi/nu take the samples node for node.  The
    zero-average defect is projected out along the tail bump, ctil is held
    at 0 at z = 1/nu for sigma=1, and ctil(0) = 0 is checked, not imposed.
    Raises NonFiniteState when a scaled sample is not finite.
    """
    a0 = float(amp[0])
    if a0 <= 0.0:
        raise DegenerateTrace("perturbation reached -1 at the origin")
    ratio = 1.0 / a0
    y = np.empty((2, amp.shape[0]))
    np.multiply(amp, ratio, out=y[0])
    np.multiply(vc, ratio ** (1 + sigma), out=y[1])
    if not np.isfinite(y).all():
        raise NonFiniteState(f"non-finite samples in the state at s={s:g}")
    nu = _pinned_nu(y[0, :5], y.shape[1])
    g = Grid(0.0, 1.0 / nu, y.shape[1])
    z = g.nodes
    ez = np.exp(-z)
    y[0] -= ez
    y[0, 0] = 0.0
    lost = _project_zero_average(y[0], z, g.h, ez)
    if sigma == 1:
        y[1, -1] = 0.0
    return SelfSimilarState._from_rows(y, g, lam / a0, nu, s, sigma, t, lost)


def decompose(a: Field, c: Field, sigma: int, s0: float) -> SelfSimilarState:
    """Split physical trace fields into profile, perturbation and scales.

    lam = 1/a(0), and nu is the scale at which the perturbation's discrete
    slope at z = 0 vanishes, the discrete form of a_Z(0) = -1/(lam nu).
    The physical nodes on [0, 1] are the lattice xi, so atil and ctil are
    the scaled physical samples node for node.  The zero-average defect is
    projected out along the tail bump.
    """
    g = a.grid
    if c.grid != g or not _on_domain(g, 1.0):
        raise ValueError("decompose needs a and c on one grid on [0, 1]")
    a0 = float(a.values[0])
    d0 = d1_at_lo(a.values, g.h)
    if a0 <= 0.0 or d0 >= 0.0:
        raise DegenerateTrace(f"a(0)={a0:g}, a_Z(0)={d0:g}: profile matching impossible")
    return _repin(a.values, c.values, 1.0, sigma, s0, 0.0)


def reconstruct(st: SelfSimilarState) -> tuple[Field, Field]:
    """Physical trace fields (a, c) on [0, 1] from a rescaled state, node
    for node."""
    a = (np.exp(-st.grid.nodes) + st.atil.values) / st.lam
    c = st.ctil.values / st.lam ** (1 + st.sigma)
    g = Grid(0.0, 1.0, st.grid.n)
    return Field(g, a), Field(g, c)


def build_state(atil: Field, ctil: Field, lam: float, nu: float, s: float,
                sigma: int, t: float = 0.0) -> SelfSimilarState:
    """Construct a state from raw perturbation fields on [0, 1/nu].

    Hand-built samples rarely satisfy the discrete z=0 vanishing conditions
    to their tight tolerances, so the fields are re-pinned once, which
    moves the mismatch into the scales.  ctil(0) must already be 0.
    """
    g = atil.grid
    if ctil.grid != g or not _on_domain(g, nu):
        raise ValueError("build_state needs atil and ctil on one grid on [0, 1/nu]")
    return _repin(np.exp(-g.nodes) + atil.values, ctil.values, lam, sigma, s, t)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _exp_scales(loglam, lognu):
    """(lam, nu) from their logarithms; NonFiniteState when lam is not a
    positive finite float, or nu**2 (the sigma=1 diffusion divides by it)
    is not."""
    try:
        lam, nu = math.exp(loglam), math.exp(lognu)
    except OverflowError:
        lam = nu = math.inf
    if not (0.0 < lam < math.inf and 0.0 < nu * nu < math.inf):
        raise NonFiniteState(f"scales out of range: log lam = {loglam:g}, log nu = {lognu:g}")
    return lam, nu


def step_selfsim(st: SelfSimilarState, ds: float) -> SelfSimilarState:
    """One step over ds of (atil, ctil, log lam, log nu, t) at fixed xi = nu z,
    by the RK4 of both frames, trace._rk4 (dt/ds = lam).

    Each stage evaluates the right-hand side on the nodes z = xi/nu of its
    own nu, so the domain stretch belongs to the frame and the transport
    keeps only -D^-1(phi + atil); the first stage is the state's own,
    computed when the state was made.  For sigma=1 the diffusion is
    applied as two Crank-Nicolson half steps around the advection/reaction
    update (Strang), on the grid of the scale before and after the step.
    Afterwards _repin re-pins the scales so the perturbation and its
    discrete slope vanish at z = 0 exactly, and the nodes xi/nu of the
    re-pinned nu take the old samples node for node.

    Raises ValueError unless 0 <= ds < inf, and NonFiniteState when the
    scales leave the float range or a sample is not finite: the step ran
    away.  The samples are scanned before nu is pinned, so a non-finite
    sample that the pin reads is reported as such.
    """
    if not 0.0 <= ds < math.inf:
        raise ValueError(f"ds must be non-negative and finite, got {ds!r}")
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

    def f(y, loglam, lognu, t):
        la, nn = _exp_scales(loglam, lognu)
        sg = _scale_rates(y, xi / nn, (1.0 / nn) / (n - 1), la, nn, sigma)
        return _field_rhs(y, sg, la, nn, sigma), sg.dlam, sg.dnu, la

    k1 = _field_rhs(y, sg, lam, nu, sigma), sg.dlam, sg.dnu, lam
    y, loglam, lognu, t = _rk4(f, (y, math.log(lam), math.log(nu), st.t), ds, k1)
    lam, nu = _exp_scales(loglam, lognu)
    h = (1.0 / nu) / (n - 1)

    if sigma == 1:
        y[1] = cn_half(y[1], h, 0.5 * ds * lam / (nu * nu))

    y[0] += np.exp(-xi / nu)
    return _repin(y[0], y[1], lam, sigma, st.s + ds, t)


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

    def __post_init__(self):
        if math.isnan(self.s_end):
            raise ValueError("s_end must not be nan")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps!r}")
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
        _write_csv(path, "s,lambda,nu,max_atil,max_ctil,I_a2,E_a2,I_c2_or_T,trapped",
                   cols, self.reason, flags=self.trapped)


def stable_ds(st: SelfSimilarState, ds_safety: float = SelfsimConfig.ds_safety) -> float:
    """CFL-style step: the transport speed at fixed z (including the domain
    stretch term, which dominates at the right edge) against the grid
    spacing.  The stepper transports at fixed xi, where the stretch term is
    absent, so this bound is conservative there.  It reads the first RK
    stage that the state computed when it was made, as the step does."""
    sg = st._stage1
    speed = sg.dnu * sg.z + sg.em1 - sg.P0
    wmax = float(np.max(np.abs(speed)))
    return ds_safety * sg.h / max(1.0, wmax)


def run_selfsim(st0: SelfSimilarState, cfg: SelfsimConfig) -> SelfsimTrajectory:
    """March to s_end by the run loop ``trace._march``, sampling scales, sup
    norms and (optionally) the weighted energies and the trapped verdict at
    the start, every ``stride``-th step and the final state.  ``reason``
    says whether s_end was reached or max_steps ran out.

    The start must satisfy the zero-average constraint, and every step must
    keep it: a step whose re-pinning cannot project the defect out raises
    ConstraintLost.
    """
    if abs(st0.zero_average_defect()) > _INT_TOL:
        raise ValueError("trajectory start must satisfy int(phi + atil) = 0")
    if cfg.s_end < st0.s:
        raise ValueError(f"s_end={cfg.s_end:g} lies before the start s={st0.s:g}")

    def advance(st, ds):
        st = step_selfsim(st, ds)
        if st._lost_defect is not None:
            raise ConstraintLost(f"zero-average defect {st._lost_defect:.3g} above the "
                                 f"projection threshold {_PROJECT_THRESHOLD:g} at s={st.s:g}")
        return st

    def row(st):
        # in the field order of SelfsimTrajectory
        energies = (math.nan,) * 5
        if cfg.params is not None:
            rep = diagnostics.energy_report(st, cfg.params)
            passed = float(diagnostics.check_trapped(rep, cfg.params, st.lam, st.nu).passed)
            energies = ((rep.Ia2, rep.Ea2, rep.Ic2, rep.Ec2, passed) if st.sigma == 0
                        else (rep.Ia2, rep.Ea2, rep.T_k_eta, math.nan, passed))
        return (st.s, st.lam, st.nu, st.atil.max_abs(), st.ctil.max_abs(), st.t, *energies,
                float(st.ctil.values[-1]))

    arr, st, stop = _march(st0, lambda st: st.s, cfg.s_end, _DS_FLOOR, cfg.max_steps,
                           lambda st: stable_ds(st, cfg.ds_safety), advance, row, cfg.stride)
    return SelfsimTrajectory(*arr.T, final_state=st, reason="s_end" if stop == "end" else stop)
