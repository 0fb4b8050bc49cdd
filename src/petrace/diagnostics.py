"""Weighted energies of the rescaled perturbation and the bootstrap-style
verdicts built on them: initial closeness, trappedness, the weighted Hardy
inequality, and vanishing-speed exponents at z = 0."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InsufficientData, SingularWeight
from .fitting import _linfit
from .grid import Field, d1, d1_at_lo, definite
from .params import FrameworkParams, Verdict

if TYPE_CHECKING:  # annotations only: selfsim imports this module
    from .selfsim import SelfSimilarState

__all__ = [
    "EnergyReport",
    "energy_report",
    "check_initial_closeness",
    "check_trapped",
    "hardy_check",
    "vanishing_exponent",
]


# ---------------------------------------------------------------------------
# weighted quadrature with the z = 0 cell handled by its boundary limit
# ---------------------------------------------------------------------------

def weighted_integral(numerator: np.ndarray, grid, weight_exp: float, z_hi: float) -> float:
    """integral over (0, z_hi] of numerator(z) * z**weight_exp.

    The z = 0 node is excluded: the first cell gets the trapezoid value
    with the integrand's limit at z = 0 taken as 0.  That value is exact
    only when the limit vanishes, which the z = 0 vanishing conditions do
    not ensure: with atil ~ a2 z^2, |atil_z|^2 z^-alpha tends to 4 a2^2 at
    alpha = 2 (ROADMAP item 9).  Raises SingularWeight when the first-cell
    integrand exceeds 10x the second cell's.
    """
    z = grid.nodes
    h = grid.h
    if z_hi <= z[2]:
        raise ValueError("integration window too narrow for the grid")
    z_hi = min(z_hi, grid.hi)
    vals = numerator[1:] * z[1:] ** weight_exp
    first, second = abs(vals[0]), abs(vals[1])
    if first > 10.0 * second and first > 1e-300:
        raise SingularWeight(
            f"first-cell integrand {first:g} exceeds 10x the second-cell value {second:g}"
        )
    total = 0.5 * h * vals[0]

    j = int(np.searchsorted(z, z_hi + 1e-12 * h)) - 1  # last node <= z_hi
    j = min(j, grid.n - 1)
    if j >= 2:
        total += definite(vals[: j], h)  # nodes 1 .. j
    frac = (z_hi - z[j]) / h
    if frac > 1e-12 and j + 1 < grid.n:
        vj, vj1 = vals[j - 1], vals[j]
        v_hi = vj + frac * (vj1 - vj)
        total += 0.5 * frac * h * (vj + v_hi)
    return float(total)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    """Weighted interior norms and exterior sup norms at one instant.

    Ic2/Ec2 are populated for sigma=0, T_k_eta for sigma=1; the unused
    entries are 0.
    """

    Ia2: float
    Ea2: float
    Ic2: float
    Ec2: float
    T_k_eta: float
    s: float


def energy_report(st: SelfSimilarState, p: FrameworkParams) -> EnergyReport:
    if p.sigma != st.sigma:
        raise ValueError("parameter set and state disagree on sigma")
    g = st.grid
    if p.z_star >= g.hi:
        raise ValueError("z_star must lie inside the self-similar domain")
    z = g.nodes
    az = d1(st.atil.values, g.h)
    Ia2 = weighted_integral(az * az, g, -p.alpha, p.z_star)
    ext = z >= p.z_star - 1e-12 * g.h
    Ea2 = float(np.max(st.atil.values[ext] ** 2))

    Ic2 = Ec2 = T = 0.0
    if st.sigma == 0:
        cz = d1(st.ctil.values, g.h)
        Ic2 = weighted_integral(cz * cz, g, -p.gamma, p.z_star)
        Ec2 = float(np.max(st.ctil.values[ext] ** 2))
    else:
        eta = int(p.eta0)
        T_pow = weighted_integral(st.ctil.values ** (2 * eta), g, -p.k * eta, g.hi)
        T = T_pow ** (1.0 / (2 * eta)) if T_pow > 0.0 else 0.0
    return EnergyReport(Ia2, Ea2, Ic2, Ec2, T, st.s)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def check_initial_closeness(st: SelfSimilarState, p: FrameworkParams) -> Verdict:
    """Initial-closeness verdict at s = s0.

    Checks the scale normalization lam0 = s0 exp(-s0) and the nu0 window,
    the compatibility conditions of the perturbation, and the delta-scaled
    smallness of the initial energies.  Failures are verdict entries, never
    exceptions.
    """
    v = Verdict()
    s0 = st.s
    lam_target = s0 * math.exp(-s0)
    rel = abs(st.lam - lam_target) / lam_target
    v.add("lam0 = s0 exp(-s0) (relative)", rel, 1e-8, rel <= 1e-8, "lambda0")
    lo, hi = 1.0 / (p.N0 * s0), p.N0 / s0
    v.add("1/(N0 s0) <= nu0", lo, st.nu, lo <= st.nu, "nu0-range")
    v.add("nu0 <= N0/s0", st.nu, hi, st.nu <= hi, "nu0-range")

    va = st.atil.values
    v.add("|atil(0)| <= 1e-10", abs(va[0]), 1e-10, abs(va[0]) <= 1e-10, "orthogonality")
    slope = abs(d1_at_lo(va, st.grid.h))
    v.add("|atil_z(0)| <= 1e-8", slope, 1e-8, slope <= 1e-8, "orthogonality")
    defect = abs(st.zero_average_defect())
    v.add("|int(phi+atil)| <= 1e-8", defect, 1e-8, defect <= 1e-8, "zero-average")

    rep = energy_report(st, p)
    v.add("Ia2 < delta^2 s0^-h_a", rep.Ia2, p.delta**2 * s0 ** (-p.h_a),
          rep.Ia2 < p.delta**2 * s0 ** (-p.h_a), "Ia2")
    v.add("Ea2 < (1/16) s0^-h_a", rep.Ea2, s0 ** (-p.h_a) / 16.0,
          rep.Ea2 < s0 ** (-p.h_a) / 16.0, "Ea2")
    if p.sigma == 0:
        bic = p.delta**2 * math.exp(-p.h_c * s0)
        bec = math.exp(-p.h_c * s0) / 16.0
        v.add("Ic2 < delta^2 exp(-h_c s0)", rep.Ic2, bic, rep.Ic2 < bic, "Ic2")
        v.add("Ec2 < (1/16) exp(-h_c s0)", rep.Ec2, bec, rep.Ec2 < bec, "Ec2")
    else:
        eta = int(p.eta0)
        bt = 0.25 * math.exp(-eta * p.l * s0)
        tpow = rep.T_k_eta ** (2 * eta)
        v.add("T^(2 eta0) < (1/4) exp(-eta0 l s0)", tpow, bt, tpow < bt, "T")
    return v


def check_trapped(rep: EnergyReport, p: FrameworkParams, lam: float, nu: float) -> Verdict:
    """Trapped-regime verdict at one sampled s (margins are value/bound)."""
    v = Verdict()
    s = rep.s
    se = s * math.exp(-s)
    v.add("(1/M) s exp(-s) < lam", se / p.M, lam, se / p.M < lam, "lambda")
    v.add("lam < M s exp(-s)", lam, p.M * se, lam < p.M * se, "lambda")
    v.add("1/(N s) < nu", 1.0 / (p.N * s), nu, 1.0 / (p.N * s) < nu, "nu")
    v.add("nu < N/s", nu, p.N / s, nu < p.N / s, "nu")
    ba = s ** (-p.h_a)
    v.add("Ia2 < s^-h_a", rep.Ia2, ba, rep.Ia2 < ba, "Ia2")
    v.add("Ea2 < s^-h_a", rep.Ea2, ba, rep.Ea2 < ba, "Ea2")
    if p.sigma == 0:
        bc = math.exp(-p.h_c * s)
        v.add("Ic2 < exp(-h_c s)", rep.Ic2, bc, rep.Ic2 < bc, "Ic2")
        v.add("Ec2 < exp(-h_c s)", rep.Ec2, bc, rep.Ec2 < bc, "Ec2")
    else:
        eta = int(p.eta0)
        bt = math.exp(-eta * p.l * s)
        tpow = rep.T_k_eta ** (2 * eta)
        v.add("T^(2 eta0) < exp(-eta0 l s)", tpow, bt, tpow < bt, "T")
    return v


# ---------------------------------------------------------------------------
# Hardy inequality and vanishing exponents
# ---------------------------------------------------------------------------

def hardy_check(f: Field, k: float) -> tuple[float, float]:
    """Both sides of int f^2 x^-(k+2) <= (2/(1+k))^2 int f'^2 x^-k on [0, a].

    Requires f(0) = f(a) = 0 and vanishing at 0 fast enough that the
    weighted integrands stay bounded (checked cell-wise, SingularWeight
    otherwise).
    """
    if k <= 0.0:
        raise ValueError("k must be positive")
    g = f.grid
    scale = max(1.0, f.max_abs())
    if abs(f.values[0]) > 1e-10 * scale or abs(f.values[-1]) > 1e-10 * scale:
        raise ValueError("hardy_check needs f vanishing at both endpoints")
    lhs = weighted_integral(f.values**2, g, -(k + 2.0), g.hi)
    fz = d1(f.values, g.h)
    rhs = (2.0 / (1.0 + k)) ** 2 * weighted_integral(fz**2, g, -k, g.hi)
    return lhs, rhs


def vanishing_exponent(f: Field, z_fit: float) -> float:
    """Least-squares slope of log|f| against log z over [z_fit/10, z_fit].

    Nodes with |f| < 1e-14 are ignored; raises InsufficientData when fewer
    than 5 usable nodes remain or the field vanishes on most of (0, z_fit].
    """
    z = f.grid.nodes
    v = np.abs(f.values)
    inside = (z > 0.0) & (z <= z_fit)
    if inside.sum() == 0:
        raise InsufficientData("no nodes below z_fit")
    usable_frac = np.count_nonzero(v[inside] > 1e-14) / inside.sum()
    if usable_frac <= 0.5:
        raise InsufficientData("field vanishes on a majority of (0, z_fit]")
    window = (z >= z_fit / 10.0) & (z <= z_fit) & (v > 1e-14)
    if np.count_nonzero(window) < 5:
        raise InsufficientData("fewer than 5 usable nodes in the fit window")
    return _linfit(np.log(z[window]), np.log(v[window]))[0]
