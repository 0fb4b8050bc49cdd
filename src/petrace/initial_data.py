"""Construction of profile-adapted initial states and the re-decomposition
of arbitrary zero-average data around shifted scales."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrace, InfeasibleBalance
from .grid import Field, Grid, definite
from .selfsim import phi, psi, s_from_lambda
from .trace import TraceState

__all__ = ["InitialDataSpec", "build_profile_data", "redecompose"]

FAMILIES = ("none", "tail_balance", "polynomial_bump")


@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for initial data of the form profile/lam0 + perturbation.

    nu0 must sit in the window [1/(2 log(1/lam0)), 3/(2 log(1/lam0))]; the
    kappa knob scales the optional perturbation-family member (physical
    amplitude) on top of the canonical zero-average balancing tail.
    """

    lambda0: float
    nu0: float
    sigma: int
    kappa: float = 0.0
    perturbation_family: str = "none"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.lambda0 < math.exp(-1.0)):
            raise ValueError("lambda0 must lie in (0, 1/e)")
        loglam = math.log(1.0 / self.lambda0)
        lo, hi = 1.0 / (2.0 * loglam), 3.0 / (2.0 * loglam)
        if not (lo * (1.0 - 1e-12) <= self.nu0 <= hi * (1.0 + 1e-12)):
            raise ValueError(f"nu0={self.nu0:g} outside the admissible window [{lo:g}, {hi:g}]")
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        if not self.kappa >= 0.0:
            raise ValueError(f"kappa must be non-negative, got {self.kappa!r}")
        if self.perturbation_family not in FAMILIES:
            raise ValueError(f"unknown family {self.perturbation_family!r}")

    @property
    def s0(self) -> float:
        return s_from_lambda(self.lambda0)


def _family_shapes(spec: InitialDataSpec, z: np.ndarray):
    """(a-shape, c-shape) in rescaled coordinates, both max-normalized and
    vanishing to second order at z = 0."""
    base = z**2 * np.exp(-z)
    if spec.perturbation_family == "tail_balance":
        ga = psi(2.0 * z) - 2.0 * psi(z) + psi(z) ** 2  # smooth, ~z^2 at 0, bounded tail
        gc = base
    elif spec.perturbation_family == "polynomial_bump":
        rng = np.random.default_rng(spec.seed)
        pa = 1.0 + np.polyval(np.append(rng.uniform(-0.3, 0.3, 3), 0.0), z) * np.exp(-0.5 * z)
        pc = 1.0 + np.polyval(np.append(rng.uniform(-0.3, 0.3, 3), 0.0), z) * np.exp(-0.5 * z)
        ga = base * pa
        gc = base * pc
    else:
        return None, None
    ga = ga / np.max(np.abs(ga))
    gc = gc / np.max(np.abs(gc))
    return ga, gc


def build_profile_data(spec: InitialDataSpec, n: int) -> TraceState:
    """Assemble zero-average initial data around the profile.

    The canonical tail bump psi(z) = 1 - (1+z) exp(-z) carries the exact
    (discrete) zero-average balance; the optional kappa-scaled family member
    is re-balanced through the same bump, so int a0 vanishes to round-off.
    Raises InfeasibleBalance when the required balance would rival the
    profile itself.
    """
    g = Grid(0.0, 1.0, n)
    Z = g.nodes
    zz = Z / spec.nu0
    lam0 = spec.lambda0

    prof = phi(zz) / lam0
    bal = psi(zz) / lam0
    m = definite(prof, g.h) / definite(bal, g.h)
    if abs(m) * float(np.max(np.abs(psi(zz)))) >= 0.5:
        raise InfeasibleBalance(
            f"balance amplitude {abs(m):g} no longer subordinate to the profile"
        )
    a0 = prof - m * bal

    ga, gc = _family_shapes(spec, zz)
    c0 = np.zeros(n)
    if ga is not None and spec.kappa > 0.0:
        pert = spec.kappa * ga
        pert = pert - (definite(pert, g.h) / definite(bal, g.h)) * bal
        a0 = a0 + pert
        c0 = spec.kappa * gc
    if spec.sigma == 1:
        c0 = c0 - Z * c0[-1]
        c0[-1] = 0.0
    else:
        c0[0] = 0.0
    return TraceState(Field(g, a0), Field(g, c0), spec.sigma, 0.0)


def redecompose(lam_t: float, nu_t: float, atil0_at_0: float) -> tuple[float, float]:
    """Shift a decomposition (lam~, nu~, atil~) so the new perturbation and
    its slope vanish at Z = 0:

        lam_bar = (1/lam~ + atil~(0))^-1,   nu_bar = (lam~/lam_bar) nu~.

    Raises ValueError unless lam~ and nu~ are positive and all three are
    finite, and DegenerateTrace unless 1/lam~ + atil~(0) is positive and
    finite.
    """
    if not (0.0 < lam_t < math.inf and 0.0 < nu_t < math.inf and math.isfinite(atil0_at_0)):
        raise ValueError(f"redecompose needs finite lam > 0, nu > 0 and atil(0), got "
                         f"lam={lam_t!r}, nu={nu_t!r}, atil(0)={atil0_at_0!r}")
    denom = 1.0 / lam_t + atil0_at_0
    if not 0.0 < denom < math.inf:
        raise DegenerateTrace("1/lam + atil(0) must be positive and finite")
    lam_bar = 1.0 / denom
    nu_bar = (lam_t / lam_bar) * nu_t
    return lam_bar, nu_bar

