"""State constructions and run digests shared across test modules."""
import hashlib
import math

import numpy as np

from petrace.grid import Field, Grid, definite
from petrace.params import FrameworkParams
from petrace.selfsim import SelfSimilarState, build_state, phi, psi


def run_digest(columns, *final_rows) -> str:
    """SHA-256 of a run's columns, stacked row by row, then of its final
    samples: what each bitwise pin compares."""
    h = hashlib.sha256(np.column_stack(columns).tobytes())
    for v in final_rows:
        h.update(v.tobytes())
    return h.hexdigest()


def bare_profile_state(nu=0.125, n=1025, sigma=0, lam=None, s=8.0, ctil_fn=None):
    """Toy state with atil = 0 (order-one zero-average defect; fine for
    pointwise diagnostics, not for runs)."""
    if lam is None:
        lam = s * math.exp(-s)
    g = Grid(0.0, 1.0 / nu, n)
    ct = np.zeros(n) if ctil_fn is None else np.asarray(ctil_fn(g.nodes), dtype=float)
    if sigma == 1:
        ct[0] = 0.0
        ct[-1] = 0.0
    return SelfSimilarState(Field(g, np.zeros(n)), Field(g, ct), lam, nu, s, sigma)


def balanced_state(s0=12.0, n=1025, sigma=0, c_amp=0.0, nu0=None):
    """Profile-adapted state with the zero-average condition satisfied
    exactly: the tail bump psi carries the balancing mass.  Temperature
    perturbation c_amp * z^2 exp(-z), ramp-corrected to the sigma=1
    boundary conditions."""
    lam0 = s0 * math.exp(-s0)
    if nu0 is None:
        nu0 = 1.0 / (2.0 * math.log(1.0 / lam0))
    g = Grid(0.0, 1.0 / nu0, n)
    z = g.nodes
    ps = psi(z)
    m = definite(phi(z), g.h) / definite(ps, g.h)
    atil = -m * ps
    ct = c_amp * z**2 * np.exp(-z)
    if sigma == 1:
        ct = ct - (z / z[-1]) * ct[-1]
        ct[-1] = 0.0
    return build_state(Field(g, atil), Field(g, ct), lam0, nu0, s0, sigma)


# Deep-epoch configuration for the closeness/trappedness pipeline: at a
# small starting scale the zero-average tail mass is thin enough to fit
# under the delta-scaled initial energy bounds with the default
# z_star=4, delta=0.1.
DEEP_S0 = 35.0
C_AMP_SIGMA0 = 5e-6
C_AMP_SIGMA1 = 1e-5


def deep_params(sigma: int) -> FrameworkParams:
    if sigma == 0:
        return FrameworkParams(sigma=0, alpha=2.0, gamma=2.0, h_a=1.1, h_c=0.5,
                               eps_a=0.6, eps_c=0.75)
    return FrameworkParams(sigma=1, alpha=2.0, eta0=4, k=1.5, h_a=1.1, l=0.625,
                           eps_a=23.0 / 32.0, eps_c=15.0 / 16.0)


def deep_state(sigma: int, n: int = 1537) -> SelfSimilarState:
    c_amp = C_AMP_SIGMA0 if sigma == 0 else C_AMP_SIGMA1
    return balanced_state(s0=DEEP_S0, n=n, sigma=sigma, c_amp=c_amp)
