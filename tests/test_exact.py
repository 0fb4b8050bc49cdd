"""The isothermal trace system against its closed-form solution.

With c = 0 (sigma=0, no perturbation family) the a-equation is the
generalized inviscid Proudman-Johnson equation with parameter 1, solved
along characteristics (Childress, Ierley, Spiegel & Young, J. Fluid Mech.
203, 1989; Sarria & Saxton, J. Math. Fluid Mech. 15, 2013).  With

    kappa(eta) = int_0^1 dZ / (1 - eta a0(Z)),

the time is t(eta) = int_0^eta kappa^2 dmu, and on the axis, where the
transport speed vanishes,

    a(t, 0) = kappa^-2 [a0(0) / (1 - eta a0(0)) - kappa'/kappa].

scipy's quad evaluates these integrals for the continuum initial data
a0 = (phi(Z/nu0) - m psi(Z/nu0)) / lam0, with m its continuum balance.
The runs start from build_profile_data, which balances on the grid: its m
differs from the continuum one at quadrature error, far below the errors
asserted here.
"""
import math

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import phi, psi
from petrace.trace import SolverConfig, run_to_time

LAM0 = 1e-3
NU0 = 3.0 / (2.0 * math.log(1e3))
NS = (513, 1025, 2049)
# relative error of a(t, 0) at each n of NS, measured when this check was
# written; the test allows twice each
MEASURED = {10.0: (2.92e-9, 1.70e-10, 1.02e-11),
            1000.0: (2.90e-6, 1.96e-7, 1.21e-8)}


def _quad(g, hi=1.0, points=None):
    return quad(g, 0.0, hi, epsabs=0.0, epsrel=1e-13, points=points, limit=200)[0]


def _over_Z(g):
    # the profile's scale and the end of its tail bump split [0, 1]
    return _quad(g, points=(NU0, 5.0 * NU0))


M = _over_Z(lambda Z: phi(Z / NU0)) / _over_Z(lambda Z: psi(Z / NU0))


def a0(Z):
    return (phi(Z / NU0) - M * psi(Z / NU0)) / LAM0


A00 = a0(0.0)


def kappa(eta):
    return _over_Z(lambda Z: 1.0 / (1.0 - eta * a0(Z)))


def a_axis(eta):
    """a(t(eta), 0)."""
    k = kappa(eta)
    dk = _over_Z(lambda Z: a0(Z) / (1.0 - eta * a0(Z)) ** 2)
    return (A00 / (1.0 - eta * A00) - dk / k) / (k * k)


def t_of(eta):
    return _quad(lambda mu: kappa(mu) ** 2, hi=eta)


def test_exact_blowup_time():
    # the oracle's blow-up time t(1/a0(0)) is the value an independent
    # evaluation of the same integrals gave, to the digits it quotes
    assert abs(t_of(1.0 / A00) / 1.254478049235e-3 - 1.0) <= 1e-10


@pytest.mark.parametrize("growth", sorted(MEASURED))
def test_axis_value_converges_at_fourth_order(growth):
    # eta where a(t, 0) has grown by `growth`: a(t, 0) rises from a0(0)
    # at eta = 0 to infinity at 1/a0(0); the bracket starts at 0.5/a0(0),
    # away from eta = 0, where kappa' = int a0 = 0 has no relative accuracy
    eta = brentq(lambda e: a_axis(e) - growth * A00, 0.5 / A00, (1.0 - 1e-5) / A00,
                 xtol=1e-300, rtol=1e-15)
    t_end, exact = t_of(eta), a_axis(eta)
    spec = InitialDataSpec(LAM0, NU0, 0, perturbation_family="none")
    errs = []
    for n in NS:
        traj = run_to_time(build_profile_data(spec, n), SolverConfig(dt_safety=0.5), t_end)
        assert traj.reason == "t_max"
        errs.append(abs(traj.final_state.a.values[0] - exact) / exact)
    for n, err, bound in zip(NS, errs, MEASURED[growth]):
        assert err <= 2.0 * bound, (n, err)
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0, errs
