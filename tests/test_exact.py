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

The rescaled frame is checked against the same solution through its
scales: lam = 1/a(t, 0) and nu = -a(t, 0)/a_Z(t, 0), where on the axis

    a_Z(t, 0) = a0'(0) / (kappa (1 - eta a0(0))),   a0'(0) = -1/(nu0 lam0).
"""
import math

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import SelfsimConfig, decompose, phi, psi, run_selfsim
from petrace.trace import SolverConfig, run_to_time

LAM0 = 1e-3
NU0 = 3.0 / (2.0 * math.log(1e3))
NS = (513, 1025, 2049)
# relative error of a(t, 0) at each n of NS, measured when this check was
# written; the test allows twice each
MEASURED = {10.0: (2.92e-9, 1.70e-10, 1.02e-11),
            1000.0: (2.90e-6, 1.96e-7, 1.21e-8)}
# the same for the rescaled run's final lam and nu at each n of NS_RESCALED
NS_RESCALED = (257, 513, 1025)
MEASURED_RESCALED = {"lam": (9.38e-8, 4.28e-9, 1.56e-10),
                     "nu": (2.38e-5, 4.26e-6, 7.30e-7)}
SPEC = InitialDataSpec(LAM0, NU0, 0, perturbation_family="none")


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


def eta_grown(growth):
    """The eta where a(t, 0) has grown by `growth`.  a(t, 0) rises from
    a0(0) at eta = 0 to infinity at 1/a0(0); the bracket starts at
    0.5/a0(0), away from eta = 0, where kappa' = int a0 = 0 has no relative
    accuracy."""
    return brentq(lambda e: a_axis(e) - growth * A00, 0.5 / A00, (1.0 - 1e-5) / A00,
                  xtol=1e-300, rtol=1e-15)


def eta_at(t, growth):
    """The eta with t(eta) = t, by Newton's method (t' = kappa^2) from
    eta_grown(growth) near the root: each evaluation of t(eta) there takes
    a nested quad, where one of a(t, 0) takes a single one."""
    eta = eta_grown(growth)
    for _ in range(10):
        step = (t_of(eta) - t) / kappa(eta) ** 2
        eta -= step
        if abs(step) <= 1e-15 * eta:
            return eta
    raise AssertionError(f"Newton's method on t(eta) = {t!r} did not converge")


def test_exact_blowup_time():
    # the oracle's blow-up time t(1/a0(0)) is the value an independent
    # evaluation of the same integrals gave, to the digits it quotes
    assert abs(t_of(1.0 / A00) / 1.254478049235e-3 - 1.0) <= 1e-10


@pytest.mark.parametrize("growth", sorted(MEASURED))
def test_axis_value_converges_at_fourth_order(growth):
    eta = eta_grown(growth)
    t_end, exact = t_of(eta), a_axis(eta)
    errs = []
    for n in NS:
        traj = run_to_time(build_profile_data(SPEC, n), SolverConfig(dt_safety=0.5), t_end)
        assert traj.reason == "t_max"
        errs.append(abs(traj.final_state.a.values[0] - exact) / exact)
    for n, err, bound in zip(NS, errs, MEASURED[growth]):
        assert err <= 2.0 * bound, (n, err)
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0, errs


@pytest.fixture(scope="module")
def rescaled_errors():
    """Relative errors of the final (lam, nu) of a rescaled run from the
    decomposed start s0 to s0 + 4, where a(t, 0) has grown 27.3x, at each
    n of NS_RESCALED."""
    errs = {"lam": [], "nu": []}
    for n in NS_RESCALED:
        start = build_profile_data(SPEC, n)
        ss = decompose(start.a, start.c, 0, SPEC.s0)
        traj = run_selfsim(ss, SelfsimConfig(s_end=SPEC.s0 + 4.0))
        assert traj.reason == "s_end"
        end = traj.final_state
        # the run's own lam gives the growth Newton's method starts from
        eta = eta_at(end.t, 1.0 / (end.lam * A00))
        a = a_axis(eta)
        a_Z = (-1.0 / (NU0 * LAM0)) / (kappa(eta) * (1.0 - eta * A00))
        errs["lam"].append(abs(end.lam * a - 1.0))
        errs["nu"].append(abs(end.nu / (-a / a_Z) - 1.0))
    return errs


def test_rescaled_scales_match_the_exact_solution(rescaled_errors):
    for name, errs in rescaled_errors.items():
        for n, err, bound in zip(NS_RESCALED, errs, MEASURED_RESCALED[name]):
            assert err <= 2.0 * bound, (name, n, err)
    lam = rescaled_errors["lam"]
    assert lam[0] / lam[1] >= 12.0 and lam[1] / lam[2] >= 12.0, lam


@pytest.mark.xfail(strict=True, reason="parity sawtooth, ROADMAP item 3")
def test_rescaled_nu_converges_at_fourth_order(rescaled_errors):
    nu = rescaled_errors["nu"]
    assert nu[0] / nu[1] >= 12.0 and nu[1] / nu[2] >= 12.0, nu
