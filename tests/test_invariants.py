"""Run-tied invariants: properties asserted along evolving trajectories
rather than at a single instant."""
import numpy as np
import pytest

from helpers import deep_params, deep_state
from petrace.diagnostics import vanishing_exponent
from petrace.grid import derivative
from petrace.selfsim import SelfsimConfig, run_selfsim


@pytest.fixture(scope="module")
def sigma0_run():
    st = deep_state(0)
    p = deep_params(0)
    traj = run_selfsim(st, SelfsimConfig(s_end=st.s + 5.0, stride=10, params=p))
    return st, p, traj


class TestTrappedWindow:
    def test_monotone_compliance(self, sigma0_run):
        _, _, traj = sigma0_run
        assert np.all(traj.trapped == 1.0)

    def test_modulation_rate_bounded_by_inverse_s(self, sigma0_run):
        # |lam_s/lam + 1| <= C/s with a small fitted constant
        _, _, traj = sigma0_run
        dloglam = np.gradient(np.log(traj.lam), traj.s)
        C = np.max(np.abs(dloglam + 1.0) * traj.s)
        assert C <= 10.0

    def test_nu_rate_is_order_inverse_s(self, sigma0_run):
        _, _, traj = sigma0_run
        dlognu = np.gradient(np.log(traj.nu), traj.s)
        assert np.max(np.abs(dlognu) * traj.s) <= 10.0


class TestVanishingSpeedInvariance:
    def test_temperature_slope_exponent_preserved(self, sigma0_run):
        # fit below the bump turnover, where the z->0 power law is visible
        st, p, traj = sigma0_run
        start = vanishing_exponent(derivative(st.ctil), 0.3)
        end = vanishing_exponent(derivative(traj.final_state.ctil), 0.3)
        assert start >= p.eps_c
        assert end >= p.eps_c - 0.1

    def test_free_boundary_value_recorded(self, sigma0_run):
        _, _, traj = sigma0_run
        assert traj.ctil_edge is not None
        assert np.all(np.isfinite(traj.ctil_edge))
