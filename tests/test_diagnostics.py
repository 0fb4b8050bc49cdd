import math

import numpy as np
import pytest

from helpers import balanced_state, bare_profile_state, deep_params, deep_state
from petrace.diagnostics import (
    check_initial_closeness,
    check_trapped,
    energy_report,
    hardy_check,
    vanishing_exponent,
    weighted_integral,
)
from petrace.errors import InsufficientData, SingularWeight
from petrace.grid import Field, Grid
from petrace.params import FrameworkParams, reference_sigma0_params, reference_sigma1_params
from petrace.selfsim import SelfSimilarState, build_state


def sigma0_params(**kw):
    return reference_sigma0_params(**kw)


class TestWeightedIntegral:
    def test_power_law_closed_form(self):
        # numerator z^8 with weight z^-6 integrates to L^3/3
        L = 8.0
        g = Grid(0.0, L, 4097)
        got = weighted_integral(g.nodes**8, g, -6.0, L)
        assert abs(got - L**3 / 3.0) <= 1e-6 * L**3 / 3.0

    def test_partial_upper_limit(self):
        g = Grid(0.0, 8.0, 4097)
        z_hi = 3.7  # falls mid-cell
        got = weighted_integral(g.nodes**4, g, -2.0, z_hi)
        assert abs(got - z_hi**3 / 3.0) <= 1e-6 * z_hi**3

    def test_singular_weight_raises(self):
        g = Grid(0.0, 1.0, 257)
        vals = g.nodes**0.2  # z^0.2 with weight z^-4: first cell dominates
        with pytest.raises(SingularWeight):
            weighted_integral(vals, g, -4.0, 1.0)


class TestEnergyReport:
    def test_zero_state_all_zero(self):
        rep = energy_report(bare_profile_state(nu=0.125, n=513), sigma0_params())
        assert (rep.Ia2, rep.Ea2, rep.Ic2, rep.Ec2) == (0.0, 0.0, 0.0, 0.0)

    def test_quadratic_slope_closed_form(self):
        # atil = z^3/3 so atil_z = z^2; with alpha = 2 the interior energy is
        # int_0^{z*} z^-2 z^4 = z*^3/3
        n = 2049
        g = Grid(0.0, 8.0, n)
        z = g.nodes
        atil = z**3 / 3.0
        st = SelfSimilarState(Field(g, atil), Field(g, np.zeros(n)), 0.1, 1.0 / 8.0, 5.0, 0)
        p = sigma0_params(z_star=4.0)
        rep = energy_report(st, p)
        exact = 4.0**3 / 3.0
        assert abs(rep.Ia2 - exact) <= 1e-5 * exact
        assert abs(rep.Ea2 - (8.0**3 / 3.0) ** 2) <= 1e-9 * (8.0**3 / 3.0) ** 2

    def test_weighted_sup_norm_T(self):
        # ctil = z (1 - z/L): T^8 = int z^-6 ctil^8 = L^3 * B(3,9) = L^3/495
        n = 4097
        L = 8.0
        g = Grid(0.0, L, n)
        z = g.nodes
        ct = z * (1.0 - z / L)
        st = SelfSimilarState(Field(g, np.zeros(n)), Field(g, ct), 0.1, 1.0 / L, 5.0, 1)
        rep = energy_report(st, reference_sigma1_params())
        exact = (L**3 / 495.0) ** (1.0 / 8.0)
        assert abs(rep.T_k_eta - exact) <= 1e-5 * exact

    def test_sigma_mismatch_rejected(self):
        with pytest.raises(ValueError):
            energy_report(bare_profile_state(sigma=0), reference_sigma1_params())

    def test_z_star_outside_domain_rejected(self):
        st = bare_profile_state(nu=0.5, n=129)  # domain [0, 2]
        with pytest.raises(ValueError):
            energy_report(st, sigma0_params(z_star=4.0))


class TestTrapped:
    def make_report(self, s):
        from petrace.diagnostics import EnergyReport

        return EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0, s)

    def test_centered_scales_pass(self):
        s = 10.0
        rep = self.make_report(s)
        v = check_trapped(rep, sigma0_params(), s * math.exp(-s), 1.0 / s)
        assert v.passed
        energy_checks = [c for c in v.checks if c.line in ("Ia2", "Ea2", "Ic2", "Ec2")]
        assert all(c.value == 0.0 for c in energy_checks)

    def test_lambda_above_band_fails_lambda_line_only(self):
        s = 10.0
        rep = self.make_report(s)
        v = check_trapped(rep, sigma0_params(), 3.0 * s * math.exp(-s), 1.0 / s)
        assert v.failed_lines() == ["lambda"]

    def test_trapped_running_state(self):
        st = deep_state(0)
        p = deep_params(0)
        rep = energy_report(st, p)
        v = check_trapped(rep, p, st.lam, st.nu)
        assert v.passed


class TestInitialCloseness:
    def test_deep_state_passes_sigma0(self):
        st = deep_state(0)
        v = check_initial_closeness(st, deep_params(0))
        assert v.passed, v.failed_lines()

    def test_deep_state_passes_sigma1(self):
        st = deep_state(1)
        v = check_initial_closeness(st, deep_params(1))
        assert v.passed, v.failed_lines()

    def test_nu0_out_of_window_fails_single_line(self):
        st = deep_state(0)
        p = deep_params(0)
        # shrink the allowed nu window via N0 so only the range line trips
        tight = FrameworkParams(sigma=0, alpha=p.alpha, gamma=p.gamma, h_a=p.h_a,
                                h_c=p.h_c, eps_a=p.eps_a, eps_c=p.eps_c,
                                N0=1.05, z_star=p.z_star, delta=p.delta)
        v = check_initial_closeness(st, tight)
        assert v.failed_lines() == ["nu0-range"]

    def test_scaled_perturbation_fails_interior_energy(self):
        # add a mean-free interior bump sized to push Ia2 to twice its bound
        st = deep_state(0)
        p = deep_params(0)
        rep = energy_report(st, p)
        bound = p.delta**2 * st.s ** (-p.h_a)
        z = st.grid.nodes
        bump = z**2 * np.exp(-2.0 * z)
        from petrace.grid import definite
        from petrace.selfsim import psi

        bump = bump - (definite(bump, st.grid.h) / definite(psi(z), st.grid.h)) * psi(z)

        def ia2_at(scale):
            probe = build_state(Field(st.grid, st.atil.values + scale * bump),
                                st.ctil, st.lam, st.nu, st.s, 0)
            return energy_report(probe, p).Ia2

        from scipy.optimize import brentq

        hi = 1.0
        while ia2_at(hi) < 2.0 * bound:
            hi *= 2.0
        scale = brentq(lambda s: ia2_at(s) - 2.0 * bound, 0.0, hi, xtol=1e-6)
        probe = build_state(Field(st.grid, st.atil.values + scale * bump),
                            st.ctil, st.lam, st.nu, st.s, 0)
        v = check_initial_closeness(probe, p)
        assert {"Ia2", "Ea2", "zero-average"} <= {c.line for c in v.checks}
        failed = v.failed_lines()
        assert "Ia2" in failed
        assert "Ea2" not in failed and "zero-average" not in failed


class TestHardy:
    def test_zero_function(self):
        g = Grid(0.0, 1.0, 257)
        lhs, rhs = hardy_check(Field(g, np.zeros(257)), 1.0)
        assert (lhs, rhs) == (0.0, 0.0)

    def test_reference_cubic(self):
        # f = x^2 (1-x), k=1: lhs = 1/12, rhs = 1/4
        g = Grid(0.0, 1.0, 2049)
        x = g.nodes
        lhs, rhs = hardy_check(Field(g, x**2 * (1.0 - x)), 1.0)
        assert abs(lhs - 1.0 / 12.0) <= 1e-6
        assert abs(rhs - 0.25) <= 1e-6
        assert lhs <= rhs * (1.0 + 1e-6)

    def test_randomized_inequality(self):
        rng = np.random.default_rng(2024)
        g = Grid(0.0, 1.0, 1025)
        x = g.nodes
        for _ in range(50):
            k = float(rng.choice([0.5, 1.0, 1.5, 3.0]))
            a = float(rng.uniform(0.5, 1.0))
            m = 3 if k == 3.0 else 2
            coeffs = rng.uniform(-1.0, 1.0, size=3)
            poly = 1.0 + coeffs[0] * x + coeffs[1] * x**2 + coeffs[2] * x**3
            f = np.where(x <= a, x**m * (a - x) * poly, 0.0)
            lhs, rhs = hardy_check(Field(g, f), k)
            assert lhs <= rhs * (1.0 + 1e-6)

    def test_slow_vanishing_triggers_singular_weight(self):
        g = Grid(0.0, 1.0, 1025)
        x = g.nodes
        f = x**0.6 * (1.0 - x)
        with pytest.raises(SingularWeight):
            hardy_check(Field(g, f), 3.0)

    def test_nonvanishing_endpoint_rejected(self):
        g = Grid(0.0, 1.0, 257)
        with pytest.raises(ValueError):
            hardy_check(Field(g, g.nodes), 1.0)


class TestVanishingExponent:
    def test_quadratic(self):
        g = Grid(0.0, 2.0, 1025)
        f = Field(g, g.nodes**2)
        assert abs(vanishing_exponent(f, 1.0) - 2.0) <= 0.02

    def test_three_halves(self):
        g = Grid(0.0, 2.0, 1025)
        f = Field(g, g.nodes**1.5)
        assert abs(vanishing_exponent(f, 1.0) - 1.5) <= 0.05

    def test_zero_field_raises(self):
        g = Grid(0.0, 2.0, 1025)
        with pytest.raises(InsufficientData):
            vanishing_exponent(Field(g, np.zeros(1025)), 1.0)

    def test_power_with_prefactor(self):
        g = Grid(0.0, 2.0, 2049)
        f = Field(g, 3.7 * g.nodes**1.25 * (1.0 + 0.01 * g.nodes))
        assert abs(vanishing_exponent(f, 0.5) - 1.25) <= 0.05
