import math
import warnings

import numpy as np
import pytest

from petrace import selfsim, trace
from petrace.errors import ConstraintLost, DegenerateTrace, NonFiniteState, TimeStepUnderflow
from petrace.grid import Field, Grid, antiderivative, cumulative, d1_at_lo, d2, definite
from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import (
    SelfsimConfig,
    SelfSimilarState,
    build_state,
    decompose,
    phi,
    psi,
    reconstruct,
    run_selfsim,
    s_from_lambda,
    stable_ds,
    step_selfsim,
)

from helpers import balanced_state, bare_profile_state, deep_params, run_digest

# SHA-256 (helpers.run_digest) of every column and the final rows of
# test_rescaled_run_is_pinned_bitwise, by sigma.  np.exp enters every stage
# (and numpy's FFT the sigma=1 diffusion), so they pin the numpy build too.
# A change that alters the rescaled step's arithmetic on purpose updates
# them and says why.
RESCALED_DIGESTS = {
    0: "6376e27ab375b6e0ccc0cf0ee50d0e4828a26c846a74138dc39b3dbad486930c",
    1: "bb56b2adc8c438a1f73533e2d54a5c9c98ee4282f84388186515cf0d852bb024",
}


class TestScalesClock:
    def test_s_from_lambda_roundtrip(self):
        for s in (3.0, 9.0, 35.0):
            lam = s * math.exp(-s)
            assert abs(s_from_lambda(lam) - s) <= 1e-10 * s

    def test_rejects_large_lambda(self):
        with pytest.raises(ValueError):
            s_from_lambda(0.5)

    def test_matches_brentq(self):
        from scipy.optimize import brentq  # the reference only

        for lam in [*np.logspace(-300.0, math.log10(0.3), 400), 0.3]:
            lam = float(lam)
            ref = brentq(lambda s: s * math.exp(-s) - lam, 1.0, 800.0, xtol=1e-14, rtol=1e-15)
            assert abs(s_from_lambda(lam) - ref) <= 1e-14 * ref, lam

    def test_near_one_over_e(self):
        # the root approaches the double root s = 1 of s exp(-s) = 1/e, so it
        # is determined only to about sqrt(eps); the residual is not
        top = math.exp(-1.0)
        for lam in (0.31, 0.35, 0.3678, top * (1.0 - 1e-8), top * (1.0 - 1e-14),
                    float(np.nextafter(top, 0.0))):
            s = s_from_lambda(lam)
            assert s >= 1.0
            assert abs(s * math.exp(-s) - lam) <= 4.0 * np.finfo(float).eps * lam, lam


# a non-positive or non-finite scale, or a non-finite clock
BAD_SCALES_AND_CLOCKS = [("lam", 0.0), ("lam", math.nan), ("lam", math.inf), ("nu", 0.0),
                         ("nu", math.nan), ("nu", math.inf), ("s", math.nan), ("t", math.nan)]


class TestConstruction:
    # an input error, reported as one before any numpy warning: the state
    # computes its first RK stage when it is made
    @pytest.mark.parametrize("make", [SelfSimilarState, build_state],
                             ids=["SelfSimilarState", "build_state"])
    @pytest.mark.parametrize("key, value", BAD_SCALES_AND_CLOCKS)
    def test_rejects_a_bad_scale_or_clock(self, make, key, value):
        st = balanced_state(s0=12.0, n=257, c_amp=1e-4)
        args = dict(lam=st.lam, nu=st.nu, s=st.s, sigma=0, t=0.0)
        args[key] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                make(st.atil, st.ctil, **args)

    def test_decompose_rejects_a_non_finite_epoch(self):
        g = Grid(0.0, 1.0, 129)
        a = Field(g, np.exp(-g.nodes / 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                decompose(a, Field(g, np.zeros(g.n)), 0, s0=math.nan)


class TestDecompose:
    def test_exact_profile(self):
        lam_s, nu_s = 0.02, 0.1
        g = Grid(0.0, 1.0, 2049)
        a = Field(g, np.exp(-g.nodes / nu_s) / lam_s)
        c = Field(g, np.zeros(g.n))
        st = decompose(a, c, 0, s0=5.0)
        assert abs(st.lam - lam_s) <= 1e-12 * lam_s
        assert abs(st.nu - nu_s) <= 1e-8 * nu_s
        # bare profile: order-one average defect, so no balancing fires and
        # the perturbation is interpolation-level small
        assert st.atil.max_abs() <= 1e-9
        assert st.ctil.max_abs() == 0.0

    def test_forced_scales(self):
        g = Grid(0.0, 1.0, 4097)
        a = Field(g, 100.0 * np.exp(-50.0 * g.nodes))  # a(0)=100, a_Z(0)=-5000
        c = Field(g, np.zeros(g.n))
        st = decompose(a, c, 0, s0=4.0)
        assert abs(st.lam - 0.01) <= 1e-12
        assert abs(st.nu - 0.02) <= 1e-6 * 0.02

    def test_degenerate_trace(self):
        g = Grid(0.0, 1.0, 129)
        rising = Field(g, 1.0 + g.nodes)  # a_Z(0) = +1
        zero = Field(g, np.zeros(g.n))
        with pytest.raises(DegenerateTrace):
            decompose(rising, zero, 0, s0=1.0)
        falling_neg = Field(g, -1.0 - g.nodes**2)
        with pytest.raises(DegenerateTrace):
            decompose(falling_neg, zero, 0, s0=1.0)

    def test_rejects_fields_off_the_unit_grid(self):
        g = Grid(0.0, 1.0, 129)
        a = Field(g, np.exp(-g.nodes / 0.1))
        zero = Field(g, np.zeros(g.n))
        wide = Grid(0.0, 2.0, 129)
        with pytest.raises(ValueError):
            decompose(Field(wide, a.values), Field(wide, zero.values), 0, s0=1.0)
        with pytest.raises(ValueError):
            decompose(a, Field(Grid(0.0, 1.0, 257), np.zeros(257)), 0, s0=1.0)

    @pytest.mark.parametrize("sigma, c0", [(2, 0.0), (0, 0.5), (1, 0.5)])
    def test_rejects_a_sigma_or_an_axis_temperature_it_cannot_pin(self, sigma, c0):
        g = Grid(0.0, 1.0, 129)
        a = Field(g, np.exp(-g.nodes / 0.1))
        c = np.zeros(g.n)
        c[0] = c0
        with pytest.raises(ValueError, match="sigma"):
            decompose(a, Field(g, c), sigma, s0=1.0)


class TestBuildState:
    def test_rejects_fields_off_the_rescaled_domain(self):
        nu = 0.1
        zero = np.zeros(129)
        off = Grid(0.0, 2.0 / nu, 129)
        with pytest.raises(ValueError):
            build_state(Field(off, zero), Field(off, zero), 0.01, nu, 5.0, 0)
        on = Grid(0.0, 1.0 / nu, 129)
        with pytest.raises(ValueError):
            build_state(Field(on, zero), Field(off, zero), 0.01, nu, 5.0, 0)

    # ctil(0) = 0 is checked, not imposed: a hand-built ctil(0) != 0 is refused
    @pytest.mark.parametrize("sigma, c0", [(2, 0.0), (0, 0.5), (1, 0.5)])
    def test_rejects_a_sigma_or_an_axis_temperature_it_cannot_pin(self, sigma, c0):
        nu = 0.1
        g = Grid(0.0, 1.0 / nu, 129)
        ct = np.zeros(g.n)
        ct[0] = c0
        with pytest.raises(ValueError, match="sigma"):
            build_state(Field(g, np.zeros(g.n)), Field(g, ct), 0.01, nu, 5.0, sigma)


class TestReconstruct:
    def test_pure_profile(self):
        st = bare_profile_state(nu=0.2, n=513)
        a, c = reconstruct(st)
        expected = np.exp(-a.grid.nodes / st.nu) / st.lam
        assert np.max(np.abs(a.values - expected)) <= 1e-10 / st.lam
        assert c.max_abs() == 0.0

    def test_roundtrip_scales_identity(self):
        st = balanced_state(s0=9.0, n=1025, c_amp=1e-4)
        a, c = reconstruct(st)
        back = decompose(a, c, st.sigma, st.s)
        assert abs(back.lam - st.lam) <= 1e-10 * st.lam
        assert abs(back.nu - st.nu) <= 1e-10 * st.nu

    def test_physical_field_roundtrip_within_h2(self):
        # the round trip is node-exact by construction, comfortably inside
        # the C h^2 interpolation budget
        lam_s, nu_s = 0.05, 0.15
        for n in (513, 1025):
            g = Grid(0.0, 1.0, n)
            Z = g.nodes
            a_vals = np.exp(-Z / nu_s) / lam_s * (1.0 + 0.05 * (Z / nu_s) ** 2 * np.exp(-Z / nu_s))
            a = Field(g, a_vals)
            c = Field(g, np.zeros(n))
            st = decompose(a, c, 0, s0=3.0)
            a2, _ = reconstruct(st)
            err = np.max(np.abs(a2.values - a.values)) * lam_s
            assert err <= g.h**2 / nu_s**2

    def test_state_representation_error_is_h4(self):
        # decompose against an analytic field, then evaluate the stored
        # perturbation on its nodes and at its cell midpoints: cubic accuracy
        lam_s, nu_s = 0.05, 0.15

        def analytic(Z):
            return np.exp(-Z / nu_s) / lam_s * (1.0 + 0.05 * (Z / nu_s) ** 2 * np.exp(-Z / nu_s))

        def midpoints(v):
            """The 4-point cubic interpolant of v at each cell midpoint,
            one-sided in the two end cells."""
            m = np.empty(len(v) - 1)
            m[1:-1] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
            m[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
            m[-1] = (5.0 * v[-1] + 15.0 * v[-2] - 5.0 * v[-3] + v[-4]) / 16.0
            return m

        errs = []
        for n in (513, 1025):
            g = Grid(0.0, 1.0, n)
            a = Field(g, analytic(g.nodes))
            st = decompose(a, Field(g, np.zeros(n)), 0, s0=3.0)
            fine = Grid(0.0, st.grid.hi, 2 * n - 1)
            atil_fine = np.empty(fine.n)
            atil_fine[::2] = st.atil.values
            atil_fine[1::2] = midpoints(st.atil.values)
            a_fine = (np.exp(-fine.nodes) + atil_fine) / st.lam
            errs.append(np.max(np.abs(a_fine - analytic(st.nu * fine.nodes))) * lam_s)
        assert errs[1] <= errs[0] / 3.0


def field_rhs(st):
    """The stepper's right-hand side of the state's stacked rows (atil,
    ctil) at fixed xi = nu z, from its first stage, without the sigma=1
    diffusion."""
    return selfsim._field_rhs(st._rows, st._stage1, st.lam, st.nu, st.sigma)


class TestScaleRates:
    """The log-rates (dlam, dnu) of (lam, nu) in a state's first stage."""

    def test_zero_perturbation_closed_form(self):
        nu = 0.125
        st = bare_profile_state(nu=nu, n=8193)
        r = st._stage1
        expected = -1.0 + nu * (1.0 - math.exp(-2.0 / nu))
        assert abs(r.dlam - expected) <= 1e-9
        assert r.dnu == -1.0 - r.dlam

    def test_sigma_match_when_ctil_zero(self):
        r0 = bare_profile_state(sigma=0)._stage1
        r1 = bare_profile_state(sigma=1)._stage1
        assert r0.dlam == r1.dlam

    def test_rate_identity(self):
        st = balanced_state(s0=10.0, c_amp=1e-3)
        r = st._stage1
        assert abs(r.dlam + r.dnu + 1.0) <= 1e-12

    def test_random_perturbation_vs_fine_grid(self):
        rng = np.random.default_rng(11)
        nu = 0.1

        def build(n):
            g = Grid(0.0, 1.0 / nu, n)
            z = g.nodes
            atil = 0.05 * z**2 * np.exp(-z) * (1.0 + 0.3 * np.sin(z))
            ctil = 0.01 * z**2 * np.exp(-0.5 * z)
            ctil[0] = 0.0
            return SelfSimilarState(Field(g, atil), Field(g, ctil), 0.01, nu, 7.0, 0)

        coarse = build(1025)._stage1
        fine = build(16385)._stage1
        assert abs(coarse.dlam - fine.dlam) <= 1e-6


class TestPerturbationRhs:
    def test_zero_perturbation_source(self):
        # on a bare profile the domain stretch transports nothing, so this is
        # the right-hand side at fixed z as well
        nu = 0.125
        st = bare_profile_state(nu=nu, n=4097)
        da, dc = field_rhs(st)
        z = st.grid.nodes
        A = st._stage1.dlam + 1.0
        expected = A * ((1.0 + z) * np.exp(-z) - 1.0)
        assert np.max(np.abs(da - expected)) <= 1e-9
        assert np.max(np.abs(dc)) == 0.0
        # vanishing of the source and its slope at z = 0
        assert abs(da[0]) <= 1e-14
        assert abs(d1_at_lo(da, st.grid.h)) <= 1e-5 * abs(A)

    def test_ctil_zero_gives_zero_dctil(self):
        st = balanced_state(s0=9.0, c_amp=0.0, sigma=0)
        da, dc = field_rhs(st)
        assert np.max(np.abs(dc)) == 0.0

    def test_sigma1_temperature_rate_vanishes_at_both_ends_in_both_frames(self):
        # c and ctil are held at 0 on the boundary, so their rates are exactly
        # 0 there, whatever the transport, the sources and the diffusion
        # (added here with d2, the operator Crank-Nicolson steps with) add inside
        spec = InitialDataSpec(lambda0=1e-3, nu0=1.0 / (2.0 * math.log(1e3)), sigma=1,
                               kappa=0.3, perturbation_family="tail_balance")
        state = build_profile_data(spec, 513)
        u = np.stack((state.a.values, state.c.values))
        dc = trace._rhs(u, state.grid.h, 1)[1] + d2(state.c.values, state.grid.h)
        ss = decompose(state.a, state.c, 1, spec.s0)
        dctil = field_rhs(ss)[1] + (ss.lam / ss.nu**2) * d2(ss.ctil.values, ss.grid.h)
        for rate in (dc, dctil):
            assert rate[0] == 0.0 and rate[-1] == 0.0
            assert rate[1] != 0.0 and rate[-2] != 0.0

    def test_generic_state_vs_refined_oracle(self):
        # Richardson on grid refinement: RHS converges at >= 2nd order, so
        # the doubled-and-redoubled grids bound the truth to ~1e-5
        def build(n):
            nu = 0.1
            g = Grid(0.0, 1.0 / nu, n)
            z = g.nodes
            atil = 0.1 * z**2 * np.exp(-z)
            ctil = 0.05 * z**2 * np.exp(-z) * (1 + 0.2 * np.cos(2 * z))
            ctil[0] = 0.0
            return SelfSimilarState(Field(g, atil), Field(g, ctil), 0.02, nu, 6.0, 0)

        sts = {n: build(n) for n in (2049, 4097, 8193)}
        das = {n: field_rhs(st)[0] for n, st in sts.items()}
        # the 2049-node grid is every 2nd node of 4097 and every 4th of 8193
        mid = das[4097][::2]
        fine = das[8193][::4]
        richardson = fine + (fine - mid) / 3.0
        assert np.max(np.abs(das[2049] - richardson)) <= 1e-5


class TestProfileIdentity:
    def test_antiderivative_identity_on_wide_domain(self):
        g = Grid(0.0, 20.0, 4097)
        z = g.nodes
        P = antiderivative(Field(g, phi(z)))
        resid = P.values * (-phi(z)) - phi(z) ** 2 + phi(z)
        assert np.max(np.abs(resid)) <= 1e-10


class TestStep:
    def test_zero_ds_identity(self):
        st = balanced_state(s0=10.0)
        assert step_selfsim(st, 0.0) is st

    def test_negative_ds_rejected(self):
        with pytest.raises(ValueError):
            step_selfsim(balanced_state(s0=10.0), -0.1)

    # an input error, not a numerical failure: a ValueError before any
    # arithmetic, neither NonFiniteState nor a numpy warning
    @pytest.mark.parametrize("ds", [math.nan, math.inf])
    def test_non_finite_ds_rejected(self, ds):
        st = balanced_state(s0=12.0, n=257, c_amp=1e-4)
        with pytest.raises(ValueError, match="ds must"):
            step_selfsim(st, ds)

    def test_small_step_from_bare_profile(self):
        nu = 0.125
        st = bare_profile_state(nu=nu, n=2049)
        ds = 1e-3
        out = step_selfsim(st, ds)
        # source is O(nu), so one step leaves a perturbation of size O(ds*nu)
        assert out.atil.max_abs() <= 5.0 * ds * nu
        assert out.atil.max_abs() >= 0.05 * ds * nu
        assert abs(out.atil.values[0]) <= 1e-10
        assert abs(d1_at_lo(out.atil.values, out.grid.h)) <= 1e-8

    def test_step_preserves_invariants_sigma0(self):
        st = balanced_state(s0=12.0, c_amp=1e-4, sigma=0)
        for _ in range(5):
            st = step_selfsim(st, 0.01)
        assert abs(st.zero_average_defect()) <= 1e-10
        assert abs(st.atil.values[0]) <= 1e-10
        assert abs(d1_at_lo(st.atil.values, st.grid.h)) <= 1e-8
        assert abs(st.ctil.values[0]) <= 1e-12

    def test_step_preserves_invariants_sigma1(self):
        st = balanced_state(s0=12.0, c_amp=1e-4, sigma=1)
        for _ in range(5):
            st = step_selfsim(st, 0.01)
        assert abs(st.zero_average_defect()) <= 1e-10
        assert st.ctil.values[0] == 0.0
        assert st.ctil.values[-1] == 0.0

    @pytest.mark.parametrize("sigma", [0, 1])
    @pytest.mark.parametrize("ds", [100.0, 1e6, 1e300])
    def test_runaway_step_raises_non_finite_state(self, sigma, ds):
        st = balanced_state(s0=12.0, n=129, sigma=sigma, c_amp=1e-3)
        with pytest.raises(NonFiniteState):
            step_selfsim(st, ds)

    def test_step_whose_nu_squared_underflows_raises_non_finite_state(self):
        # about a thousand stable steps at once: nu leaves the range where the
        # trailing Crank-Nicolson half step can divide by nu**2
        st = balanced_state(s0=12.0, n=129, sigma=1, c_amp=1e-3)
        with pytest.raises(NonFiniteState, match="scales out of range"):
            step_selfsim(st, 35.0)

    # finite scales but a non-finite sample from the last RK stage.  In ctil
    # it passes, for sigma=1, through the trailing Crank-Nicolson half step,
    # and only the scan of the stepped rows sees it.  In atil's five-node
    # head it is what the pin of nu reads, so the scan must come first.
    @pytest.mark.parametrize("sigma, row, node", [(0, 1, 64), (1, 1, 64), (0, 0, 2), (1, 0, 2)],
                             ids=["0", "1", "0-atil_head", "1-atil_head"])
    def test_non_finite_samples_raise_non_finite_state(self, monkeypatch, sigma, row, node):
        st = balanced_state(s0=12.0, n=129, sigma=sigma, c_amp=1e-3)
        field_rhs = selfsim._field_rhs
        calls = []

        def poisoned(y, sg, *args, **kwargs):
            rhs = field_rhs(y, sg, *args, **kwargs)
            calls.append(1)
            if len(calls) == 4:
                rhs[row, node] = math.nan
            return rhs

        monkeypatch.setattr(selfsim, "_field_rhs", poisoned)
        with pytest.raises(NonFiniteState):
            step_selfsim(st, 0.01)
        assert len(calls) == 4

    def test_domain_tracks_growing_scale(self):
        st = balanced_state(s0=12.0)
        out = st
        for _ in range(50):
            out = step_selfsim(out, 0.02)
        assert out.nu < st.nu
        assert abs(out.grid.hi - 1.0 / out.nu) <= 1e-9 * out.grid.hi
        # 1/nu grows roughly like s
        growth = 1.0 / out.nu - 1.0 / st.nu
        assert 0.5 * (out.s - st.s) <= growth <= 2.0 * (out.s - st.s)


class TestRun:
    def test_run_requires_zero_average(self):
        st = bare_profile_state()
        with pytest.raises(ValueError):
            run_selfsim(st, SelfsimConfig(s_end=st.s + 0.1))

    def test_constraint_loss_raises_in_a_run(self, monkeypatch):
        st = balanced_state(s0=12.0, c_amp=1e-4)
        # every re-pinning now finds its defect too large to project out
        monkeypatch.setattr(selfsim, "_PROJECT_THRESHOLD", 1e-300)
        with pytest.raises(ConstraintLost) as caught:
            run_selfsim(st, SelfsimConfig(s_end=13.0))
        # a bare step keeps the state and only records the defect left; the
        # run raised at its first step
        first = step_selfsim(st, stable_ds(st))
        assert first._lost_defect is not None and abs(first._lost_defect) > 1e-300
        assert f"at s={first.s:g}" in str(caught.value)

    def test_step_below_floor_raises_underflow(self, monkeypatch):
        st = balanced_state(s0=12.0, c_amp=1e-4)
        monkeypatch.setattr(selfsim, "stable_ds", lambda st, ds_safety: 1e-13)
        with pytest.raises(TimeStepUnderflow, match="below floor 1e-12 at time 12$"):
            run_selfsim(st, SelfsimConfig(s_end=13.0))

    def test_bare_profile_step_keeps_its_defect(self):
        st = bare_profile_state()
        out = step_selfsim(st, 1e-3)
        assert abs(out._lost_defect) > selfsim._PROJECT_THRESHOLD
        assert out._lost_defect == out.zero_average_defect()

    def test_run_rejects_s_end_before_start(self):
        st = balanced_state(s0=12.0, c_amp=1e-4)
        with pytest.raises(ValueError, match="s_end"):
            run_selfsim(st, SelfsimConfig(s_end=11.5))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_bad_ds_safety(self, bad):
        with pytest.raises(ValueError, match="ds_safety"):
            SelfsimConfig(s_end=13.0, ds_safety=bad)
        assert SelfsimConfig(s_end=13.0, ds_safety=2.0).ds_safety == 2.0

    @pytest.mark.parametrize("bad", [0, -1])
    def test_config_rejects_stride_below_one(self, bad):
        with pytest.raises(ValueError, match="stride"):
            SelfsimConfig(s_end=13.0, stride=bad)

    @pytest.mark.parametrize("bad", [0, -4])
    def test_config_rejects_max_steps_below_one(self, bad):
        with pytest.raises(ValueError, match="max_steps"):
            SelfsimConfig(s_end=13.0, max_steps=bad)

    def test_config_rejects_nan_s_end(self):
        with pytest.raises(ValueError, match="s_end"):
            SelfsimConfig(s_end=math.nan)

    def test_short_run_records_monotone_s(self):
        st = balanced_state(s0=12.0, c_amp=1e-4)
        traj = run_selfsim(st, SelfsimConfig(s_end=12.3, stride=2))
        assert traj.s[0] == 12.0
        assert abs(traj.s[-1] - 12.3) <= 1e-12
        assert np.all(np.diff(traj.s) > 0)
        assert np.all(np.isfinite(traj.lam))

    def test_stop_reason(self):
        st = balanced_state(s0=12.0, c_amp=1e-4)
        capped = run_selfsim(st, SelfsimConfig(s_end=13.0, max_steps=3))
        assert capped.reason == "max_steps"
        assert capped.final_state.s < 13.0
        assert len(capped.s) == 4
        # off the sampling stride, the stopping state is still the last sample
        strided = run_selfsim(st, SelfsimConfig(s_end=13.0, stride=2, max_steps=3))
        assert strided.reason == "max_steps"
        assert strided.s[-1] == strided.final_state.s
        assert len(strided.s) == 3
        landed = run_selfsim(st, SelfsimConfig(s_end=12.05))
        assert landed.reason == "s_end"
        assert abs(landed.s[-1] - 12.05) <= 1e-12

    # the run loop of both frames: the first row is the start, the last the
    # state the run stopped at (off the stride too), and a row every stride
    # steps between; s_end=12.07 takes 5 steps
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("reason", ["s_end", "max_steps"])
    def test_rows_run_from_the_start_to_the_final_state(self, monkeypatch, reason, stride):
        st = balanced_state(s0=12.0, n=257, c_amp=1e-4)
        cfg = dict(s_end=12.07) if reason == "s_end" else dict(s_end=13.0, max_steps=7)
        taken = []

        def counted(state, ds):
            taken.append(ds)
            return step_selfsim(state, ds)

        monkeypatch.setattr(selfsim, "step_selfsim", counted)
        traj = run_selfsim(st, SelfsimConfig(stride=stride, **cfg))
        assert traj.reason == reason
        assert len(taken) % 3 != 0   # the final state lies off the stride of 3
        assert len(traj.s) == 1 + math.ceil(len(taken) / stride)
        assert (traj.s[0], traj.lam[0], traj.nu[0], traj.t[0]) == (st.s, st.lam, st.nu, st.t)
        end = traj.final_state
        assert (traj.s[-1], traj.lam[-1], traj.nu[-1], traj.t[-1], traj.max_atil[-1]) == (
            end.s, end.lam, end.nu, end.t, end.atil.max_abs())
        if reason == "max_steps":
            assert len(taken) == 7
        else:
            assert abs(end.s - 12.07) <= 1e-12

    @pytest.mark.parametrize("with_params", [False, True])
    def test_csv_trapped_field_is_empty_without_a_verdict(self, tmp_path, with_params):
        st = balanced_state(s0=12.0, n=257, c_amp=1e-4)
        traj = run_selfsim(st, SelfsimConfig(s_end=13.0, max_steps=3,
                                             params=deep_params(0) if with_params else None))
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        rows = path.read_text().splitlines()[1:-1]
        assert len(rows) == 4
        trapped = [row.split(",")[-1] for row in rows]
        assert trapped == ([str(int(v)) for v in traj.trapped] if with_params else [""] * 4)
        assert set(trapped) <= ({"0", "1"} if with_params else {""})
        for row in rows:
            values = row.split(",")[:-1]
            assert values == [f"{float(x):.17g}" for x in values]

    def test_csv_records_stop_reason(self, tmp_path):
        st = balanced_state(s0=12.0, c_amp=1e-4)
        path = tmp_path / "trajectory.csv"
        run_selfsim(st, SelfsimConfig(s_end=13.0, max_steps=3)).to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 4 + 1
        assert lines[-1] == "# reason=max_steps"

    @pytest.mark.parametrize("sigma", [0, 1])
    def test_rescaled_run_is_pinned_bitwise(self, sigma):
        st = balanced_state(s0=12.0, n=257, sigma=sigma, c_amp=1e-4)
        traj = run_selfsim(st, SelfsimConfig(s_end=20.0, max_steps=50, params=deep_params(sigma)))
        assert traj.reason == "max_steps" and len(traj.s) == 51
        end = traj.final_state
        cols = [traj.s, traj.lam, traj.nu, traj.max_atil, traj.max_ctil, traj.t, traj.Ia2,
                traj.Ea2, traj.Ic2_or_T, traj.Ec2, traj.trapped, traj.ctil_edge]
        assert run_digest(cols, end.atil.values, end.ctil.values) == RESCALED_DIGESTS[sigma]

    def test_t_accumulates_lambda(self):
        st = balanced_state(s0=12.0)
        traj = run_selfsim(st, SelfsimConfig(s_end=12.2))
        # dt = lam ds with lam ~ s e^{-s}
        approx = np.trapezoid(traj.lam, traj.s)
        assert abs(traj.t[-1] - approx) <= 1e-3 * approx
