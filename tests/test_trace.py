import math

import numpy as np
import pytest

from petrace.errors import FitDegenerate, NonFiniteState
from petrace.grid import Field, Grid, definite, integral, resample
from petrace.trace import (
    SolverConfig,
    TraceState,
    Trajectory,
    run_to_blowup,
    run_to_time,
    step,
    trace_rhs,
)

UNIT = lambda n: Grid(0.0, 1.0, n)


def zero_state(n=129, sigma=0):
    g = UNIT(n)
    z = np.zeros(n)
    return TraceState(Field(g, z), Field(g, z), sigma)


def profile_state(lam0, nu0, n, sigma=0, c_amp=0.0):
    """Zero-mean profile data: decaying exponential bulk plus a smooth
    tail that restores the zero average, c a compactly-vanishing bump."""
    g = UNIT(n)
    Z = g.nodes
    zz = Z / nu0
    prof = np.exp(-zz) / lam0
    psi = -np.expm1(-zz) - zz * np.exp(-zz)   # 1 - (1+z) e^{-z}
    mu = definite(prof, g.h) / definite(psi / lam0, g.h)
    a = prof - (mu / lam0) * psi
    c = c_amp * zz**2 * np.exp(-zz)
    if sigma == 1:
        c = c - Z * c[-1]
        c[-1] = 0.0
    return TraceState(Field(g, a), Field(g, c), sigma)


class TestStateInvariants:
    def test_nonzero_mean_rejected(self):
        g = UNIT(64)
        with pytest.raises(ValueError):
            TraceState(Field(g, np.ones(64)), Field(g, np.zeros(64)), 0)

    def test_sigma1_dirichlet_enforced(self):
        g = UNIT(64)
        a = np.zeros(64)
        c = np.ones(64)  # violates c(0)=c(1)=0
        with pytest.raises(ValueError):
            TraceState(Field(g, a), Field(g, c), 1)

    def test_wrong_domain_rejected(self):
        g = Grid(0.0, 2.0, 64)
        with pytest.raises(ValueError):
            TraceState(Field(g, np.zeros(64)), Field(g, np.zeros(64)), 0)


class TestTraceRhs:
    def test_zero_state(self):
        da, dc = trace_rhs(zero_state())
        assert da.max_abs() == 0.0
        assert dc.max_abs() == 0.0

    def test_sine_temperature_closed_form(self):
        # a = 0, c = sin(pi Z), sigma=1:
        #   da = cos(pi Z)/pi   (from -D^-1 c + its unit-interval integral)
        #   dc = -pi^2 sin(pi Z) with Dirichlet rows zeroed
        n = 513
        g = UNIT(n)
        Z = g.nodes
        st = TraceState(Field(g, np.zeros(n)), Field(g, np.sin(np.pi * Z)), 1)
        da, dc = trace_rhs(st)
        assert np.max(np.abs(da.values - np.cos(np.pi * Z) / np.pi)) <= 1e-9
        exact_dc = -np.pi**2 * np.sin(np.pi * Z)
        exact_dc[0] = exact_dc[-1] = 0.0
        assert np.max(np.abs(dc.values - exact_dc)) <= 1e-3
        # interior second derivative is the only O(h^2) piece
        interior = slice(4, -4)
        assert np.max(np.abs(dc.values[interior] - exact_dc[interior])) <= 5e-4

    def test_cosine_velocity_vs_fine_grid_oracle(self):
        # a = cos(2 pi Z) is zero-mean; da vanishes identically in the
        # continuum, so compare against a much finer discretization.
        def build(n):
            g = UNIT(n)
            return TraceState(Field(g, np.cos(2 * np.pi * g.nodes)), Field(g, np.zeros(n)), 0)

        da_coarse, _ = trace_rhs(build(1025))
        da_fine, _ = trace_rhs(build(16385))
        fine_on_coarse, _ = resample(da_fine, da_coarse.grid)
        assert np.max(np.abs(da_coarse.values - fine_on_coarse.values)) <= 1e-4


class TestStep:
    def test_zero_state_unchanged(self):
        st = zero_state()
        res = step(st, SolverConfig(blowup_cap=10.0))
        assert res.dt > 0
        assert res.state.t == res.dt
        assert res.state.a.max_abs() == 0.0
        assert res.state.c.max_abs() == 0.0

    def test_blowup_flag_no_step(self):
        st = profile_state(0.1, 0.2, 129)
        res = step(st, SolverConfig(blowup_cap=1.0))
        assert res.blowup
        assert res.state is st

    def test_rk4_temporal_order(self):
        # against a tiny-step reference: errors sit at the dt^5-per-step
        # scale (plus a small h-dependent floor) and keep shrinking fast
        st = profile_state(0.05, 0.2, 257, sigma=0, c_amp=1.0)
        cfg = SolverConfig(blowup_cap=1e9, dt_max=1.0)
        T = 0.02

        def advance(nsteps):
            s = st
            dt = T / nsteps
            for _ in range(nsteps):
                s = step(s, cfg, dt_cap=dt).state
            return s.a.values

        ref = advance(2048)
        e64 = np.max(np.abs(advance(64) - ref))
        e128 = np.max(np.abs(advance(128) - ref))
        # a second-order scheme would sit near 3e-4 here
        assert e64 <= 5e-9
        assert e64 / e128 > 6.0

    def test_sigma1_strang_second_order(self):
        st = profile_state(0.5, 0.25, 129, sigma=1, c_amp=0.5)
        cfg = SolverConfig(blowup_cap=1e9, dt_max=1.0)
        T = 0.02

        def advance(nsteps):
            s = st
            dt = T / nsteps
            for _ in range(nsteps):
                s = step(s, cfg, dt_cap=dt).state
            return s.c.values

        ref = advance(128)
        e1 = np.max(np.abs(advance(8) - ref))
        e2 = np.max(np.abs(advance(16) - ref))
        assert e1 / e2 > 3.0

    # a^2 overflows in the first RK stage; the overflow warnings are the point
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_overflowing_step_raises_non_finite_state(self, sigma):
        st = profile_state(0.5, 0.25, 129, sigma=sigma, c_amp=0.1)
        huge = TraceState(Field(st.grid, 1e200 * st.a.values), st.c, sigma)
        with pytest.raises(NonFiniteState, match="non-finite samples"):
            step(huge, SolverConfig(dt_floor=1e-300))

    def test_mean_projected_every_step(self):
        st = profile_state(0.2, 0.15, 257, c_amp=0.2)
        cfg = SolverConfig(blowup_cap=1e9)
        s = st
        for _ in range(20):
            s = step(s, cfg).state
            assert abs(definite(s.a.values, s.grid.h)) <= 1e-10 * max(1.0, s.a.max_abs())


class TestRuns:
    @pytest.mark.parametrize("probes", [(-0.25,), (0.0, 1.5), (math.nan,)])
    def test_probe_heights_outside_unit_interval_rejected(self, probes):
        with pytest.raises(ValueError, match="probe heights"):
            SolverConfig(probe_Z=probes)
        assert SolverConfig(probe_Z=(0.0, 1.0)).probe_Z == (0.0, 1.0)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_config_rejects_max_steps_below_one(self, bad):
        with pytest.raises(ValueError, match="max_steps"):
            SolverConfig(max_steps=bad)

    def test_probe_heights_sharing_a_node_rejected(self):
        st = profile_state(0.5, 0.25, 129)
        with pytest.raises(ValueError, match="share a node"):
            run_to_time(st, SolverConfig(probe_Z=(0.5, 0.5001)), 0.02)

    def test_probes_named_by_the_node_sampled(self, tmp_path):
        st = profile_state(0.5, 0.25, 129)
        # 0.3 * 128 = 38.4 rounds to node 38, at Z = 38/128 = 0.296875
        traj = run_to_time(st, SolverConfig(probe_Z=(0.0, 0.3, 1.0)), 0.02)
        assert traj.probe_Z == (0.0, 0.296875, 1.0)
        assert traj.probes[-1, 1] == traj.final_state.a.values[38]
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[0].endswith(",a@0.0,a@0.296875,a@1.0")
        assert Trajectory.from_csv(path).probe_Z == traj.probe_Z

    def test_profile_data_blows_up(self):
        st = profile_state(1e-2, 1.0 / (2 * np.log(1e2)), 513)
        cfg = SolverConfig(blowup_cap=1e3 * st.a.max_abs())
        traj = run_to_blowup(st, cfg)
        assert traj.reason == "blowup"
        assert traj.max_a[-1] >= 0.5e3 * st.a.max_abs()

    def test_zero_data_runs_to_t_max(self):
        st = zero_state(64)
        cfg = SolverConfig(t_max=0.5, blowup_cap=10.0)
        traj = run_to_blowup(st, cfg)
        assert traj.reason == "t_max"
        assert traj.t[-1] >= 0.5

    def test_run_to_time_lands_exactly(self):
        st = profile_state(0.5, 0.25, 129)
        traj = run_to_time(st, SolverConfig(), 0.05)
        assert abs(traj.t[-1] - 0.05) <= 1e-14

    def test_sigma0_axis_temperature_pinned(self):
        # c(Z=0) stays put when it starts at zero: the axis value is
        # transported with vanishing speed.
        n = 257
        g = UNIT(n)
        Z = g.nodes
        a = np.sin(2 * np.pi * Z)
        c = Z**2 * (1.0 - Z)
        st = TraceState(Field(g, a), Field(g, c), 0)
        traj = run_to_time(st, SolverConfig(blowup_cap=1e6), 0.2)
        s = traj.final_state
        assert abs(s.c.values[0]) <= 1e-8

    def test_grid_refinement_second_order(self):
        t_star = 2e-3
        vals = {}
        for n in (257, 513, 1025):
            st = profile_state(1e-2, 1.0 / (2 * np.log(1e2)), n)
            traj = run_to_time(st, SolverConfig(blowup_cap=1e12), t_star)
            vals[n] = traj.max_a[-1]
        d_coarse = abs(vals[513] - vals[257])
        d_fine = abs(vals[1025] - vals[513])
        assert d_fine <= d_coarse / 3.0

    def test_csv_roundtrip(self, tmp_path):
        st = profile_state(0.5, 0.25, 129)
        traj = run_to_time(st, SolverConfig(), 0.02)
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,max_a,max_c,mean_a,dt,a0,aZ0,a@0.0,a@0.25,a@0.5"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1], traj.max_a)

    def test_csv_reload_is_exact(self, tmp_path):
        st = profile_state(0.5, 0.25, 129)
        traj = run_to_time(st, SolverConfig(), 0.02)
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[-1] == "# reason=t_max"
        back = Trajectory.from_csv(path)
        assert back.reason == traj.reason == "t_max"
        for name in ("t", "max_a", "max_c", "mean_a", "dt", "a0", "aZ0"):
            assert np.array_equal(getattr(back, name), getattr(traj, name)), name
        assert back.probe_Z == traj.probe_Z and np.array_equal(back.probes, traj.probes)

    def test_csv_without_reason_rejected(self, tmp_path):
        st = profile_state(0.5, 0.25, 129)
        path = tmp_path / "trajectory.csv"
        run_to_time(st, SolverConfig(), 0.02).to_csv(path)
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(FitDegenerate):
            Trajectory.from_csv(path)

    def test_csv_without_probes_reloads_empty(self, tmp_path):
        st = profile_state(0.5, 0.25, 129)
        traj = run_to_time(st, SolverConfig(probe_Z=()), 0.02)
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,max_a,max_c,mean_a,dt,a0,aZ0"
        back = Trajectory.from_csv(path)
        assert back.probe_Z == () and back.probes.shape == (len(traj.t), 0)

    @pytest.mark.parametrize("header", ["t,max_a,max_c,mean_a,dt,a0,aZ0,a@0.0,a@0.25,Z=0.5",
                                        "t,max_a,max_c,mean_a,dt,a0,aZ0,a@0.0,a@0.25"])
    def test_csv_with_bad_probe_header_rejected(self, tmp_path, header):
        st = profile_state(0.5, 0.25, 129)
        path = tmp_path / "trajectory.csv"
        run_to_time(st, SolverConfig(), 0.02).to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(FitDegenerate):
            Trajectory.from_csv(path)
