import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from petrace import trace
from petrace.errors import FitDegenerate, NonFiniteState, TimeStepUnderflow
from petrace.grid import Field, Grid, d2, definite, integral
from petrace.trace import (
    SolverConfig,
    TraceState,
    Trajectory,
    run_to_blowup,
    run_to_time,
    step,
)

UNIT = lambda n: Grid(0.0, 1.0, n)

# SHA-256 of the rows and final samples of test_sigma0_run_is_pinned_bitwise.
# A change that alters the arithmetic of the physical step on purpose
# updates it and says why.
SIGMA0_DIGEST = "925303796b4416b6499359063cd8e775b4b3898b218f848d0fefe98340fc21d1"


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


def rhs_rows(state):
    """The stepper's right-hand side on the state's stacked rows (a, c):
    everything but the sigma=1 diffusion."""
    return trace._rhs(np.stack((state.a.values, state.c.values)), state.grid.h, state.sigma)


class TestTraceRhs:
    def test_zero_state(self):
        da, dc = rhs_rows(zero_state())
        assert np.max(np.abs(da)) == 0.0
        assert np.max(np.abs(dc)) == 0.0

    def test_sine_temperature_closed_form(self):
        # a = 0, c = sin(pi Z), sigma=1:
        #   da = cos(pi Z)/pi   (from -D^-1 c + its unit-interval integral)
        #   dc = -pi^2 sin(pi Z) with Dirichlet rows zeroed
        n = 513
        g = UNIT(n)
        Z = g.nodes
        st = TraceState(Field(g, np.zeros(n)), Field(g, np.sin(np.pi * Z)), 1)
        da, dc = rhs_rows(st)
        # the stepper applies the diffusion by Crank-Nicolson with d2's operator
        dc += d2(st.c.values, g.h)
        assert np.max(np.abs(da - np.cos(np.pi * Z) / np.pi)) <= 1e-9
        exact_dc = -np.pi**2 * np.sin(np.pi * Z)
        exact_dc[0] = exact_dc[-1] = 0.0
        assert np.max(np.abs(dc - exact_dc)) <= 1e-3
        # interior second derivative is the only O(h^2) piece
        interior = slice(4, -4)
        assert np.max(np.abs(dc[interior] - exact_dc[interior])) <= 5e-4

    def test_cosine_velocity_vs_fine_grid_oracle(self):
        # a = cos(2 pi Z) is zero-mean; da vanishes identically in the
        # continuum, so compare against a much finer discretization.
        def build(n):
            g = UNIT(n)
            return TraceState(Field(g, np.cos(2 * np.pi * g.nodes)), Field(g, np.zeros(n)), 0)

        da_coarse, _ = rhs_rows(build(1025))
        da_fine, _ = rhs_rows(build(16385))
        # every 16th fine node is a coarse node
        assert np.max(np.abs(da_coarse - da_fine[::16])) <= 1e-4


class TestStep:
    def test_rk4_is_the_quartic_taylor_step_of_a_linear_system(self):
        # on x' = k x, for an (array, float) pair, one RK4 step multiplies x
        # by the degree-4 Taylor polynomial of exp(z), z = k dt; the given
        # k1 is used, so f is called for stages 2-4 only
        ka, kb, dt = np.array([-1.5, 0.5, 2.0]), -0.75, 0.1
        calls = []

        def f(va, vb):
            calls.append((va, vb))
            return ka * va, kb * vb

        x = (np.array([1.0, -2.0, 3.0]), 0.8)
        va, vb = trace._rk4(f, x, dt, (ka * x[0], kb * x[1]))
        assert len(calls) == 3
        assert isinstance(vb, float)
        for got, x0, z in ((va, x[0], ka * dt), (vb, x[1], kb * dt)):
            taylor = x0 * (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
            assert np.all(np.abs(got - taylor) <= 4 * np.finfo(float).eps * np.abs(taylor))

    def test_rk4_leaves_its_inputs_and_returns_fresh_arrays(self):
        # the stages are combined in place, in buffers of the step's own:
        # read-only inputs are fine, and neither x nor the given k1 is
        # written or returned
        ka, kb, dt = np.array([-1.5, 0.5, 2.0]), -0.75, 0.1
        x = (np.array([1.0, -2.0, 3.0]), 0.8)
        k1 = (ka * x[0], kb * x[1])
        x[0].flags.writeable = k1[0].flags.writeable = False
        x0, k10 = x[0].copy(), k1[0].copy()
        va, vb = trace._rk4(lambda va, vb: (ka * va, kb * vb), x, dt, k1)
        assert np.array_equal(x[0], x0) and np.array_equal(k1[0], k10)
        assert not np.shares_memory(va, x[0]) and not np.shares_memory(va, k1[0])
        assert isinstance(vb, float)

    # the stepped state is built without the validation; it must carry what
    # the validation would have found
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_stepped_state_equals_a_validated_one(self, sigma):
        st = profile_state(0.5, 0.25, 129, sigma=sigma, c_amp=0.1)
        a0, c0 = st.a.values.copy(), st.c.values.copy()
        new = step(st, SolverConfig()).state
        g = new.grid
        ref = TraceState(Field(g, new.a.values), Field(g, new.c.values), sigma, new.t)
        for name in ("mean_a", "max_a", "max_c"):
            assert getattr(new, name).hex() == getattr(ref, name).hex(), name
        for v in (new._rows, new.a.values, new.c.values):
            assert not v.flags.writeable
        assert np.array_equal(st.a.values, a0) and np.array_equal(st.c.values, c0)

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
        cfg = SolverConfig(blowup_cap=1e9)
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
        cfg = SolverConfig(blowup_cap=1e9)
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
    def test_overflowing_step_raises_non_finite_state(self, monkeypatch, sigma):
        st = profile_state(0.5, 0.25, 129, sigma=sigma, c_amp=0.1)
        huge = TraceState(Field(st.grid, 1e200 * st.a.values), st.c, sigma)
        # the huge state's own stable step is below the floor, so it takes
        # the step of the state it scales
        dt = trace.stable_dt(st, SolverConfig())
        with monkeypatch.context() as m:
            m.setattr(trace, "stable_dt", lambda state, cfg: dt)
            with pytest.raises(NonFiniteState, match="non-finite samples"):
                step(huge, SolverConfig())
        # only c overflows: a huge rate of c in the last RK stage leaves a
        # finite, so only the scan of the c row can catch it
        rhs, calls = trace._rhs, []

        def last_stage_overflows_c(u, h, sigma, P=None):
            k = rhs(u, h, sigma, P)
            calls.append(k)
            if len(calls) == 4:
                k[1, 5] = math.inf
            return k

        monkeypatch.setattr(trace, "_rhs", last_stage_overflows_c)
        with pytest.raises(NonFiniteState, match="non-finite samples"):
            step(st, SolverConfig())
        assert len(calls) == 4 and np.isfinite(calls[-1][0]).all()

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

    @pytest.mark.parametrize("field, bad", [("t_max", math.nan), ("blowup_cap", math.nan),
                                            ("blowup_cap", math.inf)])
    def test_config_rejects_nan_t_max_and_bad_blowup_cap(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: bad})

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

    # a blow-up cap beyond reach: the stable step shrinks below its floor
    # first, and that is a failure in both frames, not a stop reason
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_dt_underflow_raises(self, sigma):
        st = profile_state(1e-3, 1.0 / (2 * np.log(1e3)), 129, sigma=sigma, c_amp=0.1)
        with pytest.raises(TimeStepUnderflow, match="below floor"):
            run_to_blowup(st, SolverConfig(blowup_cap=1e300))

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

    def test_landing_on_the_last_allowed_step_is_t_max(self):
        st = profile_state(0.5, 0.25, 129)
        steps = len(run_to_time(st, SolverConfig(), 0.02).t) - 1
        assert run_to_time(st, SolverConfig(max_steps=steps), 0.02).reason == "t_max"
        short = run_to_time(st, SolverConfig(max_steps=steps - 1), 0.02)
        assert short.reason == "max_steps" and len(short.t) == steps

    # the run loop of both frames: the first row is the start, the last the
    # state the run stopped at, and every step between has one row
    @pytest.mark.parametrize("reason", ["blowup", "t_max", "max_steps"])
    def test_rows_run_from_the_start_to_the_final_state(self, monkeypatch, reason):
        st = profile_state(0.5, 0.25, 129)
        cfg = {"blowup": dict(blowup_cap=8.0), "t_max": dict(t_max=0.02),
               "max_steps": dict(max_steps=7)}[reason]
        taken = []

        def counted(*args, **kwargs):
            res = step(*args, **kwargs)
            if not res.blowup:
                taken.append(res.dt)
            return res

        monkeypatch.setattr(trace, "step", counted)
        traj = run_to_blowup(st, SolverConfig(**cfg))
        assert traj.reason == reason
        assert len(traj.t) == len(taken) + 1 and len(taken) > 1
        assert (traj.t[0], traj.max_a[0], traj.dt[0], traj.a0[0]) == (
            st.t, st.max_a, 0.0, st.a.values[0])
        end = traj.final_state
        assert (traj.t[-1], traj.max_a[-1], traj.max_c[-1], traj.dt[-1], traj.a0[-1]) == (
            end.t, end.max_a, end.c.max_abs(), taken[-1], end.a.values[0])
        assert list(traj.dt[1:]) == taken
        if reason == "max_steps":
            assert len(taken) == 7

    # the run loop keeps its rows unboxed: a block that doubles when full and
    # one trimmed copy hold at most 3 records at once, where a list of
    # tuples of floats costs about 6
    def test_run_records_rows_unboxed(self):
        n = 33
        g = UNIT(n)
        p = 1e-3 * np.cos(np.pi * g.nodes)
        st = TraceState(Field(g, p - definite(p, g.h)), Field(g, np.zeros(n)), 0)
        tracemalloc.start()
        try:
            traj = run_to_blowup(st, SolverConfig(max_steps=2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.reason == "max_steps" and len(traj.t) == 2001
        cols = [traj.t, traj.max_a, traj.max_c, traj.mean_a, traj.dt, traj.a0, traj.aZ0,
                traj.drift_rate, traj.probes]
        assert all(c.dtype == np.float64 for c in cols)
        nbytes = 8 * len(traj.t) * (8 + len(traj.probe_Z))
        assert peak < 3 * nbytes + 64 * 1024

    # polynomial data (+, -, *, / only) and no FFT in a sigma=0 step, so the
    # digest does not depend on the numpy build (on little-endian hosts)
    def test_sigma0_run_is_pinned_bitwise(self):
        n = 257
        g = UNIT(n)
        Z = np.arange(n) / (n - 1.0)
        p = 4.0 * (1.0 - Z) * (1.0 - Z) * (1.0 - Z) - Z * Z
        a = p - definite(p, g.h)
        c = Z * Z * (1.0 - Z)
        traj = run_to_blowup(TraceState(Field(g, a), Field(g, c), 0), SolverConfig(max_steps=200))
        assert traj.reason == "max_steps" and len(traj.t) == 201
        rows = np.column_stack([traj.t, traj.max_a, traj.max_c, traj.mean_a, traj.dt, traj.a0,
                                traj.aZ0, traj.drift_rate, traj.probes])
        end = traj.final_state
        digest = hashlib.sha256(rows.tobytes() + end.a.values.tobytes() + end.c.values.tobytes())
        assert digest.hexdigest() == SIGMA0_DIGEST

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
