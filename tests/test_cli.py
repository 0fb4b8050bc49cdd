import json
import math
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrace import cli, errors, initial_data, selfsim, trace
from petrace.cli import load_config, main
from petrace.fitting import estimate_T, fit_rates
from petrace.params import alpha0, reference_sigma0_params, reference_sigma1_params
from petrace.trace import run_to_blowup


def run_cli(*argv):
    return main(list(argv))


# a start no spatial scale pins: on 8 nodes the profile falls off inside
# the first cell
UNPINNABLE = ("--set", "init.n=8", "--set", "init.lambda0=1e-6")
# a tail_balance start whose weighted energy meets a first-cell integrand
# far above the second cell's (SingularWeight): at the start in energies
# mode at n=65, and mid-run in selfsim mode at n=129
SINGULAR = ("--set", "init.family=tail_balance", "--set", "init.kappa=1",
            "--set", "init.lambda0=2e-2", "--set", "params.h_a=1.1")


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.config"
        cfg_file.write_text("mode = simulate\ninit.lambda0 = 5e-3  # comment\n\n# blank\n")
        cfg = load_config(str(cfg_file), ["init.n=513"])
        assert cfg["mode"] == "simulate"
        assert cfg["init.lambda0"] == 5e-3
        assert cfg["init.n"] == 513

    # solver.upwind, solver.store_stride, params.sigma and solver.dt_floor
    # were removed, so a resolved.config written before then is rejected
    # rather than silently half-read
    @pytest.mark.parametrize("line", ["solver.nn = 3", "solver.upwind = false",
                                      "solver.store_stride = 0", "params.sigma = 0",
                                      "solver.dt_floor = 1.0000000000000001e-15"],
                             ids=lambda line: line.split(" =")[0])
    def test_unknown_key_rejected(self, tmp_path, line):
        cfg_file = tmp_path / "bad.config"
        cfg_file.write_text(line + "\n")
        assert run_cli("alpha0", "--config", str(cfg_file)) == 2

    def test_eps_defaults_follow_init_sigma(self):
        # one sigma key: the parameter set is the state's, and eps_a, eps_c
        # default to that sigma's reference values
        for sigma, ref in ((0, reference_sigma0_params()), (1, reference_sigma1_params())):
            p = cli._params_from(load_config(None, [f"init.sigma={sigma}"]))
            assert (p.sigma, p.eps_a, p.eps_c) == (sigma, ref.eps_a, ref.eps_c)
        p = cli._params_from(load_config(None, ["init.sigma=1", "params.eps_c=0.95"]))
        assert (p.eps_a, p.eps_c) == (0.75, 0.95)

    def test_bad_value_rejected(self):
        assert run_cli("alpha0", "--set", "init.n=abc") == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run_cli("alpha0", "--config", str(tmp_path / "missing.cfg")) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_unknown_mode_rejected(self):
        assert run_cli("explode") == 2


class TestModes:
    def test_alpha0_prints_root(self, capsys):
        assert run_cli("alpha0") == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - alpha0()) == 0.0
        assert out.startswith("1.88414")

    def test_validate_params_pass_and_fail(self, tmp_path):
        out = tmp_path / "v"
        code = run_cli("validate-params", "--out", str(out), "--quiet")
        assert code == 0
        rows = json.loads((out / "verdict.json").read_text())
        assert all(r["pass"] for r in rows)
        code = run_cli("validate-params", "--set", "params.alpha=1.5",
                       "--out", str(out), "--quiet")
        assert code == 2

    def test_validate_params_sigma1_defaults_pass(self, tmp_path):
        out = tmp_path / "v1"
        assert run_cli("validate-params", "--set", "init.sigma=1",
                       "--out", str(out), "--quiet") == 0
        rows = json.loads((out / "verdict.json").read_text())
        assert "k/2 + 1/(2 eta0) < eps_c (strict)" in [r["condition"] for r in rows]
        assert all(r["pass"] for r in rows)

    @pytest.mark.parametrize("mode", ["selfsim", "energies"])
    def test_sigma1_state_runs_with_default_params(self, tmp_path, mode):
        assert run_cli(mode, "--out", str(tmp_path / mode), "--quiet",
                       "--set", "init.sigma=1", "--set", "init.n=513") == 0

    def test_redecompose_prints_json(self, capsys):
        assert run_cli("redecompose", "--set", "redecompose.lam=0.01",
                       "--set", "redecompose.nu=0.1",
                       "--set", "redecompose.atil0=1.0") == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(payload["lam_bar"] - 1.0 / 101.0) < 1e-15
        assert abs(payload["nu_bar"] - 0.101) < 1e-15

    @pytest.mark.parametrize("key,value", [("lam", "nan"), ("nu", "nan"), ("atil0", "nan"),
                                           ("nu", "-1"), ("lam", "0"), ("atil0", "inf")])
    def test_redecompose_rejects_bad_scales(self, capsys, key, value):
        assert run_cli("redecompose", "--set", f"redecompose.{key}={value}") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "redecompose needs finite lam > 0, nu > 0 and atil(0)" in out.err

    def test_file_modes_require_out(self):
        assert run_cli("simulate") == 2

    def test_simulate_fit_pipeline(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-2", "--set", "init.n=513",
                       "--set", "solver.blowup_cap=1e5")
        assert code == 0
        csv = out / "trajectory.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "t,max_a,max_c,mean_a,dt,a0,aZ0,a@0.0,a@0.25,a@0.5"
        code = run_cli("fit", "--out", str(out), "--quiet")
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["rate_a"] - (-1.0)) <= 0.1
        rates = (out / "rates.csv").read_text().splitlines()
        assert rates[0] == "Z,exponent"
        assert rates[1:] == [f"{p['Z']:.17g},{p['exponent']:.17g}" for p in fit["pointwise"]]
        assert len(rates) == 4

    def test_fit_json_is_strict(self, tmp_path):
        # non-finite results must come out as null, never as a bare NaN
        out = tmp_path / "strict"
        assert run_cli("simulate", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-2", "--set", "init.n=513",
                       "--set", "solver.blowup_cap=1e5") == 0
        assert run_cli("fit", "--out", str(out), "--quiet") == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        fit = json.loads((out / "fit.json").read_text(), parse_constant=reject)
        assert math.isfinite(fit["rate_a"])

    def test_fit_refuses_run_stopped_by_t_max(self, tmp_path, capsys):
        # max|a| grows only from 100 to about 110: no blow-up to fit
        out = tmp_path / "tmax"
        assert run_cli("simulate", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-2", "--set", "init.n=513",
                       "--set", "solver.t_max=1e-3") == 0
        assert (out / "trajectory.csv").read_text().splitlines()[-1] == "# reason=t_max"
        assert run_cli("fit", "--out", str(out), "--quiet") == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_fit_after_reload_matches_in_memory(self, tmp_path):
        out = tmp_path / "reload"
        assert run_cli("simulate", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-2", "--set", "init.n=513",
                       "--set", "solver.blowup_cap=1e5") == 0
        cfg = load_config(str(out / "resolved.config"), [])
        assert run_cli("fit", "--out", str(out), "--quiet") == 0
        reloaded = json.loads((out / "fit.json").read_text())

        state = initial_data.build_profile_data(cli._spec_from(cfg), cfg["init.n"])
        traj = run_to_blowup(state, cli._solver_from(cfg))
        T_hat = estimate_T(traj)
        fit = fit_rates(traj, T_hat)
        assert math.isfinite(fit.nu_slope)
        assert reloaded["nu_slope"] == fit.nu_slope
        assert reloaded["T_hat"] == T_hat
        assert reloaded["rate_a"] == fit.rate_a

    def test_fit_after_reload_keeps_pointwise_exponents(self, tmp_path):
        out = tmp_path / "probes"
        assert run_cli("simulate", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-2", "--set", "init.n=513",
                       "--set", "solver.blowup_cap=1e5") == 0
        cfg = load_config(str(out / "resolved.config"), [])
        assert run_cli("fit", "--out", str(out), "--quiet") == 0

        state = initial_data.build_profile_data(cli._spec_from(cfg), cfg["init.n"])
        traj = run_to_blowup(state, cli._solver_from(cfg))
        fit = fit_rates(traj, estimate_T(traj))
        assert len(fit.pointwise) == 3
        reloaded = json.loads((out / "fit.json").read_text())["pointwise"]
        assert reloaded == [{"Z": z, "exponent": e} for z, e in fit.pointwise]
        rates = (out / "rates.csv").read_text().splitlines()
        assert rates[1:] == [f"{z:.17g},{e:.17g}" for z, e in fit.pointwise]

    def test_fit_needs_recorded_reason(self, tmp_path, capsys):
        out = tmp_path / "old"
        out.mkdir()
        # the format before the stop reason was recorded
        (out / "trajectory.csv").write_text(
            "t,max_a,max_c,mean_a,dt\n0,100,0,0,0\n0.001,110,0,0,0.001\n")
        assert run_cli("fit", "--out", str(out), "--quiet") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_fit_without_trajectory_exits_2(self, tmp_path, capsys):
        assert run_cli("fit", "--out", str(tmp_path / "empty"), "--quiet") == 2
        assert "cannot read trajectory" in capsys.readouterr().err

    def test_energies_mode(self, tmp_path):
        out = tmp_path / "e"
        code = run_cli("energies", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-3", "--set", "init.n=1025")
        assert code == 0
        lines = (out / "energies.csv").read_text().splitlines()
        assert lines[0] == "s,Ia2,Ea2,Ic2,Ec2,T_k_eta"
        assert len(lines) == 2
        values = lines[1].split(",")
        assert len(values) == 6 and values == [f"{float(x):.17g}" for x in values]
        assert (out / "verdict.json").exists()

    def test_selfsim_mode_short(self, tmp_path):
        out = tmp_path / "ss"
        lam0 = 12.0 * math.exp(-12.0)
        code = run_cli("selfsim", "--out", str(out), "--quiet",
                       "--set", f"init.lambda0={lam0!r}", "--set", "init.n=513",
                       "--set", "selfsim.s_end=12.2", "--set", "params.h_a=1.1")
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "s,lambda,nu,max_atil,max_ctil,I_a2,E_a2,I_c2_or_T,trapped"
        assert len(lines) > 3

    def test_runaway_ds_safety_exits_3(self, tmp_path, capsys):
        # fifty times the stable step throws the first step off the
        # zero-average manifold: a typed numerical failure, not a traceback
        code = run_cli("selfsim", "--out", str(tmp_path / "ss"), "--quiet",
                       "--set", "init.n=513", "--set", "selfsim.ds_safety=50")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    # rates scaled beyond the floats overflow the first step; the overflow
    # warnings are the point
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_runaway_physical_step_exits_3(self, tmp_path, capsys, monkeypatch, sigma):
        rhs = trace._rhs

        def runaway(u, h, sigma, P=None):
            k = rhs(u, h, sigma, P)
            k *= 1e308
            return k

        monkeypatch.setattr(trace, "_rhs", runaway)
        code = run_cli("simulate", "--out", str(tmp_path / "sim"), "--quiet",
                       "--set", "init.n=129", "--set", f"init.sigma={sigma}")
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "non-finite samples" in err

    @pytest.mark.parametrize("sigma", [0, 1])
    def test_dt_underflow_exits_3(self, tmp_path, capsys, sigma):
        code = run_cli("simulate", "--out", str(tmp_path / "sim"), "--quiet",
                       "--set", "init.n=129", "--set", f"init.sigma={sigma}",
                       "--set", "solver.blowup_cap=1e300")
        assert code == 3
        assert "below floor" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "trajectory.csv").exists()

    def test_rescaled_underflow_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(selfsim, "stable_ds", lambda st, ds_safety: 1e-13)
        code = run_cli("selfsim", "--out", str(tmp_path / "ss"), "--quiet",
                       "--set", "init.n=513")
        assert code == 3
        assert "below floor" in capsys.readouterr().err
        assert not (tmp_path / "ss" / "trajectory.csv").exists()

    @pytest.mark.parametrize("mode, setting, name", [
        ("simulate", "solver.max_steps=-3", "max_steps"),
        ("simulate", "solver.max_steps=0", "max_steps"),
        ("selfsim", "selfsim.s_end=1", "s_end"),
        ("simulate", "solver.t_max=-1", "t_max"),
    ])
    def test_empty_run_exits_2(self, tmp_path, capsys, mode, setting, name):
        code = run_cli(mode, "--out", str(tmp_path / "run"), "--quiet",
                       "--set", "init.n=257", "--set", setting)
        assert code == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "run" / "trajectory.csv").exists()

    # 0 and 1 are where the default nu0 = 1/(2 log(1/lambda0)) is undefined
    @pytest.mark.parametrize("lam0", ["0", "1"])
    @pytest.mark.parametrize("mode", ["simulate", "selfsim"])
    def test_lambda0_outside_its_window_exits_2(self, tmp_path, capsys, mode, lam0):
        code = run_cli(mode, "--out", str(tmp_path / "run"), "--quiet",
                       "--set", "init.n=129", "--set", f"init.lambda0={lam0}")
        assert code == 2
        assert "lambda0 must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, name", [
        ("solver.t_max=nan", "t_max"),
        ("solver.blowup_cap=inf", "blowup_cap"),
    ])
    def test_nan_solver_setting_exits_2(self, tmp_path, capsys, setting, name):
        code = run_cli("simulate", "--out", str(tmp_path / "sim"), "--quiet",
                       "--set", "init.n=129", "--set", "solver.t_max=1e-4", "--set", setting)
        assert code == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "sim" / "trajectory.csv").exists()

    @pytest.mark.parametrize("key", ["alpha", "z_star"])
    @pytest.mark.parametrize("mode", ["selfsim", "energies", "validate-params"])
    def test_nan_framework_parameter_exits_2(self, tmp_path, capsys, mode, key):
        out = tmp_path / "run"
        code = run_cli(mode, "--out", str(out), "--quiet", "--set", "init.n=129",
                       "--set", "init.lambda0=2e-2", "--set", f"params.{key}=nan")
        assert code == 2
        assert f"framework parameter {key} must not be nan" in capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == ["resolved.config"]

    def test_probe_heights_sharing_a_node_exit_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", str(tmp_path / "sim"), "--quiet",
                       "--set", "init.n=129", "--set", "solver.max_steps=5",
                       "--set", "solver.probe_z=0.5,0.5001")
        assert code == 2
        assert "share a node" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "trajectory.csv").exists()

    @pytest.mark.parametrize("probes", ["-0.25", "0,1.5"])
    def test_probe_height_outside_unit_interval_exits_2(self, tmp_path, capsys, probes):
        code = run_cli("simulate", "--out", str(tmp_path / "sim"), "--quiet",
                       "--set", "init.n=129", "--set", "solver.max_steps=5",
                       "--set", f"solver.probe_z={probes}")
        assert code == 2
        assert "probe heights" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "trajectory.csv").exists()

    def test_zero_stride_exits_2(self, tmp_path, capsys):
        code = run_cli("selfsim", "--out", str(tmp_path / "ss"), "--quiet",
                       "--set", "init.n=513", "--set", "selfsim.stride=0")
        assert code == 2
        assert "stride" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-1", "nan"])
    def test_bad_ds_safety_exits_2(self, tmp_path, capsys, bad):
        code = run_cli("selfsim", "--out", str(tmp_path / "ss"), "--quiet",
                       "--set", "init.n=513", "--set", f"selfsim.ds_safety={bad}")
        assert code == 2
        assert "ds_safety" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, settings, message", [
        ("selfsim", UNPINNABLE, "no spatial scale pins"),
        ("energies", UNPINNABLE, "no spatial scale pins"),
        ("energies", ("--set", "init.n=65", *SINGULAR), "first-cell integrand"),
        ("selfsim", ("--set", "init.n=129", "--set", "init.sigma=0", *SINGULAR),
         "first-cell integrand"),
        ("selfsim", ("--set", "init.n=129", "--set", "init.sigma=1", *SINGULAR),
         "first-cell integrand"),
    ], ids=["selfsim-unpinnable", "energies-unpinnable", "energies-singular",
            "selfsim-singular-sigma0", "selfsim-singular-sigma1"])
    def test_numerical_failure_exits_3(self, tmp_path, capsys, mode, settings, message):
        out = tmp_path / "run"
        assert run_cli(mode, "--out", str(out), "--quiet", *settings) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == ["resolved.config"]

    def test_exit_code_follows_the_error_type(self, monkeypatch, capsys):
        codes = {}
        for cls in [c for c in vars(errors).values() if isinstance(c, type)] + [cli.ConfigError]:
            exc = cls(25.5) if cls is errors.ScaleFitFailure else cls("what went wrong")

            def fail(cfg, outdir, quiet, exc=exc):
                raise exc

            monkeypatch.setitem(cli._DISPATCH, "alpha0", fail)
            codes[cls] = run_cli("alpha0")
            prefix = "numerical failure: " if codes[cls] == 3 else "error: "
            assert capsys.readouterr().err == f"{prefix}{exc}\n"
        assert {c for c, code in codes.items() if code == 3} == {
            errors.NumericalFailure, errors.TimeStepUnderflow, errors.NonFiniteState,
            errors.ConstraintLost, errors.ScaleFitFailure, errors.FitDegenerate,
            errors.SingularWeight, errors.InsufficientData}
        assert {c for c, code in codes.items() if code == 2} == {
            errors.PetraceError, errors.DegenerateTrace, errors.InfeasibleBalance,
            errors.OutOfRange, cli.ConfigError}

    def test_sweep_over_sigma_in_energies_mode(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--out", str(out), "--quiet",
                       "--set", "sweep.param=init.sigma", "--set", "sweep.values=0,1",
                       "--set", "sweep.mode=energies", "--set", "init.n=513") == 0
        for i in range(2):
            assert (out / f"sweep_{i:03d}" / "energies.csv").exists()

    def test_sweep_mode(self, tmp_path):
        out = tmp_path / "sw"
        code = run_cli("sweep", "--out", str(out), "--quiet",
                       "--set", "sweep.param=init.lambda0",
                       "--set", "sweep.values=1e-2,2e-2",
                       "--set", "sweep.mode=simulate",
                       "--set", "init.n=513",
                       "--set", "solver.blowup_cap=1e4")
        assert code == 0
        for i in range(2):
            sub = out / f"sweep_{i:03d}"
            assert (sub / "trajectory.csv").exists()
            assert (sub / "resolved.config").exists()


SWEEP_SIMULATE = ("--set", "sweep.mode=simulate", "--set", "init.n=513",
                  "--set", "solver.blowup_cap=1e4")


class TestSweep:
    """The sweep forks one child process per sub-run; its output must be
    what running them one after another gives."""

    def test_sub_runs_match_stand_alone_runs(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--out", str(out), "--quiet",
                       "--set", "sweep.param=init.lambda0",
                       "--set", "sweep.values=1e-2,2e-2", *SWEEP_SIMULATE) == 0
        for i in range(2):
            sub = out / f"sweep_{i:03d}"
            alone = tmp_path / f"alone_{i}"
            assert run_cli("--config", str(sub / "resolved.config"),
                           "--out", str(alone), "--quiet") == 0
            assert (sub / "trajectory.csv").read_bytes() == (alone / "trajectory.csv").read_bytes()
            assert (sub / "resolved.config").read_bytes() == (alone / "resolved.config").read_bytes()

    def test_printed_lines_come_in_value_order(self, tmp_path, monkeypatch, capsys):
        # the first value's sub-run finishes last
        redecompose = initial_data.redecompose

        def slow_first(lam, nu, atil0):
            if atil0 == 0.0:
                time.sleep(0.5)
            return redecompose(lam, nu, atil0)

        monkeypatch.setattr(initial_data, "redecompose", slow_first)
        values = (0.0, 1.0, 2.0, 3.0)
        assert run_cli("sweep", "--out", str(tmp_path / "re"), "--quiet",
                       "--set", "sweep.mode=redecompose",
                       "--set", "sweep.param=redecompose.atil0",
                       "--set", "sweep.values=" + ",".join(map(str, values))) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(values)
        for line, atil0 in zip(lines, values):
            lam_bar, nu_bar = redecompose(0.01, 0.1, atil0)
            assert json.loads(line) == {"lam_bar": lam_bar, "nu_bar": nu_bar}

    def test_failing_sub_run_exits_3(self, tmp_path, capsys):
        # as in test_scale_fit_failure_exits_3: no spatial scale pins either start
        code = run_cli("sweep", "--out", str(tmp_path / "ss"), "--quiet",
                       "--set", "sweep.mode=selfsim", "--set", "sweep.param=init.lambda0",
                       "--set", "sweep.values=1e-6,1e-9", "--set", "init.n=8")
        assert code == 3
        assert "numerical failure: no spatial scale pins" in capsys.readouterr().err

    def test_first_failure_cancels_the_sub_runs_not_started(self, tmp_path, monkeypatch):
        redecompose = initial_data.redecompose

        def fail_first(lam, nu, atil0):
            if atil0 == 0.0:
                raise errors.FitDegenerate("the first value fails")
            return redecompose(lam, nu, atil0)

        monkeypatch.setattr(initial_data, "redecompose", fail_first)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        out = tmp_path / "re"
        assert run_cli("sweep", "--out", str(out), "--quiet",
                       "--set", "sweep.mode=redecompose",
                       "--set", "sweep.param=redecompose.atil0",
                       "--set", "sweep.values=0,1,2,3") == 3
        for i in range(1, 4):
            assert [f.name for f in (out / f"sweep_{i:03d}").iterdir()] == ["resolved.config"]

    def test_lost_sub_run_exits_2_and_leaves_no_child(self, tmp_path, monkeypatch, capsys):
        redecompose = initial_data.redecompose

        def die_on_second(lam, nu, atil0):
            if atil0 == 1.0:
                os._exit(9)
            return redecompose(lam, nu, atil0)

        monkeypatch.setattr(initial_data, "redecompose", die_on_second)
        assert run_cli("sweep", "--out", str(tmp_path / "re"), "--quiet",
                       "--set", "sweep.mode=redecompose",
                       "--set", "sweep.param=redecompose.atil0",
                       "--set", "sweep.values=0,1,2") == 2
        err = capsys.readouterr().err
        assert "sweep_001" in err and "exit status 9" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_slow_value_holds_back_no_later_value(self, tmp_path, monkeypatch):
        # value 0 runs until value 3 has run: with two CPUs, values 1, 2 and
        # 3 must take turns on the other one while value 0 still runs
        redecompose = initial_data.redecompose
        marker = tmp_path / "value_3_ran"

        def gated(lam, nu, atil0):
            if atil0 == 0.0:
                deadline = time.monotonic() + 10.0
                while not marker.exists():
                    if time.monotonic() > deadline:
                        raise errors.FitDegenerate("value 3 never ran")
                    time.sleep(0.01)
            if atil0 == 3.0:
                marker.touch()
            return redecompose(lam, nu, atil0)

        monkeypatch.setattr(initial_data, "redecompose", gated)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert run_cli("sweep", "--out", str(tmp_path / "re"), "--quiet",
                       "--set", "sweep.mode=redecompose",
                       "--set", "sweep.param=redecompose.atil0",
                       "--set", "sweep.values=0,1,2,3") == 0

    def test_unparsable_value_exits_2_before_any_sub_run(self, tmp_path):
        out = tmp_path / "bad"
        assert run_cli("sweep", "--out", str(out), "--quiet",
                       "--set", "sweep.param=init.lambda0",
                       "--set", "sweep.values=1e-2,abc", *SWEEP_SIMULATE) == 2
        assert not list(out.glob("sweep_*"))

    # every sub-run's mode is sweep.mode, and no sub-run reads a sweep key,
    # so sweeping one would run the same sub-run under another label
    @pytest.mark.parametrize("key, value", [("mode", "alpha0"), ("sweep.mode", "energies"),
                                            ("sweep.param", "init.n"), ("sweep.values", "1")])
    def test_unsweepable_key_exits_2_before_any_sub_run(self, tmp_path, capsys, key, value):
        out = tmp_path / "bad"
        assert run_cli("sweep", "--out", str(out), "--quiet", "--set", f"sweep.param={key}",
                       "--set", f"sweep.values={value}", *SWEEP_SIMULATE) == 2
        assert f"sweep.param {key!r} cannot be swept" in capsys.readouterr().err
        assert not list(out.glob("sweep_*"))

    def test_lambda0_outside_its_window_exits_2(self, tmp_path, capsys):
        assert run_cli("sweep", "--out", str(tmp_path / "lam"), "--quiet",
                       "--set", "sweep.param=init.lambda0",
                       "--set", "sweep.values=0,1", *SWEEP_SIMULATE) == 2
        assert "lambda0 must lie in" in capsys.readouterr().err

    def test_errors_survive_pickling(self):
        # a sub-run's error travels back from its child process pickled
        made = {errors.ScaleFitFailure: (25.5,)}
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.PetraceError)]
        assert {errors.ScaleFitFailure, errors.NonFiniteState, errors.ConstraintLost} <= set(classes)
        for cls in classes + [cli.ConfigError]:
            exc = cls(*made.get(cls, ("what went wrong",)))
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is cls
            assert str(back) == str(exc)
            assert back.args == exc.args
            assert vars(back) == vars(exc)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _nulled(obj):
    """What strict JSON of obj reads back as: non-finite floats as None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _nulled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(v) for v in obj]
    return obj


payloads = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_json_is_strict_and_nulls_non_finite(obj):
    back = json.loads(cli._json(obj), parse_constant=_reject_constant)
    assert back == _nulled(obj)


class TestRoundTrip:
    def test_resolved_config_reproduces_bitwise(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        args = ["simulate", "--quiet", "--set", "init.lambda0=1e-2",
                "--set", "init.n=513",
                "--set", "solver.blowup_cap=1e5"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli("--config", str(out1 / "resolved.config"),
                       "--out", str(out2), "--quiet") == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "resolved.config").read_bytes() == (out2 / "resolved.config").read_bytes()
