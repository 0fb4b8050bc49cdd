import json
import math

import numpy as np
import pytest

from petrace.cli import load_config, main
from petrace.params import alpha0


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.config"
        cfg_file.write_text("mode = simulate\ninit.lambda0 = 5e-3  # comment\n\n# blank\n")
        cfg = load_config(str(cfg_file), ["solver.n=513"])
        assert cfg["mode"] == "simulate"
        assert cfg["init.lambda0"] == 5e-3
        assert cfg["solver.n"] == 513

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.config"
        cfg_file.write_text("solver.nn = 3\n")
        assert run_cli("alpha0", "--config", str(cfg_file)) == 2

    def test_bad_value_rejected(self):
        assert run_cli("alpha0", "--set", "solver.n=abc") == 2

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

    def test_redecompose_prints_json(self, capsys):
        assert run_cli("redecompose", "--set", "redecompose.lam=0.01",
                       "--set", "redecompose.nu=0.1",
                       "--set", "redecompose.atil0=1.0") == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(payload["lam_bar"] - 1.0 / 101.0) < 1e-15
        assert abs(payload["nu_bar"] - 0.101) < 1e-15

    def test_file_modes_require_out(self):
        assert run_cli("simulate") == 2

    def test_simulate_fit_pipeline(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-2", "--set", "init.n=513",
                       "--set", "solver.n=513", "--set", "solver.blowup_cap=1e5")
        assert code == 0
        csv = out / "trajectory.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "t,max_a,max_c,mean_a,dt"
        code = run_cli("fit", "--out", str(out), "--quiet")
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert abs(fit["rate_a"] - (-1.0)) <= 0.1
        assert (out / "rates.csv").exists()

    def test_fit_json_is_strict(self, tmp_path):
        # non-finite results (nu_slope after a CSV reload, which does not
        # carry a_Z(t, 0)) must come out as null, never as a bare NaN
        out = tmp_path / "strict"
        assert run_cli("simulate", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-2", "--set", "init.n=513",
                       "--set", "solver.n=513", "--set", "solver.blowup_cap=1e5") == 0
        assert run_cli("fit", "--out", str(out), "--quiet") == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        fit = json.loads((out / "fit.json").read_text(), parse_constant=reject)
        assert math.isfinite(fit["rate_a"])

    def test_energies_mode(self, tmp_path):
        out = tmp_path / "e"
        code = run_cli("energies", "--out", str(out), "--quiet",
                       "--set", "init.lambda0=1e-3", "--set", "init.n=1025")
        assert code == 0
        lines = (out / "energies.csv").read_text().splitlines()
        assert lines[0] == "s,Ia2,Ea2,Ic2,Ec2,T_k_eta"
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

    def test_scale_fit_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # the secant runs as usual, on a residual that has no root
        from petrace import selfsim

        secant = selfsim._secant_nu
        monkeypatch.setattr(selfsim, "_secant_nu",
                            lambda G, nu_guess: secant(lambda nu: 1.0 + nu * nu, nu_guess))
        code = run_cli("selfsim", "--out", str(tmp_path / "ss"), "--quiet",
                       "--set", "init.n=129", "--set", "selfsim.s_end=12.2")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sweep_mode(self, tmp_path):
        out = tmp_path / "sw"
        code = run_cli("sweep", "--out", str(out), "--quiet",
                       "--set", "sweep.param=init.lambda0",
                       "--set", "sweep.values=1e-2,2e-2",
                       "--set", "sweep.mode=simulate",
                       "--set", "init.n=513", "--set", "solver.n=513",
                       "--set", "solver.blowup_cap=1e4")
        assert code == 0
        for i in range(2):
            sub = out / f"sweep_{i:03d}"
            assert (sub / "trajectory.csv").exists()
            assert (sub / "resolved.config").exists()


class TestRoundTrip:
    def test_resolved_config_reproduces_bitwise(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        args = ["simulate", "--quiet", "--set", "init.lambda0=1e-2",
                "--set", "init.n=513", "--set", "solver.n=513",
                "--set", "solver.blowup_cap=1e5"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli("--config", str(out1 / "resolved.config"),
                       "--out", str(out2), "--quiet") == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "resolved.config").read_bytes() == (out2 / "resolved.config").read_bytes()
