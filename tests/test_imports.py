"""Importing petrace loads numpy and no scipy module at all, and neither do
runs in either frame, Crank-Nicolson diffusion included: scipy.linalg alone
would cost about 0.3 s and 28 MB at the start of every process.  Only
``resample`` needs scipy, and imports scipy.interpolate on its first call;
``s_from_lambda`` solves for its root itself.

The check runs in a fresh interpreter, because the test session itself
has long since imported scipy.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import math
import sys
import tempfile

import numpy as np

import petrace
import petrace.cli
from petrace import cli
from petrace.grid import Field, Grid, resample
from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import SelfsimConfig, decompose, run_selfsim, s_from_lambda
from petrace.trace import SolverConfig, run_to_blowup


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert loaded() == [], f"import petrace loaded {loaded()}"

# sigma = 1 runs in both frames (Crank-Nicolson diffusion, energies, verdicts);
# s = 12 is the epoch of lam0 = 12 exp(-12), so s_from_lambda is not needed
lam0 = 12.0 * math.exp(-12.0)
spec = InitialDataSpec(lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)), sigma=1,
                       kappa=0.5, perturbation_family="tail_balance")
state = build_profile_data(spec, 257)
traj = run_to_blowup(state, SolverConfig(n=257, max_steps=5))
assert traj.reason == "max_steps", traj.reason
params = cli._params_from(cli.load_config(None, ["params.sigma=1", "params.h_a=1.1"]))
rescaled = run_selfsim(decompose(state.a, state.c, 1, 12.0),
                       SelfsimConfig(s_end=13.0, params=params, max_steps=5))
assert rescaled.reason == "max_steps", rescaled.reason
with tempfile.TemporaryDirectory() as tmp:
    code = cli.main(["simulate", "--out", tmp, "--quiet", "--set", "init.n=129",
                     "--set", "init.sigma=1", "--set", "solver.max_steps=20"])
    assert code == 0, code
assert loaded() == [], f"the runs loaded {loaded()}"

assert abs(s_from_lambda(lam0) - 12.0) <= 1e-12
assert loaded() == [], f"s_from_lambda loaded {loaded()}"
coarse = Grid(0.0, 1.0, 65)
line, _ = resample(Field(coarse, 2.0 * coarse.nodes), Grid(0.0, 1.0, 129))
assert np.allclose(line.values, 2.0 * line.grid.nodes, rtol=0.0, atol=1e-14)
assert "scipy.interpolate" in loaded(), loaded()
"""


def test_runs_load_no_scipy_until_resample():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
