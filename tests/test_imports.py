"""petrace needs numpy alone.

The first test runs a fresh interpreter in which scipy cannot be imported:
``sys.modules["scipy"] = None`` makes every ``import scipy`` and ``import
scipy.<submodule>`` raise.  It then imports petrace and runs the paths a
user reaches: sigma = 1 runs in both frames, ``s_from_lambda``, and the CLI
modes simulate, selfsim, energies and fit.  A scipy import anywhere on them,
one inside a function included, fails the test.  The interpreter is a fresh
one because the test session imports scipy for its reference oracles.

The second test checks what the package declares and what its source
imports: pyproject.toml lists numpy as the only dependency, and no module of
the package imports anything outside the standard library, numpy and
petrace, at any depth of the code, so an import on a path that no run
executes cannot bring a dependency back either.

The third runs a sweep in a fresh interpreter: ``import petrace.cli`` alone
loads neither ``select`` nor ``petrace.forked``, and a sweep, which forks its sub-runs itself, loads
neither ``concurrent.futures`` nor ``multiprocessing``.

The last two guard against dangling names: every name in a module's
``__all__`` exists, and every backticked ``<module>.<name>`` in README.md
that names a petrace module resolves to an attribute of it.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = """
import math
import sys
import tempfile

sys.modules["scipy"] = None

from petrace import cli
from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import SelfsimConfig, decompose, run_selfsim, s_from_lambda
from petrace.trace import SolverConfig, run_to_blowup

# sigma = 1 runs in both frames (Crank-Nicolson diffusion, energies, verdicts)
lam0 = 12.0 * math.exp(-12.0)
assert abs(s_from_lambda(lam0) - 12.0) <= 1e-12
spec = InitialDataSpec(lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)), sigma=1,
                       kappa=0.5, perturbation_family="tail_balance")
state = build_profile_data(spec, 257)
traj = run_to_blowup(state, SolverConfig(max_steps=5))
assert traj.reason == "max_steps", traj.reason
params = cli._params_from(cli.load_config(None, ["init.sigma=1", "params.h_a=1.1"]))
rescaled = run_selfsim(decompose(state.a, state.c, 1, 12.0),
                       SelfsimConfig(s_end=13.0, params=params, max_steps=5))
assert rescaled.reason == "max_steps", rescaled.reason

with tempfile.TemporaryDirectory() as tmp:
    small = ["--quiet", "--set", "init.sigma=1", "--set", "init.lambda0=1e-2"]
    runs = [["simulate", "--set", "init.n=257", "--set", "solver.blowup_cap=1e5"],
            ["fit"],
            ["selfsim", "--set", "init.n=129", "--set", "selfsim.s_end=6.7"],
            ["energies", "--set", "init.n=129"]]
    for mode, *settings in runs:
        code = cli.main([mode, "--out", tmp, *small, *settings])
        assert code == 0, (mode, code)
"""


SWEEP_SCRIPT = """
import sys
import tempfile

from petrace import cli

assert "select" not in sys.modules and "petrace.forked" not in sys.modules
with tempfile.TemporaryDirectory() as tmp:
    code = cli.main(["sweep", "--out", tmp, "--quiet", "--set", "sweep.mode=redecompose",
                     "--set", "sweep.param=redecompose.atil0", "--set", "sweep.values=0,1"])
assert code == 0, code
loaded = [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]
assert not loaded, loaded
"""


def _run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_runs_need_no_scipy():
    proc = _run_fresh(SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_sweep_loads_no_process_pool():
    proc = _run_fresh(SWEEP_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def _top_level_imports(path: Path) -> set[str]:
    """The top-level package of every absolute import in the module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_declares_and_imports_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"], deps

    allowed = set(sys.stdlib_module_names) | {"numpy", "petrace"}
    imported = {path.name: _top_level_imports(path)
                for path in sorted((SRC / "petrace").glob("*.py"))}
    assert "numpy" in imported["grid.py"]   # the scan sees imports at all
    outside = {name: sorted(mods - allowed) for name, mods in imported.items()
               if mods - allowed}
    assert not outside, outside


PACKAGE = sorted(p.stem for p in (SRC / "petrace").glob("*.py") if p.stem != "__init__")
# config keys that README names although they are gone
REMOVED_KEYS = {"solver.upwind", "solver.store_stride", "params.sigma", "solver.dt_floor"}


def _modules():
    """The package and every module of it, by the name README uses."""
    mods = {name: importlib.import_module(f"petrace.{name}") for name in PACKAGE}
    mods["petrace"] = importlib.import_module("petrace")
    return mods


def _dangling(text):
    """The backticked ``<module>.<name>`` tokens of text that name a petrace
    module but no attribute of it; CLI keys are not module paths."""
    from petrace.cli import REGISTRY

    mods = _modules()
    out = []
    for token in re.findall(r"`(\w+(?:\.\w+)+)`", text):
        head, *rest = token.split(".")
        if head not in mods or token in REGISTRY or token in REMOVED_KEYS:
            continue
        obj = mods[head]
        for name in rest:
            obj = getattr(obj, name, None)
        if obj is None:
            out.append(token)
    return out


def test_every_public_name_exists():
    missing = [f"{name}.{attr}" for name, mod in _modules().items()
               for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, missing


def test_readme_names_resolve():
    assert _dangling("`selfsim.no_such_name` and `trace._rk4`") == ["selfsim.no_such_name"]
    assert not _dangling((ROOT / "README.md").read_text())
