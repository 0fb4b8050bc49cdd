"""The three benchmark workloads, their inputs and their correctness gate.

Each workload has a ``setup(seed, tmp)`` that builds the initial state (the
part counted in ``setup_s``) and a ``run(inputs)`` that does one iteration,
from first step to checked result, and returns an ``Outcome``.

The seed moves one input by at most ``JITTER`` relative: the perturbation
amplitude kappa for the physical runs, the temperature amplitude c_amp for
the trapped runs.  Seed 0 leaves it unchanged and reproduces the reference
configurations below exactly.  The jitter is far below what changes a step
count, so every seed does the same work and the fingerprint stays within
``FP_RTOL`` of its reference; measured deviations across seeds are at most
about 5e-7 relative (the final max|a| of a sweep sub-run).

Calls go through module attributes (``trace.run_to_blowup``, not a name
imported here) so that a tracer installed on the modules sees them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from petrace import cli, diagnostics, fitting, initial_data, selfsim, trace
from petrace.grid import Field, Grid, integral
from petrace.params import FrameworkParams

JITTER = 1e-4
# Relative tolerance of the fingerprint's real-valued entries; integer
# entries (step and sample counts) must match exactly.  Seeds and
# round-off-level kernel changes stay below 1e-5; a broken kernel does not.
FP_RTOL = 1e-5
RATE_TOL = 0.05

@dataclass
class Outcome:
    fingerprint: dict
    problems: list = field(default_factory=list)
    max_rel_dev: float = 0.0


def jitter(seed: int) -> float:
    """Relative input perturbation in [-JITTER, JITTER]; 0 for seed 0."""
    return 0.0 if seed == 0 else JITTER * random.Random(seed).uniform(-1.0, 1.0)


def _compare(fp, reference, out: Outcome):
    for key, ref in reference.items():
        got = fp[key]
        if isinstance(ref, int):
            if got != ref:
                out.problems.append(f"{key} = {got}, reference {ref}")
            continue
        rel = abs(got - ref) / abs(ref)
        out.max_rel_dev = max(out.max_rel_dev, rel)
        if not rel <= FP_RTOL:
            out.problems.append(f"{key} = {got!r} is {rel:.2e} from reference {ref!r}")


# ---------------------------------------------------------------------------
# blowup_s0: the criterion-6 physical-frame run
# ---------------------------------------------------------------------------

BLOWUP_LAMBDA0 = 1e-3
BLOWUP_N = 2049
BLOWUP_REF = {"steps": 4553, "T_hat": 0.0012548642044589407,
              "rate_a": -1.013915085739042, "nu_slope": 1.138863043940092}


def blowup_spec(seed):
    return initial_data.InitialDataSpec(
        lambda0=BLOWUP_LAMBDA0, nu0=3.0 / (2.0 * math.log(1.0 / BLOWUP_LAMBDA0)), sigma=0,
        kappa=1.0 + jitter(seed), perturbation_family="tail_balance")


def blowup_setup(seed, tmp):
    return initial_data.build_profile_data(blowup_spec(seed), BLOWUP_N)


def blowup_run(state):
    traj = trace.run_to_blowup(state, trace.SolverConfig(n=BLOWUP_N, dt_safety=0.5))
    fp = {"steps": len(traj.t) - 1}
    out = Outcome(fp)
    if traj.reason != "blowup":
        out.problems.append(f"stop reason {traj.reason!r}, expected 'blowup'")
        return out
    T_hat = fitting.estimate_T(traj)
    fit = fitting.fit_rates(traj, T_hat)
    fp.update(T_hat=T_hat, rate_a=fit.rate_a, nu_slope=fit.nu_slope)
    if not abs(fit.rate_a + 1.0) <= RATE_TOL:
        out.problems.append(f"rate_a = {fit.rate_a:.4f} outside -1 +/- {RATE_TOL}")
    _compare(fp, BLOWUP_REF, out)
    return out


# ---------------------------------------------------------------------------
# rescaled_trapped: deep trapped states in the rescaled frame
# ---------------------------------------------------------------------------

DEEP_S0 = 35.0
DEEP_N = 1537
DEEP_SPAN = 10.0
DEEP_STRIDE = 5
DEEP_C_AMP = {0: 5e-6, 1: 1e-5}
DEEP_REF = {
    "samples_sigma0": 188, "lam_sigma0": 1.1635696948980783e-18,
    "nu_sigma0": 0.013691129735000421,
    "samples_sigma1": 188, "lam_sigma1": 1.163569514117192e-18,
    "nu_sigma1": 0.013691131862156196,
}


def deep_params(sigma: int) -> FrameworkParams:
    if sigma == 0:
        return FrameworkParams(sigma=0, alpha=2.0, gamma=2.0, h_a=1.1, h_c=0.5,
                               eps_a=0.6, eps_c=0.75)
    return FrameworkParams(sigma=1, alpha=2.0, eta0=4, k=1.5, h_a=1.1, l=0.625,
                           eps_a=23.0 / 32.0, eps_c=15.0 / 16.0)


def deep_state(sigma: int, c_amp: float) -> selfsim.SelfSimilarState:
    """Profile-adapted state at s0 = 35 with the zero-average condition met
    exactly: the tail bump psi carries the balancing mass.  The temperature
    perturbation c_amp z^2 exp(-z) is ramp-corrected to the sigma=1
    boundary conditions."""
    lam0 = DEEP_S0 * math.exp(-DEEP_S0)
    nu0 = 1.0 / (2.0 * math.log(1.0 / lam0))
    g = Grid(0.0, 1.0 / nu0, DEEP_N)
    z = g.nodes
    ps = selfsim.psi(z)
    m = integral(Field(g, selfsim.phi(z))) / integral(Field(g, ps))
    ct = c_amp * z**2 * np.exp(-z)
    if sigma == 1:
        ct = ct - (z / z[-1]) * ct[-1]
        ct[-1] = 0.0
    return selfsim.build_state(Field(g, -m * ps), Field(g, ct), lam0, nu0, DEEP_S0, sigma)


def trapped_setup(seed, tmp):
    runs = []
    for sigma in (0, 1):
        st = deep_state(sigma, DEEP_C_AMP[sigma] * (1.0 + jitter(seed)))
        p = deep_params(sigma)
        runs.append((st, p, diagnostics.check_initial_closeness(st, p)))
    return runs


def trapped_run(runs):
    fp = {}
    out = Outcome(fp)
    for st, p, closeness in runs:
        sigma = st.sigma
        if not closeness.passed:
            out.problems.append(f"sigma={sigma}: initial closeness failed")
        traj = selfsim.run_selfsim(
            st, selfsim.SelfsimConfig(s_end=st.s + DEEP_SPAN, stride=DEEP_STRIDE, params=p))
        if not np.all(traj.trapped == 1.0):
            out.problems.append(f"sigma={sigma}: "
                                f"{int(np.sum(traj.trapped != 1.0))} samples not trapped")
        fp[f"samples_sigma{sigma}"] = len(traj.s)
        fp[f"lam_sigma{sigma}"] = float(traj.lam[-1])
        fp[f"nu_sigma{sigma}"] = float(traj.nu[-1])
    _compare(fp, DEEP_REF, out)
    return out


# ---------------------------------------------------------------------------
# cli_sweep: the batch front end sweeping sigma
# ---------------------------------------------------------------------------

SWEEP_VALUES = (0, 1)
SWEEP_N = 2049
SWEEP_LAMBDA0 = 1e-3
SWEEP_REF = {
    "steps_sweep0": 2551, "max_a_sweep0": 1006425916.1306695,
    "steps_sweep1": 2551, "max_a_sweep1": 1006425922.6380278,
}


def sweep_setup(seed, tmp):
    kappa = 1.0 + jitter(seed)
    lam0 = SWEEP_LAMBDA0
    # the CLI builds these states again inside the iteration; building them
    # here makes set-up the same construction the other workloads time
    for sigma in SWEEP_VALUES:
        spec = initial_data.InitialDataSpec(
            lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)), sigma=sigma,
            kappa=kappa, perturbation_family="tail_balance")
        initial_data.build_profile_data(spec, SWEEP_N)
    outdir = Path(tmp) / "sweep"
    argv = ["sweep", "--out", str(outdir), "--quiet"]
    for key, value in (("sweep.param", "init.sigma"),
                       ("sweep.values", ",".join(map(str, SWEEP_VALUES))),
                       ("init.lambda0", repr(lam0)), ("init.family", "tail_balance"),
                       ("init.kappa", repr(kappa)), ("init.n", str(SWEEP_N)),
                       ("solver.n", str(SWEEP_N))):
        argv += ["--set", f"{key}={value}"]
    return argv, outdir


def sweep_run(inputs):
    argv, outdir = inputs
    code = cli.main(argv)
    fp = {}
    out = Outcome(fp)
    if code != 0:
        out.problems.append(f"exit code {code}")
        return out
    for idx in range(len(SWEEP_VALUES)):
        sub = outdir / f"sweep_{idx:03d}"
        missing = [f for f in ("trajectory.csv", "resolved.config") if not (sub / f).is_file()]
        if missing:
            out.problems.append(f"{sub.name}: missing {', '.join(missing)}")
            return out
        rows = np.loadtxt(sub / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        max_a = rows[:, 1]
        # run_to_blowup's default cap is 1e6 * max|a0|; reaching it is the
        # only way a trajectory ends with max|a| that large
        if not max_a[-1] >= 1e6 * max_a[0]:
            out.problems.append(f"{sub.name}: max|a| grew only {max_a[-1] / max_a[0]:.3g}x")
        fp[f"steps_sweep{idx}"] = len(rows) - 1
        fp[f"max_a_sweep{idx}"] = float(max_a[-1])
    _compare(fp, SWEEP_REF, out)
    return out


WORKLOADS = {
    "blowup_s0": (blowup_setup, blowup_run),
    "rescaled_trapped": (trapped_setup, trapped_run),
    "cli_sweep": (sweep_setup, sweep_run),
}
