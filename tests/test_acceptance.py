"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 asserts the documented pointwise-exponent targets at
Z in {0, 0.25, 0.5}.  At desk scale the remainder of the velocity field
carries a 1/|log(T-t)| amplitude at every interior height, which
overwhelms (T-t)^Z for Z >= 0.25 at any reachable depth; the Z > 0
sub-assertions therefore fail and are expected to fail (see the
criterion-6 note in README.md, "Install and test", for the quantitative
argument).  They are asserted as stated rather than weakened.
"""
import json
import math
import time

import numpy as np
import pytest

from helpers import deep_params, deep_state
from petrace.diagnostics import (
    check_initial_closeness,
    check_trapped,
    energy_report,
    hardy_check,
    vanishing_exponent,
)
from petrace.fitting import estimate_T, fit_rates, temperature_rates
from petrace.grid import Field, Grid, antiderivative
from petrace.initial_data import InitialDataSpec, build_profile_data, redecompose
from petrace.params import (
    alpha0,
    alpha0_residual,
    fixed_diffusive_choice,
    reference_sigma0_params,
    reference_sigma1_params,
    validate_params,
)
from petrace.selfsim import (
    SelfsimConfig,
    decompose,
    phi,
    reconstruct,
    run_selfsim,
    s_from_lambda,
    stable_ds,
    step_selfsim,
)
from petrace.trace import SolverConfig, run_to_blowup, run_to_time

from helpers import balanced_state


def report(k, ok, detail):
    print(f"[criterion {k:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run6():
    """sigma=0 blow-up run: lambda0 = 1e-3, small temperature, n = 2049."""
    lam0 = 1e-3
    nu0 = 3.0 / (2.0 * math.log(1.0 / lam0))
    spec = InitialDataSpec(lambda0=lam0, nu0=nu0, sigma=0, kappa=1.0,
                           perturbation_family="tail_balance")
    state = build_profile_data(spec, 2049)
    t0 = time.time()
    traj = run_to_blowup(state, SolverConfig(dt_safety=0.5))
    elapsed = time.time() - t0
    T_hat = estimate_T(traj)
    fit = fit_rates(traj, T_hat)
    return {"traj": traj, "T_hat": T_hat, "fit": fit, "elapsed": elapsed, "lam0": lam0}


@pytest.fixture(scope="module")
def trapped_runs():
    out = {}
    for sigma in (0, 1):
        st = deep_state(sigma)
        p = deep_params(sigma)
        verdict = check_initial_closeness(st, p)
        traj = run_selfsim(st, SelfsimConfig(s_end=st.s + 5.0, stride=5, params=p))
        out[sigma] = {"state": st, "params": p, "closeness": verdict, "traj": traj}
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_alpha0_root():
    alpha0.cache_clear()
    t0 = time.perf_counter()
    root = alpha0()
    elapsed = time.perf_counter() - t0
    ok = abs(root - 1.88415) <= 5e-5 and abs(alpha0_residual(root)) <= 1e-10 and elapsed < 1e-3
    report(1, ok, f"alpha0 = {root:.7f}, |F| = {abs(alpha0_residual(root)):.2e}, "
                  f"runtime {elapsed*1e6:.0f} us")
    assert abs(root - 1.88415) <= 5e-5
    assert abs(alpha0_residual(root)) <= 1e-10
    assert elapsed < 1e-3


def test_criterion_02_parameter_validation():
    base0 = reference_sigma0_params()
    base1 = reference_sigma1_params()
    assert validate_params(base0).passed
    assert validate_params(base1).passed

    pushes0 = {"alpha": 1.85, "gamma": 2.6, "h_a": 2.0, "h_c": 1.2,
               "eps_a": 0.45, "eps_c": 1.0}
    pushes1 = {"alpha": 1.85, "eta0": 4.5, "k": 1.6, "h_a": 2.0,
               "l": 1.3, "eps_a": 0.45, "eps_c": 1.0}
    failures = []
    for field_name, bad in pushes0.items():
        v = validate_params(reference_sigma0_params(**{field_name: bad}))
        if len(v.failed_lines()) != 1:
            failures.append((0, field_name, v.failed_lines()))
    for field_name, bad in pushes1.items():
        v = validate_params(reference_sigma1_params(**{field_name: bad}))
        if len(v.failed_lines()) != 1:
            failures.append((1, field_name, v.failed_lines()))
    ok = not failures
    report(2, ok, f"reference tuples valid; {len(pushes0) + len(pushes1)} single-entry "
                  f"pushes each fail exactly one line" + ("" if ok else f"; exceptions {failures}"))
    assert ok, failures


def test_criterion_03_mean_conservation():
    lam0 = 0.05
    spec = InitialDataSpec(lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)),
                           sigma=0, kappa=0.3, perturbation_family="tail_balance")
    state = build_profile_data(spec, 1025)
    traj = run_to_time(state, SolverConfig(dt_safety=0.5), 0.02)
    drift = float(np.max(np.abs(traj.drift_rate)))
    ok = drift <= 1e-6
    report(3, ok, f"pre-projection drift of int(a) per unit time <= {drift:.2e} "
                  f"over {len(traj.t)} steps (bound 1e-6)")
    assert ok


def test_criterion_04_profile_identity():
    g = Grid(0.0, 20.0, 4097)
    z = g.nodes
    P = antiderivative(Field(g, phi(z)))
    resid = float(np.max(np.abs(P.values * (-phi(z)) - phi(z) ** 2 + phi(z))))
    ok = resid <= 1e-10
    report(4, ok, f"max residual of the profile antiderivative identity = {resid:.2e}")
    assert ok


def test_criterion_05_hardy_suite():
    rng = np.random.default_rng(7)
    g = Grid(0.0, 1.0, 2049)
    x = g.nodes
    worst = 0.0
    for _ in range(200):
        k = float(rng.choice([0.5, 1.0, 1.5, 3.0]))
        a = float(rng.uniform(0.4, 1.0))
        m = 3 if k == 3.0 else 2  # k = 3 needs faster vanishing at 0
        c = rng.uniform(-1.0, 1.0, 3)
        f = np.where(x <= a, x**m * (a - x) * (1.0 + c[0] * x + c[1] * x**2 + c[2] * x**3), 0.0)
        lhs, rhs = hardy_check(Field(g, f), k)
        assert lhs <= rhs * (1.0 + 1e-6)
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)
    report(5, True, f"200 randomized test functions, worst lhs/rhs = {worst:.4f}")


def test_criterion_06_blowup_rates(run6):
    fit = run6["fit"]
    failures = []
    if abs(fit.rate_a - (-1.0)) > 0.05:
        failures.append(f"rate_a = {fit.rate_a:.4f} outside -1 +/- 0.05")
    for Z, expo in fit.pointwise:
        target = -1.0 + Z
        if abs(expo - target) > 0.1:
            failures.append(f"pointwise Z={Z:g}: {expo:.3f} outside {target:g} +/- 0.1")
    if run6["elapsed"] > 120.0:
        failures.append(f"runtime {run6['elapsed']:.0f}s exceeds 2 minutes")
    detail = (f"rate_a = {fit.rate_a:.4f}; pointwise "
              + ", ".join(f"Z={z:g}: {e:.3f}" for z, e in fit.pointwise)
              + f"; runtime {run6['elapsed']:.1f}s")
    ok = not failures
    report(6, ok, detail + ("" if ok else f" | {'; '.join(failures)}"))
    # The Z > 0 pointwise targets are unattainable at desk scale (the
    # remainder ~ 1/|log(T-t)| dominates (T-t)^Z there); asserted as stated.
    assert ok, failures


def test_criterion_07_nu_scale_fit(run6):
    slope = run6["fit"].nu_slope
    ok = abs(slope - 1.0) <= 0.2
    report(7, ok, f"1/nu vs |log(T_hat - t)| regression coefficient = {slope:.4f}")
    assert ok


def test_criterion_08_frame_consistency():
    lam0 = 1e-2
    spec = InitialDataSpec(lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)),
                           sigma=0, kappa=0.5, perturbation_family="tail_balance")
    n = 2049
    state = build_profile_data(spec, n)
    ss = decompose(state.a, state.c, 0, s_from_lambda(1.0 / state.a.values[0]))

    target = 10.0 * state.a.max_abs()
    checkpoints = []
    cur = ss
    while 1.0 / cur.lam < target:
        cur = step_selfsim(cur, stable_ds(cur))
        if not checkpoints or cur.t > 1.6 * checkpoints[-1].t:
            checkpoints.append(cur)
    if checkpoints[-1] is not cur:
        checkpoints.append(cur)

    # one physical pass: each checkpoint continues from the previous one
    worst = 0.0
    ph = state
    for sk in checkpoints:
        ph = run_to_time(ph, SolverConfig(dt_safety=0.4), sk.t).final_state
        ar, _ = reconstruct(sk)
        rel = float(np.max(np.abs(ar.values - ph.a.values)) / np.max(np.abs(ph.a.values)))
        worst = max(worst, rel)
    growth = (1.0 / cur.lam) / state.a.max_abs()
    ok = worst <= 1e-3 and growth >= 10.0
    report(8, ok, f"relative L_inf <= {worst:.2e} across {len(checkpoints)} checkpoints "
                  f"while max|a| grew {growth:.1f}x")
    assert worst <= 1e-3
    assert growth >= 10.0


def test_criterion_09_trappedness_persistence(trapped_runs):
    details = []
    ok = True
    for sigma in (0, 1):
        r = trapped_runs[sigma]
        close_ok = r["closeness"].passed
        trapped_ok = bool(np.all(r["traj"].trapped == 1.0))
        ok = ok and close_ok and trapped_ok
        details.append(f"sigma={sigma}: closeness {'pass' if close_ok else 'FAIL'}, "
                       f"{len(r['traj'].s)} samples on [s0, s0+5] "
                       f"{'all trapped' if trapped_ok else 'NOT all trapped'}")
    report(9, ok, "; ".join(details))
    for sigma in (0, 1):
        assert trapped_runs[sigma]["closeness"].passed
        assert np.all(trapped_runs[sigma]["traj"].trapped == 1.0)


def test_criterion_10_temperature_decay(run6, trapped_runs):
    # sigma = 0: rescaled sup norm against (T_hat - t) on the blow-up run
    rep0 = temperature_rates(run6["traj"], run6["T_hat"], 0,
                             params=reference_sigma0_params())
    # sigma = 1: weighted-norm log-slope in s for the fixed tuple at alpha = 2
    p1 = fixed_diffusive_choice(2.0)
    st1 = balanced_state(s0=12.0, n=1025, sigma=1, c_amp=1e-3)
    traj1 = run_selfsim(st1, SelfsimConfig(s_end=st1.s + 5.0, stride=5, params=p1))
    rep1 = temperature_rates(traj1, None, 1, params=p1)
    ok = bool(rep0.passed and rep1.passed)
    report(10, ok, f"sigma=0 exponent {rep0.measured:.3f} >= {rep0.bound:.3f}; "
                   f"sigma=1 log-slope {rep1.measured:.3f} <= {rep1.bound:.4f} "
                   f"(template p={rep1.template_p:.3f}, xi={rep1.template_xi:.2f})")
    assert rep0.passed
    assert rep1.passed


def test_criterion_11_modulation_asymptotics(run6):
    traj = run6["traj"]
    lam = traj.lam
    t = traj.t
    lam_t = np.gradient(lam, t)
    s = np.empty_like(t)
    s[0] = s_from_lambda(lam[0])
    s[1:] = s[0] + np.cumsum(0.5 * (1.0 / lam[1:] + 1.0 / lam[:-1]) * np.diff(t))
    window = slice(int(0.05 * len(t)), -5)
    C = float(np.max(np.abs(lam_t[window] + 1.0) * s[window]))
    ok = C <= 10.0
    report(11, ok, f"fitted constant sup |lam_s/lam + 1| * s = {C:.2f} (bound 10)")
    assert ok


def test_criterion_12_redecomposition_sweep():
    rng = np.random.default_rng(99)
    n = 8193
    g = Grid(0.0, 1.0, n)
    Z = g.nodes
    zero = Field(g, np.zeros(n))
    worst = 0.0
    for _ in range(30):
        lam_t = 10.0 ** rng.uniform(-6, -2)
        nu_t = rng.uniform(1.0, 2.9) / (2.0 * math.log(1.0 / lam_t))
        amp = rng.uniform(-0.4, 0.4) / lam_t
        atil0 = amp * np.cos(rng.uniform(1.0, 4.0) * Z)
        a = Field(g, np.exp(-Z / nu_t) / lam_t + atil0)
        lam_bar, nu_bar = redecompose(lam_t, nu_t, atil0[0])
        st = decompose(a, zero, 0, s0=5.0)
        worst = max(worst, abs(st.lam - lam_bar) / lam_bar, abs(st.nu - nu_bar) / nu_bar)
    ok = worst <= 1e-8
    report(12, ok, f"30-draw sweep, worst relative deviation = {worst:.2e} (bound 1e-8)")
    assert ok
