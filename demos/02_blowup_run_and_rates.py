#!/usr/bin/env python3
"""Blow-up of the velocity trace and its measured rates.

Starting from profile-adapted data with amplitude 1/lambda0, the velocity
trace a(t, Z) steepens at Z = 0 and max|a| reaches the blow-up cap in
finite time.  The inverse amplitude is asymptotically affine in t, which
gives the blow-up time estimate; log-log regressions then give the rate of
max|a|, the reciprocal-width scale fit, and the temperature decay.

Writes trajectory.csv next to this script for external plotting.
"""
import math
import pathlib
import time

import numpy as np

from petrace.fitting import estimate_T, fit_rates, temperature_rates
from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.params import reference_sigma0_params
from petrace.trace import SolverConfig, run_to_blowup

lam0 = 1e-3
nu0 = 3.0 / (2.0 * math.log(1.0 / lam0))
spec = InitialDataSpec(lambda0=lam0, nu0=nu0, sigma=0, kappa=1.0,
                       perturbation_family="tail_balance")
state = build_profile_data(spec, 1025)
print(f"initial data: max|a| = {state.a.max_abs():.4g}, max|c| = {state.c.max_abs():.4g}")

t0 = time.time()
traj = run_to_blowup(state, SolverConfig())
print(f"run: {len(traj.t)} steps in {time.time() - t0:.1f}s, "
      f"stop reason {traj.reason!r}, max|a| grew to {traj.max_a[-1]:.3g}\n")

T_hat = estimate_T(traj)
fit = fit_rates(traj, T_hat)
print(f"estimated blow-up time T = {T_hat:.8g}  (last sample t = {traj.t[-1]:.8g})")
print(f"rate of max|a| vs (T - t):      {fit.rate_a:+.4f}   (affine-amplitude law: -1)")
print(f"1/nu vs |log(T - t)| slope:     {fit.nu_slope:+.4f}   (width law: 1)")
print("pointwise log-log exponents of a(t, Z):")
for Z, expo in fit.pointwise:
    note = "" if Z == 0 else "  <- interior heights are remainder-dominated"
    print(f"    Z = {Z:<5g} {expo:+.4f}{note}")

rep = temperature_rates(traj, T_hat, 0, params=reference_sigma0_params())
print(f"\nrescaled temperature max|c|/a(0) decays like (T - t)^{rep.measured:.3f} "
      f"(one-sided bound {rep.bound:.3f}: {'ok' if rep.passed else 'violated'})")

out = pathlib.Path(__file__).with_name("trajectory.csv")
traj.to_csv(out)
print(f"\nwrote {out}")
