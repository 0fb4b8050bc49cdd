#!/usr/bin/env python3
"""One flow, two frames.

The physical-frame solver on Z in [0, 1] and the rescaled-frame solver on
the growing domain [0, 1/nu] integrate the same dynamics; mapping the
rescaled clock back through dt = lam ds must land on the same fields.
"""
import math

import numpy as np

from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import decompose, reconstruct, s_from_lambda, stable_ds, step_selfsim
from petrace.trace import SolverConfig, run_to_time

lam0 = 1e-2
spec = InitialDataSpec(lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)),
                       sigma=0, kappa=0.5, perturbation_family="tail_balance")
n = 1025
state = build_profile_data(spec, n)
ss = decompose(state.a, state.c, 0, s_from_lambda(1.0 / state.a.values[0]))
print(f"decomposed: lam = {ss.lam:.5g}, nu = {ss.nu:.5g}, s0 = {ss.s:.3f}")

target = 10.0 * state.a.max_abs()
checkpoints = []
cur = ss
while 1.0 / cur.lam < target:
    cur = step_selfsim(cur, stable_ds(cur))
    if not checkpoints or cur.t > 2.2 * checkpoints[-1].t:
        checkpoints.append(cur)
checkpoints.append(cur)

print(f"\n{'t':>12} {'s':>7} {'max|a|':>10} {'rel L_inf(a)':>13}")
for sk in checkpoints:
    traj = run_to_time(state, SolverConfig(n=n, dt_safety=0.4), sk.t)
    ph = traj.final_state
    ar, _ = reconstruct(sk)
    rel = np.max(np.abs(ar.values - ph.a.values)) / np.max(np.abs(ph.a.values))
    print(f"{sk.t:12.6g} {sk.s:7.3f} {np.max(np.abs(ph.a.values)):10.4g} {rel:13.3e}")
print("\nthe rescaled nodes are the physical ones, so both frames sample the same "
      "points and differ only by their time steppers while the amplitude grows tenfold.")
