"""Accuracy/cost frontier of the blowup_s0 run (ungated, run by hand).

Usage (from the repository root):  python3 perfbench/frontier.py

Runs the blowup_s0 inputs (seed 0) once for every n in NS and dt_safety in
DT_SAFETIES, in this one process, and records per configuration the steps,
the wall time of run_to_blowup + estimate_T + fit_rates, the fingerprint
(T_hat, rate_a, nu_slope, pointwise exponents) and its largest relative
deviation from the blowup_s0 reference (n=2049, dt_safety=0.5).  Writes
frontier.json next to this file, with the machine record.
"""
import json
import time
from pathlib import Path

from machine import import_petrace, record

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NS = (513, 1025, 2049)
DT_SAFETIES = (0.25, 0.5, 1.0)


def main():
    import_petrace(SRC)
    from petrace import fitting, initial_data, trace
    from workloads import BLOWUP_REF, blowup_spec

    rows = []
    for n in NS:
        for dt_safety in DT_SAFETIES:
            state = initial_data.build_profile_data(blowup_spec(0), n)
            t0 = time.perf_counter()
            traj = trace.run_to_blowup(state, trace.SolverConfig(n=n, dt_safety=dt_safety))
            T_hat = fitting.estimate_T(traj)
            fit = fitting.fit_rates(traj, T_hat)
            wall_s = time.perf_counter() - t0
            fp = {"T_hat": T_hat, "rate_a": fit.rate_a, "nu_slope": fit.nu_slope}
            dev = max(abs(fp[k] - BLOWUP_REF[k]) / abs(BLOWUP_REF[k]) for k in fp)
            rows.append({"n": n, "dt_safety": dt_safety, "steps": len(traj.t) - 1,
                         "wall_s": wall_s, **fp,
                         "pointwise": [[z, e] for z, e in fit.pointwise],
                         "max_rel_dev": dev})
            print(f"n {n:5d} dt_safety {dt_safety:4.2f}: {rows[-1]['steps']:6d} steps "
                  f"{wall_s:7.3f} s  T_hat {T_hat:.10g}  rate_a {fit.rate_a:.6f}  "
                  f"nu_slope {fit.nu_slope:.6f}  max_rel_dev {dev:.2e}", flush=True)
    report = {"machine": record(SRC), "reference": BLOWUP_REF, "runs": rows}
    (HERE / "frontier.json").write_text(json.dumps(report, indent=1, allow_nan=False) + "\n")


if __name__ == "__main__":
    main()
