"""petrace benchmark: end-to-end metrics per workload, or the per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload blowup_s0 --seed 1 --seconds 42 --trace 0

Workloads (see workloads.py for the exact inputs):

- ``blowup_s0``: the criterion-6 physical blow-up run, 4553 steps.  The grid
  kernels work hardest here (``cumulative`` is about half the time) and no
  spline, diffusion or thread pool runs, so it is the control for changes
  to the rescaled frame and to the sweep.
- ``rescaled_trapped``: the deep trapped states for sigma=0 and sigma=1,
  s 35 -> 45 with energies and the trapped verdict at every fifth step,
  about 1860 steps.  Spline re-orthogonalization (two ``CubicSpline``
  builds a step), rescaled-frame Crank-Nicolson diffusion and the
  diagnostics run here.  The span is s0+10 because s0+5 runs too briefly
  to time steadily.
- ``cli_sweep``: ``petrace sweep`` over init.sigma=0,1 at n=2049, two
  sub-runs of 2551 steps writing trajectory.csv and resolved.config.  It
  exercises the CLI's thread pool and output writers, physical-frame
  diffusion, and the trace and grid kernels under 2-thread contention.  Two
  values keep the pool at 2 threads.

Each sample is one iteration in a fresh process (worker.py), started one
after another until ``--seconds`` are used; a sample is not started when
the median sample so far would overrun.  With ``--trace 0`` the time left
over is filled with set-up-only samples, and the metrics are medians over
the samples:

- ``wall_s``: wall time of one iteration, first step to checked result;
- ``setup_s``: from process start to the initial state being built, so
  interpreter start, ``import petrace`` and the state construction, over
  the iterations and the set-up-only samples;
- ``peak_rss_mb``: peak resident memory of the sample process.

``cpu_s`` (process CPU seconds of one iteration, all threads) is printed
but not gated: on ``cli_sweep`` how much the two sweep threads overlap
depends on how busy the host is, and its run-to-run spread is too wide for
any bound.  The traced run reports it as ``process.cpu_s``.

Every iteration is checked (workloads.py); a failed check, exception, crash
or time-out counts in ``failed``, and ``fail_frac`` = failed / attempted is
printed with the metrics.  A set-up-only sample is an operation too.

With ``--trace 1`` the samples alternate untraced and traced, and the
metrics are the per-layer ones of tracer.py, as medians over the traced
samples, plus, from the untraced samples, ``process.cpu_s`` and
``process.cpu_util`` (CPU over wall time), and ``trace_overhead`` (traced
``wall_s`` over untraced, minus 1), ``fp.max_rel_dev`` (the largest
relative fingerprint deviation from the reference) and ``setup.state_s``
(the state construction alone).  Self shares are self time over the
iteration's wall time; in ``cli_sweep`` two threads add their time, so a
share can exceed 1.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without a petrace source tree
next to this directory the benchmark exits with code 2 and no result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SPEC = ROOT / "BENCHMARK.json"
DEADLINE_S = 170.0     # every sample ends by then, whatever --seconds says


def sample(workload, seed, mode, index, deadline):
    """Run one worker process and return its record; a record with
    problems is a failed operation."""
    tmp = TMP / f"{os.getpid()}-{index}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), workload, str(seed), mode,
           str(tmp)]
    rec = {"mode": mode, "problems": []}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc = None
        rec["problems"] = ["timed out"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rec["duration"] = time.monotonic() - start
    if proc is not None:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            rec["problems"] = ([f"exit code {proc.returncode}"]
                               + proc.stderr.strip().splitlines()[-3:])
        else:
            rec.update(json.loads(lines[-1]))
            rec["setup_s"] = rec["ready"] - start
    print(f"  {mode:6s} sample {index + 1}: "
          + "".join(f"{key} {rec[key]:.4f} {unit}, " for key, unit in
                    (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("rss_mb", "MB"))
                    if key in rec)
          + ("ok" if not rec["problems"] else "FAILED: " + " | ".join(rec["problems"])),
          flush=True)
    return rec


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "petrace" / "__init__.py").is_file():
        print(f"error: no petrace source tree at {SRC}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    # also the warm-up: byte-compiles petrace and fills the file cache
    probe = subprocess.run([sys.executable, str(HERE / "machine.py"), str(SRC)],
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        print(f"error: cannot import petrace from {SRC}:\n{probe.stderr}", file=sys.stderr)
        return 2
    print("machine", probe.stdout.strip())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    records = []
    while True:
        mode = "traced" if args.trace and len(records) % 2 == 1 else "plain"
        records.append(sample(args.workload, args.seed, mode, len(records), deadline))
        typical = median([r["duration"] for r in records])
        ends = time.monotonic() + typical
        if ends > deadline or (ends > t0 + args.seconds
                               and not (args.trace and len(records) < 2)):
            break
    if not args.trace:
        # set-up-only samples fill what is left of --seconds
        typical = median([r["setup_s"] for r in records if "setup_s" in r])
        while time.monotonic() + typical <= t0 + args.seconds:
            rec = sample(args.workload, args.seed, "setup", len(records), deadline)
            records.append(rec)
            typical = median([r["duration"] for r in records if r["mode"] == "setup"])

    try:
        TMP.rmdir()     # only once empty: another run may still be using it
    except OSError:
        pass
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    good = [r for r in records if not r["problems"]]
    plain = [r for r in good if r["mode"] == "plain"]
    traced = [r for r in good if r["mode"] == "traced"]
    if plain:
        print("fingerprint", json.dumps(plain[0]["fingerprint"]))

    max_rel_dev = max((r.get("max_rel_dev", 0.0) for r in good), default=0.0)
    if args.trace:
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name in (traced[0]["layers"] if traced else ())}
        metrics["process.cpu_s"] = median([r["cpu_s"] for r in plain])
        metrics["process.cpu_util"] = median([r["cpu_s"] / r["wall_s"] for r in plain])
        metrics["setup.state_s"] = median([r["state_s"] for r in traced])
        metrics["fp.max_rel_dev"] = max_rel_dev
        metrics["trace_overhead"] = (
            median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]) - 1.0
            if traced and plain else 0.0)
        samples = f"{len(traced)} traced and {len(plain)} untraced samples"
    else:
        setups = [r["setup_s"] for r in good]
        metrics = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["rss_mb"] for r in plain]),
        }
        samples = f"{len(plain)} samples, setup_s over {len(setups)}"
        print(f"cpu_s {median([r['cpu_s'] for r in plain]):.6g} s (not gated)")
        print(f"fp.max_rel_dev {max_rel_dev:.3g}")
    result = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        value = metrics.get(name, 0.0) if failed else metrics[name]
        result[name] = {"value": value, "unit": m["unit"]}
        print(f"{name} {value:.6g} {m['unit']}")
    print(f"fail_frac {failed / attempted:g} ({failed} of {attempted} operations failed; "
          f"medians over {samples})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
