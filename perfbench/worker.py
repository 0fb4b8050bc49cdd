"""One workload sample in a fresh process; run.py starts one per sample.

Usage: worker.py SRC WORKLOAD SEED MODE TMP

MODE is ``plain`` (one iteration), ``traced`` (one iteration under the
tracer) or ``setup`` (set-up only, a further ``setup_s`` sample).

Imports petrace from SRC (and refuses any other copy), builds the inputs,
runs the iteration and prints one JSON object as its last line: ``ready``
(CLOCK_MONOTONIC when set-up ended), ``state_s`` and, unless MODE is
``setup``, ``wall_s``, ``cpu_s``, ``rss_mb``, ``problems``,
``fingerprint``, ``max_rel_dev`` and, when traced, ``layers``.
"""
import json
import resource
import sys
import time
import traceback

from machine import import_petrace

MODES = ("plain", "traced", "setup")


def main(src, workload, seed, mode, tmp):
    petrace = import_petrace(src)
    import tracer as tracing
    from workloads import WORKLOADS

    setup, run = WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install(petrace)

    t0 = time.perf_counter()
    inputs = setup(seed, tmp)
    result = {"state_s": time.perf_counter() - t0, "ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(result, allow_nan=False))
        return

    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        outcome = tracer.root(run, inputs) if tracer else run(inputs)
        problems = outcome.problems
    except Exception:
        outcome = None
        problems = [traceback.format_exc(limit=-3)]
    result["wall_s"] = time.perf_counter() - w0
    result["cpu_s"] = time.process_time() - c0

    result.update(
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        problems=problems,
        fingerprint=outcome.fingerprint if outcome else {},
        max_rel_dev=outcome.max_rel_dev if outcome else 0.0,
    )
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    src, workload, seed, mode, tmp = sys.argv[1:6]
    if mode not in MODES:
        sys.exit(f"MODE must be one of {', '.join(MODES)}, not {mode!r}")
    main(src, workload, int(seed), mode, tmp)
