"""Machine record printed with every benchmark result.

Usage: machine.py SRC   (prints the record as one JSON line)

Thread settings are recorded as found in the environment and never
overridden: pinning OpenBLAS to one thread, for one, changes how fast the
threaded sweep runs, so a result means little without them.
"""
import json
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_petrace(src):
    """Import petrace from the source tree SRC and from nowhere else."""
    sys.path.insert(0, str(src))
    import petrace

    if Path(petrace.__file__).resolve().parent != (Path(src) / "petrace").resolve():
        raise ImportError(f"petrace imported from {petrace.__file__}, not from {src}")
    return petrace


def record(src):
    petrace = import_petrace(src)
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "petrace": petrace.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


if __name__ == "__main__":
    print(json.dumps(record(sys.argv[1])))
