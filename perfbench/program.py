"""Load the package under test from this checkout's ``src/`` and nowhere else.

The benchmark compares two checkouts as two programs, so an installed copy
of ``ratio_convexity`` on the default path must never stand in for the one
next to the benchmark.
"""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the package's own worker-count variable, removed so the bootstrap runs serially
THREAD_VARIABLE = "RATIO_CONVEXITY_THREADS"
_RECORDED_ENV = (THREAD_VARIABLE, "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "RATIO_CONVEXITY_BACKEND")


def child_env():
    """Environment for a fresh interpreter that must load the same program."""
    env = dict(os.environ)
    env.pop(THREAD_VARIABLE, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def load():
    """Import ``ratio_convexity`` from ``ROOT/src``; raise ImportError otherwise."""
    os.environ.pop(THREAD_VARIABLE, None)
    sys.path.insert(0, str(SRC))
    import ratio_convexity

    origin = Path(ratio_convexity.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(
            f"ratio_convexity was imported from {origin}, not from {SRC}")
    return ratio_convexity


def provenance(seed):
    """Versions, kernel backend, cores, seed and thread settings of a run."""
    import numpy
    import scipy

    from ratio_convexity import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "thread_env": {name: os.environ.get(name) for name in _RECORDED_ENV},
    }
