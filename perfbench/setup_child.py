"""One set-up measurement: import ``ratio_convexity.cli``, run the first op.

Run in a fresh interpreter by ``run.py``; the argument is a JSON op spec
written by the workload.  Prints, as its last line, the seconds from
interpreter start-up of this script to the end of the op and then the median
seconds of the calibration loop run right after it (see calibrate.py).
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


#: calibration-loop runs after the op; their median gives the machine's speed
CALIBRATION_SAMPLES = 9


def main(spec_path):
    import program

    program.load()
    from ratio_convexity import cli, normtest

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec["kind"] == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(spec["argv"])
        if code != 0:
            print(f"first op exited with code {code}", file=sys.stderr)
            return 1
    else:
        import numpy as np

        sample = np.loadtxt(spec["csv"], delimiter=",", skiprows=1, ndmin=2)
        normtest.violation_statistic(normtest.kde_log_density(normtest.Sample(sample)))
    setup_s = time.perf_counter() - _START

    import statistics

    import calibrate

    calibrate.warm_up(2)
    speed = statistics.median(calibrate.sample()[1] for _ in range(CALIBRATION_SAMPLES))
    print(f"{setup_s!r} {speed!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
