"""Machine-speed correction against a fixed calibration loop.

The benchmark runs on a few cores of a shared host whose speed moves in
phases of seconds: the same op can take 1.5 times as long a minute later,
in process CPU time as well as in wall time.  So the timed loop runs a fixed
calibration loop, part interpreter, numpy, JSON and page faults like the ops,
every ``INTERVAL_S`` seconds, and scales every op's time by how fast the
calibration loop ran around it::

    corrected = measured * NOMINAL_S / median(calibration times nearest the op)

Reported times are therefore seconds on a machine where the calibration loop
takes ``NOMINAL_S``.  The loop is benchmark code, not program code, so a
change to the program moves the corrected times exactly as it moves the raw
ones; only the host's drift divides out.
"""

import json
import mmap
import time

import numpy as np

#: calibration-loop seconds on the nominal machine that times are scaled to
NOMINAL_S = 0.007
#: seconds between calibration samples in a timed loop
INTERVAL_S = 0.15
#: calibration samples whose median gives the speed around one op
NEIGHBOURS = 5

#: 4 MB, larger than the ops' working sets, so the loop also feels memory contention
_ARRAY = np.linspace(-4.0, 4.0, 500_000)
#: written in place, so that the loop's speed does not depend on the allocator
_BUFFER = np.empty_like(_ARRAY)
#: a report-like document for the JSON round trip, as the CLI ops make
_DOCUMENT = {"rows": [{"x": i * 0.5, "y": [i, i + 1], "name": f"r{i}"} for i in range(300)]}
#: fresh memory mapped and touched per sample: the page faults that the ops'
#: large temporary arrays cost, made without the allocator, whose state the
#: program under test would set
_MAPPED_BYTES = 2 << 20
_PAGE = mmap.PAGESIZE


def _work():
    """About equal parts interpreter loop, large-array numpy, JSON and page faults."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    np.multiply(_ARRAY, _ARRAY, out=_BUFFER)
    np.multiply(_BUFFER, -0.5, out=_BUFFER)
    np.exp(_BUFFER, out=_BUFFER)
    total += float(_BUFFER.sum())
    for _ in range(2):
        total += len(json.loads(json.dumps(_DOCUMENT))["rows"])
    with mmap.mmap(-1, _MAPPED_BYTES) as mapped:
        pages = np.frombuffer(mapped, dtype=np.uint8)[::_PAGE]
        pages[:] = 1
        total += int(pages.sum())
        del pages  # a map with a live view cannot close
    return total


def sample():
    """One run of the calibration loop: (mid-point time, wall s, CPU s)."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    _work()
    wall1, cpu1 = time.perf_counter(), time.process_time()
    return (wall0 + wall1) / 2.0, wall1 - wall0, cpu1 - cpu0


def warm_up(count=3):
    for _ in range(count):
        _work()


def local_medians(sample_times, sample_values, at, neighbours=NEIGHBOURS):
    """For each time in ``at``, the median value of the samples nearest to it."""
    sample_times = np.asarray(sample_times, dtype=float)
    sample_values = np.asarray(sample_values, dtype=float)
    k = min(neighbours, len(sample_times))
    out = np.empty(len(at))
    for j, t in enumerate(at):
        nearest = np.argsort(np.abs(sample_times - t), kind="stable")[:k]
        out[j] = np.median(sample_values[nearest])
    return out


def correct(values, at, samples, column):
    """Scale ``values`` measured at times ``at`` to the nominal machine.

    ``samples`` are ``sample()`` tuples; ``column`` is 1 to correct wall
    times and 2 to correct CPU times.
    """
    times = [s[0] for s in samples]
    speeds = local_medians(times, [s[column] for s in samples], at)
    return np.asarray(values, dtype=float) * (NOMINAL_S / speeds)
