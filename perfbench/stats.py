"""Latency summaries."""

import numpy as np

#: candidate tail percentiles, highest first, in tenths of a percent
_TAIL_PER_MILLE = (999, 990, 900)
#: samples that must lie beyond a percentile before it is reported
TAIL_SAMPLES = 10


def tail_percentile(count):
    """Highest percentile of 99.9, 99 and 90 with at least ten samples beyond it.

    Returns the percentile as a float, or None when even p90 has fewer than
    ten samples beyond it.
    """
    for per_mille in _TAIL_PER_MILLE:
        if count * (1000 - per_mille) >= TAIL_SAMPLES * 1000:
            return per_mille / 10.0
    return None


#: fewest samples for which p90 is reportable
MIN_SAMPLES_FOR_P90 = TAIL_SAMPLES * 10


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))
