"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared two-core hosts whose speed drifts with
their neighbours' load.  On the sizing host the mix below took 20-25 ms
in fast phases and 45-50 ms in slow ones, each phase lasting from
seconds to minutes, and CPU time tracked wall time, so neither clock
hides the drift.

``run.py`` therefore times this fixed mix of interpreter work before
and after every iteration and every set-up round, and reports
end-to-end times in *reference seconds*: wall seconds times
``(REFERENCE_SECONDS / mix seconds) ** EXPONENTS[workload]``, the mix
timed around them.  The exponent is the workload's sensitivity to the
host's phase relative to the mix's, in log terms.  ``study`` and
``replay`` are interpreter-bound and follow the mix more closely than
``campaign``, whose fsyncs wait on the disk in any phase.

The exponents were chosen on three sets of ten runs of the shipped
workloads, each on ten seeds (1-10, 1-10, 11-20), all measured with
exponent 0.5.  The interquartile spread of the per-run median iteration
time, as a share of the median, was (per set; the 0.75 and 1 columns
recomputed from each run's medians):

    ========  ===========  ===========  ===========  ===========
    exponent  0 (wall)     0.5          0.75         1
    study     13 37 44 %   7 13 17 %    6  5  7 %    10 12  8 %
    campaign  26 29 34 %   11 14 11 %   9 15 14 %    11 17 30 %
    replay    20 28 36 %   22  9 21 %   16  6 13 %   20 11 18 %
    ========  ===========  ===========  ===========  ===========

PROOF

The mix is the kind of work the program does (many small dicts visited
in shuffled order, string-keyed lookups, JSON, sorting) with a working
set beyond the caches.  On a host running the mix in
``REFERENCE_SECONDS`` a reference second is a wall second.  The mix
lives here, outside the program, so no change to the program moves it;
raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import json
import random
import statistics
import time

#: About the mix's time on the sizing host in a fast phase (2-core VM,
#: Python 3.11).
REFERENCE_SECONDS = 0.025

#: Each workload's sensitivity to the host's phase relative to the
#: mix's (log slowdown over log slowdown), measured on the sizing host.
EXPONENTS = {"study": 0.75, "campaign": 0.5, "replay": 0.75}

#: Runs of the mix per calibration; the median is kept.
REPEATS = 3


def _mix() -> int:
    rng = random.Random(7)
    rows = [{"addr": f"2001:db8::{index:x}", "time": index * 1.5,
             "ok": index % 3 == 0, "n": index} for index in range(10000)]
    order = list(range(len(rows)))
    rng.shuffle(order)
    total = sum(rows[index]["n"] for index in order)
    by_addr = {row["addr"]: row for row in rows}
    total += sum(by_addr[f"2001:db8::{index:x}"]["n"] for index in order[:5000])
    rows = json.loads(json.dumps(rows[:3000]))
    rows.sort(key=lambda row: (row["ok"], -row["n"]))
    return total + sum(row["n"] for row in rows if row["ok"])


def mix_seconds() -> float:
    """The median wall time of ``REPEATS`` runs of the mix, now."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _mix()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(workload: str, before: float, after: float) -> float:
    """Factor turning ``workload``'s wall seconds measured between two
    calibrations into reference seconds."""
    return ((REFERENCE_SECONDS / ((before + after) / 2.0))
            ** EXPONENTS[workload])
