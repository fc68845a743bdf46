"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the same pure-Python code runs up to 1.7x slower for
minutes at a time, and a median within one run cannot remove a swing
that outlasts the run. So the runner times this kernel right after each
load of the split files and reports the load scaled to a nominal
reference time:

    scaled_s = measured_s * PARSE_NOMINAL_S / reference_s

The kernel does what `load_dataset` does: it splits text records and
converts their fields to ints and floats. A slow spell of the machine
stretches both times alike and cancels; a slower `load_dataset` does
not, since the kernel uses no selfreid code. The scaled value is the
time the load would take on a machine where the kernel takes
PARSE_NOMINAL_S, its time on an unloaded 2-vCPU Xeon (2.1 GHz)
container, so scaled values read as seconds there.

Only loading is scaled this way. `train()` mixes BLAS, C distance loops
and small numpy calls, and no fixed kernel tried tracked its slow spells:
some doubled while `train()` slowed by a few percent.
"""

import time

import numpy as np

_rng = np.random.default_rng(20210331)
_RECORDS = [" ".join([f"{i} {i % 7} {i % 3}"] + [repr(float(v)) for v in _rng.standard_normal(64)])
            for i in range(600)]

PARSE_NOMINAL_S = 0.016


def parse_reference() -> float:
    """Seconds to parse 600 text records of 64 floats."""
    start = time.perf_counter()
    rows = []
    for line in _RECORDS:
        fields = line.split()
        int(fields[0]), int(fields[1]), int(fields[2])
        rows.append([float(v) for v in fields[3:]])
    np.asarray(rows)
    return time.perf_counter() - start


def scaled(measured_s: float, reference_s: float) -> float:
    """`measured_s` as it would read on a machine where the kernel takes PARSE_NOMINAL_S."""
    return measured_s * PARSE_NOMINAL_S / reference_s
