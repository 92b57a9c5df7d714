"""The fixed reference work that host timings are scaled by.

Why it exists: this sandbox's vCPU changes speed by 25-90 % for minutes at a
time (measured: ``service_mtc_256`` ran 5.5-6 s, then 9-11 s, then 6-7 s, with
nothing else running; user time moves with wall time, involuntary context
switches stay ~130 per pass).  Ten runs that straddle such a shift have an
inter-quartile spread of 0.2-0.35 of their median whatever estimator is used,
so raw seconds cannot tell a 10 % change of the program from the host.  A
reference measured in the same window cancels the level shift: over 40
bracketed rounds across a shift, ``wall / reference`` spread 0.08-0.09 where
raw wall spread 0.35.

The harness runs this module in its *own* interpreter right before and right
after every pass (never inside the worker: a warm-up there changes glibc's
mmap threshold and with it the very pass being measured).  A host timing is
reported as ``raw * NOMINAL_S / mean(reference before, reference after)``:
seconds at the reference's nominal speed.  The raw seconds are always printed
next to it.

The work is an equal-size mix of four kinds (~0.9 s), because no single kind
tracked every workload: without the large live heap, ``blobcr_120`` (197 MB
resident) still followed the host after scaling; a 128 MB random gather was
tried and rejected because it alone varied 0.5-5 s.  It uses nothing from
``src/``, so a change to the program cannot move it.  **Do not edit the work
below**: every recorded number is scaled by it.

What scaling does not do: inside one noisy phase the host's speed jitters
from second to second, a ~1 s sample of it is as noisy as a 6-20 s pass, and
dividing by it removes nothing (10-run spreads stay at 0.10-0.17).  It is
there for the level shifts.
"""

from __future__ import annotations

import json
import sys
import time

#: duration of :func:`reference_work` on the sandbox's fast regime, so scaled
#: numbers read like seconds measured when the host is quiet
NOMINAL_S = 0.93


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def _interpreter(n: int = 1_200_000) -> int:
    """Attribute access, method calls and dict stores on short-lived objects."""
    table = {}
    total = 0
    for i in range(n):
        total += _Point(i, i ^ 7).total()
        if i & 15 == 0:
            table[i & 4095] = total
    return total


def _vector(np, reps: int = 150) -> float:
    """Whole-array numpy passes over 1.6 MB, like the solver's flat arrays."""
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(reps):
        b = a * 1.0000001 + 1.0
        b[int(b.argmin())] += 1.0
        a = b
    return float(a[0])


def _churn(np, reps: int = 2500) -> int:
    """Allocate, touch and free 256 KiB buffers, like payload generation."""
    rng = np.random.default_rng(1)
    out = 0
    for _ in range(reps):
        block = rng.integers(0, 256, size=65536, dtype=np.uint8).tobytes()
        out += (bytearray(block) * 4)[-1]
    return out


def _heap(n: int = 600_000) -> float:
    """Build a ~100 MB live object graph and walk it with poor locality, like
    the simulator's 75-250 MB of clouds, chunks and descriptors."""
    nodes = [{"id": i, "next": (i * 7919) % n, "weight": float(i)} for i in range(n)]
    at = 0
    total = 0.0
    for _ in range(n):
        node = nodes[at]
        total += node["weight"]
        at = node["next"]
    return total


def reference_work() -> float:
    """Run the fixed work once; returns its wall-clock seconds."""
    import numpy as np  # before the clock starts; the parent never needs it

    started = time.perf_counter()
    _interpreter()
    _vector(np)
    _churn(np)
    _heap()
    return time.perf_counter() - started


if __name__ == "__main__":
    sys.stdout.write(json.dumps({"reference_s": reference_work()}) + "\n")
