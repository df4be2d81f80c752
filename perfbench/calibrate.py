"""Machine-speed calibration for the real-clock metrics.

On a shared virtual machine, the same Python code runs up to ~40% slower for
seconds to minutes at a time while neighbours load the host. That shows in
CPU time as much as in wall time, so neither clock alone gives a steady
figure. The benchmark therefore interleaves a fixed pure-Python workload, the
calibration slice, with the code it measures: after every ~200 ms of
measured documents, and around each simulator call, it runs slices for
about a fifth of the measured time. It then scales those measured times by
NOMINAL_SLICE_MS ÷ the mean slice time. Times are thus reported at a fixed
nominal machine speed. The slice mixes the kinds of work
the engine does: geometry loops over small objects, dict and string
building, sorting and JSON encoding.

The slice uses nothing from uniparse, so a change to the engine cannot change
it. Changing the slice or NOMINAL_SLICE_MS rescales every real-clock figure
and is a change to the benchmark.
"""

from __future__ import annotations

import json
import time

# Mean slice time, in blocks, on the machine this benchmark was defined on
# (2 vCPU Xeon VM, CPython 3.11) at its usual speed.
NOMINAL_SLICE_MS = 1.3
# One slice per this much measured time: about 20% overhead.
MS_PER_SLICE = 8.0
# Measured time gathered before a block of slices runs.
BLOCK_MS = 200.0


class _Box:
    __slots__ = ("x0", "y0", "x1", "y1")

    def __init__(self, i: int):
        self.x0 = (i * 37 % 100) / 100
        self.y0 = (i * 53 % 100) / 100
        self.x1 = self.x0 + 0.2
        self.y1 = self.y0 + 0.05


_BOXES = [_Box(i) for i in range(24)]


def calibration_slice() -> int:
    edges = 0
    for a in _BOXES:
        for b in _BOXES:
            overlap = min(a.x1, b.x1) - max(a.x0, b.x0)
            width = min(a.x1 - a.x0, b.x1 - b.x0)
            if a.y1 <= b.y0 and width > 0 and overlap / width >= 0.3:
                edges += 1
    table = {f"k{i}": {"a": [i, i * 2.5, "x" * (i % 7)], "b": (i, str(i))} for i in range(60)}
    items = sorted(table.items(), key=lambda kv: (kv[1]["b"][1], kv[0]))
    return edges + len(json.dumps(items, indent=2))


class Calibration:
    """Scales the times measured over one stretch (a pass, a simulator call)
    to nominal machine speed.

    `add` takes short measured times: once BLOCK_MS of them have gathered, a
    block of slices runs, and its mean scales the times of that block only,
    which tracks the machine more closely than one factor per stretch.
    `run_for` runs slices for a long call; `factor` covers all slices run.
    """

    def __init__(self):
        self.slices = 0
        self.slice_s = 0.0
        self.factors: list[float] = []  # one per time given to add()
        self._open = 0
        self._open_s = 0.0

    def run_for(self, measured_s: float) -> float:
        """Run slices for about a fifth of a measured duration; returns
        their mean time in milliseconds."""
        n = max(1, round(measured_s * 1000.0 / MS_PER_SLICE))
        t0 = time.perf_counter()
        for _ in range(n):
            calibration_slice()
        elapsed = time.perf_counter() - t0
        self.slice_s += elapsed
        self.slices += n
        return elapsed * 1000.0 / n

    def add(self, measured_s: float) -> int:
        """Record one measured time; returns its index into `factors`, which
        holds its scale once its block has closed."""
        self.factors.append(1.0)
        self._open += 1
        self._open_s += measured_s
        if self._open_s * 1000.0 >= BLOCK_MS:
            self.close()
        return len(self.factors) - 1

    def close(self) -> None:
        """Run the block of slices for the times added since the last one."""
        if self._open:
            factor = NOMINAL_SLICE_MS / self.run_for(self._open_s)
            self.factors[-self._open:] = [factor] * self._open
            self._open = 0
            self._open_s = 0.0

    @property
    def mean_slice_ms(self) -> float:
        return self.slice_s * 1000.0 / self.slices

    @property
    def factor(self) -> float:
        """The scale for the whole stretch, from all its slices."""
        return NOMINAL_SLICE_MS / self.mean_slice_ms if self.slices else 1.0
