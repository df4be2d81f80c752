"""Growth gate: the work of laying out and ordering one page grows about
linearly in its detections on shapes where a linear pass exists.

The work is counted, not timed: every bytecode instruction the interpreter
executes in build_page_tree and order_units (sys.settrace with
f_trace_opcodes), so the count repeats exactly on one interpreter version and
does not move with the machine. Work done inside C (a sort, a bisect) is not
counted; the Python calls it makes (a sort key) are.
"""

from __future__ import annotations

import random
import sys
from unittest import mock

import pytest
import workloads

from uniparse.config import EngineConfig
from uniparse.docmodel import SemanticCategory as C
from uniparse.layout import build_page_tree
from uniparse.ordering import order_units

from conftest import det

# The bound on count(2n) / count(n). An all-pairs scan doubles its share of
# the work per doubling: all-pairs geometric pairing read 3.34 on the
# scattered shape below.
GROWTH_PER_DOUBLING = 2.4
N = 200

# Counts at N and 2N on CPython 3.11.7, when the gate was added, and at the
# commit before it (all-pairs pairing, key tuples in the cut and fallback):
#   paragraph stack               115,990 ->   230,790  (1.99)
#                    before:      132,982 ->   264,982  (1.99)
#   grid                          176,175 ->   346,375  (1.97)
#                    before:      192,838 ->   380,238  (1.97)
#   scattered images, captions    424,918 ->   830,372  (1.95)
#                    before:    1,111,783 -> 3,718,149  (3.34)
# and, for the shape added with the merge as the one gap fallback (the
# precedence graph and the merge's work caps gone), at that commit and the
# one before it:
#   one-column dense page         154,519 ->   312,035  (2.02)
#                    before:      163,848 ->   330,752  (2.02)
# Other interpreter versions count differently; the ratio is what is gated.


def count_instructions(fn) -> int:
    """Bytecode instructions executed in fn() and everything it calls."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def paragraph_stack(n, rng):
    """One column of n paragraphs, top to bottom."""
    h = 0.9 / n
    return [det(f"p{k:05d}", (0.1, 0.05 + k * h, 0.9, 0.05 + (k + 0.8) * h)) for k in range(n)]


def grid(n, rng, cols=8):
    """n paragraphs in rows of eight cells; each row shares one y0."""
    rows = n // cols
    w, h = 0.9 / cols, 0.9 / rows
    return [det(f"g{r:04d}_{c}", (0.05 + c * w, 0.05 + r * h,
                                  0.05 + (c + 0.8) * w, 0.05 + (r + 0.8) * h))
            for r in range(rows) for c in range(cols)]


def scattered_images_and_captions(n, rng, per_unit_height=200):
    """n/2 hint-less images and n/2 captions at random places, 200 to a unit
    of page height: the page grows with n, so each anchor has about as many
    partners within pair_distance at any n. (On a page of fixed size, the
    pairs within pair_distance, which the rule must rank, grow as n**2.)"""
    out = []
    height = n / per_unit_height
    for k in range(n):
        w, h = rng.uniform(0.01, 0.05), rng.uniform(0.005, 0.02)
        x, y = rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, height - h)
        out.append(det(f"s{k:05d}", (x, y, x + w, y + h), C.IMAGE if k % 2 == 0 else C.CAPTION))
    return out


def dense_column(n, rng):
    """The dense workload's page in one column: n paragraphs, each box
    overlapping its neighbours', so no cut splits them and the page is one
    gap-fallback leaf of stacked units."""
    with mock.patch.object(workloads, "_COLUMNS", 1):
        return list(workloads._dense_page("column", n, rng, {}).pages[0].detections)


def page_work(detections, cfg) -> int:
    return count_instructions(lambda: order_units(build_page_tree(0, detections, cfg), cfg))


@pytest.mark.parametrize("shape", [paragraph_stack, grid, scattered_images_and_captions,
                                   dense_column])
def test_page_work_grows_linearly(shape):
    cfg = EngineConfig()
    small, large = (page_work(shape(n, random.Random(n)), cfg) for n in (N, 2 * N))
    assert small > 0
    assert large / small <= GROWTH_PER_DOUBLING, (small, large)
