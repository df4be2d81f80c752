"""Per-page reading order: group clustering, XY whitespace cuts,
and a gap/alignment fallback for regions the cuts cannot separate.

`frozen` marks objects shared beyond the parse that built them, such as the
IR's boxes, and those are slotted too; order units and cut-tree nodes are
not shared, so they are slotted and mutable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, compress, islice
from math import isfinite
from operator import eq, le
from typing import Union

from .config import EngineConfig
from .docmodel import (
    BoundingBox,
    Detection,
    SemanticCategory,
    hull_of,
)
from .layout import LayoutTree

PAGE_REGION = BoundingBox(0.0, 0.0, 1.0, 1.0)


@dataclass(slots=True)
class OrderUnit:
    """One orderable unit: a standalone block, or a whole group collapsed.
    hull is the hull of boxes: the box itself for a unit of one box."""

    unit_id: str
    page_index: int
    category: SemanticCategory
    boxes: tuple[BoundingBox, ...]
    member_ids: tuple[str, ...]
    hull: BoundingBox = field(repr=False, compare=False)


@dataclass(slots=True)
class Leaf:
    unit_ids: tuple[str, ...]


@dataclass(slots=True)
class HCut:
    y: float
    children: tuple["CutTree", ...]


@dataclass(slots=True)
class VCut:
    x: float
    children: tuple["CutTree", ...]


CutTree = Union[Leaf, HCut, VCut]


def group_cluster(tree: LayoutTree) -> list[OrderUnit]:
    """Collapse each group into one unit hulling all members.

    The anchor layout chose for the group (`LayoutNode.anchor` on each
    partner) names the unit; members are kept in their own reading order
    (top-to-bottom, then left-to-right). A partner whose anchor is not a page
    item, such as a nested child, stays a unit of its own. Each node's
    detection is read once; partners are indexed by their position.
    """
    items = tree.top_items()
    dets = [n.detection for n in items]
    partners_of: dict[int, list[Detection]] = {}  # anchor position -> partners
    joined: set[int] = set()  # positions of partners in their anchor's unit
    linked = [k for k, n in enumerate(items) if n.anchor is not None]
    if linked:
        position = {d.id: k for k, d in enumerate(dets)}
        for k in linked:
            a = position.get(items[k].anchor[1])
            if a is not None:
                partners_of.setdefault(a, []).append(dets[k])
                joined.add(k)

    page = tree.page_index
    units: list[OrderUnit] = []
    for k, d in enumerate(dets):
        if k in joined:
            continue
        partners = partners_of.get(k)
        if partners is None:
            box = d.box
            units.append(OrderUnit(d.id, page, d.category, (box,), (d.id,), box))
            continue
        members = sorted([d, *partners], key=lambda m: (m.box.y0, m.box.x0, m.id))
        boxes = tuple(m.box for m in members)
        units.append(OrderUnit(d.id, page, d.category, boxes,
                               tuple(m.id for m in members), hull_of(boxes)))
    return units


def xy_cut(
    units: list[OrderUnit], region: BoundingBox = PAGE_REGION, cfg: EngineConfig | None = None
) -> CutTree:
    """Split along the widest whitespace gap (>= min_gap), then split each side
    the same way, until no side has an admissible gap.

    A gap lies between the merged projections of the units' hulls on one
    axis. The widest gap wins; on equal widths the first in the scan, the
    one with the smallest midpoint; and a horizontal cut beats a vertical one
    of equal width. A unit goes to the first side when its center is below
    the cut's midpoint, else to the second. A side with one unit, or several
    and no admissible gap, is a leaf ordered by (y0, x0, unit_id). So is a
    node whose best cut would leave one side empty, which only inverted boxes
    can cause: on boxes with x0 <= x1 and y0 <= y1, both sides of a gap
    between merged projections hold a unit.

    The units are sorted once per axis, at the root, by (start, end). Each
    node inherits its share of both orders by a stable filter, so a node
    costs one merge scan per axis and the filters, linear in its units. On
    finite coordinates every sort, the leaves' by (y0, x0, unit_id) too, is
    one stable C-level pass per key (_sorted_by), with no key tuple or
    Python key function. A page with a coordinate that is not finite sorts
    tuples instead, as a NaN compares false and the passes could order it
    differently. Nodes wait on an explicit stack: no recursion, so a cut as
    deep as the page has units is no error. region is not read; only the
    benchmark passes it.
    """
    min_gap = (cfg or EngineConfig()).min_gap
    n = len(units)
    if n <= 1:
        return Leaf(tuple(u.unit_id for u in units))

    # The geometry table, one column per field, indexed by unit.
    hulls = [u.hull for u in units]
    x0 = [h.x0 for h in hulls]
    y0 = [h.y0 for h in hulls]
    x1 = [h.x1 for h in hulls]
    y1 = [h.y1 for h in hulls]
    cx = [(h.x0 + h.x1) / 2.0 for h in hulls]
    cy = [(h.y0 + h.y1) / 2.0 for h in hulls]
    ids = [u.unit_id for u in units]

    # A sum is finite only when each term is (or it overflows: then the
    # tuple sorts run for nothing).
    finite = isfinite(sum(x0) + sum(y0) + sum(x1) + sum(y1))
    if finite:
        xs = _sorted_by(range(n), x0, x1)
        ys = _sorted_by(range(n), y0, y1)
    else:
        xs = [i for *_, i in sorted(zip(x0, x1, range(n)))]
        ys = [i for *_, i in sorted(zip(y0, y1, range(n)))]

    def leaf(members: list[int]) -> Leaf:
        # by (y0, x0, id, i): i last, as ids may repeat
        if finite:
            members = _sorted_by(members, y0, x0, ids)
        else:
            members = sorted(members, key=lambda i: (y0[i], x0[i], ids[i], i))
        return Leaf(tuple(map(ids.__getitem__, members)))

    # nodes[k] is a Leaf, or (HCut or VCut, coordinate, first, second) with
    # the children's indices, which are always larger than k.
    nodes: list = [None]
    stack = [(0, xs, ys)]
    while stack:
        k, xs, ys = stack.pop()
        h = _widest_gap(ys, y0, y1, min_gap)
        v = _widest_gap(xs, x0, x1, min_gap)
        if h is None and v is None:
            nodes[k] = leaf(ys)
            continue
        if v is None or (h is not None and h[0] >= v[0]):
            kind, at, center = HCut, h[1], cy
        else:
            kind, at, center = VCut, v[1], cx
        first_ys = [i for i in ys if center[i] < at]
        if not first_ys or len(first_ys) == len(ys):
            nodes[k] = leaf(ys)
            continue
        # the complement of the first side, so a NaN center stays on the page
        second_ys = [i for i in ys if not center[i] < at]
        a = len(nodes)
        nodes[k] = (kind, at, a, a + 1)
        nodes += (None, None)
        for slot, side, first in ((a + 1, second_ys, False), (a, first_ys, True)):
            if len(side) == 1:
                nodes[slot] = Leaf((ids[side[0]],))
            else:
                stack.append((slot, [i for i in xs if (center[i] < at) == first], side))

    for k in range(len(nodes) - 1, -1, -1):
        node = nodes[k]
        if type(node) is tuple:
            kind, at, a, b = node
            nodes[k] = kind(at, (nodes[a], nodes[b]))
    return nodes[0]


def _sorted_by(indices, *keys: list) -> list[int]:
    """The indices i sorted by (keys[0][i], keys[1][i], ..., i), as a sort
    on those tuples would order them where no key is NaN: one stable pass
    per key, the last key first, from ascending indices."""
    order = sorted(indices)
    for key in reversed(keys):
        order.sort(key=key.__getitem__)
    return order


def _widest_gap(
    order: list[int], start: list[float], end: list[float], min_gap: float
) -> tuple[float, float] | None:
    """(width, midpoint) of the widest gap of at least min_gap between the
    merged intervals [start[i], end[i]], taken in order (sorted by start,
    then end); the first on equal widths. None when there is none."""
    best_width = mid = 0.0
    it = iter(order)
    reach = end[next(it)]
    for i in it:
        s = start[i]
        if s <= reach:
            e = end[i]
            if e > reach:
                reach = e
            continue
        width = s - reach  # positive: s > reach
        if width > best_width and width >= min_gap:
            best_width, mid = width, (reach + s) / 2.0
        reach = end[i]
    return (best_width, mid) if best_width else None


def cut_leaves(tree: CutTree) -> list[Leaf]:
    """The tree's leaves, first child first."""
    out: list[Leaf] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node)
        else:
            stack.extend(reversed(node.children))
    return out


def gap_tree_order(units: list[OrderUnit], cfg: EngineConfig | None = None) -> list[str]:
    """Deterministic order for layouts the cuts cannot separate.

    u precedes v when u sits fully above v with enough horizontal overlap, or
    when both share a band (vertical overlap) and u starts clearly further
    left. The precedence graph is topologically sorted; ties and cycles break
    by (y0, x0, id).

    The order is Kahn's: always the ready unit of smallest key, and when none
    is ready, the visually first unplaced unit. It mostly is the key order
    itself, so _merge_order walks the key order and holds back only the
    units an unplaced unit must precede: its candidates per unit are the
    held-back units and one y0 window, and no graph is built. A leaf the
    merge cannot serve (v_overlap <= 0, a coordinate that is not finite, a
    box with y1 < y0), or whose work would pass a budget linear in its
    units, is sorted as a graph instead.

    A cut leaf (xy_cut, order_units) comes in key order already: one linear
    check confirms it, and units in any other order are sorted into it.
    Keys are built as tuples only for the graph.

    That sort releases a unit once every predecessor is placed, so on an
    acyclic graph its order depends only on the graph's transitive closure
    (the placed units are always closed under predecessors). It therefore
    runs on the reduced edges of _precedence_edges, a few per unit: the cost
    is one _OverlapMasks query, one x0 prefix query and one y0 window per
    unit plus the kept edges, and the memory n*n/8 bytes per mask family
    (about 2.3 MB at 4,326 units; six families: the _OverlapMasks' five and
    the x0 family) where the full rule would list millions of edges. The
    reduced graph has a cycle exactly when the rule's graph has one; which
    units a cycle releases depends on the edges themselves, so such a leaf
    is sorted again on the full edge list. Both paths give the same order.
    """
    cfg = cfg or EngineConfig()
    if len(units) <= 1:
        return [u.unit_id for u in units]

    hulls = [u.hull for u in units]
    if not _in_key_order(units, hulls):
        # On finite coordinates the key order; else the y0 order, in which
        # the graph's keys have always been taken, as a NaN orders no sort.
        finite = all(map(isfinite, chain.from_iterable((h.x0, h.y0) for h in hulls)))
        units = sorted(units, key=(lambda u: (u.hull.y0, u.hull.x0, u.unit_id)) if finite
                       else (lambda u: u.hull.y0))
        hulls = [u.hull for u in units]
    order = _merge_order(hulls, cfg)
    if order is None:
        # Unit ids are unique, so the key is a total order and the heap pops
        # exactly what a re-sorted ready list would.
        key_of = [(h.y0, h.x0, u.unit_id, i) for i, (u, h) in enumerate(zip(units, hulls))]
        order = _heap_order(_precedence_edges(hulls, cfg), key_of, break_cycles=False)
        if order is None:
            order = _heap_order(_precedence_edges(hulls, cfg, prune=False), key_of,
                                break_cycles=True)
    return [units[i].unit_id for i in order]


def _in_key_order(units: list[OrderUnit], hulls: list[BoundingBox]) -> bool:
    """Whether the units ascend by (y0, x0, unit_id). Then no y0 is NaN, and
    a stable sort by y0 leaves them as they are. Only units that share a y0
    with their predecessor are compared past it."""
    ys = [h.y0 for h in hulls]
    if not all(map(le, ys, islice(ys, 1, None))):
        return False
    return all((hulls[k - 1].x0, units[k - 1].unit_id) <= (hulls[k].x0, units[k].unit_id)
               for k in compress(range(1, len(ys)), map(eq, ys, islice(ys, 1, None))))


# A leaf goes to the graph when the merge would take more than this many
# steps per unit (a step is one per unit and one per candidate tested), or
# hold back more than _HELD_BACK units at once. Measured on dense's leaves
# (seeds 1-5): at most 6.6 steps per unit and 4 units held back; 2.0 steps on
# a 2,080-paragraph column. A band or a staircase of n units needs n/4 to n
# steps per unit, which shows before any test, and paragraphs scattered at
# random hold back dozens to hundreds: there the graph is the faster path.
_STEPS_PER_UNIT = 16
_HELD_BACK = 8


def _merge_order(hulls: list[BoundingBox], cfg: EngineConfig) -> list[int] | None:
    """_heap_order's order on the full rule's edges, as a merge of the key
    order, in which hulls come; None for a leaf this cannot serve or that
    passes a cap.

    The walk visits the units in key order. The unit at its head is placed at
    once unless an unplaced unit precedes it by the rule; then it is held
    back with the count of those predecessors, and placed from a heap, ahead
    of the walk, when the count reaches zero. When the walk is over and only
    held-back units are left, they all wait on each other: the visually first
    is released, as _heap_order breaks a cycle. Each placement is the ready
    unit of smallest key, so the order is Kahn's on the rule's edges, and on
    an acyclic rule it is the reduced graph's too.

    Every unit before the head v is placed or held back. A later u can
    precede v by a band edge, which needs positive heights and, with
    v_overlap > 0, u.y0 < v.y1; or by a "fully above" edge, which needs
    u.y1 <= v.y0 <= u.y0, so u.y0 == v.y0 on a box with y0 <= y1. So v's
    candidates are the held-back units and its window, the walk's next units
    starting below v.y1 (at v.y0, when v has no height), and the rule's
    exact float test decides each one. Without v_overlap > 0, a band edge
    needs no overlap, and a coordinate that is not finite, or a box with
    y1 < y0, breaks the window: such a leaf is returned as None.

    The windows are known before any test, so a leaf is returned as None as
    soon as its windows and the held-back units it has tested pass
    _STEPS_PER_UNIT steps per unit, or it holds back more than _HELD_BACK
    units at once. The merge thus tests at most _STEPS_PER_UNIT candidates
    per unit, and builds no mask.
    """
    if not cfg.v_overlap > 0:
        return None
    n = len(hulls)
    geo = [(h.x0, h.y0, h.x1, h.y1, h.x1 - h.x0, h.y1 - h.y0) for h in hulls]
    if not all(map(isfinite, chain.from_iterable(geo))):
        return None
    # The key order is a y0 order. ends[i] is where the units starting at or
    # past hull i's y1 begin (past its y0 when it has no height), so its
    # window runs from just after it to there. A unit costs one step plus
    # its window, ends[i] - i, which sum to sum(ends) - n*(n-1)/2.
    ys = [g[1] for g in geo]
    if any(g[3] < g[1] for g in geo):
        return None
    ends = [bisect_left(ys, g[3]) if g[3] > g[1] else bisect_right(ys, g[1]) for g in geo]
    budget = _STEPS_PER_UNIT * n - (sum(ends) - n * (n - 1) // 2)
    if budget < 0:
        return None
    h_overlap, v_overlap, align_tol = cfg.h_overlap, cfg.v_overlap, cfg.align_tol
    placed = [False] * n
    waiting: dict[int, int] = {}  # held-back unit -> its unplaced predecessors
    waiters: defaultdict[int, list[int]] = defaultdict(list)  # unit -> held units it precedes
    held: list[int] = []  # in key order; placed ones are dropped lazily
    ready: list[int] = []
    order: list[int] = []
    head = 0
    while len(order) < n:
        if ready:
            v = heappop(ready)
        elif head < n:
            v = head
            head += 1
            if held:
                held = [u for u in held if not placed[u]]
                budget -= len(held)
                if budget < 0:
                    return None
            bx0, by0, bx1, by1, bw, bh = geo[v]
            preds = []
            window = range(head, ends[v])
            for u in chain(held, window) if held else window:
                ax0, ay0, ax1, ay1, aw, ah = geo[u]
                # the rule's test of u before v, as in _precedence_edges, each
                # half from its cheapest comparison: u fully above v with
                # enough horizontal overlap, or both in one band with u
                # starting clearly further left
                if ay1 <= by0:
                    min_w = bw if bw < aw else aw
                    if min_w > 0 and ((bx1 if bx1 < ax1 else ax1)
                                      - (bx0 if bx0 > ax0 else ax0)) / min_w >= h_overlap:
                        preds.append(u)
                        continue
                if bx0 - ax0 >= align_tol:
                    min_h = bh if bh < ah else ah
                    if min_h > 0 and ((by1 if by1 < ay1 else ay1)
                                      - (by0 if by0 > ay0 else ay0)) / min_h >= v_overlap:
                        preds.append(u)
            if preds:
                if len(held) == _HELD_BACK:
                    return None
                waiting[v] = len(preds)
                for u in preds:
                    waiters[u].append(v)
                held.append(v)
                continue
        else:
            held = [u for u in held if not placed[u]]
            v = held[0]
        placed[v] = True
        order.append(v)
        for w in waiters.pop(v, ()) if waiters else ():
            if not placed[w]:
                waiting[w] -= 1
                if not waiting[w]:
                    heappush(ready, w)
    return order


def _heap_order(
    succ: list[list[int]], key_of: list[tuple], break_cycles: bool
) -> list[int] | None:
    """Kahn's algorithm, always placing the ready unit with the smallest key.

    When no unit is ready (a cycle), returns None, or with break_cycles
    releases the visually first unplaced unit and drops its in-edges.
    """
    n = len(succ)
    indeg = [0] * n
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    by_key = sorted(key_of)
    ready = [k for k in by_key if indeg[k[3]] == 0]
    placed = [False] * n
    first = 0  # every unit before by_key[first] is placed
    order: list[int] = []
    while len(order) < n:
        if not ready:
            if not break_cycles:
                return None
            while placed[by_key[first][3]]:
                first += 1
            ready = [by_key[first]]
            indeg[by_key[first][3]] = 0
        i = heappop(ready)[3]
        placed[i] = True
        order.append(i)
        for j in succ[i]:
            if not placed[j]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heappush(ready, key_of[j])
    return order


# Leaves of at most this many units test every pair instead of building masks.
# Both paths keep the same edges. Building six masks costs more than testing a
# few pairs: on stream's leaves (seed 1: 1,400 leaves, all but one of 2-5
# units), sorted as graphs, gap_tree_order took 22 ms with this branch and 75
# ms without; the merge serves them now, unless v_overlap <= 0. On
# windows of dense leaves all-pairs stays faster up to 24-32 units; 8 sits
# below that crossover and above the leaves stream produces.
_FEW_UNITS = 8


def _precedence_edges(
    hulls: list[BoundingBox], cfg: EngineConfig, prune: bool = True
) -> list[list[int]]:
    """Successor lists of the precedence rule over hulls sorted by y0.

    A unit a's candidates are the units the "fully above" rule can admit,
    those starting at or after a.y1 whose x-intervals overlap enough (one
    _OverlapMasks query), and those the band rule can admit. A band partner
    b starts at least align_tol right of a (one x0 prefix family), and with
    v_overlap > 0 overlaps a's y-interval, so b.y0 < a.y1 and b.y1 > a.y0:
    with b no taller than the tallest unit, b lies in one window of the
    y0 order. A leaf of at most _FEW_UNITS units, or with a coordinate that
    is not finite (in-memory IR is not validated), takes every unit as a
    candidate. The rule's exact float test confirms each candidate, and each
    pair is tested at most once, so the lists hold no duplicates.

    With prune, units are visited bottom-up and a->j is kept only when j is
    not already known to be reachable from a through kept edges. Candidates
    are taken in ascending y0, nearest first, and a reachable one is skipped
    untested, so a unit costs its mask queries and kept edges rather than
    every unit below it. The kept edges are a subset of the rule's with the
    same transitive closure. Without prune the lists hold exactly the rule's
    edges.
    """
    geo = [(h.x0, h.y0, h.x1, h.y1, h.width, h.height) for h in hulls]
    n = len(geo)
    h_overlap, v_overlap, align_tol = cfg.h_overlap, cfg.v_overlap, cfg.align_tol
    ys = [g[1] for g in geo]
    few = n <= _FEW_UNITS or not all(map(isfinite, chain.from_iterable(geo)))
    if not few:
        across = _OverlapMasks([(g[0], g[2], g[4]) for g in geo], h_overlap)
        # The overlap never exceeds the shorter height: v_overlap > 1 admits
        # no band partner.
        tall = [j for j, g in enumerate(geo) if g[5] > 0] if v_overlap <= 1 else []
        right = _prefix_masks(tall, [g[0] for g in geo])
        tallest = max((geo[j][5] for j in tall), default=0.0)
        # far above the rounding error of the thresholds and the rule's terms
        pad = 1e-9 * (1.0 + 4 * max(map(abs, chain.from_iterable(geo))) + abs(align_tol))
    # reach[j]: j and the units known reachable from it through kept edges.
    # Units above a are visited after it, so what they reach is not yet known.
    reach = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        ax0, ay0, ax1, ay1, aw, ah = geo[i]
        out = succ[i]
        seen = 1 << i
        if few:
            cand = (1 << n) - 1
        else:
            below = bisect_left(ys, ay1)  # units from here on start at or after a.y1
            cand = across.candidates(ax0, ax1, aw) >> below << below
            if ah > 0:
                band = _at_least(right, ax0 + align_tol - pad)
                if v_overlap > 0:
                    band &= (1 << bisect_right(ys, ay1 + pad)) - 1
                    start = bisect_left(ys, ay0 - tallest - pad)
                    band = band >> start << start
                cand |= band
        cand &= ~seen
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            bx0, by0, bx1, by1, bw, bh = geo[j]
            # a fully above b with enough horizontal overlap, or both in one
            # band with b starting clearly further right
            min_w = bw if bw < aw else aw
            if not (ay1 <= by0 and min_w > 0 and
                    ((bx1 if bx1 < ax1 else ax1) - (bx0 if bx0 > ax0 else ax0)) / min_w
                    >= h_overlap):
                min_h = bh if bh < ah else ah
                if not (min_h > 0 and bx0 - ax0 >= align_tol and
                        ((by1 if by1 < ay1 else ay1) - (by0 if by0 > ay0 else ay0)) / min_h
                        >= v_overlap):
                    continue
            out.append(j)
            if prune:
                seen |= reach[j] | low
                cand &= ~seen
        reach[i] = seen
    return succ


class _OverlapMasks:
    """The units whose interval on one axis overlaps a given interval by at
    least t times the shorter of the two lengths, as a bitmask.

    With both lengths positive and t <= 1, min(a.hi, b.hi) - max(a.lo, b.lo)
    >= t * min(a.len, b.len) splits on the shorter interval into threshold
    tests on b alone:

        b.len >= a.len:  b.lo <= a.hi - t*a.len  and  b.hi >= a.lo + t*a.len
        b.len <  a.len:  b.lo + t*b.len <= a.hi  and  b.hi - t*b.len >= a.lo

    The overlap never exceeds the shorter length, so t > 1 admits nothing.
    Each test selects a prefix or suffix of the units sorted by one key (lo,
    hi, len, lo + t*len, hi - t*len), read as one Python int per prefix: at
    most n*n/8 bytes per key. The thresholds are widened by a margin above
    their rounding error, so a mask may hold a unit the exact test rejects
    but never misses one it admits.
    """

    def __init__(self, spans: list[tuple[float, float, float]], t: float):
        live = [j for j, s in enumerate(spans) if s[2] > 0]
        extent = max((max(abs(spans[j][0]), abs(spans[j][1])) for j in live), default=0.0)
        self.t = t
        # far above the rounding error of the keys, the thresholds and the
        # rule's own ratio, whose terms are all within (3 + 2|t|) * extent
        self.pad = 1e-9 * (1.0 + (3 + 2 * abs(t)) * extent)
        self.lo = _prefix_masks(live, [s[0] for s in spans])
        self.hi = _prefix_masks(live, [s[1] for s in spans])
        self.length = _prefix_masks(live, [s[2] for s in spans])
        self.start = _prefix_masks(live, [s[0] + t * s[2] for s in spans])
        self.end = _prefix_masks(live, [s[1] - t * s[2] for s in spans])

    def candidates(self, lo: float, hi: float, length: float) -> int:
        t, pad = self.t, self.pad
        if not (length > 0 and t <= 1):
            return 0
        keys, masks = self.length
        shorter = masks[bisect_left(keys, length)]
        longer = masks[-1] ^ shorter
        if longer:
            longer &= (_at_most(self.lo, hi - t * length + pad)
                       & _at_least(self.hi, lo + t * length - pad))
        if shorter:
            shorter &= _at_most(self.start, hi + pad) & _at_least(self.end, lo - pad)
        return longer | shorter


def _prefix_masks(live: list[int], key: list[float]) -> tuple[list[float], list[int]]:
    """The live units' keys in ascending order, and for each k the bitmask
    of the first k of them."""
    order = sorted(live, key=key.__getitem__)
    masks = [0]
    acc = 0
    for j in order:
        acc |= 1 << j
        masks.append(acc)
    return [key[j] for j in order], masks


def _at_most(family: tuple[list[float], list[int]], t: float) -> int:
    keys, masks = family
    return masks[bisect_right(keys, t)]


def _at_least(family: tuple[list[float], list[int]], t: float) -> int:
    keys, masks = family
    return masks[-1] ^ masks[bisect_left(keys, t)]


def order_units(tree: LayoutTree, cfg: EngineConfig | None = None) -> list[OrderUnit]:
    """Cluster groups, cut the page, refine unsplit leaves; ordered units."""
    cfg = cfg or EngineConfig()
    units = group_cluster(tree)
    if not units:
        return []
    by_id = {u.unit_id: u for u in units}
    cut = xy_cut(units, cfg=cfg)
    ordered: list[OrderUnit] = []
    for leaf in cut_leaves(cut):
        if len(leaf.unit_ids) > 1:
            leaf_units = [by_id[uid] for uid in leaf.unit_ids]
            ordered.extend(by_id[uid] for uid in gap_tree_order(leaf_units, cfg))
        else:
            ordered.extend(by_id[uid] for uid in leaf.unit_ids)
    return ordered
