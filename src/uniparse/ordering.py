"""Per-page reading order: group clustering, XY whitespace cuts,
and a gap/alignment fallback for regions the cuts cannot separate.

`frozen` marks objects shared beyond the parse that built them, such as the
IR's boxes, and those are slotted too; order units and cut-tree nodes are
not shared, so they are slotted and mutable.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, compress, islice
from operator import eq, le
from typing import Union

from .config import EngineConfig
from .docmodel import (
    BoundingBox,
    Detection,
    hull_of,
)
from .layout import LayoutTree

PAGE_REGION = BoundingBox(0.0, 0.0, 1.0, 1.0)


@dataclass(slots=True)
class OrderUnit:
    """One orderable unit: a standalone block, or a whole group collapsed.
    hull is the hull of its members' boxes: the box itself for a unit of one."""

    unit_id: str
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

    units: list[OrderUnit] = []
    for k, d in enumerate(dets):
        if k in joined:
            continue
        partners = partners_of.get(k)
        if partners is None:
            units.append(OrderUnit(d.id, (d.id,), d.box))
            continue
        members = sorted([d, *partners], key=lambda m: (m.box.y0, m.box.x0, m.id))
        units.append(OrderUnit(d.id, tuple(m.id for m in members),
                               hull_of([m.box for m in members])))
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
    node whose best cut would leave one side empty: on the boxes layout
    admits, both sides of a gap hold a unit, save where the gap is a few
    ulps wide and a center rounds onto its midpoint.

    The units are sorted once per axis, at the root, by (start, end). Each
    node inherits its share of both orders by a stable filter, so a node
    costs one merge scan per axis and the filters, linear in its units.
    Every sort, the leaves' by (y0, x0, unit_id) too, is one stable C-level
    pass per key (_sorted_by), with no key tuple or Python key function.
    Nodes wait on an explicit stack: no recursion, so a cut as deep as the
    page has units is no error. region is not read; only the benchmark
    passes it.
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

    xs = _sorted_by(range(n), x0, x1)
    ys = _sorted_by(range(n), y0, y1)

    def leaf(members: list[int]) -> Leaf:
        return Leaf(tuple(map(ids.__getitem__, _sorted_by(members, y0, x0, ids))))

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
    on those tuples would order them: one stable pass per key, the last key
    first, from ascending indices."""
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
    left. The order is Kahn's on that rule: always the ready unit of smallest
    (y0, x0, id), and when none is ready (a cycle), the visually first
    unplaced unit. It mostly is the key order itself, so _merge_order walks
    the key order and holds back only the units an unplaced unit must
    precede: its candidates per unit are the held-back units and one y0
    window, and no graph is built.

    A cut leaf (xy_cut, order_units) comes in key order already: one linear
    check confirms it, and units in any other order are sorted into it.
    """
    cfg = cfg or EngineConfig()
    if len(units) <= 1:
        return [u.unit_id for u in units]

    hulls = [u.hull for u in units]
    if not _in_key_order(units, hulls):
        units = sorted(units, key=lambda u: (u.hull.y0, u.hull.x0, u.unit_id))
        hulls = [u.hull for u in units]
    return [units[i].unit_id for i in _merge_order(hulls, cfg)]


def _in_key_order(units: list[OrderUnit], hulls: list[BoundingBox]) -> bool:
    """Whether the units ascend by (y0, x0, unit_id). Only units that share
    a y0 with their predecessor are compared past it."""
    ys = [h.y0 for h in hulls]
    if not all(map(le, ys, islice(ys, 1, None))):
        return False
    return all((hulls[k - 1].x0, units[k - 1].unit_id) <= (hulls[k].x0, units[k].unit_id)
               for k in compress(range(1, len(ys)), map(eq, ys, islice(ys, 1, None))))


def _merge_order(hulls: list[BoundingBox], cfg: EngineConfig) -> list[int]:
    """Kahn's order on the precedence rule's edges, with ties and cycles broken
    by key, as a merge of the key order in which hulls come.

    The walk visits the units in key order. The unit at its head is placed at
    once unless an unplaced unit precedes it by the rule; then it is held
    back with the count of those predecessors, and placed from a heap, ahead
    of the walk, when the count reaches zero. When the walk is over and only
    held-back units are left, they all wait on each other: the visually first
    is released. Each placement is the ready unit of smallest key.

    Every unit before the head v is placed or held back. A later u has
    u.y0 >= v.y0, so it cannot lie fully above v, whose height is positive;
    it can precede v only by a band edge, which with v_overlap > 0 needs
    u.y0 < v.y1. So v's candidates are the held-back units and its window,
    the walk's next units starting above v.y1, and the rule's exact float
    test decides each one. Layout admits only finite boxes with positive
    width and height, and EngineConfig only v_overlap > 0, so every leaf is
    served.
    """
    n = len(hulls)
    geo = [(h.x0, h.y0, h.x1, h.y1, h.x1 - h.x0, h.y1 - h.y0) for h in hulls]
    # The key order is a y0 order: ends[i] is where the units starting at or
    # past hull i's y1 begin.
    ys = [g[1] for g in geo]
    ends = [bisect_left(ys, g[3]) for g in geo]
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
            bx0, by0, bx1, by1, bw, bh = geo[v]
            preds = []
            window = range(head, ends[v])
            for u in chain(held, window) if held else window:
                ax0, ay0, ax1, ay1, aw, ah = geo[u]
                # the rule's test of u before v, each half from its cheapest
                # comparison: u fully above v with enough horizontal overlap,
                # or both in one band with u starting clearly further left
                if ay1 <= by0:
                    min_w = bw if bw < aw else aw
                    if ((bx1 if bx1 < ax1 else ax1)
                            - (bx0 if bx0 > ax0 else ax0)) / min_w >= h_overlap:
                        preds.append(u)
                        continue
                if bx0 - ax0 >= align_tol:
                    min_h = bh if bh < ah else ah
                    if ((by1 if by1 < ay1 else ay1)
                            - (by0 if by0 > ay0 else ay0)) / min_h >= v_overlap:
                        preds.append(u)
            if preds:
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
