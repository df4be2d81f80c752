"""Per-page reading order: group clustering, XY whitespace cuts,
and a gap/alignment fallback for regions the cuts cannot separate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Union

from .config import EngineConfig
from .docmodel import (
    ANCHOR_CATEGORIES,
    PARTNER_CATEGORIES,
    BoundingBox,
    SemanticCategory,
    hull_of,
)
from .layout import LayoutNode, LayoutTree

PAGE_REGION = BoundingBox(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class OrderUnit:
    """One orderable unit: a standalone block, or a whole group collapsed."""

    unit_id: str
    page_index: int
    category: SemanticCategory
    boxes: tuple[BoundingBox, ...]
    member_ids: tuple[str, ...]
    # Every unit's hull is read at least once, by xy_cut: computed here, it
    # costs a fraction of a cached_property's first read.
    hull: BoundingBox = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        boxes = self.boxes
        object.__setattr__(self, "hull", boxes[0] if len(boxes) == 1 else hull_of(boxes))


@dataclass(frozen=True)
class Leaf:
    unit_ids: tuple[str, ...]


@dataclass(frozen=True)
class HCut:
    y: float
    children: tuple["CutTree", ...]


@dataclass(frozen=True)
class VCut:
    x: float
    children: tuple["CutTree", ...]


CutTree = Union[Leaf, HCut, VCut]


def group_cluster(tree: LayoutTree) -> list[OrderUnit]:
    """Collapse each group into one unit hulling all members.

    The anchor (the node owning partners) names the unit; members are kept in
    their own reading order (top-to-bottom, then left-to-right).
    """
    items = tree.top_items()
    partner_of: dict[str, str] = {}
    linked = [n for n in items if n.group_links]
    if linked:
        nodes = {n.id: n for n in items}
        for node in linked:
            for _kind, other in node.group_links:
                if other not in nodes:
                    continue  # link to a nested child; stays inside its parent
                if _is_anchor_side(node, nodes[other]):
                    partner_of[other] = node.id

    partners_of: dict[str, list[LayoutNode]] = {}
    for pid, aid in partner_of.items():
        partners_of.setdefault(aid, []).append(nodes[pid])

    page = tree.page_index
    units: list[OrderUnit] = []
    for node in items:
        if node.id in partner_of:
            continue
        partners = partners_of.get(node.id)
        if partners is None:
            units.append(OrderUnit(node.id, page, node.category, (node.box,), (node.id,)))
            continue
        member_nodes = sorted([node, *partners], key=lambda n: (n.box.y0, n.box.x0, n.id))
        units.append(
            OrderUnit(
                unit_id=node.id,
                page_index=page,
                category=node.category,
                boxes=tuple(n.box for n in member_nodes),
                member_ids=tuple(n.id for n in member_nodes),
            )
        )
    return units


def _is_anchor_side(node: LayoutNode, other: LayoutNode) -> bool:
    if node.category in ANCHOR_CATEGORIES and other.category in PARTNER_CATEGORIES:
        return True
    if node.category in PARTNER_CATEGORIES and other.category in ANCHOR_CATEGORIES:
        return False
    # Degenerate pairings (hint groups without a clear anchor/partner split):
    # the lexicographically smaller id acts as the anchor.
    return node.id < other.id


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

    The units are sorted once per axis by (start, end). Each node inherits
    its share of both orders by a stable filter, so a node costs one merge
    scan per axis and the filters, linear in its units. Nodes wait on an
    explicit stack: no recursion, so a cut as deep as the page has units is
    no error. region is not read; only the benchmark passes it.
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

    def leaf(members: list[int]) -> Leaf:
        # i last: a stable sort of the units in input order, as ids may repeat
        members = sorted(members, key=lambda i: (y0[i], x0[i], ids[i], i))
        return Leaf(tuple(ids[i] for i in members))

    # nodes[k] is a Leaf, or (HCut or VCut, coordinate, first, second) with
    # the children's indices, which are always larger than k.
    nodes: list = [None]
    stack = [(0, [i for *_, i in sorted(zip(x0, x1, range(n)))],
              [i for *_, i in sorted(zip(y0, y1, range(n)))])]
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

    The sort releases a unit once every predecessor is placed, so on an
    acyclic graph its order depends only on the graph's transitive closure
    (the placed units are always closed under predecessors). It therefore
    runs on the reduced edges of _precedence_edges, a few per unit: the cost
    is one mask query per axis per unit plus the kept edges, and the memory
    n*n/8 bytes per mask family (about 2.3 MB at 4,326 units; five families
    per axis) where the full rule would list millions of edges. The reduced
    graph has a cycle exactly when the rule's graph has one; which units a
    cycle releases depends on the edges themselves, so such a leaf is sorted
    again on the full edge list.
    """
    cfg = cfg or EngineConfig()
    if len(units) <= 1:
        return [u.unit_id for u in units]

    units = sorted(units, key=lambda u: u.hull.y0)
    hulls = [u.hull for u in units]
    # Unit ids are unique, so the key is a total order and the heap pops
    # exactly what a re-sorted ready list would.
    key_of = [(h.y0, h.x0, u.unit_id, i) for i, (u, h) in enumerate(zip(units, hulls))]
    order = _heap_order(_precedence_edges(hulls, cfg), key_of, break_cycles=False)
    if order is None:
        order = _heap_order(_precedence_edges(hulls, cfg, prune=False), key_of, break_cycles=True)
    return [units[i].unit_id for i in order]


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
# Both paths keep the same edges. Building ten masks costs more than testing a
# few pairs: on stream's leaves (seed 1: 1,400 leaves, all but one of 2-5
# units) gap_tree_order takes 22 ms with this branch and 85 ms without, and
# the benchmark's stream ordering.ms_per_page is 0.50 against 0.65-0.68. On
# windows of dense leaves all-pairs stays faster up to about 32 units; 8 sits
# below that crossover and above the leaves stream produces.
_FEW_UNITS = 8


def _precedence_edges(
    hulls: list[BoundingBox], cfg: EngineConfig, prune: bool = True
) -> list[list[int]]:
    """Successor lists of the precedence rule over hulls sorted by y0.

    A unit a's candidates are the units the "fully above" rule can admit,
    those starting at or after a.y1 whose x-intervals overlap enough, and
    those the band rule can admit, whose y-intervals overlap enough: one
    _OverlapMasks query per axis (every unit, in leaves of at most
    _FEW_UNITS). The rule's exact float test confirms each candidate, and
    each pair is tested at most once, so the lists hold no duplicates.

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
    few = n <= _FEW_UNITS
    if not few:
        across = _OverlapMasks([(g[0], g[2], g[4]) for g in geo], h_overlap)
        along = _OverlapMasks([(g[1], g[3], g[5]) for g in geo], v_overlap)
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
            cand |= along.candidates(ay0, ay1, ah)
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
