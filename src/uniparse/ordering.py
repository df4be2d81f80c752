"""Per-page reading order: group clustering, recursive whitespace cuts,
and a gap/alignment fallback for regions the cuts cannot separate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def hull(self) -> BoundingBox:
        return hull_of(self.boxes)


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
    nodes = {n.id: n for n in tree.top_items()}
    partner_of: dict[str, str] = {}
    for node in tree.top_items():
        for _kind, other in node.group_links:
            if other not in nodes:
                continue  # link to a nested child; stays inside its parent
            other_node = nodes[other]
            if _is_anchor_side(node, other_node):
                partner_of[other] = node.id

    partners_of: dict[str, list[LayoutNode]] = {}
    for pid, aid in partner_of.items():
        partners_of.setdefault(aid, []).append(nodes[pid])

    units: list[OrderUnit] = []
    for node in tree.top_items():
        if node.id in partner_of:
            continue
        member_nodes = [node, *partners_of.get(node.id, ())]
        member_nodes.sort(key=lambda n: (n.box.y0, n.box.x0, n.id))
        units.append(
            OrderUnit(
                unit_id=node.id,
                page_index=tree.page_index,
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


def _projection_gaps(
    units: list[OrderUnit], axis: str, min_gap: float
) -> list[tuple[float, float]]:
    """Interior empty gaps along one axis as (width, midpoint), widest first."""
    if axis == "y":
        intervals = sorted((u.hull.y0, u.hull.y1) for u in units)
    else:
        intervals = sorted((u.hull.x0, u.hull.x1) for u in units)
    merged: list[tuple[float, float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    gaps = []
    for (a0, a1), (b0, _b1) in zip(merged, merged[1:]):
        width = b0 - a1
        if width >= min_gap:
            gaps.append((width, (a1 + b0) / 2.0))
    gaps.sort(key=lambda g: (-g[0], g[1]))
    return gaps


def xy_cut(
    units: list[OrderUnit], region: BoundingBox = PAGE_REGION, cfg: EngineConfig | None = None
) -> CutTree:
    """Recursively split along the widest whitespace gap (>= min_gap).

    Horizontal cuts win ties. A region with no admissible gap becomes a leaf
    whose units are ordered by (y0, x0).
    """
    cfg = cfg or EngineConfig()
    if len(units) <= 1:
        return Leaf(tuple(u.unit_id for u in units))

    h_gaps = _projection_gaps(units, "y", cfg.min_gap)
    v_gaps = _projection_gaps(units, "x", cfg.min_gap)
    best_h = h_gaps[0] if h_gaps else None
    best_v = v_gaps[0] if v_gaps else None

    if best_h is None and best_v is None:
        ordered = sorted(units, key=lambda u: (u.hull.y0, u.hull.x0, u.unit_id))
        return Leaf(tuple(u.unit_id for u in ordered))

    use_horizontal = best_v is None or (best_h is not None and best_h[0] >= best_v[0])
    if use_horizontal:
        _, y = best_h
        first = [u for u in units if u.hull.center[1] < y]
        second = [u for u in units if u.hull.center[1] >= y]
        return HCut(
            y=y,
            children=(
                xy_cut(first, BoundingBox(region.x0, region.y0, region.x1, y), cfg),
                xy_cut(second, BoundingBox(region.x0, y, region.x1, region.y1), cfg),
            ),
        )
    _, x = best_v
    first = [u for u in units if u.hull.center[0] < x]
    second = [u for u in units if u.hull.center[0] >= x]
    return VCut(
        x=x,
        children=(
            xy_cut(first, BoundingBox(region.x0, region.y0, x, region.y1), cfg),
            xy_cut(second, BoundingBox(x, region.y0, region.x1, region.y1), cfg),
        ),
    )


def cut_leaves(tree: CutTree) -> list[Leaf]:
    if isinstance(tree, Leaf):
        return [tree]
    out: list[Leaf] = []
    for child in tree.children:
        out.extend(cut_leaves(child))
    return out


def gap_tree_order(
    units: list[OrderUnit],
    region: BoundingBox = PAGE_REGION,
    cfg: EngineConfig | None = None,
) -> list[str]:
    """Deterministic order for layouts the cuts cannot separate.

    u precedes v when u sits fully above v with enough horizontal overlap, or
    when both share a band (vertical overlap) and u starts clearly further
    left. The precedence graph is topologically sorted; ties and cycles break
    by (y0, x0, id).

    Candidate pairs come from sweeps over the y0-sorted hulls, so the cost
    grows with candidates plus edges rather than with all pairs; the rule is
    evaluated on the candidates only, so the edges are exactly the rule's.
    """
    cfg = cfg or EngineConfig()
    n = len(units)
    if n <= 1:
        return [u.unit_id for u in units]

    units = sorted(units, key=lambda u: u.hull.y0)
    succ = _precedence_edges([u.hull for u in units], cfg)
    indeg = [0] * n
    for targets in succ:
        for j in targets:
            indeg[j] += 1

    # Unit ids are unique, so the key is a total order and the heap pops
    # exactly what a re-sorted ready list would.
    key_of = [(u.hull.y0, u.hull.x0, u.unit_id, i) for i, u in enumerate(units)]
    by_key = sorted(key_of)
    ready = [k for k in by_key if indeg[k[3]] == 0]
    placed = [False] * n
    first = 0  # every unit before by_key[first] is placed
    order: list[int] = []
    while len(order) < n:
        if not ready:
            # Cycle: release the visually first node and drop its in-edges.
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
    return [units[i].unit_id for i in order]


Geometry = tuple[float, float, float, float, float, float]  # x0, y0, x1, y1, width, height


def _precedes(a: Geometry, b: Geometry, cfg: EngineConfig) -> bool:
    """The fallback's rule: a fully above b with enough horizontal overlap,
    or both in one band with b starting clearly further right."""
    ax0, ay0, ax1, ay1, aw, ah = a
    bx0, by0, bx1, by1, bw, bh = b
    overlap_x = min(ax1, bx1) - max(ax0, bx0)
    min_w = min(aw, bw)
    if ay1 <= by0 and min_w > 0 and overlap_x / min_w >= cfg.h_overlap:
        return True
    overlap_y = min(ay1, by1) - max(ay0, by0)
    min_h = min(ah, bh)
    return min_h > 0 and overlap_y / min_h >= cfg.v_overlap and (bx0 - ax0) >= cfg.align_tol


def _pad(*values: float) -> float:
    """A margin far above the rounding error of sums of these values, so
    that a window widened by it never misses a pair the rule admits."""
    return 1e-9 * (1.0 + sum(abs(v) for v in values))


def _precedence_edges(hulls: list[BoundingBox], cfg: EngineConfig) -> list[list[int]]:
    """Successor lists of the precedence rule over hulls sorted by y0.

    Two sweeps find the candidates. The band pass tests every pair the band
    rule can admit: those whose y-intervals overlap, widened by the gap that
    a v_overlap <= 0 tolerates. The above pass tests the remaining units
    below, those starting at or after a.y1, whose x-interval meets a's,
    widened by the gap that an h_overlap <= 0 tolerates. Each pair is tested
    at most once, so the lists hold no duplicates.
    """
    geo = [(h.x0, h.y0, h.x1, h.y1, h.width, h.height) for h in hulls]
    n = len(geo)
    h_overlap, v_overlap = cfg.h_overlap, cfg.v_overlap
    ys = [g[1] for g in geo]
    tallest = max((g[5] for g in geo if g[5] > 0), default=0.0)
    succ: list[list[int]] = [[] for _ in range(n)]

    band_end = [0] * n  # units before band_end[i] were tested by the band pass
    for i, a in enumerate(geo):
        ay0, ay1, ah = a[1], a[3], a[5]
        if not ah > 0:
            continue  # the band rule needs both heights positive
        reach = -v_overlap * ah if v_overlap <= 0 else 0.0
        pad = _pad(ay0, ay1, tallest, reach)
        band_end[i] = bisect_right(ys, ay1 + reach + pad)
        for j in range(bisect_left(ys, ay0 - reach - tallest - pad), band_end[i]):
            if j != i and _precedes(a, geo[j], cfg):
                succ[i].append(j)

    # Sources by descending first unit below them; units are indexed as they
    # enter that suffix, so each query sees exactly the units below.
    sources = sorted(
        ((bisect_left(ys, g[3]), i) for i, g in enumerate(geo) if g[4] > 0), reverse=True
    )
    starts: list[int] = []  # the indexed units by ascending x0
    start_x0: list[float] = []
    covering = _StabIndex(g[0] for g in geo if g[4] > 0)
    added = n
    for below, i in sources:
        while added > below:
            added -= 1
            b = geo[added]
            if b[4] > 0:  # the above rule needs both widths positive
                at = bisect_right(start_x0, b[0])
                start_x0.insert(at, b[0])
                starts.insert(at, added)
                covering.add(b[0], b[2], added)
        ax0, _, ax1, _, aw, _ = geo[i]
        reach = -h_overlap * aw if h_overlap <= 0 else 0.0
        pad = _pad(ax0, ax1, reach)
        lo, hi = ax0 - reach - pad, ax1 + reach + pad
        candidates = covering.stab(lo) + starts[bisect_left(start_x0, lo):bisect_right(start_x0, hi)]
        skip = band_end[i]
        for j in candidates:
            if j < skip or j == i:
                continue
            bx0, _, bx1, _, bw, _ = geo[j]
            # _precedes' above test, with a.y1 <= b.y0 and both widths > 0 known
            overlap_x = (bx1 if bx1 < ax1 else ax1) - (bx0 if bx0 > ax0 else ax0)
            if overlap_x / (bw if bw < aw else aw) >= h_overlap:
                succ[i].append(j)
    return succ


class _StabIndex:
    """Intervals [x0, x1] added over time and stabbed at a point.

    A centred interval tree over fixed centres, which must include every x0
    that is added. An interval sits at the first node on its root path whose
    centre it contains, in one list sorted by x0 and one by descending x1, so
    a stab walks one root path and reads only what it reports.
    """

    def __init__(self, centres):
        self._centres = sorted(set(centres))
        self._by_x0: dict[int, list[tuple[float, int]]] = {}
        self._by_x1: dict[int, list[tuple[float, int]]] = {}

    def add(self, x0: float, x1: float, item: int) -> None:
        lo, hi = 0, len(self._centres)
        while True:
            mid = (lo + hi) // 2
            centre = self._centres[mid]
            if x1 < centre:
                hi = mid
            elif x0 > centre:
                lo = mid + 1
            else:
                break
        insort(self._by_x0.setdefault(mid, []), (x0, item))
        insort(self._by_x1.setdefault(mid, []), (-x1, item))

    def stab(self, q: float) -> list[int]:
        """Items whose interval has x0 < q <= x1."""
        out: list[int] = []
        lo, hi = 0, len(self._centres)
        while lo < hi:
            mid = (lo + hi) // 2
            centre = self._centres[mid]
            if q <= centre:
                for x0, item in self._by_x0.get(mid, ()):
                    if x0 >= q:
                        break
                    out.append(item)
                if q == centre:
                    break
                hi = mid
            else:
                for neg_x1, item in self._by_x1.get(mid, ()):
                    if -neg_x1 < q:
                        break
                    out.append(item)
                lo = mid + 1
        return out


def order_units(tree: LayoutTree, cfg: EngineConfig | None = None) -> list[OrderUnit]:
    """Cluster groups, cut the page, refine unsplit leaves; ordered units."""
    cfg = cfg or EngineConfig()
    units = group_cluster(tree)
    if not units:
        return []
    by_id = {u.unit_id: u for u in units}
    cut = xy_cut(units, PAGE_REGION, cfg)
    ordered: list[OrderUnit] = []
    for leaf in cut_leaves(cut):
        if len(leaf.unit_ids) > 1:
            leaf_units = [by_id[uid] for uid in leaf.unit_ids]
            ordered.extend(by_id[uid] for uid in gap_tree_order(leaf_units, PAGE_REGION, cfg))
        else:
            ordered.extend(by_id[uid] for uid in leaf.unit_ids)
    return ordered


def reading_order(tree: LayoutTree, cfg: EngineConfig | None = None) -> list[str]:
    return [u.unit_id for u in order_units(tree, cfg)]
