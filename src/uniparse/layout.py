"""Two-layer layout tree: containment, group pairing, functional filtering.

Bottom-layer detections become roots; top-layer detections nest under the
root that contains them (by intersection-over-child-area) or stay orphans.
Grouped elements (figure+caption, formula+id, molecule+identifier, ...) are
linked symmetrically, either via explicit group hints or by a geometric
nearest-partner fallback. Functional page furniture is filtered out last.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from operator import attrgetter, itemgetter, lt

from .config import EngineConfig
from .docmodel import (
    FUNCTIONAL_CATEGORIES,
    TOP_LAYER_CATEGORIES,
    BoundingBox,
    Detection,
    DuplicateId,
    SemanticCategory,
    box_violation,
)


class RelationKind(str, Enum):
    CAPTION = "caption"
    TITLE = "title"
    FOOTNOTE = "footnote"
    FORMULA_ID = "formula_id"
    MOLECULE_IDENTIFIER = "molecule_identifier"
    MARKUSH_DESCRIPTION = "markush_description"
    LEGEND = "legend"


# The relation of each partner category to its anchor, a table's caption
# aside.
_PARTNER_RELATIONS = {
    SemanticCategory.CAPTION: RelationKind.CAPTION,
    SemanticCategory.TABLE_FOOTNOTE: RelationKind.FOOTNOTE,
    SemanticCategory.FORMULA_ID: RelationKind.FORMULA_ID,
    SemanticCategory.MOLECULE_IDENTIFIER: RelationKind.MOLECULE_IDENTIFIER,
    SemanticCategory.MARKUSH_DESCRIPTION: RelationKind.MARKUSH_DESCRIPTION,
    SemanticCategory.FIGURE_LEGEND: RelationKind.LEGEND,
}

# Partner categories that attach to an anchor.
PARTNER_CATEGORIES = frozenset(_PARTNER_RELATIONS)

# (partner category, anchor category) -> relation, for every partner category
# and any anchor. A caption acts as a title when it belongs to a table, as a
# caption everywhere else.
RELATION_FOR: dict[tuple[SemanticCategory, SemanticCategory], RelationKind] = {
    (partner, anchor): relation
    for partner, relation in _PARTNER_RELATIONS.items()
    for anchor in SemanticCategory
} | {(SemanticCategory.CAPTION, SemanticCategory.TABLE): RelationKind.TITLE}


# The members the pairing and filtering rules compare with, bound once:
# loading an enum member through its class costs about 150 ns on CPython 3.11.
_CAPTION = SemanticCategory.CAPTION
_TABLE = SemanticCategory.TABLE
_FORMULA_ID = SemanticCategory.FORMULA_ID
_PAGE_NUMBER = SemanticCategory.PAGE_NUMBER
_REMOVABLE = FUNCTIONAL_CATEGORIES | {_PAGE_NUMBER}
_CAPTION_RELATION = RelationKind.CAPTION
_BOX = attrgetter("box")
_COORDS = tuple(map(attrgetter, ("x0", "y0", "x1", "y1")))

# Which partner categories an anchor category accepts.
COMPATIBLE_PARTNERS: dict[SemanticCategory, frozenset[SemanticCategory]] = {
    SemanticCategory.IMAGE: frozenset({SemanticCategory.CAPTION, SemanticCategory.FIGURE_LEGEND}),
    SemanticCategory.FIGURE: frozenset({SemanticCategory.CAPTION, SemanticCategory.FIGURE_LEGEND}),
    SemanticCategory.CHART: frozenset({SemanticCategory.CAPTION, SemanticCategory.FIGURE_LEGEND}),
    SemanticCategory.CHEMICAL_REACTION: frozenset(
        {SemanticCategory.CAPTION, SemanticCategory.FIGURE_LEGEND}
    ),
    SemanticCategory.TABLE: frozenset(
        {SemanticCategory.CAPTION, SemanticCategory.TABLE_FOOTNOTE}
    ),
    SemanticCategory.FORMULA: frozenset({SemanticCategory.FORMULA_ID}),
    SemanticCategory.MOLECULE: frozenset(
        {SemanticCategory.MOLECULE_IDENTIFIER, SemanticCategory.MARKUSH_DESCRIPTION}
    ),
}

# Anchor categories that may own grouped partners.
ANCHOR_CATEGORIES = frozenset(COMPATIBLE_PARTNERS)


@dataclass(slots=True)
class LayoutNode:
    """One detection in the page tree. Lives for one parse, so it is slotted
    and mutable; id, category and box are copies of its detection's."""

    detection: Detection
    children: list["LayoutNode"] = field(default_factory=list)
    group_links: list[tuple[RelationKind, str]] = field(default_factory=list)
    # (relation, anchor id) on a node linked as its group's partner; None on
    # an anchor and on an unlinked node. pair_groups alone decides it.
    anchor: tuple[RelationKind, str] | None = None
    id: str = field(init=False, compare=False, repr=False)
    category: SemanticCategory = field(init=False, compare=False, repr=False)
    box: BoundingBox = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        det = self.detection
        self.id, self.category, self.box = det.id, det.category, det.box


@dataclass
class LayoutTree:
    page_index: int
    roots: list[LayoutNode] = field(default_factory=list)
    orphans: list[LayoutNode] = field(default_factory=list)
    removed: list[Detection] = field(default_factory=list)
    page_number_texts: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def top_items(self) -> list[LayoutNode]:
        """Roots and orphans: the page-level units before ordering."""
        return [*self.roots, *self.orphans]

    def iter_nodes(self):
        for node in self.top_items():
            yield node
            yield from node.children

    def detection_count(self) -> int:
        return (
            len(self.roots)
            + sum(len(r.children) for r in self.roots)
            + len(self.orphans)
            + len(self.removed)
        )


def assign_children(
    detections: list[Detection], cfg: EngineConfig | None = None
) -> tuple[dict[str, str], set[str]]:
    """Map each top-layer detection to its containing bottom-layer parent.

    A child maps to the parent maximizing intersection-over-child-area (IoA),
    requiring IoA >= ioa_threshold; ties break by smaller parent area, then
    lexicographic parent id. Everything unassigned is an orphan.

    Only parents whose boxes overlap the child's are scored: they lie in a
    bisect window of the y0-sorted parents, at most the tallest parent's
    height above the child. Every other parent has IoA 0, which qualifies
    only when ioa_threshold <= 0; then the smallest parent by (area, id)
    stands for all of them. Boxes are finite with x0 < x1 and y0 < y1, as
    build_layout_tree requires.
    """
    cfg = cfg or EngineConfig()
    threshold = cfg.ioa_threshold
    bottoms = [d for d in detections if d.category not in TOP_LAYER_CATEGORIES]
    # Each parent's box, read once: (y0, y1, x0, x1, area, id, box), sorted
    # by y0 alone, so equal y0s keep detection order.
    rows = [(b.y0, b.y1, b.x0, b.x1, (b.x1 - b.x0) * (b.y1 - b.y0), d.id, b)
            for d in bottoms for b in (d.box,)]
    rows.sort(key=itemgetter(0))
    ys = [r[0] for r in rows]
    tallest = max([r[1] - r[0] for r in rows], default=0.0)
    zero_ioa_best: tuple[float, float, str] | None = None
    if bottoms and not threshold > 0:
        smallest = min(bottoms, key=lambda d: (d.box.area, d.id))
        zero_ioa_best = (-0.0, smallest.box.area, smallest.id)

    parent_map: dict[str, str] = {}
    orphans: set[str] = set()
    for det in detections:
        if det.category not in TOP_LAYER_CATEGORIES:
            continue
        box = det.box
        x0, y0, x1, y1 = box.x0, box.y0, box.x1, box.y1
        child_area = (x1 - x0) * (y1 - y0)
        best: tuple[float, float, str] | None = None
        if child_area > 0.0:  # else a product that underflows: no IoA
            best = zero_ioa_best
            # The margin dwarfs rounding in y1 - height, so no overlap is missed.
            lo = bisect_left(ys, y0 - tallest - 1e-9 * (1.0 + abs(y0) + tallest))
            for py0, py1, px0, px1, parea, pid, pbox in rows[lo:bisect_left(ys, y1)]:
                if py1 <= y0 or px1 <= x0 or px0 >= x1:
                    continue  # no overlap: IoA 0, accounted for above
                ioa = box.intersection_area(pbox) / child_area
                if ioa < threshold:
                    continue
                key = (-ioa, parea, pid)
                if best is None or key < best:
                    best = key
        if best is None:
            orphans.add(det.id)
        else:
            parent_map[det.id] = best[2]
    return parent_map, orphans


def build_layout_tree(
    page_index: int, detections: list[Detection], cfg: EngineConfig | None = None
) -> LayoutTree:
    """assign_children over one page's detections, assembled into a tree.

    A page in memory meets the IR's geometry as a loaded file does, so
    layout and ordering have no rules for other boxes. Nodes are keyed by
    detection id: a page that repeats an id raises DuplicateId, as
    validate_document does for an IR file. A box with a coordinate that is
    not finite, or without x0 < x1 and y0 < y1, raises validate_document's
    SchemaViolation for it (box_violation, unbounded: the [0,1] bound is left
    to the loader).
    """
    cfg = cfg or EngineConfig()
    nodes = {d.id: LayoutNode(d) for d in detections}
    if len(nodes) < len(detections):  # name the first repeat
        seen: set[str] = set()
        for d in detections:
            if d.id in seen:
                raise DuplicateId(d.id)
            seen.add(d.id)
    # One C-level pass per column; a sum is finite only where each term is,
    # or where it overflows: then the per-box rule finds no fault.
    boxes = list(map(_BOX, detections))
    x0, y0, x1, y1 = (list(map(get, boxes)) for get in _COORDS)
    if not (isfinite(sum(x0) + sum(y0) + sum(x1) + sum(y1))
            and all(map(lt, x0, x1)) and all(map(lt, y0, y1))):
        for d in detections:
            violation = box_violation(d, bounded=False)
            if violation is not None:
                raise violation
    parent_map, orphan_ids = assign_children(detections, cfg)
    tree = LayoutTree(page_index=page_index)
    for det in detections:
        node = nodes[det.id]
        if det.category not in TOP_LAYER_CATEGORIES:
            tree.roots.append(node)
        elif det.id in parent_map:
            nodes[parent_map[det.id]].children.append(node)
        else:
            tree.orphans.append(node)
    return tree


def pair_groups(tree: LayoutTree, cfg: EngineConfig | None = None) -> LayoutTree:
    """Link grouped elements. Hints dominate; geometry is the fallback.

    All members of one group hint link pairwise to the group's anchor, its
    anchor-category member with the smallest id. For hint-less detections,
    each anchor greedily takes the nearest compatible partner whose box
    center lies within `pair_distance` of the anchor's box edge, preferring
    the natural vertical adjacency (caption below an image, title above a
    table). A partner links to at most one anchor and records it
    (`LayoutNode.anchor`); reading order and the flow read that record.
    """
    cfg = cfg or EngineConfig()
    nodes: dict[str, LayoutNode] = {}
    for node in tree.iter_nodes():
        if node.group_links:  # a node fresh from build_layout_tree has none
            node.group_links = []
        node.anchor = None
        nodes[node.id] = node
    tree.warnings = [w for w in tree.warnings if not w.startswith("group:")]

    hinted: set[str] = set()
    by_hint: dict[str, list[LayoutNode]] = {}
    for node in nodes.values():
        if node.detection.group_hint is not None:
            by_hint.setdefault(node.detection.group_hint, []).append(node)
            hinted.add(node.id)

    for hint in sorted(by_hint):
        members = sorted(by_hint[hint], key=lambda n: n.id)
        if len(members) < 2:
            continue
        anchors = [m for m in members if m.category in ANCHOR_CATEGORIES]
        if not anchors:
            tree.warnings.append(f"group:{hint}: no anchor among members")
            continue
        if len(anchors) > 1:
            tree.warnings.append(f"group:{hint}: multiple anchors, using {anchors[0].id}")
        anchor = anchors[0]
        for member in members:
            if member is anchor:
                continue
            kind = (
                RELATION_FOR[member.category, anchor.category]
                if member.category in PARTNER_CATEGORIES
                else _CAPTION_RELATION
            )
            _link(anchor, member, kind)

    _pair_by_geometry(tree, hinted, cfg)
    return tree


def _link(anchor: LayoutNode, partner: LayoutNode, kind: RelationKind) -> None:
    # Each pair is linked once: pair_groups resets every node first, a node
    # has one hint, and geometry pairs only hint-less nodes.
    anchor.group_links.append((kind, partner.id))
    partner.group_links.append((kind, anchor.id))
    partner.anchor = (kind, anchor.id)


def _is_preferred(partner: LayoutNode, anchor: LayoutNode) -> bool:
    # Whether the partner sits where it normally does: a table's caption
    # above it, a formula number beside it, anything else below.
    _, cy = partner.box.center
    box = anchor.box
    if partner.category is _CAPTION and anchor.category is _TABLE:
        return cy <= box.y0
    if partner.category is _FORMULA_ID:
        return box.y0 <= cy <= box.y1
    return cy >= box.y1


def _pair_by_geometry(tree: LayoutTree, hinted: set[str], cfg: EngineConfig) -> None:
    # Only page-level nodes pair geometrically; nested inline elements
    # reintegrate through placeholders instead of forming groups.
    top_level = tree.top_items()
    anchors = [n for n in top_level if n.category in ANCHOR_CATEGORIES and n.id not in hinted]
    partners = [n for n in top_level if n.category in PARTNER_CATEGORIES and n.id not in hinted]
    # A center within d of a box lies in [x0 - d, x1 + d] x [y0 - d, y1 + d].
    # So each anchor takes the partners whose center y falls in that window
    # of a list sorted by center y, in their list order, and skips those
    # whose center x falls outside, both windows widened far above the
    # rounding of either side: on the finite boxes layout admits, the
    # candidates are exactly the all-pairs scan's.
    d = cfg.pair_distance
    centers = [n.box.center for n in partners]
    by_y = sorted(range(len(partners)), key=lambda k: centers[k][1])
    ys = [centers[k][1] for k in by_y]
    candidates = []
    for anchor in anchors:
        compatible = COMPATIBLE_PARTNERS.get(anchor.category, frozenset())
        box = anchor.box
        reach = d + 1e-9 * (1.0 + abs(box.x0) + abs(box.x1) + abs(box.y0) + abs(box.y1) + abs(d))
        left, right = box.x0 - reach, box.x1 + reach
        for k in sorted(by_y[bisect_left(ys, box.y0 - reach):bisect_right(ys, box.y1 + reach)]):
            partner = partners[k]
            cx, cy = centers[k]
            if partner.category not in compatible or not left <= cx <= right:
                continue
            dist = box.distance_to_point(cx, cy)
            if dist > d:
                continue
            preferred = 0 if _is_preferred(partner, anchor) else 1
            candidates.append((preferred, dist, anchor.id, partner.id, anchor, partner))

    # Vertically adjacent candidates in the natural direction link first,
    # each tier greedily by ascending distance.
    taken_partners: set[str] = set()
    taken_slots: set[tuple[str, SemanticCategory]] = set()
    for _pref, dist, anchor_id, partner_id, anchor, partner in sorted(
        candidates, key=lambda c: c[:4]
    ):
        if partner_id in taken_partners:
            continue
        slot = (anchor_id, partner.category)
        if slot in taken_slots:
            continue
        taken_partners.add(partner_id)
        taken_slots.add(slot)
        _link(anchor, partner, RELATION_FOR[partner.category, anchor.category])


def filter_functional(tree: LayoutTree) -> LayoutTree:
    """Drop headers, footers, sidebars, watermarks and page numbers.

    Page-number text survives in tree metadata; divider lines stay; anything
    carrying a group link is never removed.
    """
    kept_roots: list[LayoutNode] = []
    for node in tree.roots:
        cat = node.category
        if cat in _REMOVABLE and not node.group_links:
            if cat is _PAGE_NUMBER:
                tree.page_number_texts.append(node.detection.truth_text or "")
            tree.removed.append(node.detection)
            # Nested children of removed furniture would vanish with their
            # parent; surface them as orphans instead.
            tree.orphans.extend(node.children)
            node.children = []
        else:
            kept_roots.append(node)
    tree.roots = kept_roots
    return tree


def build_page_tree(
    page_index: int, detections: list[Detection], cfg: EngineConfig | None = None
) -> LayoutTree:
    """Full per-page layout pass: containment, pairing, filtering."""
    cfg = cfg or EngineConfig()
    tree = build_layout_tree(page_index, list(detections), cfg)
    pair_groups(tree, cfg)
    filter_functional(tree)
    return tree


def group_pairs(tree: LayoutTree) -> set[frozenset[str]]:
    """All linked pairs on a page as unordered id 2-sets."""
    pairs: set[frozenset[str]] = set()
    for node in tree.iter_nodes():
        for _kind, other in node.group_links:
            pairs.add(frozenset({node.id, other}))
    return pairs


def tree_to_dict(tree: LayoutTree) -> dict:
    """Layout tree in the IR file dialect, with children[] and group_links[]."""

    def node_dict(node: LayoutNode) -> dict:
        return {
            "id": node.id,
            "category": node.category.value,
            "box": node.box.as_list(),
            "children": [node_dict(c) for c in node.children],
            "group_links": [
                {"relation": kind.value, "node_id": other} for kind, other in node.group_links
            ],
        }

    return {
        "page_index": tree.page_index,
        "roots": [node_dict(n) for n in tree.roots],
        "orphans": [node_dict(n) for n in tree.orphans],
        "removed": [d.id for d in tree.removed],
        "page_number_texts": list(tree.page_number_texts),
        "warnings": list(tree.warnings),
    }
