from __future__ import annotations

import math
import random

import pytest
import workloads
from hypothesis import assume, example, given, settings, strategies as st

from uniparse.config import EngineConfig
from uniparse.docmodel import (
    TOP_LAYER_CATEGORIES,
    BoundingBox,
    Detection,
    DocumentIR,
    DuplicateId,
    PageIR,
    SchemaViolation,
    SemanticCategory as C,
    validate_document,
)
from uniparse import layout
from uniparse.engine import process_document
from uniparse.layout import (
    ANCHOR_CATEGORIES,
    COMPATIBLE_PARTNERS,
    PARTNER_CATEGORIES,
    RELATION_FOR,
    RelationKind,
    assign_children,
    build_layout_tree,
    build_page_tree,
    filter_functional,
    group_pairs,
    pair_groups,
    tree_to_dict,
)

from conftest import box_lists, det, find, one_page_doc


def exhaustive_parent_oracle(child, bottoms, threshold):
    """Independent comparator: scan all parents, rank by the stated rule."""
    best = None
    for parent in bottoms:
        ioa = child.box.intersection_area(parent.box) / child.box.area
        if ioa < threshold:
            continue
        key = (-ioa, parent.box.area, parent.id)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


def all_pairs_assign_children(detections, cfg):
    """Reference assignment: every top-layer child scored against every parent."""
    bottoms = [d for d in detections if d.category not in TOP_LAYER_CATEGORIES]
    parent_map, orphans = {}, set()
    for d in detections:
        if d.category not in TOP_LAYER_CATEGORIES:
            continue
        parent = (exhaustive_parent_oracle(d, bottoms, cfg.ioa_threshold)
                  if d.box.area > 0.0 else None)
        if parent is None:
            orphans.add(d.id)
        else:
            parent_map[d.id] = parent
    return parent_map, orphans


def test_inline_formula_maps_to_paragraph():
    para = det("p1", (0.1, 0.1, 0.5, 0.3))
    inline = det("f1", (0.2, 0.15, 0.25, 0.18), C.FORMULA_INLINE)
    parent_map, orphans = assign_children([para, inline])
    assert parent_map == {"f1": "p1"}
    assert orphans == set()


def test_no_overlap_makes_orphan():
    para = det("p1", (0.1, 0.1, 0.5, 0.3))
    fig = det("x1", (0.6, 0.6, 0.8, 0.8), C.FIGURE)
    parent_map, orphans = assign_children([para, fig])
    assert parent_map == {}
    assert orphans == {"x1"}


def test_tie_breaks_by_smaller_parent_area_then_id():
    # child overlaps A and B with the same IoA 0.6; A is smaller -> A wins
    child = det("c1", (0.40, 0.40, 0.50, 0.50), C.MOLECULE)
    a = det("pa", (0.40, 0.34, 0.50, 0.46))   # area 0.012, overlap 0.10x0.06
    b = det("pb", (0.35, 0.34, 0.55, 0.46))   # area 0.024, same y-overlap band
    parent_map, _ = assign_children([a, b, child])
    assert parent_map["c1"] == "pa"
    oracle = exhaustive_parent_oracle(child, [a, b], 0.5)
    assert parent_map["c1"] == oracle


def test_assign_matches_oracle_on_random_layouts():
    rng = random.Random(4)
    cfg = EngineConfig()
    for _ in range(200):
        bottoms = [
            det(f"p{i}", _rand_box(rng), C.PARAGRAPH) for i in range(rng.randint(1, 5))
        ]
        children = [
            det(f"c{i}", _rand_box(rng, small=True), C.FORMULA_INLINE)
            for i in range(rng.randint(1, 4))
        ]
        parent_map, orphans = assign_children(bottoms + children, cfg)
        for child in children:
            expected = exhaustive_parent_oracle(child, bottoms, cfg.ioa_threshold)
            if expected is None:
                assert child.id in orphans
            else:
                assert parent_map[child.id] == expected


@st.composite
def mixed_layers(draw):
    shapes = draw(box_lists(0, 40))
    categories = st.sampled_from([C.PARAGRAPH, C.TABLE, C.IMAGE, C.FORMULA_INLINE, C.MOLECULE])
    return [Detection(id=f"d{k:03d}", page_index=0, box=box, category=draw(categories),
                      confidence=0.9)
            for k, box in zip(draw(st.permutations(range(len(shapes)))), shapes)]


@settings(max_examples=100, deadline=None)
@given(mixed_layers(), st.sampled_from([-0.5, 0.0, 0.5, 1.0]))
def test_assign_children_matches_all_pairs_oracle(detections, threshold):
    cfg = EngineConfig(ioa_threshold=threshold)
    assert assign_children(detections, cfg) == all_pairs_assign_children(detections, cfg)


def test_parent_search_scores_only_overlapping_parents(monkeypatch):
    doc = workloads._dense_page("guard", 300, random.Random("guard"), {})
    detections = list(doc.pages[0].detections)
    tops = [d for d in detections if d.category in TOP_LAYER_CATEGORIES]
    bottoms = [d for d in detections if d.category not in TOP_LAYER_CATEGORIES]
    assert len(tops) > 100 and len(bottoms) > 300
    calls = 0
    scored = BoundingBox.intersection_area

    def counted(self, other):
        nonlocal calls
        calls += 1
        return scored(self, other)

    monkeypatch.setattr(BoundingBox, "intersection_area", counted)
    cfg = EngineConfig()
    got = assign_children(detections, cfg)
    # All pairs would score len(tops) * len(bottoms) (> 30,000) boxes.
    assert calls < 10 * len(tops)
    assert got == all_pairs_assign_children(detections, cfg)


def _rand_box(rng, small=False):
    x0 = rng.uniform(0.0, 0.7)
    y0 = rng.uniform(0.0, 0.7)
    w = rng.uniform(0.02, 0.08) if small else rng.uniform(0.1, 0.3)
    h = rng.uniform(0.01, 0.05) if small else rng.uniform(0.05, 0.2)
    return (x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0))


def _paired_tree(detections, cfg=None):
    tree = build_layout_tree(0, detections, cfg)
    return pair_groups(tree, cfg)


def test_caption_below_image_links():
    image = det("i1", (0.1, 0.1, 0.5, 0.4), C.IMAGE)
    caption = det("c1", (0.1, 0.41, 0.5, 0.45), C.CAPTION)
    tree = _paired_tree([image, caption])
    assert (RelationKind.CAPTION, "c1") in find(tree, "i1").group_links
    assert (RelationKind.CAPTION, "i1") in find(tree, "c1").group_links


def test_hint_dominates_distance():
    # linked despite being far beyond the geometric threshold
    mol = det("m1", (0.1, 0.1, 0.3, 0.3), C.MOLECULE, group_hint="g2")
    ident = det("d1", (0.7, 0.8, 0.9, 0.85), C.MOLECULE_IDENTIFIER, group_hint="g2")
    tree = _paired_tree([mol, ident])
    assert (RelationKind.MOLECULE_IDENTIFIER, "d1") in find(tree, "m1").group_links

    # moving the partner further changes nothing (geometry never consulted)
    ident_far = det("d1", (0.75, 0.9, 0.95, 0.95), C.MOLECULE_IDENTIFIER, group_hint="g2")
    tree2 = _paired_tree([mol, ident_far])
    assert find(tree2, "m1").group_links == find(tree, "m1").group_links


def test_equidistant_anchors_resolve_by_id():
    # caption centered below and exactly between two side-by-side images:
    # the greedy comparator oracle says equal distance, equal preference,
    # so the lexicographically first anchor id wins.
    # binary-exact coordinates so the two distances tie without float noise
    img_a = det("ia", (0.25, 0.25, 0.46875, 0.5), C.IMAGE)
    img_b = det("ib", (0.53125, 0.25, 0.75, 0.5), C.IMAGE)
    caption = det("cc", (0.46875, 0.5, 0.53125, 0.5625), C.CAPTION)
    tree = _paired_tree([img_a, img_b, caption])

    cx, cy = caption.box.center
    da = img_a.box.distance_to_point(cx, cy)
    db = img_b.box.distance_to_point(cx, cy)
    assert da == db  # the fixture really is equidistant
    assert (RelationKind.CAPTION, "cc") in find(tree, "ia").group_links
    assert not find(tree, "ib").group_links


def test_preferred_direction_beats_distance():
    # identifier sits below its molecule and slightly closer to the next
    # molecule beneath it; vertical adjacency in the natural direction wins
    mol_top = det("m1", (0.1, 0.10, 0.4, 0.30), C.MOLECULE)
    ident = det("d1", (0.15, 0.33, 0.35, 0.36), C.MOLECULE_IDENTIFIER)
    mol_bot = det("m2", (0.1, 0.37, 0.4, 0.57), C.MOLECULE)
    tree = _paired_tree([mol_top, ident, mol_bot])
    assert (RelationKind.MOLECULE_IDENTIFIER, "d1") in find(tree, "m1").group_links


def test_partner_outside_threshold_stays_standalone():
    image = det("i1", (0.1, 0.1, 0.3, 0.2), C.IMAGE)
    caption = det("c1", (0.1, 0.5, 0.3, 0.55), C.CAPTION)
    tree = _paired_tree([image, caption])
    assert not find(tree, "i1").group_links
    assert not find(tree, "c1").group_links


def test_table_caption_is_title_relation():
    caption = det("c1", (0.1, 0.08, 0.5, 0.11), C.CAPTION)
    table = det("t1", (0.1, 0.12, 0.5, 0.3), C.TABLE)
    tree = _paired_tree([caption, table])
    assert (RelationKind.TITLE, "c1") in find(tree, "t1").group_links


def all_pairs_pair_by_geometry(tree, hinted, cfg):
    """Reference geometric pairing: every hint-less anchor scored against
    every hint-less partner, then linked greedily as pair_groups does."""
    top_level = tree.top_items()
    anchors = [n for n in top_level if n.category in ANCHOR_CATEGORIES and n.id not in hinted]
    partners = [n for n in top_level if n.category in PARTNER_CATEGORIES and n.id not in hinted]
    candidates = []
    for anchor in anchors:
        for partner in partners:
            if partner.category not in COMPATIBLE_PARTNERS[anchor.category]:
                continue
            dist = anchor.box.distance_to_point(*partner.box.center)
            if dist > cfg.pair_distance:
                continue
            preferred = 0 if layout._is_preferred(partner, anchor) else 1
            candidates.append((preferred, dist, anchor.id, partner.id, anchor, partner))
    taken_partners, taken_slots = set(), set()
    for _pref, _dist, anchor_id, partner_id, anchor, partner in sorted(
            candidates, key=lambda c: c[:4]):
        slot = (anchor_id, partner.category)
        if partner_id in taken_partners or slot in taken_slots:
            continue
        taken_partners.add(partner_id)
        taken_slots.add(slot)
        layout._link(anchor, partner, RELATION_FOR[partner.category, anchor.category])


# Few distinct coordinates: centers on a 1/16 grid fall exactly on the window
# edges y0 - d, y1 + d, x0 - d and x1 + d for the dyadic distances below, at
# distance exactly d. Now and then a coordinate is any float of [0, 1].
_SIXTEENTHS = st.integers(0, 16).map(lambda k: k / 16)
_PAIRING_CATEGORIES = st.sampled_from(sorted(ANCHOR_CATEGORIES | PARTNER_CATEGORIES)
                                      + [C.PARAGRAPH])


@st.composite
def pairing_pages(draw):
    coord = st.one_of(*[_SIXTEENTHS] * 8, st.floats(0.0, 1.0))
    size = st.sampled_from([0.125, 0.25, 0.5])
    detections = []
    for k in range(draw(st.integers(0, 24))):
        x0, y0 = draw(coord), draw(coord)
        box = BoundingBox(x0, y0, x0 + draw(size), y0 + draw(size))
        hint = draw(st.sampled_from([None, None, None, None, "g1", "g2"]))
        detections.append(Detection(id=f"d{k:03d}", page_index=0, box=box,
                                    category=draw(_PAIRING_CATEGORIES), confidence=0.9,
                                    group_hint=hint))
    return detections


def _partner_at(category, center):
    """An anchor (0.25, 0.25)-(0.5, 0.5) and a partner with this center."""
    cx, cy = center
    return [det("a", (0.25, 0.25, 0.5, 0.5), C.IMAGE if category is C.CAPTION else C.FORMULA),
            det("p", (cx - 1 / 16, cy - 1 / 16, cx + 1 / 16, cy + 1 / 16), category)]


# a partner exactly pair_distance below, above, left and right of its anchor
@example(_partner_at(C.CAPTION, (0.375, 0.625)), 1 / 8)
@example(_partner_at(C.CAPTION, (0.375, 0.125)), 1 / 8)
@example(_partner_at(C.FORMULA_ID, (0.125, 0.375)), 1 / 8)
@example(_partner_at(C.FORMULA_ID, (0.625, 0.375)), 1 / 8)
@settings(max_examples=300, deadline=None)
@given(pairing_pages(), st.sampled_from([0.0, 1 / 16, 0.08, 1 / 8, 0.5]))
def test_geometric_pairing_matches_all_pairs_oracle(detections, distance):
    cfg = EngineConfig(pair_distance=distance)
    got = tree_to_dict(_paired_tree(detections, cfg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layout, "_pair_by_geometry", all_pairs_pair_by_geometry)
        want = tree_to_dict(_paired_tree(detections, cfg))
    assert got == want
    if [d.id for d in detections] == ["a", "p"]:
        assert got["roots"][0]["group_links"]


def test_geometric_pairing_scores_only_nearby_partners(monkeypatch):
    # 600 hint-less images and captions scattered on one page: all pairs
    # would score 90,000 distances
    rng = random.Random(3)
    detections = []
    for k in range(600):
        x0, y0 = rng.uniform(0.0, 0.95), rng.uniform(0.0, 0.98)
        detections.append(det(f"s{k:03d}", (x0, y0, x0 + 0.03, y0 + 0.01),
                              C.IMAGE if k % 2 else C.CAPTION))
    calls = 0
    scored = BoundingBox.distance_to_point

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return scored(self, x, y)

    cfg = EngineConfig()
    monkeypatch.setattr(BoundingBox, "distance_to_point", counted)
    got = tree_to_dict(_paired_tree(detections, cfg))
    assert calls < 10_000
    monkeypatch.setattr(layout, "_pair_by_geometry", all_pairs_pair_by_geometry)
    assert tree_to_dict(_paired_tree(detections, cfg)) == got


def test_filter_removes_header_keeps_divider():
    header = det("h1", (0.1, 0.02, 0.9, 0.05), C.HEADER)
    p1 = det("p1", (0.1, 0.1, 0.5, 0.2))
    p2 = det("p2", (0.1, 0.3, 0.5, 0.4))
    divider = det("d1", (0.1, 0.25, 0.9, 0.26), C.DIVIDER_LINE)
    tree = build_page_tree(0, [header, p1, p2, divider])
    ids = {n.id for n in tree.top_items()}
    assert ids == {"p1", "p2", "d1"}
    assert [d.id for d in tree.removed] == ["h1"]


def test_page_number_text_kept_in_metadata():
    page_no = det("n1", (0.45, 0.95, 0.55, 0.97), C.PAGE_NUMBER, truth_text="42")
    tree = build_page_tree(0, [page_no, det("p1", (0.1, 0.1, 0.5, 0.2))])
    assert tree.page_number_texts == ["42"]
    assert all(n.id != "n1" for n in tree.top_items())


def test_linked_footer_survives_filter():
    # pathological: a footer carrying a group link is never removed
    footer = det("f1", (0.1, 0.9, 0.9, 0.95), C.FOOTER)
    tree = build_layout_tree(0, [footer])
    find(tree, "f1").group_links.append((RelationKind.CAPTION, "ghost"))
    filter_functional(tree)
    assert find(tree, "f1") is not None
    assert not tree.removed


def test_conservation_on_random_pages():
    rng = random.Random(9)
    categories = list(C)
    for _ in range(200):
        detections = []
        for i in range(rng.randint(0, 25)):
            cat = rng.choice(categories)
            detections.append(det(f"b{i}", _rand_box(rng, small=rng.random() < 0.4), cat))
        tree = build_page_tree(0, detections)
        assert tree.detection_count() == len(detections)
        # depth bound: children never have children
        for node in tree.top_items():
            for child in node.children:
                assert not child.children


def test_pair_and_filter_idempotent():
    R = RelationKind
    image = det("i1", (0.1, 0.1, 0.5, 0.4), C.IMAGE)
    caption = det("c1", (0.1, 0.41, 0.5, 0.45), C.CAPTION)
    header = det("h1", (0.1, 0.02, 0.9, 0.05), C.HEADER)
    # one hint over an anchor and three members
    hinted = [det("t1", (0.55, 0.1, 0.9, 0.3), C.TABLE, group_hint="g"),
              det("m1", (0.55, 0.05, 0.9, 0.08), C.CAPTION, group_hint="g"),
              det("m2", (0.55, 0.31, 0.9, 0.34), C.TABLE_FOOTNOTE, group_hint="g"),
              det("m3", (0.55, 0.35, 0.9, 0.4), group_hint="g")]
    # a second geometric pair
    pair = [det("i2", (0.1, 0.5, 0.5, 0.7), C.IMAGE),
            det("c2", (0.1, 0.71, 0.5, 0.75), C.CAPTION)]
    cfg = EngineConfig()
    tree = build_layout_tree(0, [image, caption, header, *hinted, *pair], cfg)
    expected = sorted([
        ("i1", R.CAPTION, "c1"), ("c1", R.CAPTION, "i1"),
        ("t1", R.TITLE, "m1"), ("m1", R.TITLE, "t1"),
        ("t1", R.FOOTNOTE, "m2"), ("m2", R.FOOTNOTE, "t1"),
        ("t1", R.CAPTION, "m3"), ("m3", R.CAPTION, "t1"),
        ("i2", R.CAPTION, "c2"), ("c2", R.CAPTION, "i2"),
    ])
    nodes = list({id(n): n for n in tree.iter_nodes()}.values())
    assert len(nodes) == 9
    for _ in range(2):
        pair_groups(tree, cfg)
        links = sorted((n.id, kind, other) for n in nodes for kind, other in n.group_links)
        assert links == expected
        assert sorted((n.id, n.anchor) for n in nodes if n.anchor) == [
            ("c1", (R.CAPTION, "i1")), ("c2", (R.CAPTION, "i2")), ("m1", (R.TITLE, "t1")),
            ("m2", (R.FOOTNOTE, "t1")), ("m3", (R.CAPTION, "t1"))]
    filter_functional(tree)
    removed_once = [d.id for d in tree.removed]
    numbers_once = list(tree.page_number_texts)
    filter_functional(tree)
    assert [d.id for d in tree.removed] == removed_once
    assert tree.page_number_texts == numbers_once


def test_a_repeated_detection_id_is_refused():
    # Nodes are keyed by id: a second "i2" would replace the first, whose box
    # would be lost, and be listed twice among the roots.
    twins = [det("i2", (0.55, 0.8, 0.9, 0.95), C.IMAGE),
             det("i2", (0.1, 0.5, 0.5, 0.7), C.IMAGE),
             det("c2", (0.1, 0.71, 0.5, 0.75), C.CAPTION)]
    with pytest.raises(DuplicateId) as info:
        build_layout_tree(0, twins, EngineConfig())
    assert info.value.detection_id == "i2"
    with pytest.raises(DuplicateId):
        process_document(one_page_doc(twins))


def _is_admitted(box):
    return all(map(math.isfinite, box.as_list())) and box.x0 < box.x1 and box.y0 < box.y1


@st.composite
def documents_with_a_refused_box(draw):
    """1-3 pages of boxes on a 1/16 grid, some with a coordinate that is
    NaN or infinite, or with a zero or inverted span: at least one is one
    that layout refuses. Every other rule of validate_document holds."""
    corner = st.one_of(_SIXTEENTHS, st.sampled_from([math.nan, math.inf, -math.inf]))
    categories = st.sampled_from([C.PARAGRAPH, C.IMAGE, C.CAPTION, C.FORMULA_INLINE, C.TABLE])
    pages, k = [], 0
    for page in range(draw(st.integers(1, 3))):
        detections = []
        for _ in range(draw(st.integers(0, 6))):
            if draw(st.booleans()):
                x0, y0 = draw(_SIXTEENTHS) * 0.75, draw(_SIXTEENTHS) * 0.75
                box = BoundingBox(x0, y0, x0 + 0.25, y0 + 0.25)
            else:
                box = BoundingBox(draw(corner), draw(corner), draw(corner), draw(corner))
            detections.append(Detection(id=f"d{k:03d}", page_index=page, box=box,
                                        category=draw(categories), confidence=0.9))
            k += 1
        pages.append(PageIR(page, 612.0, 792.0, tuple(detections)))
    assume(not all(_is_admitted(d.box) for p in pages for d in p.detections))
    return DocumentIR(doc_id="doc", pages=tuple(pages))


def _one_refused(box):
    return one_page_doc([det("ok", (0.1, 0.1, 0.5, 0.2)), det("bad", box)])


@example(_one_refused((0.5, 0.1, 0.5, 0.2)))  # zero width
@example(_one_refused((0.1, 0.3, 0.5, 0.2)))  # inverted height
@example(_one_refused((0.1, math.nan, 0.5, 0.2)))
@example(_one_refused((0.1, 0.1, math.inf, 0.2)))
@example(_one_refused((-math.inf, 0.1, 0.5, 0.2)))
# an int beyond float range, which the loader refuses as outside [0,1]
@example(_one_refused((0.1, 0.1, 10**400, 0.2)))
@example(_one_refused((0, 0, 10**400, 1)))
@example(_one_refused((-10**400, 0.1, 0.5, 0.2)))
@settings(max_examples=200, deadline=None)
@given(documents_with_a_refused_box())
def test_layout_refuses_the_boxes_the_loader_refuses(doc):
    # the loader's error for the first such box, in file order; layout names
    # the same detection with the same code, on the same page
    with pytest.raises(SchemaViolation) as loaded:
        validate_document(doc)
    want = loaded.value
    assert want.field in ("degenerate_box", "box_bounds")
    with pytest.raises(SchemaViolation) as processed:
        process_document(doc)
    for got in (processed.value, _first_page_refusal(doc)):
        assert (got.field, got.reason.split()[1]) == (want.field, want.reason.split()[1])


def _first_page_refusal(doc):
    for page in doc.pages:
        try:
            build_page_tree(page.page_index, list(page.detections))
        except SchemaViolation as exc:
            return exc
    raise AssertionError("no page was refused")


def test_multi_anchor_hint_group_warns():
    a1 = det("a1", (0.1, 0.1, 0.3, 0.3), C.IMAGE, group_hint="g1")
    a2 = det("a2", (0.5, 0.1, 0.7, 0.3), C.TABLE, group_hint="g1")
    cap = det("c1", (0.1, 0.31, 0.3, 0.35), C.CAPTION, group_hint="g1")
    tree = _paired_tree([a1, a2, cap])
    assert any("multiple anchors" in w for w in tree.warnings)
    assert (RelationKind.CAPTION, "c1") in find(tree, "a1").group_links


def test_group_pairs_extraction():
    image = det("i1", (0.1, 0.1, 0.5, 0.4), C.IMAGE)
    caption = det("c1", (0.1, 0.41, 0.5, 0.45), C.CAPTION)
    tree = _paired_tree([image, caption])
    assert group_pairs(tree) == {frozenset({"i1", "c1"})}
