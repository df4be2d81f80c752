from __future__ import annotations

import itertools
import math
import random

import pytest
import workloads
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from uniparse import ordering
from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import (
    BoundingBox,
    SchemaViolation,
    SemanticCategory as C,
    validate_document,
)
from uniparse.engine import analyze_pages, build_flow_items, process_document
from uniparse.formats import to_markdown
from uniparse.layout import (
    ANCHOR_CATEGORIES,
    LayoutNode,
    LayoutTree,
    RelationKind,
    build_layout_tree,
    build_page_tree,
    pair_groups,
)
from uniparse.ordering import (
    HCut,
    Leaf,
    OrderUnit,
    VCut,
    cut_leaves,
    gap_tree_order,
    group_cluster,
    order_units,
    xy_cut,
)

from uniparse.payloads import Caption

from conftest import box_lists, det, flatten_cut, one_page_doc, reading_order, xy_cut_oracle


def unit(uid, box):
    return OrderUnit(unit_id=uid, member_ids=(uid,), hull=BoundingBox(*box))


# --- independent oracles -----------------------------------------------------


def scan_gap_oracle(units, axis, min_gap, resolution=2000):
    """Slow gap finder: dense occupancy scan along one axis."""
    occupied = [False] * (resolution + 1)
    lo, hi = resolution, 0
    for u in units:
        b = u.hull
        a0, a1 = (b.y0, b.y1) if axis == "y" else (b.x0, b.x1)
        i0, i1 = int(a0 * resolution), int(a1 * resolution)
        lo, hi = min(lo, i0), max(hi, i1)
        for i in range(i0, i1 + 1):
            occupied[i] = True
    gaps = []
    i = lo
    while i <= hi:
        if not occupied[i]:
            j = i
            while j <= hi and not occupied[j]:
                j += 1
            width = (j - i) / resolution
            if width >= min_gap:
                gaps.append((width, (i + j) / (2 * resolution)))
            i = j
        else:
            i += 1
    gaps.sort(key=lambda g: -g[0])
    return gaps


def brute_force_consistent_orders(units, cfg):
    """All permutations satisfying every pairwise precedence constraint."""
    n = len(units)
    must_precede = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = units[i].hull, units[j].hull
            overlap_x = min(a.x1, b.x1) - max(a.x0, b.x0)
            if a.y1 <= b.y0 and min(a.width, b.width) > 0 and \
                    overlap_x / min(a.width, b.width) >= cfg.h_overlap:
                must_precede.add((i, j))
                continue
            overlap_y = min(a.y1, b.y1) - max(a.y0, b.y0)
            if min(a.height, b.height) > 0 and \
                    overlap_y / min(a.height, b.height) >= cfg.v_overlap and \
                    (b.x0 - a.x0) >= cfg.align_tol:
                must_precede.add((i, j))
    out = []
    for perm in itertools.permutations(range(n)):
        pos = {p: k for k, p in enumerate(perm)}
        if all(pos[i] < pos[j] for i, j in must_precede):
            out.append([units[i].unit_id for i in perm])
    return out


def all_pairs_edges(hulls, cfg):
    """Reference precedence rule: every ordered pair of hulls tested."""
    edges = set()
    for i, a in enumerate(hulls):
        for j, b in enumerate(hulls):
            if i == j:
                continue
            overlap_x = min(a.x1, b.x1) - max(a.x0, b.x0)
            min_w = min(a.width, b.width)
            if a.y1 <= b.y0 and min_w > 0 and overlap_x / min_w >= cfg.h_overlap:
                edges.add((i, j))
                continue
            overlap_y = min(a.y1, b.y1) - max(a.y0, b.y0)
            min_h = min(a.height, b.height)
            same_band = min_h > 0 and overlap_y / min_h >= cfg.v_overlap
            if same_band and (b.x0 - a.x0) >= cfg.align_tol:
                edges.add((i, j))
    return edges


def all_pairs_gap_tree_order(units, cfg=None):
    """Reference fallback: the all-pairs edges, Kahn's algorithm over a ready
    list re-sorted by (y0, x0, id) after each release, and a cycle broken at
    the visually first remaining unit."""
    cfg = cfg or EngineConfig()
    n = len(units)
    if n <= 1:
        return [u.unit_id for u in units]

    hulls = [u.hull for u in units]
    succ: list[set[int]] = [set() for _ in range(n)]
    indeg = [0] * n
    for i, j in all_pairs_edges(hulls, cfg):
        succ[i].add(j)
        indeg[j] += 1

    def sort_key(i: int):
        return (hulls[i].y0, hulls[i].x0, units[i].unit_id)

    remaining = set(range(n))
    ready = sorted((i for i in remaining if indeg[i] == 0), key=sort_key)
    order: list[int] = []
    while remaining:
        if not ready:
            victim = min(remaining, key=sort_key)
            indeg[victim] = 0
            ready = [victim]
        i = ready.pop(0)
        if i not in remaining:
            continue
        remaining.discard(i)
        order.append(i)
        changed = False
        for j in succ[i]:
            if j in remaining:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
                    changed = True
        if changed:
            ready.sort(key=sort_key)
    return [units[i].unit_id for i in order]


def _units(draw, shapes):
    ids = draw(st.permutations(range(len(shapes))))
    return [OrderUnit(f"u{k:03d}", (f"u{k:03d}",), b)
            for k, b in zip(ids, shapes)]


@st.composite
def unit_lists(draw):
    return _units(draw, draw(box_lists(0, 40)))


@st.composite
def crowded_unit_lists(draw):
    """25-62 drawn boxes repeated on a half-page lattice: up to 558 units,
    with copies sharing edges across the lattice. A copy whose width or
    height rounds to 0 is left out, as layout would refuse it."""
    shapes = draw(box_lists(25, 50))
    offsets = (0.0, 0.5, 1.0)
    copies = [BoundingBox(b.x0 + dx, b.y0 + dy, b.x1 + dx, b.y1 + dy)
              for dx in offsets for dy in offsets for b in shapes]
    return _units(draw, [b for b in copies if b.x0 < b.x1 and b.y0 < b.y1])


# v_overlap > 0, as EngineConfig requires
order_configs = st.builds(
    EngineConfig,
    h_overlap=st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5]),
    v_overlap=st.sampled_from([2.0 ** -52, 0.5, 1.0, 1.5]),
    align_tol=st.sampled_from([-0.02, 0.0, 0.02]),
)


@pytest.mark.parametrize("v_overlap", [0.0, -0.0, -0.5])
def test_v_overlap_must_be_positive(v_overlap):
    # with no overlap asked, any two units side by side would share a band
    with pytest.raises(ValueError, match="v_overlap"):
        EngineConfig(v_overlap=v_overlap)
    with pytest.raises(ValueError, match="v_overlap"):
        EngineConfig().copy(v_overlap=v_overlap)


# --- group clustering --------------------------------------------------------


def test_image_caption_pair_is_one_unit_with_hull():
    image = det("i1", (0.1, 0.1, 0.5, 0.4), C.IMAGE)
    caption = det("c1", (0.1, 0.41, 0.5, 0.45), C.CAPTION)
    tree = pair_groups(build_layout_tree(0, [image, caption]))
    units = group_cluster(tree)
    assert len(units) == 1
    assert units[0].unit_id == "i1"
    assert units[0].member_ids == ("i1", "c1")
    assert units[0].hull.as_list() == [0.1, 0.1, 0.5, 0.45]


def test_unlinked_paragraphs_are_singletons():
    paragraphs = [det(f"p{i}", (0.1, 0.1 + i * 0.2, 0.5, 0.2 + i * 0.2)) for i in range(3)]
    tree = build_page_tree(0, paragraphs)
    assert len(group_cluster(tree)) == 3


def test_distant_hinted_pair_is_one_unit():
    mol = det("m1", (0.1, 0.1, 0.3, 0.3), C.MOLECULE, group_hint="g1")
    ident = det("d1", (0.7, 0.7, 0.9, 0.75), C.MOLECULE_IDENTIFIER, group_hint="g1")
    tree = pair_groups(build_layout_tree(0, [mol, ident]))
    units = group_cluster(tree)
    assert len(units) == 1
    assert units[0].hull.as_list() == [0.1, 0.1, 0.9, 0.75]


def test_group_cluster_links_to_children_ties_and_two_partners():
    R = RelationKind
    inline = LayoutNode(det("x1", (0.2, 0.02, 0.3, 0.04), C.FORMULA_INLINE))
    # a link to a nested child anchor leaves both where they are
    para = LayoutNode(det("p1", (0.1, 0.0, 0.9, 0.05)), children=[inline],
                      group_links=[(R.CAPTION, "x1")], anchor=(R.CAPTION, "x1"))
    # the anchor a node records names the unit, whatever the categories
    b2 = LayoutNode(det("b2", (0.1, 0.1, 0.4, 0.2)), group_links=[(R.CAPTION, "b1")],
                    anchor=(R.CAPTION, "b1"))
    b1 = LayoutNode(det("b1", (0.5, 0.1, 0.9, 0.2)), group_links=[(R.CAPTION, "b2")])
    # an anchor with two partners; the footnote and the table share y0 and
    # x0, so the id orders them
    table = LayoutNode(det("t9", (0.1, 0.5, 0.9, 0.8), C.TABLE),
                       group_links=[(R.TITLE, "c1"), (R.FOOTNOTE, "f1")])
    caption = LayoutNode(det("c1", (0.1, 0.4, 0.9, 0.45), C.CAPTION),
                         group_links=[(R.TITLE, "t9")], anchor=(R.TITLE, "t9"))
    footnote = LayoutNode(det("f1", (0.1, 0.5, 0.5, 0.55), C.TABLE_FOOTNOTE),
                          group_links=[(R.FOOTNOTE, "t9")], anchor=(R.FOOTNOTE, "t9"))
    tree = LayoutTree(0, roots=[para, b2, b1, footnote, table, caption], orphans=[])
    units = group_cluster(tree)
    assert [(u.unit_id, u.member_ids) for u in units] == [
        ("p1", ("p1",)), ("b1", ("b2", "b1")), ("t9", ("c1", "f1", "t9"))]
    assert units[1].hull.as_list() == [0.1, 0.1, 0.9, 0.2]
    assert units[2].hull.as_list() == [0.1, 0.4, 0.9, 0.8]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), with_hints=st.booleans(), columns=st.sampled_from([1, 2, 3]),
       jitter_sigma=st.sampled_from([0.0, 0.01, 0.03]), merge_prob=st.sampled_from([0.0, 0.5]))
def test_unit_members_are_named_by_their_anchor(seed, with_hints, columns, jitter_sigma,
                                                merge_prob):
    # engine.build_flow_items reads each member's relation from the anchor it
    # records, with no fallback; the anchor's group links name it too
    spec = CorpusSpec(seed=seed, n_docs=2, pages_min=1, pages_max=2, columns=columns,
                      jitter_sigma=jitter_sigma, merge_prob=merge_prob, with_hints=with_hints)
    docs, _ = gen_corpus(spec)
    for doc in docs:
        for analysis in analyze_pages(doc):
            nodes = {n.id: n for n in analysis.tree.iter_nodes()}
            for u in analysis.units:
                links = nodes[u.unit_id].group_links
                for member_id in set(u.member_ids) - {u.unit_id}:
                    kind, anchor_id = nodes[member_id].anchor
                    assert anchor_id == u.unit_id and (kind, member_id) in links


@pytest.mark.parametrize("image_id, paragraph_id", [("z_img", "a_par"), ("a_img", "z_par")])
def test_a_hint_group_is_anchored_at_its_anchor_category_member(image_id, paragraph_id):
    # The paragraph's smaller id once made it the unit's anchor, and the
    # image dropped out of Markdown and HTML.
    image = det(image_id, (0.1, 0.1, 0.5, 0.4), C.IMAGE, group_hint="g",
                truth_payload=Caption("a micrograph"))
    paragraph = det(paragraph_id, (0.1, 0.42, 0.5, 0.46), group_hint="g",
                    truth_text="Figure 1. The sample.")
    result = process_document(one_page_doc([image, paragraph]), EngineConfig())
    assert [(u.unit_id, u.member_ids) for u in result.analyses[0].units] == [
        (image_id, (image_id, paragraph_id))]
    assert to_markdown(result.parsed) == (
        f"![a micrograph]({image_id})\n\nFigure 1. The sample.\n")


_GROUP_CATEGORIES = (C.IMAGE, C.TABLE, C.FORMULA, C.MOLECULE, C.CHART,  # anchors
                     C.CAPTION, C.FIGURE_LEGEND, C.TABLE_FOOTNOTE, C.FORMULA_ID,  # partners
                     C.MOLECULE_IDENTIFIER, C.PARAGRAPH, C.SECTION_TITLE)


@settings(max_examples=150, deadline=None)
@given(members=st.lists(st.tuples(st.sampled_from(_GROUP_CATEGORIES),
                                  st.sampled_from([None, "g0", "g1", "g2"])),
                        min_size=1, max_size=12),
       ids=st.randoms(use_true_random=False))
def test_units_are_anchored_where_layout_anchors_them(members, ids):
    # one detection per row, so none nests in another; ids shuffled apart
    # from categories and rows
    names = [f"d{i:02d}" for i in range(len(members))]
    ids.shuffle(names)
    dets = [det(name, (0.1, 0.02 + 0.08 * i, 0.9, 0.08 + 0.08 * i), cat, group_hint=hint)
            for i, (name, (cat, hint)) in enumerate(zip(names, members))]
    category = {d.id: d.category for d in dets}
    doc = one_page_doc(dets)
    result = process_document(doc, EngineConfig())
    (analysis,) = result.analyses
    units = analysis.units
    assert sorted(m for u in units for m in u.member_ids) == sorted(
        n.id for n in analysis.tree.top_items())
    for u in units:
        if len(u.member_ids) == 1:
            continue
        assert u.unit_id == min(m for m in u.member_ids if category[m] in ANCHOR_CATEGORIES)
        hint = next(d.group_hint for d in dets if d.id == u.unit_id)
        if hint is not None:
            assert set(u.member_ids) == {d.id for d in dets if d.group_hint == hint}
    nodes = {n.id: n for n in analysis.tree.iter_nodes()}
    for item in build_flow_items(doc, result.analyses, result.gathered):
        for partner in item.partners:
            assert nodes[partner.detection_id].group_links == [
                (partner.relation, item.item_id)]


# --- xy_cut ------------------------------------------------------------------


def test_single_unit_is_leaf():
    tree = xy_cut([unit("a", (0.1, 0.1, 0.3, 0.2))])
    assert tree == Leaf(("a",))


def test_two_column_page_reads_column_major():
    cfg = EngineConfig()
    # gutter (0.10) strictly wider than the row gaps (0.06)
    units = [
        unit("a", (0.10, 0.10, 0.45, 0.42)),
        unit("b", (0.10, 0.48, 0.45, 0.90)),
        unit("c", (0.55, 0.10, 0.90, 0.42)),
        unit("d", (0.55, 0.48, 0.90, 0.90)),
    ]
    cut = xy_cut(units, cfg=cfg)
    assert isinstance(cut, VCut)
    order = [uid for leaf in cut_leaves(cut) for uid in leaf.unit_ids]
    assert order == ["a", "b", "c", "d"]
    # the chosen first cut matches the widest gap from the dense-scan oracle
    v_gaps = scan_gap_oracle(units, "x", cfg.min_gap)
    h_gaps = scan_gap_oracle(units, "y", cfg.min_gap)
    assert v_gaps and v_gaps[0][0] > (h_gaps[0][0] if h_gaps else 0.0)
    assert abs(cut.x - v_gaps[0][1]) < 0.01


def test_full_width_title_cut_first():
    cfg = EngineConfig()
    units = [
        unit("t", (0.10, 0.05, 0.90, 0.12)),
        unit("l", (0.10, 0.20, 0.45, 0.90)),
        unit("r", (0.55, 0.20, 0.90, 0.90)),
    ]
    cut = xy_cut(units, cfg=cfg)
    assert isinstance(cut, HCut)
    order = [uid for leaf in cut_leaves(cut) for uid in leaf.unit_ids]
    assert order == ["t", "l", "r"]
    h_gaps = scan_gap_oracle(units, "y", cfg.min_gap)
    assert abs(cut.y - h_gaps[0][1]) < 0.01


def test_no_gap_leaf_sorted_by_y_then_x():
    units = [
        unit("b", (0.1, 0.2, 0.5, 0.4)),
        unit("a", (0.1, 0.195, 0.5, 0.39)),  # overlapping: no admissible gap
    ]
    cut = xy_cut(units)
    assert isinstance(cut, Leaf)
    assert list(cut.unit_ids) == ["a", "b"]


def test_cut_coordinates_inside_region():
    rng = random.Random(3)
    for _ in range(100):
        units = [
            unit(f"u{i}", _rand_box(rng)) for i in range(rng.randint(1, 10))
        ]

        def walk(node, region):
            if isinstance(node, Leaf):
                return
            if isinstance(node, HCut):
                assert region.y0 < node.y < region.y1
                walk(node.children[0], BoundingBox(region.x0, region.y0, region.x1, node.y))
                walk(node.children[1], BoundingBox(region.x0, node.y, region.x1, region.y1))
            else:
                assert region.x0 < node.x < region.x1
                walk(node.children[0], BoundingBox(region.x0, region.y0, node.x, region.y1))
                walk(node.children[1], BoundingBox(node.x, region.y0, region.x1, region.y1))

        region = BoundingBox(0.0, 0.0, 1.0, 1.0)
        walk(xy_cut(units, region), region)


def _rand_box(rng):
    x0 = rng.uniform(0.0, 0.8)
    y0 = rng.uniform(0.0, 0.8)
    return (x0, y0, x0 + rng.uniform(0.05, 0.2), y0 + rng.uniform(0.02, 0.15))


# Dyadic geometry: every coordinate, width and midpoint is exact, so gap
# widths tie exactly, on one axis and across both, intervals touch, and a gap
# can be exactly min_gap wide; up to a fifth of the boxes repeat an earlier
# one. Widths and heights are positive, as layout requires.
sixteenths = st.integers(0, 16).map(lambda k: k / 16)
spans = st.sampled_from([1 / 32, 1 / 16, 1 / 8, 1 / 4])


@st.composite
def dyadic_box(draw):
    x0, y0 = draw(sixteenths), draw(sixteenths)
    return BoundingBox(x0, y0, x0 + draw(spans), y0 + draw(spans))


@st.composite
def dyadic_unit_lists(draw):
    n = draw(st.integers(0, 50))
    shapes = draw(st.lists(dyadic_box(), min_size=n, max_size=n))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=n // 5)) if n else ():
        shapes.append(shapes[k])
    return _units(draw, shapes)


def assert_cut_matches_oracle(units, cfg):
    got = xy_cut(units, cfg=cfg)
    assert sorted(uid for leaf in cut_leaves(got) for uid in leaf.unit_ids) == \
        sorted(u.unit_id for u in units)
    assert flatten_cut(got) == flatten_cut(xy_cut_oracle(units, cfg.min_gap))


# a and c touch, and the gap from them to b is exactly min_gap wide; the tied
# 1/4 gaps on both axes
@example([unit("a", (0.0, 0.0, 0.25, 0.25)), unit("b", (0.0, 0.5, 0.25, 0.75)),
          unit("c", (0.0, 0.25, 0.25, 0.375))], EngineConfig(min_gap=1 / 8))
@example([unit("a", (0.0, 0.0, 0.25, 0.25)), unit("b", (0.5, 0.0, 0.75, 0.25)),
          unit("c", (0.0, 0.5, 0.25, 0.75)), unit("d", (0.5, 0.5, 0.75, 0.75))],
         EngineConfig(min_gap=0.25))
@settings(max_examples=300, deadline=None)
@given(dyadic_unit_lists(), st.sampled_from([1 / 64, 1 / 32, 1 / 16, 1 / 4]).map(
    lambda g: EngineConfig(min_gap=g)))
def test_xy_cut_matches_oracle(units, cfg):
    assert_cut_matches_oracle(units, cfg)


def test_xy_cut_matches_oracle_on_benchmark_pages():
    pages = 0
    for name in ("reference", "dense", "stream"):
        for seed in (0, 1, 2):
            wl = workloads.build(name, seed)
            for doc in wl.docs:
                for page in doc.pages:
                    tree = build_page_tree(page.page_index, list(page.detections), wl.engine)
                    assert_cut_matches_oracle(group_cluster(tree), wl.engine)
                    pages += 1
    assert pages == 2373


def test_cut_never_leaves_a_side_empty():
    # Past 2**53 floats are 2 apart. a spans x 2**53 + 2 to + 4 and b + 6 to
    # + 8: the gap between them is 2 wide, its midpoint 2**53 + 5 rounds to
    # + 4, and so does a's center, so both units would go to the second
    # side. Layout admits these boxes: it does not bound them to [0, 1].
    base = 2.0 ** 53
    detections = [det("a", (base + 2, 0.1, base + 4, 0.2)), det("b", (base + 6, 0.1, base + 8, 0.2))]
    tree = build_page_tree(0, detections)
    assert reading_order(tree) == ["a", "b"]


# --- gap_tree_order ----------------------------------------------------------


def test_stacked_blocks_top_first():
    units = [unit("b", (0.1, 0.5, 0.5, 0.9)), unit("a", (0.1, 0.1, 0.5, 0.45))]
    assert gap_tree_order(units) == ["a", "b"]


def test_side_by_side_left_first():
    units = [unit("r", (0.55, 0.1, 0.9, 0.5)), unit("l", (0.1, 0.1, 0.45, 0.5))]
    assert gap_tree_order(units) == ["l", "r"]


def test_l_shaped_wrap_order():
    cfg = EngineConfig()
    # paragraph left of a figure, then a full-width paragraph below both
    para_left = unit("pl", (0.10, 0.10, 0.44, 0.50))
    figure = unit("fg", (0.50, 0.10, 0.90, 0.50))
    para_full = unit("pf", (0.10, 0.55, 0.90, 0.80))
    units = [para_full, figure, para_left]
    got = gap_tree_order(units, cfg=cfg)
    assert got == ["pl", "fg", "pf"]
    # brute-force oracle: the answer must be a rule-consistent permutation
    consistent = brute_force_consistent_orders(units, cfg)
    assert got in consistent


def test_gap_tree_output_always_consistent_with_rules():
    rng = random.Random(17)
    cfg = EngineConfig()
    for _ in range(60):
        units = [unit(f"u{i}", _rand_box(rng)) for i in range(rng.randint(2, 6))]
        got = gap_tree_order(units, cfg=cfg)
        assert sorted(got) == sorted(u.unit_id for u in units)
        consistent = brute_force_consistent_orders(units, cfg)
        if consistent:  # acyclic constraint graphs: output must satisfy rules
            assert got in consistent


def test_cycle_broken_deterministically():
    # a ring of same-band/below relations that cannot be totally ordered
    units = [
        unit("a", (0.10, 0.10, 0.30, 0.30)),
        unit("b", (0.32, 0.10, 0.52, 0.30)),
        unit("c", (0.32, 0.28, 0.52, 0.48)),
        unit("d", (0.10, 0.28, 0.30, 0.48)),
    ]
    first = gap_tree_order(units)
    assert sorted(first) == ["a", "b", "c", "d"]
    assert gap_tree_order(list(reversed(units))) == first


def assert_matches_all_pairs(units, cfg):
    assert gap_tree_order(units, cfg=cfg) == all_pairs_gap_tree_order(units, cfg=cfg)


@settings(max_examples=100, deadline=None)
@given(unit_lists(), order_configs)
def test_gap_tree_order_matches_all_pairs_oracle(units, cfg):
    assert_matches_all_pairs(units, cfg)


# No shrinking: a failing crowded page is reported as found, since shrinking
# hundreds of units takes minutes; the small-page test shrinks its failures.
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.large_base_example])
@given(crowded_unit_lists(), order_configs)
def test_gap_tree_order_matches_oracle_on_crowded_pages(units, cfg):
    assert_matches_all_pairs(units, cfg)


_ULP_ABOVE_HALF = math.nextafter(0.5, 1.0)
_ULP_BELOW_HALF = math.nextafter(0.5, 0.0)

# Pages whose band partners sit on the edges of the y0 window and the x0
# threshold; boxes are (x0, y0, x1, y1).
WINDOW_PAGES = {
    # 0.25 of overlap against heights 0.5 and 0.25: exactly 0.5 of the shorter
    "overlap_exactly_v_overlap": [
        (k / 16, (k % 2) * 0.25, k / 16 + 1 / 32, (k % 2) * 0.25 + 0.5) for k in range(10)
    ] + [(0.75, 0.375, 0.8125, 0.625), (0.875, 0.125, 0.9375, 0.375)],
    # a full-height unit on each side of a short row: the window reaches back
    # to y0 = 0 from every unit of the row
    "one_unit_far_taller": [(0.05 + k / 20, 0.6 + k / 1000, 0.07 + k / 20, 0.61 + k / 1000)
                            for k in range(12)] + [(0.0, 0.0, 0.02, 1.0), (0.9, 0.0, 0.95, 1.0)],
    # one y0 for a whole row, with two heights, and a row starting at its y1
    "equal_y0s": [(k / 12, 0.25, k / 12 + 1 / 24, 0.5 if k % 3 else 0.75) for k in range(10)]
    + [(k / 12, 0.5, k / 12 + 1 / 24, 0.625) for k in range(4)],
    # b.y1 one ulp above, at and one ulp below a.y0 = 0.5
    "b_y1_within_an_ulp_of_a_y0": [
        (0.1 * k, 0.25 + k / 128, 0.1 * k + 0.05, y1)
        for k, y1 in enumerate([_ULP_ABOVE_HALF, 0.5, _ULP_BELOW_HALF] * 2)
    ] + [(0.1 * k + 0.03, 0.5, 0.1 * k + 0.08, 0.75) for k in range(6)],
    # four units on one y0, flat as layout admits (one ulp high), units one
    # ulp wide keyed between them, a unit ending on that y0 and a row
    # starting one ulp below it: a flat unit's window ends where that row
    # begins
    "flat_units_on_one_y0": [(0.1 + 0.01 * k, 0.5, 0.3 + 0.01 * k, _ULP_ABOVE_HALF)
                             for k in range(4)]
    + [(0.105 + 0.01 * k, 0.5, math.nextafter(0.105 + 0.01 * k, 1.0), 0.7) for k in range(4)]
    + [(0.1, 0.25, 0.3, 0.5)]
    + [(0.1 + 0.2 * k, _ULP_ABOVE_HALF, 0.25 + 0.2 * k, 0.75) for k in range(3)],
}
WINDOW_CONFIGS = [
    EngineConfig(),
    EngineConfig(v_overlap=1.0),
    EngineConfig(v_overlap=2.0 ** -52),  # admits one ulp of overlap on height 0.25
    EngineConfig(h_overlap=0.0, align_tol=-0.02),
    EngineConfig(v_overlap=1.5),
]


@pytest.mark.parametrize("name", sorted(WINDOW_PAGES))
def test_gap_tree_order_matches_oracle_on_window_boundaries(name):
    units = [unit(f"u{k:02d}", box) for k, box in enumerate(WINDOW_PAGES[name])]
    for cfg in WINDOW_CONFIGS:
        assert_matches_all_pairs(units, cfg)


# Window pages with one coordinate that is not finite: layout refuses them
# with the code and detection the loader names, so no leaf of them is ordered.
NAN_WINDOW_PAGES = {
    "nan_y1": [(0.1 * k, 0.3 + k / 100, 0.1 * k + 0.05, 0.5) for k in range(9)]
    + [(0.95, 0.355, 0.99, math.nan)],
    "nan_x0": [(0.1 * k, 0.3 + k / 100, 0.1 * k + 0.05, 0.5) for k in range(9)]
    + [(math.nan, 0.355, 0.99, 0.45)],
}


@pytest.mark.parametrize("name", sorted(NAN_WINDOW_PAGES))
def test_layout_refuses_window_pages_with_a_nan(name):
    detections = [det(f"u{k:02d}", box) for k, box in enumerate(NAN_WINDOW_PAGES[name])]
    with pytest.raises(SchemaViolation) as loaded:
        validate_document(one_page_doc(detections))
    with pytest.raises(SchemaViolation) as laid_out:
        build_page_tree(0, detections)
    assert loaded.value.field == laid_out.value.field == "box_bounds"
    assert "u09" in loaded.value.reason and "u09" in laid_out.value.reason


# Leaves on which the merge tests a share of the leaf per unit, where the
# dense workload's leaves take a few tests: whole-band windows, long
# held-back lists, quarter-page windows. Boxes are (x0, y0, x1, y1).
def band_page(n, rng):
    """n staggered, x-overlapping paragraphs in one band: every window holds
    the rest of the band."""
    out = []
    for k in range(n):
        x0, y0 = 0.9 * k / n, 0.4 + rng.uniform(0.0, 0.001)
        out.append((x0, y0, x0 + 0.05, y0 + 0.2 + rng.uniform(0.0, 0.001)))
    return out


def scattered_page(n, rng):
    """Paragraphs of random size anywhere: many wait on a neighbour to their
    left that starts lower, so the merge holds back more and more."""
    out = []
    for _ in range(n):
        w, h = rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.2)
        x0, y0 = rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h)
        out.append((x0, y0, x0 + w, y0 + h))
    return out


def staircase_page(n, rng):
    """Each step lower and further right than the last, and tall enough to
    share a band with the next quarter of the steps: nothing waits, but
    every window holds a quarter of the steps."""
    return [(0.9 * k / n, 0.5 * k / n, 0.9 * k / n + 0.05, 0.5 * k / n + 0.25) for k in range(n)]


@pytest.mark.parametrize("shape", [band_page, scattered_page, staircase_page])
@pytest.mark.parametrize("n", [60, 120])
def test_leaves_past_the_merge_budget_match_the_oracle(shape, n):
    rng = random.Random(n)
    boxes = shape(n, rng)
    rng.shuffle(boxes)
    units = [unit(f"u{k:03d}", box) for k, box in enumerate(boxes)]
    for cfg in (EngineConfig(), EngineConfig(h_overlap=0.0, align_tol=0.0)):
        assert_matches_all_pairs(units, cfg)


def dense_trees(cfg, seeds=(0, 1, 2)):
    return [build_page_tree(page.page_index, list(page.detections), cfg)
            for seed in seeds for doc in workloads.build("dense", seed).docs
            for page in doc.pages]


def test_order_units_matches_oracle_on_dense_benchmark_pages(monkeypatch, cfg):
    trees = dense_trees(cfg)
    # the same pages laid out in one column: long chains of stacked units
    monkeypatch.setattr(workloads, "_COLUMNS", 1)
    trees += dense_trees(cfg)
    got = [[u.unit_id for u in order_units(tree, cfg)] for tree in trees]
    monkeypatch.setattr(ordering, "gap_tree_order", all_pairs_gap_tree_order)
    want = [[u.unit_id for u in order_units(tree, cfg)] for tree in trees]
    assert len(trees) == 66
    assert got == want


# --- reading_order -----------------------------------------------------------


def test_empty_page_empty_order():
    tree = build_page_tree(0, [])
    assert reading_order(tree) == []


def test_title_two_columns_group_contiguous():
    detections = [
        det("t1", (0.10, 0.05, 0.90, 0.10), C.DOCUMENT_TITLE),
        det("p1", (0.10, 0.20, 0.45, 0.45)),
        det("i1", (0.10, 0.50, 0.45, 0.75), C.IMAGE),
        det("c1", (0.10, 0.76, 0.45, 0.80), C.CAPTION),
        det("p2", (0.55, 0.20, 0.90, 0.60)),
    ]
    tree = build_page_tree(0, detections)
    order = reading_order(tree)
    assert order[0] == "t1"
    assert order == ["t1", "p1", "i1", "p2"]
    units = {u.unit_id: u for u in order_units(tree)}
    assert units["i1"].member_ids == ("i1", "c1")


def test_corpus_pages_recover_truth(small_corpus, cfg):
    docs, truth = small_corpus
    for doc in docs:
        for page in doc.pages:
            tree = build_page_tree(page.page_index, list(page.detections), cfg)
            got = reading_order(tree, cfg)
            want = truth.docs[doc.doc_id].pages[page.page_index].order
            assert got == want, (doc.doc_id, page.page_index)


def _random_tree(rng, n):
    detections = []
    for i in range(n):
        cat = rng.choice([C.PARAGRAPH, C.TABLE, C.IMAGE, C.MOLECULE, C.FORMULA])
        detections.append(det(f"b{i}", _rand_box(rng), cat))
    return build_page_tree(0, detections)


def test_permutation_property_fuzz():
    rng = random.Random(123)
    for _ in range(500):
        tree = _random_tree(rng, rng.randint(0, 12))
        order = reading_order(tree)
        expected = {u.unit_id for u in group_cluster(tree)}
        assert sorted(order) == sorted(expected)


def test_translation_invariance():
    rng = random.Random(5)
    cfg = EngineConfig()
    for _ in range(50):
        n = rng.randint(2, 8)
        boxes = []
        for i in range(n):
            x0 = rng.uniform(0.0, 0.5)
            y0 = rng.uniform(0.0, 0.5)
            boxes.append((x0, y0, x0 + rng.uniform(0.05, 0.2), y0 + rng.uniform(0.02, 0.1)))
        base = [unit(f"u{i}", b) for i, b in enumerate(boxes)]
        dx, dy = rng.uniform(0.0, 0.25), rng.uniform(0.0, 0.25)
        moved = [
            unit(f"u{i}", (b[0] + dx, b[1] + dy, b[2] + dx, b[3] + dy))
            for i, b in enumerate(boxes)
        ]

        def full_order(units):
            by_id = {u.unit_id: u for u in units}
            out = []
            for leaf in cut_leaves(xy_cut(units, cfg=cfg)):
                leaf_units = [by_id[u] for u in leaf.unit_ids]
                out.extend(gap_tree_order(leaf_units, cfg=cfg) if len(leaf_units) > 1
                           else list(leaf.unit_ids))
            return out

        assert full_order(base) == full_order(moved)


def test_monotone_stacking_full_width():
    rng = random.Random(31)
    for _ in range(50):
        y = 0.05
        units = []
        i = 0
        while y < 0.85:
            h = rng.uniform(0.03, 0.12)
            units.append(unit(f"u{i}", (0.1, y, 0.9, min(y + h, 0.9))))
            y += h + rng.uniform(0.001, 0.05)
            i += 1
        rng.shuffle(units)
        order = gap_tree_order(units) if len(units) > 1 else [u.unit_id for u in units]
        by_id = {u.unit_id: u for u in units}
        ys = [by_id[uid].hull.y0 for uid in order]
        assert ys == sorted(ys)
        # and through the full pipeline as well
        full = [uid for leaf in cut_leaves(xy_cut(units)) for uid in leaf.unit_ids]
        ys2 = [by_id[uid].hull.y0 for uid in full]
        assert ys2 == sorted(ys2)


def test_determinism_across_runs():
    rng = random.Random(77)
    trees = [_random_tree(rng, rng.randint(1, 10)) for _ in range(20)]
    first = [reading_order(t) for t in trees]
    second = [reading_order(t) for t in trees]
    assert first == second
