from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from uniparse.config import EngineConfig
from uniparse.consolidate import (
    FlowItem,
    Partner,
    SectionNode,
    _can_merge_paragraphs,
    _merge_paragraph_items,
    _merge_reactions,
    _merge_tables,
    integrate_sections,
    link_multimodal,
    merge_fragments,
)
from uniparse.docmodel import BoundingBox, OutlineEntry, SemanticCategory as C
from uniparse.layout import RelationKind
from uniparse.payloads import Cell, Reaction, TableGrid, Text

CFG = EngineConfig()


def item(item_id, text=None, category=C.PARAGRAPH, page=0, payload=None, partners=(),
         hint=None):
    if payload is None and text is not None:
        payload = Text(text)
    return FlowItem(
        item_id=item_id,
        page_index=page,
        category=category,
        box=BoundingBox(0.1, 0.1, 0.5, 0.2),
        payload=payload,
        partners=tuple(partners),
        group_hint=hint,
    )


def canon(text: str) -> str:
    """Comparator for content conservation: ignore join spaces and hyphens."""
    return re.sub(r"[\s-]+", "", text)


def grid(rows, cols, prefix="c"):
    cells = tuple(
        Cell(r, k, content=(f"{prefix}{r}{k}",)) for r in range(rows) for k in range(cols)
    )
    return TableGrid(rows=rows, cols=cols, cells=cells)


# --- cross-column ------------------------------------------------------------


def test_hyphen_join_drops_hyphen():
    items = [item("a", "the run was per-"), item("b", "formed using acid")]
    merged = merge_fragments(items, CFG)
    assert len(merged) == 1
    assert merged[0].payload.value == "the run was performed using acid"
    assert merged[0].item_id == "a"
    assert merged[0].merged_ids == ("b",)
    assert canon(merged[0].payload.value) == canon("the run was per-" + "formed using acid")


def test_terminal_punctuation_blocks_merge():
    items = [item("a", "end of sentence."), item("b", "New sentence begins")]
    assert len(merge_fragments(items, CFG)) == 2


def test_continuity_merge_single_space():
    items = [item("a", "the reaction of"), item("b", "the aldehyde proceeded")]
    merged = merge_fragments(items, CFG)
    assert len(merged) == 1
    assert merged[0].payload.value == "the reaction of the aldehyde proceeded"


def test_uppercase_continuation_blocks_merge():
    items = [item("a", "the reaction of"), item("b", "The aldehyde proceeded")]
    assert len(merge_fragments(items, CFG)) == 2


def test_chain_of_three_fragments_merges_once():
    items = [item("a", "first part"), item("b", "second part"), item("c", "third part.")]
    merged = merge_fragments(items, CFG)
    assert len(merged) == 1
    assert merged[0].merged_ids == ("b", "c")


def test_merge_does_not_skip_a_page():
    items = [item("a", "runs on", page=0), item("b", "the next page", page=2)]
    assert len(merge_fragments(items, CFG)) == 2


def test_cjk_join_without_space():
    cfg = EngineConfig()
    items = [item("a", "实验结果表明"), item("b", "该方法有效")]
    # zh documents join without an inserted space
    merged = merge_fragments(items, cfg, language_tag="zh")
    assert len(merged) == 1
    assert merged[0].payload.value == "实验结果表明该方法有效"


def test_cross_column_idempotent():
    items = [item("a", "the run was per-"), item("b", "formed using acid")]
    once = merge_fragments(items, CFG)
    twice = merge_fragments(once, CFG)
    assert once == twice


# --- cross-page --------------------------------------------------------------


def test_split_table_merges_with_row_and_cell_conservation():
    first = item("t1", category=C.TABLE, payload=grid(12, 5, "a"), page=0)
    second = item("t2", category=C.TABLE, payload=grid(7, 5, "b"), page=1)
    merged = merge_fragments([first, second], CFG)
    assert len(merged) == 1
    out = merged[0].payload
    assert out.rows == 19 and out.cols == 5
    assert len(out.cells) == 12 * 5 + 7 * 5
    assert out.spans_tile()
    assert merged[0].merged_ids == ("t2",)


def test_column_mismatch_blocks_table_merge():
    first = item("t1", category=C.TABLE, payload=grid(3, 5), page=0)
    second = item("t2", category=C.TABLE, payload=grid(3, 4), page=1)
    assert len(merge_fragments([first, second], CFG)) == 2


def test_captioned_continuation_needs_continued_marker():
    cap = Partner(RelationKind.TITLE, C.CAPTION, "c2", Text("Table 4. More results"))
    first = item("t1", category=C.TABLE, payload=grid(3, 4), page=0)
    second = item("t2", category=C.TABLE, payload=grid(2, 4), page=1, partners=[cap])
    assert len(merge_fragments([first, second], CFG)) == 2

    cap_cont = Partner(RelationKind.TITLE, C.CAPTION, "c2", Text("Table 4 (CONTINUED)"))
    second2 = item("t2", category=C.TABLE, payload=grid(2, 4), page=1, partners=[cap_cont])
    assert len(merge_fragments([first, second2], CFG)) == 1


def test_running_paragraph_merges_across_pages():
    items = [item("a", "values were measured at", page=0),
             item("b", "room temperature.", page=1)]
    merged = merge_fragments(items, CFG)
    assert len(merged) == 1
    assert merged[0].payload.value == "values were measured at room temperature."
    assert canon(merged[0].payload.value) == canon("values were measured at" + "room temperature.")


def test_section_title_opening_page_blocks_merge():
    items = [item("a", "values were measured at", page=0),
             item("b", "3 Results", category=C.SECTION_TITLE, page=1)]
    assert len(merge_fragments(items, CFG)) == 2


def test_reaction_fragments_merge_on_shared_hint():
    first = item("r1", category=C.CHEMICAL_REACTION, page=0, hint="g7",
                 payload=Reaction(("CCO",), ("heat",), ("OCC",)))
    second = item("r2", category=C.CHEMICAL_REACTION, page=1, hint="g7",
                  payload=Reaction(("OCC",), (), ("CC=O",)))
    merged = merge_fragments([first, second], CFG)
    assert len(merged) == 1
    assert merged[0].payload == Reaction(("CCO", "OCC"), ("heat",), ("OCC", "CC=O"))

    second_nohint = item("r2", category=C.CHEMICAL_REACTION, page=1,
                         payload=Reaction(("OCC",), (), ("CC=O",)))
    assert len(merge_fragments([first, second_nohint], CFG)) == 2


def test_cross_page_only_touches_boundary_items():
    items = [
        item("a", "stays whole.", page=0),
        item("b", "ends without period", page=0),
        item("c", "but this one starts uppercase.", page=1),
    ]
    # b->c: 'but' is lowercase, so they do merge; then a must stay untouched
    merged = merge_fragments(items, CFG)
    assert [i.item_id for i in merged] == ["a", "b"]


def test_cross_page_idempotent():
    items = [item("a", "values were measured at", page=0),
             item("b", "room temperature.", page=1)]
    once = merge_fragments(items, CFG)
    assert merge_fragments(once, CFG) == once


# --- one walk against the two passes it replaced -----------------------------


def merge_by_two_passes(items, cfg, language_tag):
    """The oracle: a column pass (paragraphs on one page), then a page pass
    (paragraphs, tables and reactions across a one-page step)."""
    no_space = cfg.joins_without_space(language_tag)
    out = []
    for it in items:
        if (out and out[-1].page_index == it.page_index
                and _can_merge_paragraphs(out[-1], it, cfg, caseless_ok=no_space)):
            out[-1] = _merge_paragraph_items(out[-1], it, no_space)
        else:
            out.append(it)
    items, out = out, []
    for it in items:
        merged = None
        if out and it.page_index == max(out[-1].pages) + 1:
            first = out[-1]
            if _can_merge_paragraphs(first, it, cfg, caseless_ok=no_space):
                merged = _merge_paragraph_items(first, it, no_space)
            else:
                merged = _merge_tables(first, it) or _merge_reactions(first, it)
        if merged is None:
            out.append(it)
        else:
            out[-1] = merged
    return out


_FRAGMENTS = ["", " ", "-", "a-", "word", "Word", "end.", "中文", "中文。"]
# A paragraph whose text strips to "-" is the one flow the two differ on:
# see test_a_lone_hyphen_is_weighed_for_the_page_merge_first.
_texts = st.lists(st.sampled_from(_FRAGMENTS), max_size=3).map("".join).filter(
    lambda text: text.strip() != "-")
_continued = Partner(RelationKind.TITLE, C.CAPTION, "cap", Text("Table 2 (continued)"))
_new_table = Partner(RelationKind.TITLE, C.CAPTION, "cap", Text("Table 3"))
_units = st.one_of(
    st.builds(lambda text: (C.PARAGRAPH, Text(text), (), None), _texts),
    st.builds(lambda text: (C.SECTION_TITLE, Text(text), (), None), _texts),
    st.builds(lambda rows, cols, partners: (C.TABLE, grid(rows, cols), partners, None),
              st.integers(1, 2), st.integers(1, 2),
              st.sampled_from([(), (_continued,), (_new_table,)])),
    st.builds(lambda hint: (C.CHEMICAL_REACTION, Reaction(("CCO",), (), ("CC=O",)), (), hint),
              st.sampled_from([None, "g1", "g2"])),
)


@st.composite
def _flows(draw):
    page, flow = 0, []
    for n, (category, payload, partners, hint) in enumerate(draw(st.lists(_units, max_size=8))):
        page += draw(st.sampled_from([0, 1, 2])) if n else 0
        flow.append(item(f"u{n}", category=category, page=page, payload=payload,
                         partners=partners, hint=hint))
    return flow


@settings(max_examples=500, deadline=None)
@given(_flows(), st.sampled_from(["en", "zh"]))
def test_one_walk_merges_as_the_two_passes(flow, language_tag):
    def view(items):
        return [(i.item_id, i.payload, i.merged_ids, i.pages) for i in items]

    assert view(merge_fragments(flow, CFG, language_tag)) == view(
        merge_by_two_passes(flow, CFG, language_tag))


def test_a_lone_hyphen_is_weighed_for_the_page_merge_first():
    flow = [item("a", "Word", page=3), item("b", "-", page=4), item("c", " lower", page=4)]
    assert [i.text for i in merge_fragments(flow, CFG)] == ["Word", "lower"]
    # The column pass joined "-" to " lower" before the page pass saw "Word".
    assert [i.text for i in merge_by_two_passes(flow, CFG, "en")] == ["Word lower"]


# --- multimodal linkage ------------------------------------------------------


def test_molecule_links_identifier_on_next_page():
    mol = item("m1", category=C.MOLECULE, page=0, payload=None)
    ident = item("d1", category=C.MOLECULE_IDENTIFIER, page=1, text="Compound 7")
    out = link_multimodal([mol, ident])
    assert len(out) == 1
    assert out[0].item_id == "m1"
    assert out[0].partners[0].relation is RelationKind.MOLECULE_IDENTIFIER
    assert out[0].partners[0].detection_id == "d1"


def test_already_linked_anchor_unchanged():
    existing = Partner(RelationKind.MOLECULE_IDENTIFIER, C.MOLECULE_IDENTIFIER, "d0", Text("C1"))
    mol = item("m1", category=C.MOLECULE, page=0, partners=[existing])
    ident = item("d1", category=C.MOLECULE_IDENTIFIER, page=1, text="Compound 7")
    out = link_multimodal([mol, ident])
    assert len(out) == 2
    assert out[0].partners == (existing,)


def test_partner_three_units_deep_not_linked():
    mol = item("m1", category=C.MOLECULE, page=0)
    fillers = [item(f"p{i}", f"text {i}.", page=1) for i in range(2)]
    ident = item("d1", category=C.MOLECULE_IDENTIFIER, page=1, text="Compound 7")
    out = link_multimodal([mol, *fillers, ident])
    assert len(out) == 4  # nothing linked


def test_anchor_not_at_page_end_not_linked():
    mol = item("m1", category=C.MOLECULE, page=0)
    fillers = [item(f"p{i}", f"text {i}.", page=0) for i in range(3)]
    ident = item("d1", category=C.MOLECULE_IDENTIFIER, page=1, text="Compound 7")
    out = link_multimodal([mol, *fillers, ident])
    assert len(out) == 5


# --- sections ----------------------------------------------------------------


def _title(item_id, text, page):
    return item(item_id, text, category=C.SECTION_TITLE, page=page)


def test_outline_matches_section_titles():
    items = [
        item("a", "preface text.", page=0),
        _title("s1", "2 Methods", page=3),
        item("b", "methods body.", page=3),
        _title("s2", "3 Results", page=4),
        item("c", "results body.", page=4),
    ]
    outline = [OutlineEntry(1, "2 Methods", 3), OutlineEntry(1, "3 Results", 4)]
    root = integrate_sections(items, outline)
    assert [i.item_id for i in root.body] == ["a"]
    methods, results = root.children
    assert [i.item_id for i in methods.body] == ["s1", "b"]
    assert [i.item_id for i in results.body] == ["s2", "c"]


def test_no_outline_gives_flat_root():
    items = [item("a", "one."), item("b", "two.")]
    root = integrate_sections(items, ())
    assert [i.item_id for i in root.body] == ["a", "b"]
    assert not root.children


def test_title_normalization_matches():
    # normalization oracle: casefold + whitespace collapse
    def norm(s):
        return re.sub(r"\s+", " ", s).strip().casefold()

    items = [_title("s1", "2   METHODS", page=2), item("b", "body.", page=2)]
    outline = [OutlineEntry(1, "2 Methods", 2)]
    assert norm("2   METHODS") == norm("2 Methods")
    root = integrate_sections(items, outline)
    assert [i.item_id for i in root.children[0].body] == ["s1", "b"]


def test_page_proximity_limits_matching():
    items = [_title("s1", "2 Methods", page=5)]
    outline = [OutlineEntry(1, "2 Methods", 2)]
    root = integrate_sections(items, outline)
    # too far away: entry becomes an empty section, title stays in root body
    assert [i.item_id for i in root.body] == ["s1"]
    assert root.children[0].body == []


def test_unmatched_outline_entry_becomes_empty_section():
    items = [item("a", "text."), _title("s1", "1 Intro", page=0)]
    outline = [OutlineEntry(1, "1 Intro", 0), OutlineEntry(2, "1.1 Missing", 0)]
    root = integrate_sections(items, outline)
    intro = root.children[0]
    assert [i.item_id for i in intro.body] == ["s1"]
    assert intro.children[0].title == "1.1 Missing"
    assert intro.children[0].body == []


def test_every_item_in_exactly_one_body():
    items = [
        item("a", "x.", page=0),
        _title("s1", "1 A", page=0),
        item("b", "y.", page=0),
        _title("s2", "2 B", page=1),
        item("c", "z.", page=1),
    ]
    outline = [OutlineEntry(1, "1 A", 0), OutlineEntry(1, "2 B", 1)]
    root = integrate_sections(items, outline)
    collected = [i.item_id for i in root.iter_items()]
    assert sorted(collected) == sorted(i.item_id for i in items)
    assert len(collected) == len(set(collected))


def test_content_conservation_through_merges():
    fragments = ["the sample was pre-", "pared according to", "the protocol."]
    items = [item(f"f{i}", t) for i, t in enumerate(fragments)]
    merged = merge_fragments(items, CFG)
    assert canon("".join(fragments)) == canon("".join(i.payload.value for i in merged))
