from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from uniparse.config import EngineConfig
from uniparse.consolidate import FlowItem, Partner, SectionNode
from uniparse.docmodel import BoundingBox, SemanticCategory as C
from uniparse.engine import process_document
from uniparse.formats import (
    Chunk,
    ChunkKind,
    ParsedDocument,
    chunk,
    chunk_item_text,
    chunks_to_jsonl,
    to_html,
    to_markdown,
    to_structured,
)
from uniparse.layout import RelationKind
from uniparse.payloads import Caption, Cell, ESmiles, Latex, TableGrid, Text

from conftest import load_structured


def flow(item_id, text=None, category=C.PARAGRAPH, payload=None, partners=(), page=0):
    if payload is None and text is not None:
        payload = Text(text)
    return FlowItem(
        item_id=item_id,
        page_index=page,
        category=category,
        box=BoundingBox(0.1, 0.1, 0.5, 0.2),
        payload=payload,
        partners=tuple(partners),
    )


def doc_of(items, doc_id="t", children=()):
    root = SectionNode(level=0, title="", body=list(items), children=list(children))
    return ParsedDocument(doc_id=doc_id, root=root)


def test_empty_document_dump():
    dump = to_structured(doc_of([]))
    data = json.loads(dump)
    assert data["root"]["body"] == [] and data["root"]["children"] == []


def test_structured_roundtrip_byte_identical(small_corpus, cfg):
    docs, _ = small_corpus
    for doc in docs[:3]:
        parsed = process_document(doc, cfg).parsed
        dump = to_structured(parsed)
        again = to_structured(load_structured(dump))
        assert dump == again


def test_merged_provenance_recorded():
    item = flow("t1", category=C.TABLE, payload=TableGrid(1, 1, (Cell(0, 0, content=("x",)),)))
    item = FlowItem(**{**item.__dict__, "merged_ids": ("t2",)})
    data = json.loads(to_structured(doc_of([item])))
    assert data["root"]["body"][0]["provenance"]["merged_ids"] == ["t2"]


def test_formula_with_id_on_one_line():
    partner = Partner(RelationKind.FORMULA_ID, C.FORMULA_ID, "fid", Text("(3)"))
    item = flow("f1", category=C.FORMULA, payload=Latex("a+b"), partners=[partner])
    md = to_markdown(doc_of([item]))
    assert "$$a+b$$ (3)" in md.splitlines()


def test_spanless_table_renders_as_pipe_table():
    grid = TableGrid(2, 2, (
        Cell(0, 0, content=("H1",)), Cell(0, 1, content=("H2",)),
        Cell(1, 0, content=("a",)), Cell(1, 1, content=("b",)),
    ))
    md = to_markdown(doc_of([flow("t1", category=C.TABLE, payload=grid)]))
    lines = md.strip().splitlines()
    assert lines[0] == "| H1 | H2 |"
    assert lines[1] == "| --- | --- |"
    assert lines[2] == "| a | b |"


def test_rowspan_table_falls_back_to_html():
    grid = TableGrid(2, 2, (
        Cell(0, 0, row_span=2, content=("tall",)),
        Cell(0, 1, content=("a",)), Cell(1, 1, content=("b",)),
    ))
    md = to_markdown(doc_of([flow("t1", category=C.TABLE, payload=grid)]))
    assert "<table>" in md and 'rowspan="2"' in md
    assert "|" not in md.replace("||", "")


def test_figure_caption_group_html():
    partner = Partner(RelationKind.CAPTION, C.CAPTION, "c1", Text("Figure 1. A scheme."))
    item = flow("i1", category=C.IMAGE, payload=Caption("scheme"), partners=[partner])
    html = to_html(doc_of([item]))
    assert "<figure>" in html and "<figcaption>Figure 1. A scheme.</figcaption>" in html
    assert '<img src="i1"' in html


def test_empty_document_html_skeleton():
    html = to_html(doc_of([]))
    assert html.startswith("<!DOCTYPE html>")
    assert "<body>" in html and "</html>" in html


def _parseable(html: str) -> ET.Element:
    # parser-validation oracle: the emission reparses as well-formed markup
    body = html.split("\n", 1)[1]  # drop the doctype line
    return ET.fromstring(body)


def test_html_reparses_well_formed(small_corpus, cfg):
    docs, _ = small_corpus
    for doc in docs[:3]:
        parsed = process_document(doc, cfg).parsed
        root = _parseable(to_html(parsed))
        assert root.tag == "html"


def test_html_escapes_reserved_characters():
    item = flow("p1", "a < b & c > d")
    html = to_html(doc_of([item]))
    assert "a &lt; b &amp; c &gt; d" in html
    _parseable(html)


def test_smiles_span_survives_html_escaping():
    item = flow("m1", category=C.MOLECULE, payload=ESmiles("C1=CC=CC=C1"))
    html = to_html(doc_of([item]))
    assert "<smiles>C1=CC=CC=C1</smiles>" in html
    _parseable(html)


def test_markdown_html_deterministic(small_corpus, cfg):
    docs, _ = small_corpus
    parsed = process_document(docs[0], cfg).parsed
    assert to_markdown(parsed) == to_markdown(parsed)
    assert to_html(parsed) == to_html(parsed)
    assert to_structured(parsed) == to_structured(parsed)


def test_no_placeholder_literal_in_any_format(small_corpus, cfg):
    docs, _ = small_corpus
    for doc in docs:
        parsed = process_document(doc, cfg).parsed
        for emitted in (to_structured(parsed), to_markdown(parsed), to_html(parsed)):
            assert "[[UPH:" not in emitted
        assert "[[UPH:" not in chunks_to_jsonl(chunk(parsed, 128))


# --- chunking ----------------------------------------------------------------


def _sectioned_doc():
    sections = []
    for s in range(3):
        body = [flow(f"s{s}p{i}", f"section {s} paragraph {i} words here.") for i in range(3)]
        title_item = flow(f"s{s}t", f"{s} Title", category=C.SECTION_TITLE)
        sections.append(SectionNode(level=1, title=f"{s} Title", body=[title_item] + body))
    return doc_of([flow("pre", "preface text.")], children=sections)


def test_three_sections_give_at_least_three_chunks():
    chunks = chunk(_sectioned_doc(), 512)
    assert len(chunks) >= 3
    paths = {c.section_path for c in chunks}
    assert ("0 Title",) in paths and ("2 Title",) in paths


def test_chunking_is_partition():
    doc = _sectioned_doc()
    chunks = chunk(doc, 64)
    chunk_items = [i.item_id for c in chunks for i in c.items]
    doc_items = [i.item_id for i in doc.iter_items()]
    assert sorted(chunk_items) == sorted(doc_items)
    assert len(chunk_items) == len(set(chunk_items))
    # concatenated text equals the document text
    joined = "\n\n".join(c.text for c in chunks if c.text)
    doc_text = "\n\n".join(t for t in (chunk_item_text(i) for i in doc.iter_items()) if t)
    assert joined == doc_text


def test_group_atomicity_moves_whole_unit():
    partner = Partner(RelationKind.CAPTION, C.CAPTION, "c1", Text("cap " * 30))
    figure = flow("i1", category=C.IMAGE, payload=Caption("fig"), partners=[partner])
    filler = flow("p1", "word " * 30 + "end.")
    chunks = chunk(doc_of([filler, figure]), 40)
    assert len(chunks) == 2
    assert [i.item_id for i in chunks[1].items] == ["i1"]
    assert chunks[1].kind is ChunkKind.FIGURE_UNIT


def test_oversize_single_unit_flagged():
    big = flow("p1", "word " * 200 + "end.")
    chunks = chunk(doc_of([big]), 64)
    assert len(chunks) == 1
    assert chunks[0].oversize


def test_chunk_budget_respected_unless_oversize():
    docs = doc_of([flow(f"p{i}", "word " * 20 + "stop.") for i in range(10)])
    for c in chunk(docs, 64):
        assert c.oversize or c.token_estimate <= 64


def test_table_unit_kind():
    grid = TableGrid(1, 1, (Cell(0, 0, content=("x " * 100,)),))
    chunks = chunk(doc_of([flow("t1", category=C.TABLE, payload=grid)]), 64)
    assert chunks[0].kind is ChunkKind.TABLE_UNIT


def test_min_token_budget_enforced():
    with pytest.raises(ValueError):
        chunk(doc_of([]), 16)


def test_chunk_jsonl_fields():
    lines = chunks_to_jsonl(chunk(_sectioned_doc(), 128)).strip().splitlines()
    for line in lines:
        record = json.loads(line)
        assert set(record) >= {"chunk_id", "section_path", "text", "token_estimate"}
