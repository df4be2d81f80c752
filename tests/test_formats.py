from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from html.parser import HTMLParser

import pytest
from hypothesis import given, settings, strategies as st

from uniparse.cli import main
from uniparse.config import EngineConfig
from uniparse.consolidate import FlowItem, Partner, SectionNode
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import BoundingBox, OutlineEntry, SemanticCategory as C, load_document
from uniparse.engine import MockBackend, process_document
from uniparse.experts import MODALITIES, DocumentStore, default_descriptors
from uniparse.formats import (
    _HTML_WRITERS,
    _MARKDOWN_WRITERS,
    FIGURE_CATEGORIES,
    Chunk,
    ChunkKind,
    ParsedDocument,
    _escape_attribute,
    _escape_html,
    _figure_html,
    _figure_markdown,
    _formula_markdown,
    _pipe_table,
    _table_html,
    _table_markdown,
    chunk,
    chunk_item_text,
    chunks_to_jsonl,
    to_html,
    to_markdown,
    to_structured,
)
from uniparse.layout import RelationKind
from uniparse.payloads import (
    Caption,
    Cell,
    ChartTable,
    ESmiles,
    Latex,
    Reaction,
    TableGrid,
    Text,
    payload_text,
    render_grid_html,
    render_inline,
)

from conftest import det, load_structured, one_page_doc, structured_oracle
from workloads import build


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


# --- the structured dump against its oracle ----------------------------------

# Quotes, backslashes, control characters, a "%", non-ASCII text and lone
# surrogates, which the dump must escape exactly as the standard library does.
chars = st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f%\u2028é中'),
    st.characters(),
    st.characters(categories=["Cs"]),
)
texts = st.text(chars, max_size=6)
numbers = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-7, 1e22, 10**400]),
    st.floats(),
    st.integers(),  # an int beyond float range must not overflow the finiteness check
)
text_tuples = st.lists(texts, max_size=3).map(tuple)
grids = st.builds(
    TableGrid,
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.builds(Cell, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
                       st.integers(0, 2), text_tuples), max_size=3).map(tuple),
)

payloads = st.one_of(
    st.none(),
    *(st.builds(kind, texts) for kind in (Text, Latex, ESmiles, Caption)),
    grids,
    st.builds(ChartTable, grids),
    st.builds(Reaction, text_tuples, text_tuples, text_tuples),
)
partners = st.builds(Partner, st.sampled_from(RelationKind), st.sampled_from(C), texts, payloads)
items = st.builds(
    FlowItem,
    item_id=texts,
    page_index=st.integers(0, 50),
    category=st.sampled_from(C),
    box=st.builds(BoundingBox, numbers, numbers, numbers, numbers),
    payload=payloads,
    partners=st.lists(partners, max_size=2).map(tuple),
    merged_ids=text_tuples,
    source_pages=st.lists(st.integers(0, 50), max_size=3).map(tuple),
    group_hint=st.none() | texts,
)


def sections(depth: int):
    """Sections nested up to `depth` levels below this one."""
    children = st.lists(sections(depth - 1), max_size=2) if depth else st.just([])
    return st.builds(SectionNode, level=st.integers(0, 6), title=texts,
                     children=children, body=st.lists(items, max_size=3))


parsed_documents = st.builds(
    ParsedDocument,
    doc_id=texts,
    root=sections(4),
    language_tag=texts,
    tokens_emitted=st.integers(0, 10**6),
    tokens_resolved=st.integers(0, 10**6),
    tokens_failed=st.integers(0, 10**6),
    failed_tasks=text_tuples,
)


@settings(max_examples=100, deadline=None)
@given(parsed_documents)
def test_structured_dump_is_the_oracle_byte_for_byte(doc):
    assert to_structured(doc) == structured_oracle(doc)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["reference", "dense", "stream"])
def test_structured_dump_is_the_oracle_on_the_benchmark_workloads(workload, seed):
    wl = build(workload, seed)
    backend = MockBackend(DocumentStore(wl.docs), wl.experts)
    for doc in wl.docs:
        parsed = process_document(doc, wl.engine, backend).parsed
        assert to_structured(parsed) == structured_oracle(parsed)


@pytest.mark.parametrize("workload", ["reference", "dense", "stream"])
def test_parses_and_formats_leave_no_cyclic_garbage(workload):
    # Reference counting alone must free a parse and its four renderings:
    # with the collector off, every cycle would stay in gc.garbage.
    wl = build(workload, 1)
    backend = MockBackend(DocumentStore(wl.docs), wl.experts)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for doc in wl.docs[:5]:
            parsed = process_document(doc, wl.engine, backend).parsed
            to_structured(parsed), to_markdown(parsed), to_html(parsed)
            chunks_to_jsonl(chunk(parsed))
        del parsed
        cyclic = gc.collect()
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert cyclic == 0


def _no_generic_encoder(*args, **kwargs):
    raise AssertionError("the structured dump reached json.dumps")


@pytest.mark.parametrize("workload", ["reference", "dense", "stream"])
def test_structured_dump_never_reaches_the_generic_encoder(workload, monkeypatch):
    wl = build(workload, 0)
    backend = MockBackend(DocumentStore(wl.docs), wl.experts)
    parsed = [process_document(doc, wl.engine, backend).parsed for doc in wl.docs]
    monkeypatch.setattr(json, "dumps", _no_generic_encoder)
    for doc in parsed:
        to_structured(doc)
    with pytest.raises(AssertionError, match="json.dumps"):
        structured_oracle(parsed[0])  # the patch bites: canonical_json uses it


@settings(max_examples=50, deadline=None)
@given(parsed_documents)
def test_generated_dumps_never_reach_the_generic_encoder(doc):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json, "dumps", _no_generic_encoder)
        to_structured(doc)


# sha256 of the three files below, concatenated, as recorded before the dump
# was written straight from the tree.
CLI_STRUCTURED_DIGEST = "d0aa09eb45554b496b0ba13ac72dde63065248441f80ab3dd8a5a290593283d7"


def test_cli_structured_dump_is_unchanged(tmp_path, capsys):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["gen-corpus", "--out", str(corpus), "--docs", "3", "--seed", "5"]) == 0
    inputs = sorted(corpus.glob("*.ir.json"))
    assert main(["parse", *map(str, inputs), "--format", "structured", "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = EngineConfig()
    written = []
    for path in inputs:
        doc = load_document(path)
        backend = MockBackend(DocumentStore([doc]),
                              default_descriptors(max_batch=cfg.max_batch, seed=0))
        dump = (out / f"{doc.doc_id}.structured.json").read_bytes()
        assert dump == structured_oracle(process_document(doc, cfg, backend).parsed).encode()
        written.append(dump)
    assert hashlib.sha256(b"".join(written)).hexdigest() == CLI_STRUCTURED_DIGEST


# sha256 of `parse --format <format>` over the same three files, concatenated,
# as recorded before the writers were bound by table.
CLI_FORMAT_DIGESTS = {
    "markdown": ("md", "fd20bb4d097a0ae0e691502f2276ac8f677738e0c4a1986c45d18db8256afa9e"),
    "html": ("html", "0ceb329ef91d20da0fe84716b6f4337689c78339085de3a7e69650a073020a0c"),
    "chunks": ("chunks.jsonl", "400b5e163dcad9c4e6df9b7cf33640453d0e77dd0cc2df8578a916149a11b0f2"),
}


@pytest.mark.parametrize("fmt", sorted(CLI_FORMAT_DIGESTS))
def test_cli_format_bytes_are_unchanged(fmt, tmp_path, capsys):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["gen-corpus", "--out", str(corpus), "--docs", "3", "--seed", "5"]) == 0
    inputs = sorted(corpus.glob("*.ir.json"))
    assert main(["parse", *map(str, inputs), "--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    ext, digest = CLI_FORMAT_DIGESTS[fmt]
    written = [(out / f"{path.name.removesuffix('.ir.json')}.{ext}").read_bytes()
               for path in inputs]
    assert hashlib.sha256(b"".join(written)).hexdigest() == digest


def test_merged_provenance_recorded():
    item = flow("t1", category=C.TABLE, payload=TableGrid(1, 1, (Cell(0, 0, content=("x",)),)))
    item = dataclasses.replace(item, merged_ids=("t2",))
    data = json.loads(to_structured(doc_of([item])))
    assert data["root"]["body"][0]["provenance"]["merged_ids"] == ["t2"]


def test_formula_with_id_on_one_line():
    partner = Partner(RelationKind.FORMULA_ID, C.FORMULA_ID, "fid", Text("(3)"))
    item = flow("f1", category=C.FORMULA, payload=Latex("a+b"), partners=[partner])
    md = to_markdown(doc_of([item]))
    assert "$$a+b$$ (3)" in md.splitlines()


# --- grid rows against the bucket-then-sort rule they replaced ---------------


def render_grid_html_by_buckets(grid, inline=False):
    sep = "" if inline else "\n"
    pad = "" if inline else "  "
    out = ["<table>"]
    cells_by_row = {}
    for c in grid.cells:
        cells_by_row.setdefault(c.row, []).append(c)
    for row in range(grid.rows):
        parts = [f"{pad}<tr>"]
        for c in sorted(cells_by_row.get(row, ()), key=lambda c: c.col):
            attrs = ""
            if c.row_span != 1:
                attrs += f' rowspan="{c.row_span}"'
            if c.col_span != 1:
                attrs += f' colspan="{c.col_span}"'
            parts.append(f"{pad}{pad}<td{attrs}>{c.text()}</td>")
        parts.append(f"{pad}</tr>")
        out.append(sep.join(parts) if inline else "\n".join(parts))
    out.append("</table>")
    return sep.join(out) if inline else "\n".join(out)


def grid_text_by_buckets(grid):
    rows = {}
    for c in grid.cells:
        rows.setdefault(c.row, []).append(c)
    lines = []
    for r in range(grid.rows):
        cells = sorted(rows.get(r, ()), key=lambda c: c.col)
        lines.append(" ".join(c.text() for c in cells))
    return "\n".join(lines)


@st.composite
def loose_grids(draw):
    """Grids whose cells may be out of order, repeat a position, or lie
    outside the grid on either side; sorted in (row, col) order half the time."""
    cells = draw(st.lists(st.builds(Cell, st.integers(-2, 5), st.integers(-2, 5),
                                    st.integers(0, 2), st.integers(0, 2),
                                    st.lists(st.sampled_from(["a", "b", ""]), max_size=2)
                                    .map(tuple)), max_size=10))
    if draw(st.booleans()):
        cells.sort(key=lambda c: (c.row, c.col))
    return TableGrid(draw(st.integers(-1, 4)), draw(st.integers(-1, 4)), tuple(cells))


@settings(max_examples=300, deadline=None)
@given(loose_grids())
def test_grid_rows_follow_the_bucket_then_sort_rule(grid):
    for inline in (False, True):
        assert render_grid_html(grid, inline) == render_grid_html_by_buckets(grid, inline)
    assert payload_text(grid) == grid_text_by_buckets(grid)
    assert payload_text(ChartTable(grid)) == grid_text_by_buckets(grid)


# --- Markdown and HTML -------------------------------------------------------


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


def test_a_grid_with_a_duplicate_position_and_a_hole_is_not_rectangular():
    # Two cells at (0, 0) and none at (0, 1): as many cells as positions.
    grid = TableGrid(1, 2, (Cell(0, 0, content=("a",)), Cell(0, 0, content=("b",))))
    assert _pipe_table(grid) is None
    md = to_markdown(doc_of([flow("t1", category=C.TABLE, payload=grid)]))
    assert md == render_grid_html(grid) + "\n"
    assert "<td>a</td>" in md and "<td>b</td>" in md


@pytest.mark.parametrize("grid, rectangular", [
    (TableGrid(0, 0), True),
    (TableGrid(2, 0), True),
    (TableGrid(1, 2, (Cell(0, 1, content=("b",)), Cell(0, 0, content=("a",)))), True),
    (TableGrid(1, 2, (Cell(0, 0), Cell(0, 1, col_span=2))), False),
    (TableGrid(1, 1, (Cell(1, 0),)), False),  # outside the grid
    (TableGrid(-1, -1, (Cell(0, 0),)), False),
])
def test_rectangular_means_one_1x1_cell_per_position(grid, rectangular):
    assert (_pipe_table(grid) is not None) is rectangular


def test_pipe_table_takes_cells_in_row_and_column_order():
    grid = TableGrid(2, 2, (
        Cell(1, 1, content=("b",)), Cell(0, 1, content=("H2",)),
        Cell(1, 0, content=("a|",)), Cell(0, 0, content=("H1",)),
    ))
    md = to_markdown(doc_of([flow("t1", category=C.TABLE, payload=grid)]))
    assert md.splitlines() == ["| H1 | H2 |", "| --- | --- |", "| a\\| | b |"]


def test_figure_caption_group_html():
    partner = Partner(RelationKind.CAPTION, C.CAPTION, "c1", Text("Figure 1. A scheme."))
    item = flow("i1", category=C.IMAGE, payload=Caption("scheme"), partners=[partner])
    html = to_html(doc_of([item]))
    assert "<figure>" in html and "<figcaption>Figure 1. A scheme.</figcaption>" in html
    assert '<img src="i1"' in html


def test_image_attributes_are_escaped_for_their_quotes():
    image_id, alt = 'i1" onerror="alert(1)', 'say "hi" <smiles>x</smiles> & go'
    doc = one_page_doc([det(image_id, (0.1, 0.1, 0.5, 0.4), C.IMAGE, truth_text=alt)])
    html = to_html(process_document(doc).parsed)

    class Tags(HTMLParser):
        def __init__(self):
            super().__init__()
            self.tags = []

        def handle_starttag(self, tag, attrs):
            self.tags.append((tag, attrs))

    parser = Tags()
    parser.feed(html)
    parser.close()
    assert [attrs for tag, attrs in parser.tags if tag == "img"] == [[("src", image_id),
                                                                       ("alt", alt)]]
    assert "smiles" not in {tag for tag, _attrs in parser.tags}
    _parseable(html)


class _Elements(HTMLParser):
    """The start tags of a document and the text inside each open element."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tags, self.open, self.text = [], [], {}

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        self.open.append(tag)

    def handle_endtag(self, tag):
        if tag in self.open:
            del self.open[len(self.open) - 1 - self.open[::-1].index(tag):]

    def handle_data(self, data):
        if self.open:
            self.text[self.open[-1]] = self.text.get(self.open[-1], "") + data


def test_ir_strings_are_escaped_with_no_raw_span():
    # The document id and an outline title hold a span the raw-span exemption
    # would pass through; neither ever holds a span the formatter rendered.
    doc_id = "<smiles></title><script>alert(1)</script></smiles>"
    title = "<table><tr><td><img src=x onerror=alert(2)></td></tr></table> & more"
    doc = one_page_doc([det("t1", (0.1, 0.1, 0.5, 0.15), C.SECTION_TITLE, truth_text="Other")],
                       doc_id=doc_id, outline=[OutlineEntry(1, title, 0)])
    html = to_html(process_document(doc).parsed)
    parser = _Elements()
    parser.feed(html)
    parser.close()
    assert "script" not in parser.tags and "img" not in parser.tags
    assert "smiles" not in parser.tags and "table" not in parser.tags
    assert parser.text["title"] == doc_id
    assert parser.text["h1"] == title
    _parseable(html)


def test_figure_answers_are_escaped_in_full():
    # gather fills no figure answer with spans, so the figure writer escapes
    # each answer string and chart cell; the span tags it adds stay live
    smiles = "</smiles><script>alert(2)</script>"
    reactant = "<img src=x onerror=alert(3)>"
    cell = "<script>alert(4)</script> & co"
    chart = ChartTable(TableGrid(1, 2, (Cell(0, 0, content=(cell,)), Cell(0, 1, content=("1",)))))
    html = to_html(doc_of([
        flow("m1", category=C.MOLECULE, payload=ESmiles(smiles)),
        flow("r1", category=C.CHEMICAL_REACTION,
             payload=Reaction((reactant,), ("heat",), ("CCO",))),
        flow("c1", category=C.CHART, payload=chart),
    ]))
    parser = _Elements()
    parser.feed(html)
    parser.close()
    assert "script" not in parser.tags and "img" not in parser.tags
    assert parser.text["smiles"] == smiles
    assert parser.text["reaction"] == f"{reactant}>heat>CCO"
    assert parser.text["td"] == f"{cell}1"
    _parseable(html)


def test_table_cells_are_escaped_as_paragraph_text_is():
    cell = "<script>a</script> & b"
    spans = "<smiles>CCO</smiles><reaction>a>b>c</reaction>"
    grid = TableGrid(1, 2, (Cell(0, 0, content=(cell,)), Cell(0, 1, content=(spans,))))
    html = to_html(doc_of([flow("t1", category=C.TABLE, payload=grid)]))
    assert "<td>&lt;script&gt;a&lt;/script&gt; &amp; b</td>" in html
    parser = _Elements()
    parser.feed(html)
    parser.close()
    # the spans gather writes into a cell stay live, as they do in paragraphs
    assert "script" not in parser.tags
    assert "smiles" in parser.tags and "reaction" in parser.tags
    assert parser.text["td"] == cell
    _parseable(html)


def test_render_escapes_payload_strings_and_cells_not_tags():
    def mark(text):
        return f"[{text}]"

    assert render_inline(ESmiles("C"), mark) == "<smiles>[C]</smiles>"
    assert render_inline(Latex("x"), mark) == "$[x]$"
    assert render_inline(Reaction(("a", "b"), ("h",), ("c",)), mark) == (
        "<reaction>[a].[b]>[h]>[c]</reaction>")
    grid = TableGrid(1, 2, (Cell(0, 0, content=("p",)), Cell(0, 1, col_span=1, content=("q",))))
    assert render_inline(ChartTable(grid), mark) == "<table><tr><td>[p]</td><td>[q]</td></tr></table>"
    assert render_grid_html(grid, escape=mark) == (
        "<table>\n  <tr>\n    <td>[p]</td>\n    <td>[q]</td>\n  </tr>\n</table>")
    # without an escape, every payload renders as it is
    assert render_inline(ESmiles("<b>")) == "<smiles><b></smiles>"


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


@pytest.mark.parametrize("only_modality", [None, *MODALITIES])
def test_no_placeholder_literal_under_failures_and_modality_filters(only_modality):
    """Failed batches (no retries at a 30% failure rate) and every
    only_modality filter: every planned token is still counted once and no
    format leaks one."""
    cfg = EngineConfig(max_retries=0)
    for seed in (1, 2):
        docs, _ = gen_corpus(CorpusSpec(seed=seed, n_docs=8))
        backend = MockBackend(DocumentStore(docs), default_descriptors(seed=seed, failure_rate=0.3))
        for doc in docs:
            parsed = process_document(doc, cfg, backend, only_modality=only_modality).parsed
            assert parsed.tokens_emitted == parsed.tokens_resolved + parsed.tokens_failed
            for emitted in (to_structured(parsed), to_markdown(parsed), to_html(parsed),
                            chunks_to_jsonl(chunk(parsed))):
                assert "[[UPH:" not in emitted


# --- the writer tables against the if-chains they replaced -------------------


def item_markdown_by_ifs(item):
    cat = item.category
    if cat is C.DOCUMENT_TITLE:
        return f"# {item.text}"
    if cat is C.SECTION_TITLE:
        return f"## {item.text}"
    if cat is C.DIVIDER_LINE:
        return "---"
    if cat is C.CODE_BLOCK:
        return f"```\n{item.text}\n```"
    if cat is C.FORMULA:
        return _formula_markdown(item)
    if cat is C.TABLE:
        return _table_markdown(item)
    if cat in FIGURE_CATEGORIES:
        return _figure_markdown(item)
    if item.payload is None:
        return f"<!-- unparsed {cat.value} {item.item_id} -->"
    return render_inline(item.payload)


def item_html_by_ifs(item):
    cat = item.category
    if cat is C.DOCUMENT_TITLE:
        return f"<h1>{escape_html_by_regex(item.text)}</h1>"
    if cat is C.SECTION_TITLE:
        return f"<h2>{escape_html_by_regex(item.text)}</h2>"
    if cat is C.DIVIDER_LINE:
        return "<hr/>"
    if cat is C.CODE_BLOCK:
        return f"<pre><code>{escape_html_by_regex(item.text)}</code></pre>"
    if cat is C.FORMULA:
        formula_id = item.partner_of(RelationKind.FORMULA_ID)
        suffix = (
            f" {escape_html_by_regex(payload_text(formula_id.payload))}"
            if formula_id is not None and formula_id.payload is not None
            else ""
        )
        return f"<p>$${escape_html_by_regex(item.text)}$${suffix}</p>"
    if cat is C.TABLE:
        return _table_html(item)
    if cat in FIGURE_CATEGORIES:
        return _figure_html(item)
    if item.payload is None:
        return f"<!-- unparsed {cat.value} {item.item_id} -->"
    return f"<p>{escape_html_by_regex(render_inline(item.payload))}</p>"


_RAW_SPAN_RE = re.compile(r"(<smiles>.*?</smiles>|<reaction>.*?</reaction>|<table>.*?</table>)",
                          re.DOTALL)


def escape_html_by_regex(text):
    out = []
    for part in _RAW_SPAN_RE.split(text):
        if _RAW_SPAN_RE.fullmatch(part):
            out.append(part)
        else:
            out.append(part.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
    return "".join(out)


def escape_attribute_by_replace(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def test_every_category_has_a_writer():
    assert set(_MARKDOWN_WRITERS) == set(_HTML_WRITERS) == set(C)


@pytest.mark.parametrize("category", list(C))
def test_writers_match_the_if_chains_for_every_category(category):
    partners = [Partner(relation, C.CAPTION, f"p-{relation.value}", Text(f"<{relation.value}>"))
                for relation in RelationKind]
    for payload in (None, Text("a < b & c"), Latex("x^2"), ESmiles("CCO"),
                    TableGrid(1, 1, (Cell(0, 0, content=("t",)),))):
        for item in (flow("i1", category=category, payload=payload),
                     flow("i2", category=category, payload=payload, partners=partners)):
            assert _MARKDOWN_WRITERS[category](item) == item_markdown_by_ifs(item)
            assert _HTML_WRITERS[category](item) == item_html_by_ifs(item)


@settings(max_examples=300, deadline=None)
@given(items)
def test_writers_match_the_if_chains_on_generated_items(item):
    assert _MARKDOWN_WRITERS[item.category](item) == item_markdown_by_ifs(item)
    assert _HTML_WRITERS[item.category](item) == item_html_by_ifs(item)


# Text with and without the reserved characters, whole and broken raw spans.
escapable = st.lists(st.one_of(
    st.text(st.sampled_from('ab <>&"\n'), max_size=5),
    st.text(max_size=3),
    st.sampled_from(["<smiles>C=O</smiles>", "<reaction>a>b>c</reaction>",
                     "<table><tr><td>x & y</td></tr></table>", "<smiles>", "</reaction>",
                     "<table>", "&amp;"]),
), max_size=6).map("".join)


@settings(max_examples=500, deadline=None)
@given(escapable)
def test_escapers_match_the_full_path(text):
    assert _escape_html(text) == escape_html_by_regex(text)
    assert _escape_attribute(text) == escape_attribute_by_replace(text)


@settings(max_examples=100, deadline=None)
@given(parsed_documents, st.integers(32, 80))
def test_chunk_token_estimates_count_the_words_of_the_text(doc, max_tokens):
    for c in chunk(doc, max_tokens):
        assert c.token_estimate == len(c.text.split())


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
