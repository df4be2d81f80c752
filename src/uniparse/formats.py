"""Final outputs: canonical structured dump, Markdown, HTML, and semantic
chunks. All emitters are pure and deterministic; none may leak a placeholder
literal.

Markdown and HTML write each item through a table from its category to a
writer. HTML escaping returns text that holds no reserved character as it
is, without scanning it for raw spans.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

from .consolidate import FlowItem, SectionNode
from .docmodel import SemanticCategory
from .layout import RelationKind
from .payloads import (
    SCALARS,
    Caption,
    ChartTable,
    ESmiles,
    Reaction,
    TableGrid,
    Text,
    _grid_rows,
    payload_text,
    render_grid_html,
    render_inline,
)

STRUCTURED_VERSION = "1"

_str = json.encoder.encode_basestring
_int = int.__repr__
_INFINITY = float("inf")


def float_str(value: float) -> str:
    """The standard library's floatstr with allow_nan=True. An int is
    written as the standard library writes it, too."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return repr(value)


FIGURE_CATEGORIES = frozenset(
    {
        SemanticCategory.IMAGE,
        SemanticCategory.FIGURE,
        SemanticCategory.CHART,
        SemanticCategory.MOLECULE,
        SemanticCategory.CHEMICAL_REACTION,
    }
)

# The members the writers compare with or look partners up by, bound once:
# see _MARKDOWN_WRITERS.
_SECTION_TITLE = SemanticCategory.SECTION_TITLE
_FORMULA_ID = RelationKind.FORMULA_ID
_FOOTNOTE = RelationKind.FOOTNOTE
# A figure's partners after its caption, in the order Markdown writes them,
# and every partner its HTML caption holds, in order.
_FIGURE_NOTES = (RelationKind.LEGEND, RelationKind.MOLECULE_IDENTIFIER,
                 RelationKind.MARKUSH_DESCRIPTION)
_FIGURE_CAPTIONS = (RelationKind.CAPTION, RelationKind.TITLE, *_FIGURE_NOTES)


@dataclass
class ParsedDocument:
    doc_id: str
    root: SectionNode
    language_tag: str = "en"
    tokens_emitted: int = 0
    tokens_resolved: int = 0
    tokens_failed: int = 0
    failed_tasks: tuple[str, ...] = ()

    def iter_items(self):
        yield from self.root.iter_items()


# ---------------------------------------------------------------------------
# Structured dump (lossless, canonical, round-trippable)
# ---------------------------------------------------------------------------


def to_structured(doc: ParsedDocument) -> str:
    """canonical_json of the document's dict tree, written from the tree:
    ``structured_oracle`` in tests/conftest.py is the specification. Every key
    of every shape in the dump is fixed, so each object (section, item,
    partner, payload, grid cell, stats) is a template for its indent, a list
    of strings or ints is one join, and no value goes through json.dumps
    (building the tree and dumping it that way takes about five times as
    long)."""
    return _DOCUMENT_T % (
        _str(doc.doc_id), _str(doc.language_tag), _section_json(doc.root, "\n  "),
        _array(sorted(doc.failed_tasks), "\n    "), _int(doc.tokens_emitted),
        _int(doc.tokens_failed), _int(doc.tokens_resolved), _str(STRUCTURED_VERSION))


_DOCUMENT_T = (
    '{\n  "doc_id": %s,\n  "language_tag": %s,\n  "root": %s,\n  "stats": {'
    '\n    "failed_tasks": %s,\n    "tokens_emitted": %s,\n    "tokens_failed": %s,'
    '\n    "tokens_resolved": %s\n  },\n  "version": %s\n}\n'
)

# The enum values as JSON strings, looked up per item instead of read from
# the enum (a property) and encoded each time.
_CATEGORY_JSON = {c: _str(c.value) for c in SemanticCategory}
_RELATION_JSON = {r: _str(r.value) for r in RelationKind}


def _list(members: list[str], nl: str) -> str:
    """A list of members, each already JSON, opening on the line `nl`."""
    if not members:
        return "[]"
    i = nl + "  "
    return f"[{i}{(',' + i).join(members)}{nl}]"


def _array(values, nl: str, encode=_str) -> str:
    """A list of strings (or, with encode=_int, ints) opening on the line `nl`."""
    if not values:
        return "[]"
    i = nl + "  "
    return f"[{i}{(',' + i).join(map(encode, values))}{nl}]"


class _Templates(NamedTuple):
    """The fixed shapes of the dump, for an object opening on one line."""

    section: str
    item: str  # the box written by %r, as float_str writes a finite number
    item_written_box: str  # the box already written by float_str
    scalar: str  # a Text, Latex, ESmiles or Caption payload
    grid: str
    chart: str
    reaction: str
    partner: str
    cell: str


@cache
def _templates(nl: str) -> _Templates:
    """The templates for an object opening on the line `nl`."""
    i, j = nl + "  ", nl + "    "
    item = (f'{{{i}"box": [{j}%r,{j}%r,{j}%r,{j}%r{i}],{i}"category": %s,'
            f'{i}"group_hint": %s,{i}"id": %s,{i}"page_index": %s,{i}"partners": %s,'
            f'{i}"payload": %s,{i}"provenance": {{{j}"merged_ids": %s,{j}"pages": %s{i}}}{nl}}}')
    return _Templates(
        section=f'{{{i}"body": %s,{i}"children": %s,{i}"level": %s,{i}"title": %s{nl}}}',
        item=item,
        item_written_box=item.replace("%r", "%s"),
        scalar=f'{{{i}"kind": %s,{i}"value": %s{nl}}}',
        grid=f'{{{i}"cells": %s,{i}"cols": %s,{i}"kind": {_str(TableGrid.kind)},'
             f'{i}"rows": %s{nl}}}',
        chart=f'{{{i}"grid": {{{j}"cells": %s,{j}"cols": %s,{j}"rows": %s{i}}},'
              f'{i}"kind": {_str(ChartTable.kind)}{nl}}}',
        reaction=f'{{{i}"conditions": %s,{i}"kind": {_str(Reaction.kind)},{i}"products": %s,'
                 f'{i}"reactants": %s{nl}}}',
        partner=f'{{{i}"category": %s,{i}"id": %s,{i}"payload": %s,{i}"relation": %s{nl}}}',
        cell=f'{{{i}"col": %s,{i}"col_span": %s,{i}"content": %s,{i}"row": %s,'
             f'{i}"row_span": %s{nl}}}',
    )


def _section_json(section: SectionNode, nl: str) -> str:
    i, member = nl + "  ", nl + "    "
    item_templates = _templates(member)
    body = [_item_json(item, item_templates, member) for item in section.body]
    children = [_section_json(child, member) for child in section.children]
    return _templates(nl).section % (_list(body, i), _list(children, i), _int(section.level),
                                     _str(section.title))


def _item_json(item: FlowItem, templates: _Templates, nl: str) -> str:
    i, j, k = nl + "  ", nl + "    ", nl + "      "
    box, hint, payload = item.box, item.group_hint, item.payload
    x0, y0, x1, y1 = box.x0, box.y0, box.x1, box.y1
    # x - x is 0 for a finite number, and NaN for NaN and the infinities; it
    # does not overflow on an int beyond float range, as a product with 0.0
    # would.
    if x0 - x0 == y0 - y0 == x1 - x1 == y1 - y1 == 0:
        item_t = templates.item
    else:
        item_t = templates.item_written_box
        x0, y0, x1, y1 = float_str(x0), float_str(y0), float_str(x1), float_str(y1)
    payload = "null" if payload is None else _payload_json(payload, i)
    partners = item.partners
    if partners:
        partner_t = _templates(j).partner
        partners = _list([partner_t % (
            _CATEGORY_JSON[p.category], _str(p.detection_id),
            "null" if p.payload is None else _payload_json(p.payload, k),
            _RELATION_JSON[p.relation]) for p in partners], i)
    else:
        partners = "[]"
    pages = item.pages
    pages = f"[{k}{_int(pages[0])}{j}]" if len(pages) == 1 else _array(pages, j, _int)
    return item_t % (
        x0, y0, x1, y1, _CATEGORY_JSON[item.category], "null" if hint is None else _str(hint),
        _str(item.item_id), _int(item.page_index), partners, payload,
        _array(item.merged_ids, j), pages)


def _payload_json(payload, nl: str) -> str:
    """A payload opening on the line `nl`, as payloads.payload_to_dict
    shapes it."""
    templates = _templates(nl)
    if isinstance(payload, SCALARS):
        return templates.scalar % (_str(payload.kind), _str(payload.value))
    i, j = nl + "  ", nl + "    "
    if isinstance(payload, TableGrid):
        return templates.grid % (_cells_json(payload.cells, i), _int(payload.cols),
                                 _int(payload.rows))
    if isinstance(payload, ChartTable):
        grid = payload.grid
        return templates.chart % (_cells_json(grid.cells, j), _int(grid.cols), _int(grid.rows))
    if isinstance(payload, Reaction):
        return templates.reaction % (_array(payload.conditions, i),
                                     _array(payload.products, i), _array(payload.reactants, i))
    raise TypeError(f"not a payload: {payload!r}")


def _cells_json(cells, nl: str) -> str:
    """A grid's cells, a list opening on the line `nl`."""
    i, j, k = nl + "  ", nl + "    ", nl + "      "
    cell_t = _templates(i).cell
    return _list([cell_t % (
        _int(c.col), _int(c.col_span),
        f"[{k}{_str(c.content[0])}{j}]" if len(c.content) == 1 else _array(c.content, j),
        _int(c.row), _int(c.row_span)) for c in cells], nl)


# ---------------------------------------------------------------------------
# Markdown
# ---------------------------------------------------------------------------


def to_markdown(doc: ParsedDocument) -> str:
    lines: list[str] = []
    _walk_markdown(doc.root, lines)
    out = "\n\n".join(block for block in lines if block)
    return out + "\n" if out else ""


def _walk_markdown(section: SectionNode, lines: list[str]) -> None:
    if section.level > 0 and section.title:
        level = min(section.level, 6)
        lines.append(f"{'#' * level} {section.title}")
        body = section.body[1:] if _body_opens_with_title(section) else section.body
    else:
        body = section.body
    writers = _MARKDOWN_WRITERS
    for item in body:
        lines.append(writers[item.category](item))
    for child in section.children:
        _walk_markdown(child, lines)


def _body_opens_with_title(section: SectionNode) -> bool:
    return bool(section.body) and section.body[0].category is _SECTION_TITLE


def _inline_markdown(item: FlowItem) -> str:
    if item.payload is None:
        return f"<!-- unparsed {item.category.value} {item.item_id} -->"
    return render_inline(item.payload)


def _formula_markdown(item: FlowItem) -> str:
    body = item.text if item.payload is not None else ""
    line = f"$${body}$$"
    formula_id = item.partner_of(_FORMULA_ID)
    if formula_id is not None and formula_id.payload is not None:
        line += f" {payload_text(formula_id.payload)}"
    return line


def _table_markdown(item: FlowItem) -> str:
    parts = []
    caption = item.caption_text()
    if caption:
        parts.append(f"**{caption}**")
    grid = item.payload if isinstance(item.payload, TableGrid) else None
    if grid is None:
        parts.append(f"<!-- unparsed table {item.item_id} -->")
    else:
        parts.append(_pipe_table(grid) or render_grid_html(grid))
    footnote = item.partner_of(_FOOTNOTE)
    if footnote is not None and footnote.payload is not None:
        parts.append(payload_text(footnote.payload))
    return "\n\n".join(parts)


def _pipe_table(grid: TableGrid) -> str | None:
    """The grid as a pipe table whose first row is the header, or None when
    some position of the grid does not hold exactly one 1x1 cell."""
    cols = grid.cols
    if len(grid.cells) != grid.rows * cols:
        return None
    rows = []
    for cells in _grid_rows(grid):
        if len(cells) != cols:
            return None
        for col, c in enumerate(cells):
            if c.col != col or c.row_span != 1 or c.col_span != 1:
                return None
        rows.append(" | ".join(c.text().replace("|", "\\|") for c in cells))
    if len(rows) * cols != len(grid.cells):
        return None
    header = rows[0] if rows else " | ".join("" for _ in range(cols))
    lines = [f"| {header} |", "| " + " | ".join("---" for _ in range(cols)) + " |"]
    lines.extend(f"| {row} |" for row in rows[1:])
    return "\n".join(lines)


def _figure_markdown(item: FlowItem) -> str:
    parts = []
    caption = item.caption_text() or ""
    if isinstance(item.payload, (ESmiles, Reaction)):
        parts.append(render_inline(item.payload))
    elif isinstance(item.payload, ChartTable):
        grid = item.payload.grid
        parts.append(_pipe_table(grid) or render_grid_html(grid))
    elif isinstance(item.payload, (Caption, Text)):
        parts.append(f"![{payload_text(item.payload)}]({item.item_id})")
    else:
        parts.append(f"![]({item.item_id})")
    if caption:
        parts.append(caption)
    for relation in _FIGURE_NOTES:
        partner = item.partner_of(relation)
        if partner is not None and partner.payload is not None:
            parts.append(payload_text(partner.payload))
    return "\n\n".join(p for p in parts if p)


# The writer of each category's item, bound once here rather than found by
# testing the category against enum members per item: on CPython 3.11 each
# load of a member such as SemanticCategory.TABLE goes through the enum
# metaclass's __getattr__ and costs about 150 ns, a dict lookup about 25.
_MARKDOWN_WRITERS = {
    category: _inline_markdown for category in SemanticCategory
} | {category: _figure_markdown for category in FIGURE_CATEGORIES} | {
    SemanticCategory.DOCUMENT_TITLE: lambda item: f"# {item.text}",
    SemanticCategory.SECTION_TITLE: lambda item: f"## {item.text}",
    SemanticCategory.DIVIDER_LINE: lambda item: "---",
    SemanticCategory.CODE_BLOCK: lambda item: f"```\n{item.text}\n```",
    SemanticCategory.FORMULA: _formula_markdown,
    SemanticCategory.TABLE: _table_markdown,
}


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------

_RAW_SPAN_RE = re.compile(r"(<smiles>.*?</smiles>|<reaction>.*?</reaction>|<table>.*?</table>)", re.DOTALL)


def _escape_html(text: str) -> str:
    """Escape text while keeping our own injected inline tags intact. Text
    with no "<", ">" or "&" is returned as it is."""
    if "<" not in text and ">" not in text and "&" not in text:
        return text
    out = []
    for part in _RAW_SPAN_RE.split(text):
        if _RAW_SPAN_RE.fullmatch(part):
            out.append(part)
        else:
            out.append(
                part.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            )
    return "".join(out)


def _escape_text(text: str) -> str:
    """Escape "&", "<" and ">" in element text with no span raw: for IR
    strings, which never hold a span the formatter rendered."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(text: str) -> str:
    """Escape text for a double-quoted attribute value: no span is raw. Text
    with none of "&", "<", ">" and '"' is returned as it is."""
    if "&" not in text and "<" not in text and ">" not in text and '"' not in text:
        return text
    return _escape_text(text).replace('"', "&quot;")


def to_html(doc: ParsedDocument) -> str:
    lines = [
        "<!DOCTYPE html>",
        "<html>",
        f"<head><meta charset=\"utf-8\"/><title>{_escape_text(doc.doc_id)}</title></head>",
        "<body>",
    ]
    _walk_html(doc.root, lines)
    lines.extend(["</body>", "</html>"])
    return "\n".join(lines) + "\n"


def _walk_html(section: SectionNode, lines: list[str]) -> None:
    is_root = section.level == 0
    if not is_root:
        lines.append("<section>")
        if section.title:
            level = min(max(section.level, 1), 6)
            lines.append(f"<h{level}>{_escape_text(section.title)}</h{level}>")
    body = section.body
    if not is_root and _body_opens_with_title(section):
        body = body[1:]
    writers = _HTML_WRITERS
    for item in body:
        lines.append(writers[item.category](item))
    for child in section.children:
        _walk_html(child, lines)
    if not is_root:
        lines.append("</section>")


def _inline_html(item: FlowItem) -> str:
    if item.payload is None:
        return f"<!-- unparsed {item.category.value} {item.item_id} -->"
    return f"<p>{_escape_html(render_inline(item.payload))}</p>"


def _formula_html(item: FlowItem) -> str:
    formula_id = item.partner_of(_FORMULA_ID)
    suffix = (
        f" {_escape_html(payload_text(formula_id.payload))}"
        if formula_id is not None and formula_id.payload is not None
        else ""
    )
    return f"<p>$${_escape_html(item.text)}$${suffix}</p>"


def _table_html(item: FlowItem) -> str:
    parts = []
    caption = item.caption_text()
    grid = item.payload if isinstance(item.payload, TableGrid) else None
    body = render_grid_html(grid, escape=_escape_html) if grid is not None else ""
    if caption:
        body = body.replace("<table>", f"<table>\n<caption>{_escape_html(caption)}</caption>", 1)
    parts.append(body or f"<!-- unparsed table {item.item_id} -->")
    footnote = item.partner_of(_FOOTNOTE)
    if footnote is not None and footnote.payload is not None:
        parts.append(f"<p>{_escape_html(payload_text(footnote.payload))}</p>")
    return "\n".join(parts)


def _figure_html(item: FlowItem) -> str:
    inner: list[str] = []
    # the answer is escaped in full, any span gather filled into it included
    if isinstance(item.payload, (ESmiles, Reaction)):
        inner.append(f"<p>{render_inline(item.payload, _escape_text)}</p>")
    elif isinstance(item.payload, ChartTable):
        inner.append(render_grid_html(item.payload.grid, escape=_escape_text))
    else:
        alt = _escape_attribute(payload_text(item.payload))
        inner.append(f'<img src="{_escape_attribute(item.item_id)}" alt="{alt}"/>')
    caption_parts = []
    for relation in _FIGURE_CAPTIONS:
        partner = item.partner_of(relation)
        if partner is not None and partner.payload is not None:
            caption_parts.append(_escape_html(payload_text(partner.payload)))
    if caption_parts:
        inner.append(f"<figcaption>{' '.join(caption_parts)}</figcaption>")
    return "<figure>\n" + "\n".join(inner) + "\n</figure>"


_HTML_WRITERS = {
    category: _inline_html for category in SemanticCategory
} | {category: _figure_html for category in FIGURE_CATEGORIES} | {
    SemanticCategory.DOCUMENT_TITLE: lambda item: f"<h1>{_escape_html(item.text)}</h1>",
    SemanticCategory.SECTION_TITLE: lambda item: f"<h2>{_escape_html(item.text)}</h2>",
    SemanticCategory.DIVIDER_LINE: lambda item: "<hr/>",
    SemanticCategory.CODE_BLOCK: lambda item: f"<pre><code>{_escape_html(item.text)}</code></pre>",
    SemanticCategory.FORMULA: _formula_html,
    SemanticCategory.TABLE: _table_html,
}


# ---------------------------------------------------------------------------
# Semantic chunking
# ---------------------------------------------------------------------------


class ChunkKind(Enum):
    TEXT = "text"
    TABLE_UNIT = "table_unit"
    FIGURE_UNIT = "figure_unit"


@dataclass
class Chunk:
    chunk_id: str
    section_path: tuple[str, ...]
    items: list[FlowItem]
    token_estimate: int
    kind: ChunkKind
    oversize: bool = False

    @property
    def text(self) -> str:
        return "\n\n".join(chunk_item_text(item) for item in self.items)


def chunk_item_text(item: FlowItem) -> str:
    """Plain-text view of one item including its partners."""
    parts = [payload_text(item.payload)]
    for partner in item.partners:
        parts.append(payload_text(partner.payload))
    return "\n".join(p for p in parts if p)


def _token_count(item: FlowItem) -> int:
    """The words of chunk_item_text(item), counted per payload: joining them
    on a newline and splitting on whitespace gives the same count."""
    count = len(payload_text(item.payload).split())
    for partner in item.partners:
        count += len(payload_text(partner.payload).split())
    return count


# The kind of a chunk of one item, by the item's category; any other chunk is
# TEXT.
_TEXT_CHUNK = ChunkKind.TEXT
_UNIT_KINDS = {SemanticCategory.TABLE: ChunkKind.TABLE_UNIT} | {
    category: ChunkKind.FIGURE_UNIT for category in FIGURE_CATEGORIES}


def _chunk_kind(items: list[FlowItem]) -> ChunkKind:
    if len(items) == 1:
        return _UNIT_KINDS.get(items[0].category, _TEXT_CHUNK)
    return _TEXT_CHUNK


def chunk(doc: ParsedDocument, max_tokens: int = 512) -> list[Chunk]:
    """Greedy, section-respecting, group-atomic packing of the body.

    Section boundaries always start a new chunk; a group unit never splits;
    an item exceeding max_tokens on its own becomes a singleton chunk flagged
    oversize.
    """
    if max_tokens < 32:
        raise ValueError("max_tokens must be >= 32")
    chunks: list[Chunk] = []

    def flush(pending: list[FlowItem], path: tuple[str, ...], tokens: int) -> None:
        if not pending:
            return
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}:c{len(chunks):04d}",
                section_path=path,
                items=list(pending),
                token_estimate=tokens,
                kind=_chunk_kind(pending),
                oversize=len(pending) == 1 and tokens > max_tokens,
            )
        )

    # Sections in pre-order on an explicit stack, not a function calling
    # itself through its own closure: that would be a reference cycle, and
    # only the cyclic collector would free the chunks.
    stack: list[tuple[SectionNode, tuple[str, ...]]] = [(doc.root, ())]
    while stack:
        section, path = stack.pop()
        here = path if section.level == 0 else (*path, section.title)
        pending: list[FlowItem] = []
        tokens = 0
        for item in section.body:
            size = _token_count(item)
            if pending and tokens + size > max_tokens:
                flush(pending, here, tokens)
                pending, tokens = [], 0
            pending.append(item)
            tokens += size
            if tokens > max_tokens:
                flush(pending, here, tokens)
                pending, tokens = [], 0
        flush(pending, here, tokens)
        stack.extend((child, here) for child in reversed(section.children))
    return chunks


def chunks_to_jsonl(chunks: list[Chunk]) -> str:
    lines = []
    for c in chunks:
        lines.append(
            json.dumps(
                {
                    "chunk_id": c.chunk_id,
                    "section_path": list(c.section_path),
                    "text": c.text,
                    "token_estimate": c.token_estimate,
                    "kind": c.kind.value,
                    "oversize": c.oversize,
                    "item_ids": [i.item_id for i in c.items],
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
