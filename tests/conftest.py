from __future__ import annotations

import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

from uniparse.config import EngineConfig
from uniparse.consolidate import FlowItem, Partner, SectionNode
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import (
    BoundingBox,
    Detection,
    DocumentIR,
    PageIR,
    SemanticCategory,
    canonical_json,
)
from uniparse.formats import STRUCTURED_VERSION, ParsedDocument
from uniparse.layout import LayoutNode, LayoutTree, RelationKind
from uniparse.ordering import HCut, Leaf, VCut, order_units
from uniparse.payloads import payload_from_dict, payload_to_dict
from uniparse.server import make_echo_server

# The benchmark's seeded workloads (perfbench/workloads.py) double as test inputs.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


def det(
    det_id: str,
    box: tuple[float, float, float, float],
    category: SemanticCategory = SemanticCategory.PARAGRAPH,
    page: int = 0,
    **kw,
) -> Detection:
    return Detection(
        id=det_id,
        page_index=page,
        box=BoundingBox(*box),
        category=category,
        confidence=kw.pop("confidence", 0.9),
        **kw,
    )


def reading_order(tree, cfg: EngineConfig | None = None) -> list[str]:
    """The page's unit ids in reading order."""
    return [u.unit_id for u in order_units(tree, cfg)]


def xy_cut_oracle(units, min_gap: float):
    """The reference XY-cut: each node sorts both projections again and
    recurses. ordering.xy_cut builds the same tree wherever this one
    terminates; on a cut that leaves one side empty it recurses forever."""
    if len(units) <= 1:
        return Leaf(tuple(u.unit_id for u in units))
    h_gaps = _projection_gaps(units, "y", min_gap)
    v_gaps = _projection_gaps(units, "x", min_gap)
    best_h = h_gaps[0] if h_gaps else None
    best_v = v_gaps[0] if v_gaps else None
    if best_h is None and best_v is None:
        ordered = sorted(units, key=lambda u: (u.hull.y0, u.hull.x0, u.unit_id))
        return Leaf(tuple(u.unit_id for u in ordered))
    if best_v is None or (best_h is not None and best_h[0] >= best_v[0]):
        _, y = best_h
        first = [u for u in units if u.hull.center[1] < y]
        second = [u for u in units if u.hull.center[1] >= y]
        return HCut(y, (xy_cut_oracle(first, min_gap), xy_cut_oracle(second, min_gap)))
    _, x = best_v
    first = [u for u in units if u.hull.center[0] < x]
    second = [u for u in units if u.hull.center[0] >= x]
    return VCut(x, (xy_cut_oracle(first, min_gap), xy_cut_oracle(second, min_gap)))


def _projection_gaps(units, axis: str, min_gap: float) -> list[tuple[float, float]]:
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


def flatten_cut(tree) -> list[tuple]:
    """The cut tree in pre-order, without recursion: ("H", y.hex()),
    ("V", x.hex()) or ("L", unit ids) per node. Every cut has two
    children, so the list determines the tree."""
    out: list[tuple] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(("L", node.unit_ids))
            continue
        out.append(("H", node.y.hex()) if isinstance(node, HCut) else ("V", node.x.hex()))
        stack.extend(reversed(node.children))
    return out


def find(tree: LayoutTree, detection_id: str) -> LayoutNode | None:
    """The tree's node with this id, or None."""
    return next((n for n in tree.iter_nodes() if n.id == detection_id), None)


def detections_by_id(doc: DocumentIR) -> dict[str, Detection]:
    return {d.id: d for d in doc.iter_detections()}


def strip_group_hints(doc: DocumentIR) -> DocumentIR:
    """doc with every detection's group_hint cleared."""
    pages = tuple(
        replace(
            page,
            detections=tuple(replace(d, group_hint=None) for d in page.detections),
        )
        for page in doc.pages
    )
    return replace(doc, pages=pages)


def structured_oracle(doc: ParsedDocument) -> str:
    """canonical_json of the document's dict tree: the specification that
    formats.to_structured writes without building the tree."""
    return canonical_json(structured_dict(doc))


def structured_dict(doc: ParsedDocument) -> dict:
    """The dict tree of the structured dump."""
    return {
        "version": STRUCTURED_VERSION,
        "doc_id": doc.doc_id,
        "language_tag": doc.language_tag,
        "stats": {
            "tokens_emitted": doc.tokens_emitted,
            "tokens_resolved": doc.tokens_resolved,
            "tokens_failed": doc.tokens_failed,
            "failed_tasks": sorted(doc.failed_tasks),
        },
        "root": _section_to_dict(doc.root),
    }


def _section_to_dict(section: SectionNode) -> dict:
    return {
        "level": section.level,
        "title": section.title,
        "body": [_item_to_dict(item) for item in section.body],
        "children": [_section_to_dict(child) for child in section.children],
    }


def _item_to_dict(item: FlowItem) -> dict:
    return {
        "id": item.item_id,
        "page_index": item.page_index,
        "category": item.category.value,
        "box": item.box.as_list(),
        "payload": payload_to_dict(item.payload) if item.payload is not None else None,
        "partners": [
            {
                "relation": p.relation.value,
                "category": p.category.value,
                "id": p.detection_id,
                "payload": payload_to_dict(p.payload) if p.payload is not None else None,
            }
            for p in item.partners
        ],
        "provenance": {
            "merged_ids": list(item.merged_ids),
            "pages": list(item.pages),
        },
        "group_hint": item.group_hint,
    }


def load_structured(text: str) -> ParsedDocument:
    """Read a to_structured dump back: the round-trip oracle."""
    data = json.loads(text)
    stats = data.get("stats", {})
    return ParsedDocument(
        doc_id=data["doc_id"],
        root=_section_from_dict(data["root"]),
        language_tag=data.get("language_tag", "en"),
        tokens_emitted=int(stats.get("tokens_emitted", 0)),
        tokens_resolved=int(stats.get("tokens_resolved", 0)),
        tokens_failed=int(stats.get("tokens_failed", 0)),
        failed_tasks=tuple(stats.get("failed_tasks", ())),
    )


def _section_from_dict(data: dict) -> SectionNode:
    return SectionNode(
        level=int(data["level"]),
        title=data["title"],
        body=[_item_from_dict(d) for d in data["body"]],
        children=[_section_from_dict(d) for d in data["children"]],
    )


def _item_from_dict(data: dict) -> FlowItem:
    provenance = data.get("provenance", {})
    return FlowItem(
        item_id=data["id"],
        page_index=int(data["page_index"]),
        category=SemanticCategory(data["category"]),
        box=BoundingBox(*data["box"]),
        payload=payload_from_dict(data["payload"]) if data.get("payload") is not None else None,
        partners=tuple(
            Partner(
                relation=RelationKind(p["relation"]),
                category=SemanticCategory(p["category"]),
                detection_id=p["id"],
                payload=payload_from_dict(p["payload"]) if p.get("payload") is not None else None,
            )
            for p in data.get("partners", ())
        ),
        merged_ids=tuple(provenance.get("merged_ids", ())),
        source_pages=tuple(provenance.get("pages", ())),
        group_hint=data.get("group_hint"),
    )


class EchoServerThread:
    """Context manager running the echo server on a daemon thread."""

    def __init__(self, docs: list[DocumentIR]):
        self.server = make_echo_server(docs)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "EchoServerThread":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()


def one_page_doc(detections, doc_id: str = "doc", outline=()) -> DocumentIR:
    return DocumentIR(
        doc_id=doc_id,
        pages=(PageIR(page_index=0, width_pt=612.0, height_pt=792.0,
                      detections=tuple(detections)),),
        outline=tuple(outline),
    )


@pytest.fixture(scope="session")
def cfg() -> EngineConfig:
    return EngineConfig()


@pytest.fixture(scope="session")
def small_corpus():
    spec = CorpusSpec(seed=11, n_docs=6, pages_min=1, pages_max=3)
    return gen_corpus(spec)


# Geometry for oracle comparisons: the boxes layout admits, finite with
# x0 < x1 and y0 < y1 (build_layout_tree refuses any other). "grid" boxes take
# both corners from a coarse grid, so shared edges (a.y1 == b.y0, a.x1 ==
# b.x0) are common; "free" corners are any two distinct floats of [0, 1].
GRID = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]
grid = st.sampled_from(GRID)
coords = st.one_of(grid, st.floats(0.0, 1.0))


def _span(draw, values):
    return sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)))


@st.composite
def boxes(draw):
    shape = draw(st.sampled_from(["grid", "grid", "sized", "free"]))
    if shape != "sized":
        values = grid if shape == "grid" else coords
        (x0, x1), (y0, y1) = _span(draw, values), _span(draw, values)
        return BoundingBox(x0, y0, x1, y1)
    x0, y0 = draw(coords), draw(coords)
    return BoundingBox(x0, y0, x0 + draw(st.floats(2.0 ** -10, 0.3)),
                       y0 + draw(st.floats(2.0 ** -10, 0.2)))


@st.composite
def box_lists(draw, min_size, max_size):
    """Boxes, about a fifth of them repeating an earlier one exactly."""
    distinct = draw(st.lists(boxes(), min_size=min_size, max_size=max_size))
    if not distinct:
        return []
    return distinct + draw(st.lists(st.sampled_from(distinct), max_size=len(distinct) // 4))


# Malformed input shared by the IR loader, remote-response and echo-server
# tests. JSON reads the number 1e400 as infinity, which no integer can hold,
# and HUGE_INT as an integer too large for a float.
HUGE_INT = "1" + "0" * 400


def bad_json(obj) -> str:
    """obj as JSON text, each string "1e400" or HUGE_INT written as the
    bare number."""
    text = json.dumps(obj)
    for number in ("1e400", HUGE_INT):
        text = text.replace(f'"{number}"', number)
    return text


def deeply_nested(depth: int = 100_000) -> str:
    """A JSON array nested past any recursion limit."""
    return "[" * depth + "]" * depth


def _grid(**fields) -> dict:
    cell = {"row": 0, "col": 0, "row_span": 1, "col_span": 1, "content": ["x"]}
    grid = {"kind": "table_grid", "rows": 1, "cols": 1, "cells": [cell]}
    for key, value in fields.items():
        (grid if key in grid else cell)[key] = value
    return grid


# Payloads every decoder must reject, as objects for bad_json.
MALFORMED_PAYLOADS = {
    **{f"grid_{key}_1e400": _grid(**{key: "1e400"})
       for key in ("rows", "cols", "row", "col", "row_span", "col_span")},
    "cell_content_ints": _grid(content=[1, 2]),
    # the grid size policy (payloads.MAX_GRID_POSITIONS); the first two once
    # ran the loader and the markdown formatter out of memory
    "grid_rows_and_row_span_2e9": _grid(rows=2e9, row_span=2e9),
    "grid_rows_1e9_no_cells": _grid(rows=1e9, cells=[]),
    "grid_rows_1e9_no_cols": _grid(rows=1e9, cols=0, cells=[]),
    "grid_cols_1e9_no_rows": _grid(rows=0, cols=1e9, cells=[]),
    "grid_row_span_2e9": _grid(row_span=2e9),
    "grid_negative_span": _grid(col_span=-1),
    "grid_cell_outside": _grid(col=1),
    "reaction_reactants_int": {"kind": "reaction", "reactants": [1], "products": ["B"]},
    "reaction_products_int": {"kind": "reaction", "reactants": ["A"], "products": [1]},
}
