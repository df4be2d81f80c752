from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from uniparse.config import EngineConfig
from uniparse.corpus import CorpusSpec, gen_corpus
from uniparse.docmodel import BoundingBox, Detection, DocumentIR, PageIR, SemanticCategory

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


# Degenerate geometry for oracle comparisons (in-memory documents skip IR
# validation). "grid" boxes take both corners from a coarse grid, so shared
# edges (a.y1 == b.y0, a.x1 == b.x0) and zero widths or heights are common;
# "free" corners give inverted boxes too.
GRID = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]
grid = st.sampled_from(GRID)
coords = st.one_of(grid, st.floats(0.0, 1.0))


@st.composite
def boxes(draw):
    shape = draw(st.sampled_from(["grid", "grid", "sized", "free"]))
    if shape == "grid":
        x0, x1 = sorted((draw(grid), draw(grid)))
        y0, y1 = sorted((draw(grid), draw(grid)))
        return BoundingBox(x0, y0, x1, y1)
    if shape == "free":
        return BoundingBox(draw(coords), draw(coords), draw(coords), draw(coords))
    x0, y0 = draw(coords), draw(coords)
    return BoundingBox(x0, y0, x0 + draw(st.floats(0.0, 0.3)), y0 + draw(st.floats(0.0, 0.2)))


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
    "reaction_reactants_int": {"kind": "reaction", "reactants": [1], "products": ["B"]},
    "reaction_products_int": {"kind": "reaction", "reactants": ["A"], "products": [1]},
}
