"""Tagged content payloads produced by the modality experts.

Every parsed element carries exactly one payload kind. The wire and file
representations use the `kind` discriminator strings defined here; they are
part of the public contract and must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

# Anchors the position of an inline element (formula, molecule, chart, ...)
# inside source text and table cells. Replaced by a placeholder token during
# dispatch and by the rendered payload during gathering.
INLINE_MARKER = "￼"


@dataclass(frozen=True)
class Text:
    value: str
    kind: ClassVar[str] = "text"


@dataclass(frozen=True)
class Latex:
    value: str
    kind: ClassVar[str] = "latex"


@dataclass(frozen=True)
class ESmiles:
    """Extended-SMILES string. Treated as an opaque, non-empty token."""

    value: str
    kind: ClassVar[str] = "e_smiles"


@dataclass(frozen=True)
class Caption:
    value: str
    kind: ClassVar[str] = "caption"


@dataclass(frozen=True)
class Cell:
    """One table cell. Spans are in grid units and must tile the grid."""

    row: int
    col: int
    row_span: int = 1
    col_span: int = 1
    # Inline runs: plain text and/or placeholder tokens, concatenated in order.
    content: tuple[str, ...] = ()

    def text(self) -> str:
        return "".join(self.content)


@dataclass(frozen=True)
class TableGrid:
    rows: int
    cols: int
    cells: tuple[Cell, ...] = ()
    kind: ClassVar[str] = "table_grid"

    def cell_count(self) -> int:
        return len(self.cells)

    def is_rectangular(self) -> bool:
        """True when every cell is 1x1 and the grid is fully covered."""
        if any(c.row_span != 1 or c.col_span != 1 for c in self.cells):
            return False
        return len(self.cells) == self.rows * self.cols

    def spans_tile(self) -> bool:
        """True when cell spans cover the grid without overlap (gaps allowed)."""
        seen: set[tuple[int, int]] = set()
        for c in self.cells:
            for r in range(c.row, c.row + c.row_span):
                for k in range(c.col, c.col + c.col_span):
                    if r < 0 or r >= self.rows or k < 0 or k >= self.cols:
                        return False
                    if (r, k) in seen:
                        return False
                    seen.add((r, k))
        return True

    def cell_at(self, row: int, col: int) -> Cell | None:
        for c in self.cells:
            if c.row == row and c.col == col:
                return c
        return None


@dataclass(frozen=True)
class Reaction:
    reactants: tuple[str, ...]
    conditions: tuple[str, ...] = ()
    products: tuple[str, ...] = ()
    kind: ClassVar[str] = "reaction"


@dataclass(frozen=True)
class ChartTable:
    grid: TableGrid
    kind: ClassVar[str] = "chart_table"


ContentPayload = Union[Text, Latex, TableGrid, ESmiles, Reaction, ChartTable, Caption]

PAYLOAD_KINDS = ("text", "latex", "table_grid", "e_smiles", "reaction", "chart_table", "caption")

_SCALAR_TYPES = {"text": Text, "latex": Latex, "e_smiles": ESmiles, "caption": Caption}

# What decoding a malformed JSON document or payload raises: a missing key, a
# wrong type, a bad value, a non-finite or huge number given where an integer
# or float belongs, or nesting too deep to parse.
DECODE_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def payload_to_dict(payload: ContentPayload) -> dict:
    if isinstance(payload, (Text, Latex, ESmiles, Caption)):
        return {"kind": payload.kind, "value": payload.value}
    if isinstance(payload, TableGrid):
        return {"kind": "table_grid", **_grid_to_dict(payload)}
    if isinstance(payload, ChartTable):
        return {"kind": "chart_table", "grid": _grid_to_dict(payload.grid)}
    if isinstance(payload, Reaction):
        return {
            "kind": "reaction",
            "reactants": list(payload.reactants),
            "conditions": list(payload.conditions),
            "products": list(payload.products),
        }
    raise TypeError(f"not a payload: {payload!r}")


def payload_from_dict(data: dict) -> ContentPayload:
    """Raises one of DECODE_ERRORS on a malformed payload."""
    kind = _require_object(data).get("kind")
    if kind in _SCALAR_TYPES:
        return _SCALAR_TYPES[kind](value=str(data["value"]))
    if kind == "table_grid":
        return _grid_from_dict(data)
    if kind == "chart_table":
        return ChartTable(grid=_grid_from_dict(data["grid"]))
    if kind == "reaction":
        return Reaction(
            reactants=str_list(data, "reactants"),
            conditions=str_list(data, "conditions"),
            products=str_list(data, "products"),
        )
    raise ValueError(f"unknown payload kind: {kind!r}")


def _grid_to_dict(grid: TableGrid) -> dict:
    return {
        "rows": grid.rows,
        "cols": grid.cols,
        "cells": [
            {
                "row": c.row,
                "col": c.col,
                "row_span": c.row_span,
                "col_span": c.col_span,
                "content": list(c.content),
            }
            for c in grid.cells
        ],
    }


def _grid_from_dict(data: dict) -> TableGrid:
    cells = tuple(
        Cell(
            row=int(c["row"]),
            col=int(c["col"]),
            row_span=int(c.get("row_span", 1)),
            col_span=int(c.get("col_span", 1)),
            content=str_list(c, "content"),
        )
        for c in _require_object(data).get("cells", ())
    )
    return TableGrid(rows=int(data["rows"]), cols=int(data["cols"]), cells=cells)


def str_list(data: dict, key: str) -> tuple[str, ...]:
    """data[key], a list of strings, as a tuple; absent reads as empty."""
    value = data.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"{key} must be a list of strings")
    return tuple(value)


def _require_object(data) -> dict:
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    return data


def render_inline(payload: ContentPayload) -> str:
    """Render a payload as an inline span for reintegration into text.

    LaTeX becomes `$...$`, molecules `<smiles>...</smiles>`, reactions a
    reactant>condition>product triplet, and (chart) tables a one-line HTML
    table so the result stays legal inside Markdown and HTML alike.
    """
    if isinstance(payload, Text):
        return payload.value
    if isinstance(payload, Caption):
        return payload.value
    if isinstance(payload, Latex):
        return f"${payload.value}$"
    if isinstance(payload, ESmiles):
        return f"<smiles>{payload.value}</smiles>"
    if isinstance(payload, Reaction):
        return (
            "<reaction>"
            + ".".join(payload.reactants)
            + ">"
            + ".".join(payload.conditions)
            + ">"
            + ".".join(payload.products)
            + "</reaction>"
        )
    if isinstance(payload, ChartTable):
        return render_grid_html(payload.grid, inline=True)
    if isinstance(payload, TableGrid):
        return render_grid_html(payload, inline=True)
    raise TypeError(f"not a payload: {payload!r}")


def render_grid_html(grid: TableGrid, inline: bool = False) -> str:
    """HTML table for a grid. One line when inline, indented otherwise."""
    sep = "" if inline else "\n"
    pad = "" if inline else "  "
    out = ["<table>"]
    cells_by_row: dict[int, list[Cell]] = {}
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


def payload_text(payload: ContentPayload | None) -> str:
    """Plain-text view of a payload, used for chunking and token estimates."""
    if payload is None:
        return ""
    if isinstance(payload, (Text, Caption)):
        return payload.value
    if isinstance(payload, Latex):
        return payload.value
    if isinstance(payload, ESmiles):
        return payload.value
    if isinstance(payload, Reaction):
        return " ".join((*payload.reactants, *payload.conditions, *payload.products))
    if isinstance(payload, ChartTable):
        return payload_text(payload.grid)
    if isinstance(payload, TableGrid):
        rows: dict[int, list[Cell]] = {}
        for c in payload.cells:
            rows.setdefault(c.row, []).append(c)
        lines = []
        for r in range(payload.rows):
            cells = sorted(rows.get(r, ()), key=lambda c: c.col)
            lines.append(" ".join(c.text() for c in cells))
        return "\n".join(lines)
    raise TypeError(f"not a payload: {payload!r}")
