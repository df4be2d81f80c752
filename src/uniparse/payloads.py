"""Tagged content payloads produced by the modality experts.

Every parsed element carries exactly one payload kind. The wire and file
representations use the `kind` discriminator strings defined here; they are
part of the public contract and must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, ClassVar, Union

# Anchors the position of an inline element (formula, molecule, chart, ...)
# inside source text and table cells. Replaced by a placeholder token during
# dispatch and by the rendered payload during gathering.
INLINE_MARKER = "￼"


@dataclass(frozen=True, slots=True)
class Text:
    value: str
    kind: ClassVar[str] = "text"


@dataclass(frozen=True, slots=True)
class Latex:
    value: str
    kind: ClassVar[str] = "latex"


@dataclass(frozen=True, slots=True)
class ESmiles:
    """Extended-SMILES string. Treated as an opaque, non-empty token."""

    value: str
    kind: ClassVar[str] = "e_smiles"


@dataclass(frozen=True, slots=True)
class Caption:
    value: str
    kind: ClassVar[str] = "caption"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class TableGrid:
    rows: int
    cols: int
    cells: tuple[Cell, ...] = ()
    kind: ClassVar[str] = "table_grid"

    def fits(self, c: Cell) -> bool:
        """True when c is anchored inside the grid, its spans are not
        negative, and it ends inside the grid. A zero span covers nothing but
        must still be anchored inside."""
        return (c.row_span >= 0 and c.col_span >= 0
                and 0 <= c.row < self.rows and c.row + c.row_span <= self.rows
                and 0 <= c.col < self.cols and c.col + c.col_span <= self.cols)

    def spans_tile(self) -> bool:
        """True when every cell fits the grid and the spans cover it without
        overlap (gaps allowed).

        Every cell's bounds are checked before any position is enumerated, so
        the work is bounded by the grid's own positions, not by its spans.
        """
        if not all(self.fits(c) for c in self.cells):
            return False
        seen: set[tuple[int, int]] = set()
        for c in self.cells:
            for r in range(c.row, c.row + c.row_span):
                for k in range(c.col, c.col + c.col_span):
                    if (r, k) in seen:
                        return False
                    seen.add((r, k))
        return True


@dataclass(frozen=True, slots=True)
class Reaction:
    reactants: tuple[str, ...]
    conditions: tuple[str, ...] = ()
    products: tuple[str, ...] = ()
    kind: ClassVar[str] = "reaction"


@dataclass(frozen=True, slots=True)
class ChartTable:
    grid: TableGrid
    kind: ClassVar[str] = "chart_table"


ContentPayload = Union[Text, Latex, TableGrid, ESmiles, Reaction, ChartTable, Caption]

# The payload kinds that are one string.
SCALARS = (Text, Latex, ESmiles, Caption)
_SCALAR_TYPES = {cls.kind: cls for cls in SCALARS}

# What decoding a malformed JSON document or payload raises: a missing key, a
# wrong type, a bad value, a non-finite or huge number given where an integer
# or float belongs, or nesting too deep to parse.
DECODE_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)

# The most positions (rows x cols, an empty dimension counted as 1) a decoded
# table grid may declare, which also caps rows and cols on their own. The
# formatters walk every row and every column and the tiling check every
# covered position, so a file or response declaring a billion rows, even with
# no columns, would exhaust time or memory; real tables are orders of
# magnitude smaller.
MAX_GRID_POSITIONS = 100_000


def payload_to_dict(payload: ContentPayload) -> dict:
    if isinstance(payload, SCALARS):
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
    rows, cols = int(data["rows"]), int(data["cols"])
    # max(.., 1): an empty dimension must not let the other one run unbounded
    if rows < 0 or cols < 0 or max(rows, 1) * max(cols, 1) > MAX_GRID_POSITIONS:
        raise ValueError(f"a {rows} x {cols} grid: at most {MAX_GRID_POSITIONS} positions")
    grid = TableGrid(rows=rows, cols=cols, cells=cells)
    for c in cells:
        if not grid.fits(c):
            raise ValueError(f"cell ({c.row}, {c.col}) spanning {c.row_span} x {c.col_span}"
                             f" does not fit the {rows} x {cols} grid")
    return grid


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


def _verbatim(text: str) -> str:
    return text


def render_inline(payload: ContentPayload, escape: Callable[[str], str] = _verbatim) -> str:
    """Render a payload as an inline span for reintegration into text.

    LaTeX becomes `$...$`, molecules `<smiles>...</smiles>`, reactions a
    reactant>condition>product triplet, and (chart) tables a one-line HTML
    table so the result stays legal inside Markdown and HTML alike. escape
    is applied to each payload string and cell, never to the span's tags.
    """
    if isinstance(payload, (Text, Caption)):
        return escape(payload.value)
    if isinstance(payload, Latex):
        return f"${escape(payload.value)}$"
    if isinstance(payload, ESmiles):
        return f"<smiles>{escape(payload.value)}</smiles>"
    if isinstance(payload, Reaction):
        return (
            "<reaction>"
            + ".".join(map(escape, payload.reactants))
            + ">"
            + ".".join(map(escape, payload.conditions))
            + ">"
            + ".".join(map(escape, payload.products))
            + "</reaction>"
        )
    if isinstance(payload, ChartTable):
        return render_grid_html(payload.grid, inline=True, escape=escape)
    if isinstance(payload, TableGrid):
        return render_grid_html(payload, inline=True, escape=escape)
    raise TypeError(f"not a payload: {payload!r}")


def render_grid_html(grid: TableGrid, inline: bool = False,
                     escape: Callable[[str], str] = _verbatim) -> str:
    """HTML table for a grid, each cell's text through escape. One line when
    inline, indented otherwise."""
    sep = "" if inline else "\n"
    pad = "" if inline else "  "
    out = ["<table>"]
    for cells in _grid_rows(grid):
        parts = [f"{pad}<tr>"]
        for c in cells:
            attrs = ""
            if c.row_span != 1:
                attrs += f' rowspan="{c.row_span}"'
            if c.col_span != 1:
                attrs += f' colspan="{c.col_span}"'
            parts.append(f"{pad}{pad}<td{attrs}>{escape(c.text())}</td>")
        parts.append(f"{pad}</tr>")
        out.append(sep.join(parts) if inline else "\n".join(parts))
    out.append("</table>")
    return sep.join(out) if inline else "\n".join(out)


def _grid_rows(grid: TableGrid) -> list[list[Cell]]:
    """The grid's cells row by row, rows 0 to rows - 1, each row in column
    order. Cells outside 0 <= row < rows are dropped, and cells at one
    position keep their order. The cells are bucketed in one pass; the rows
    are sorted only when some row's cells came out of order."""
    n = grid.rows
    rows: list[list[Cell]] = [[] for _ in range(n)]
    in_order = True
    for c in grid.cells:
        r = c.row
        if 0 <= r < n:
            row = rows[r]
            if row and row[-1].col > c.col:
                in_order = False
            row.append(c)
    if not in_order:
        for row in rows:
            row.sort(key=attrgetter("col"))
    return rows


def payload_text(payload: ContentPayload | None) -> str:
    """Plain-text view of a payload, used for chunking and token estimates."""
    if payload is None:
        return ""
    if isinstance(payload, SCALARS):
        return payload.value
    if isinstance(payload, Reaction):
        return " ".join((*payload.reactants, *payload.conditions, *payload.products))
    if isinstance(payload, ChartTable):
        return payload_text(payload.grid)
    if isinstance(payload, TableGrid):
        return "\n".join(" ".join(c.text() for c in cells) for cells in _grid_rows(payload))
    raise TypeError(f"not a payload: {payload!r}")
