"""Document intermediate representation: types, file schema, validation.

The IR is one self-describing JSON document per file (`version` fixed at "1").
Top-level keys: version, doc_id, language_tag, outline, pages[]. Each page has
page_index, width_pt, height_pt, detections[]; each detection has id,
box:[x0,y0,x1,y1], category, confidence and the optional group_hint,
truth_text, truth_payload channels. Coordinates are page-normalized to [0,1]
with the origin top-left and y increasing downward.

Loading decodes shapes and types (`document_from_dict`), then checks the
semantic rules in one pass (`validate_document`); both raise SchemaViolation
at the first error instead of repairing the input.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .payloads import (
    DECODE_ERRORS,
    ChartTable,
    ContentPayload,
    Reaction,
    TableGrid,
    payload_from_dict,
    payload_to_dict,
)

IR_VERSION = "1"


class SemanticCategory(str, Enum):
    DOCUMENT_TITLE = "document_title"
    SECTION_TITLE = "section_title"
    PARAGRAPH = "paragraph"
    REFERENCES = "references"
    TABLE_OF_CONTENTS = "table_of_contents"
    KEY_VALUE_ITEM = "key_value_item"
    CODE_BLOCK = "code_block"
    HEADER = "header"
    FOOTER = "footer"
    FOOTNOTE = "footnote"
    SIDEBAR = "sidebar"
    PAGE_NUMBER = "page_number"
    WATERMARK = "watermark"
    DIVIDER_LINE = "divider_line"
    FORMULA = "formula"
    TABLE = "table"
    IMAGE = "image"
    FORMULA_INLINE = "formula_inline"
    MOLECULE = "molecule"
    CHEMICAL_REACTION = "chemical_reaction"
    CHART = "chart"
    FIGURE = "figure"
    # Group-member kinds paired with the anchors above.
    CAPTION = "caption"
    TABLE_FOOTNOTE = "table_footnote"
    FORMULA_ID = "formula_id"
    MOLECULE_IDENTIFIER = "molecule_identifier"
    MARKUSH_DESCRIPTION = "markush_description"
    FIGURE_LEGEND = "figure_legend"


# Elements nested inside bottom-layer blocks (or standing alone as orphans).
TOP_LAYER_CATEGORIES = frozenset(
    {
        SemanticCategory.FORMULA_INLINE,
        SemanticCategory.MOLECULE,
        SemanticCategory.CHEMICAL_REACTION,
        SemanticCategory.CHART,
        SemanticCategory.FIGURE,
    }
)

# Purely functional page furniture, dropped by the layout filter.
FUNCTIONAL_CATEGORIES = frozenset(
    {
        SemanticCategory.HEADER,
        SemanticCategory.FOOTER,
        SemanticCategory.SIDEBAR,
        SemanticCategory.WATERMARK,
    }
)


class SchemaViolation(Exception):
    """A document file or value violates the IR schema."""

    def __init__(self, field_name: str, reason: str):
        self.field = field_name
        self.reason = reason
        super().__init__(f"{field_name}: {reason}")


class DuplicateId(SchemaViolation):
    def __init__(self, detection_id: str):
        self.detection_id = detection_id
        super().__init__("detections.id", f"duplicate id {detection_id!r}")


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in normalized page coordinates, origin top-left."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return max(0.0, self.width) * max(0.0, self.height)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def intersection_area(self, other: BoundingBox) -> float:
        w = min(self.x1, other.x1) - max(self.x0, other.x0)
        h = min(self.y1, other.y1) - max(self.y0, other.y0)
        if w <= 0.0 or h <= 0.0:
            return 0.0
        return w * h

    def union(self, other: BoundingBox) -> BoundingBox:
        return BoundingBox(
            min(self.x0, other.x0),
            min(self.y0, other.y0),
            max(self.x1, other.x1),
            max(self.y1, other.y1),
        )

    def translate(self, dx: float, dy: float) -> BoundingBox:
        return BoundingBox(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def distance_to_point(self, x: float, y: float) -> float:
        """Euclidean distance from a point to this box (0 when inside)."""
        dx = max(self.x0 - x, 0.0, x - self.x1)
        dy = max(self.y0 - y, 0.0, y - self.y1)
        return math.hypot(dx, dy)

    def as_list(self) -> list[float]:
        return [self.x0, self.y0, self.x1, self.y1]


def hull_of(boxes) -> BoundingBox:
    boxes = list(boxes)
    if not boxes:
        raise ValueError("hull of no boxes")
    out = boxes[0]
    for b in boxes[1:]:
        out = out.union(b)
    return out


@dataclass(frozen=True, slots=True)
class Detection:
    id: str
    page_index: int
    box: BoundingBox
    category: SemanticCategory
    confidence: float
    group_hint: str | None = None
    truth_text: str | None = None
    truth_payload: ContentPayload | None = None


@dataclass(frozen=True, slots=True)
class OutlineEntry:
    level: int
    title: str
    page_index: int


@dataclass(frozen=True, slots=True)
class PageIR:
    page_index: int
    width_pt: float
    height_pt: float
    detections: tuple[Detection, ...] = ()


@dataclass(frozen=True, slots=True)
class DocumentIR:
    doc_id: str
    pages: tuple[PageIR, ...] = ()
    outline: tuple[OutlineEntry, ...] = ()
    language_tag: str = "en"

    def iter_detections(self):
        for page in self.pages:
            yield from page.detections


def box_violation(det: Detection, bounded: bool = True) -> SchemaViolation | None:
    """The IR's rule on a detection's box, as the error validate_document
    raises for it, or None when the box passes: `degenerate_box` unless
    x0 < x1 and y0 < y1, else `box_bounds` for a coordinate beyond float
    range (infinite, NaN, or an int too large for a float) or, when bounded,
    outside [0,1]. Layout asks it unbounded: no layout or ordering rule needs
    the unit square."""
    box = det.box
    if box.x0 >= box.x1 or box.y0 >= box.y1:
        return SchemaViolation("degenerate_box", f"detection {det.id} has a degenerate box")
    coords = (box.x0, box.y0, box.x1, box.y1)
    if bounded and not all(0.0 <= v <= 1.0 for v in coords):
        return SchemaViolation("box_bounds", f"detection {det.id} box outside [0,1]")
    if not all(abs(v) <= sys.float_info.max for v in coords):
        return SchemaViolation("box_bounds", f"detection {det.id} box is not finite")
    return None


def validate_document(doc: DocumentIR) -> None:
    """The IR's semantic rules, checked in one pass: raise SchemaViolation,
    its `field` the rule's code, at the first broken rule.

    The pass visits each page (its index, then its size: finite and > 0),
    then that page's detections in file order (unique id as `DuplicateId`,
    page index, box, confidence in [0, 1], payload: table and chart grids
    tile, a reaction has reactants and products), then the outline (levels
    start at 1 and deepen one step at a time; pages exist). A document
    that breaks several rules names the first one in this order.
    """
    seen: set[str] = set()
    for i, page in enumerate(doc.pages):
        if page.page_index != i:
            raise SchemaViolation("page_index", f"page {i} carries index {page.page_index}")
        size = (page.width_pt, page.height_pt)
        if not all(0.0 < v < math.inf for v in size):
            kind = "non-positive" if all(map(math.isfinite, size)) else "non-finite"
            raise SchemaViolation("page_size", f"page {page.page_index} has {kind} dimensions")
        for det in page.detections:
            if det.id in seen:
                raise DuplicateId(det.id)
            seen.add(det.id)
            if det.page_index != page.page_index:
                raise SchemaViolation(
                    "page_index",
                    f"detection {det.id} claims page {det.page_index}, found on {page.page_index}",
                )
            violation = box_violation(det)
            if violation is not None:
                raise violation
            if not (0.0 <= det.confidence <= 1.0):
                raise SchemaViolation(
                    "confidence", f"detection {det.id} confidence {det.confidence}"
                )
            p = det.truth_payload
            grid = p.grid if isinstance(p, ChartTable) else p
            if isinstance(grid, TableGrid) and not grid.spans_tile():
                raise SchemaViolation("grid_spans", f"table {det.id} spans overlap or overflow")
            if isinstance(p, Reaction) and (not p.reactants or not p.products):
                raise SchemaViolation(
                    "reaction_arity", f"reaction {det.id} needs reactants and products"
                )

    prev_level = None
    for entry in doc.outline:
        if entry.level < 1:
            raise SchemaViolation(
                "outline_level", f"outline level {entry.level} < 1 ({entry.title!r})"
            )
        if prev_level is not None and entry.level > prev_level + 1:
            raise SchemaViolation(
                "outline_level",
                f"outline level jumps from {prev_level} to {entry.level} ({entry.title!r})",
            )
        if not (0 <= entry.page_index < len(doc.pages)):
            raise SchemaViolation(
                "outline_page", f"outline entry {entry.title!r} points at missing page"
            )
        prev_level = entry.level


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """The one serialization used everywhere byte-stability matters: IR
    files, truth files, `parse --emit layout/order`. The structured dump
    (``formats.to_structured``) writes the same bytes through templates and
    does not call this."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def document_to_dict(doc: DocumentIR) -> dict:
    return {
        "version": IR_VERSION,
        "doc_id": doc.doc_id,
        "language_tag": doc.language_tag,
        "outline": [
            {"level": e.level, "title": e.title, "page_index": e.page_index} for e in doc.outline
        ],
        "pages": [
            {
                "page_index": p.page_index,
                "width_pt": p.width_pt,
                "height_pt": p.height_pt,
                "detections": [_detection_to_dict(d) for d in p.detections],
            }
            for p in doc.pages
        ],
    }


def _detection_to_dict(det: Detection) -> dict:
    out = {
        "id": det.id,
        "box": det.box.as_list(),
        "category": det.category.value,
        "confidence": det.confidence,
    }
    if det.group_hint is not None:
        out["group_hint"] = det.group_hint
    if det.truth_text is not None:
        out["truth_text"] = det.truth_text
    if det.truth_payload is not None:
        out["truth_payload"] = payload_to_dict(det.truth_payload)
    return out


def document_from_dict(data: dict) -> DocumentIR:
    if not isinstance(data, dict):
        raise SchemaViolation("document", "top level must be an object")
    version = data.get("version")
    if version != IR_VERSION:
        raise SchemaViolation("version", f"expected {IR_VERSION!r}, got {version!r}")
    doc_id = _require_str(data, "doc_id")
    language_tag = str(data.get("language_tag", "en"))

    outline = []
    for i, entry in enumerate(_list_field(data, "outline", "outline")):
        try:
            outline.append(
                OutlineEntry(
                    level=int(entry["level"]),
                    title=str(entry["title"]),
                    page_index=int(entry["page_index"]),
                )
            )
        except DECODE_ERRORS as exc:
            raise SchemaViolation(f"outline[{i}]", f"malformed entry: {exc}") from exc

    pages = []
    for i, page in enumerate(_list_field(data, "pages", "pages")):
        try:
            page_index = int(page["page_index"])
            width_pt = float(page["width_pt"])
            height_pt = float(page["height_pt"])
        except DECODE_ERRORS as exc:
            raise SchemaViolation(f"pages[{i}]", f"malformed page: {exc}") from exc
        detections = []
        for j, det in enumerate(_list_field(page, "detections", f"pages[{i}].detections")):
            detections.append(
                _detection_from_dict(det, page_index, f"pages[{i}].detections[{j}]")
            )
        pages.append(PageIR(page_index, width_pt, height_pt, tuple(detections)))

    return DocumentIR(
        doc_id=doc_id, pages=tuple(pages), outline=tuple(outline), language_tag=language_tag
    )


def _list_field(data: dict, key: str, where: str) -> list:
    """data[key] as a list; absent or null reads as empty."""
    value = data.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise SchemaViolation(where, f"must be a list, got {type(value).__name__}")
    return value


def _require_str(data: dict, key: str) -> str:
    value = data.get(key)
    if not isinstance(value, str) or not value:
        raise SchemaViolation(key, "missing or empty string")
    return value


def _optional_str(data: dict, key: str) -> str | None:
    value = data.get(key)
    if value is not None and not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {type(value).__name__}")
    return value


def _detection_from_dict(data: dict, page_index: int, where: str) -> Detection:
    try:
        box_raw = data["box"]
        if not isinstance(box_raw, (list, tuple)) or len(box_raw) != 4:
            raise SchemaViolation(f"{where}.box", "box must be [x0, y0, x1, y1]")
        category_raw = data["category"]
        try:
            category = SemanticCategory(category_raw)
        except ValueError:
            raise SchemaViolation(f"{where}.category", f"unknown category {category_raw!r}")
        payload = None
        if data.get("truth_payload") is not None:
            try:
                payload = payload_from_dict(data["truth_payload"])
            except DECODE_ERRORS as exc:
                raise SchemaViolation(f"{where}.truth_payload", str(exc)) from exc
        return Detection(
            id=str(data["id"]),
            page_index=page_index,
            box=BoundingBox(*(float(v) for v in box_raw)),
            category=category,
            confidence=float(data["confidence"]),
            group_hint=_optional_str(data, "group_hint"),
            truth_text=_optional_str(data, "truth_text"),
            truth_payload=payload,
        )
    except SchemaViolation:
        raise
    except DECODE_ERRORS as exc:
        raise SchemaViolation(where, f"malformed detection: {exc}") from exc


def load_document(path: str | Path) -> DocumentIR:
    """Decode an IR file, then `validate_document` it. Raises instead of
    repairing."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation("document", f"not valid JSON: {exc}") from exc
    doc = document_from_dict(data)
    validate_document(doc)
    return doc


def save_document(doc: DocumentIR, path: str | Path) -> None:
    Path(path).write_text(canonical_json(document_to_dict(doc)), encoding="utf-8")


def document_bytes(doc: DocumentIR) -> bytes:
    return canonical_json(document_to_dict(doc)).encode("utf-8")
