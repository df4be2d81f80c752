"""Document intermediate representation: types, file schema, validation.

The IR is one self-describing JSON document per file (`version` fixed at "1").
Top-level keys: version, doc_id, language_tag, outline, pages[]. Each page has
page_index, width_pt, height_pt, detections[]; each detection has id,
box:[x0,y0,x1,y1], category, confidence and the optional group_hint,
truth_text, truth_payload channels. Coordinates are page-normalized to [0,1]
with the origin top-left and y increasing downward.

Loading rejects malformed input instead of repairing it; validation of
in-memory documents returns a report instead of raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .payloads import (
    DECODE_ERRORS,
    ContentPayload,
    Reaction,
    TableGrid,
    payload_from_dict,
    payload_to_dict,
)

IR_VERSION = "1"


class Layer(Enum):
    BOTTOM = "bottom"
    TOP = "top"


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

# Anchor categories that may own grouped partners.
ANCHOR_CATEGORIES = frozenset(
    {
        SemanticCategory.IMAGE,
        SemanticCategory.TABLE,
        SemanticCategory.FORMULA,
        SemanticCategory.MOLECULE,
        SemanticCategory.FIGURE,
        SemanticCategory.CHART,
        SemanticCategory.CHEMICAL_REACTION,
    }
)

# Partner categories that attach to an anchor.
PARTNER_CATEGORIES = frozenset(
    {
        SemanticCategory.CAPTION,
        SemanticCategory.TABLE_FOOTNOTE,
        SemanticCategory.FORMULA_ID,
        SemanticCategory.MOLECULE_IDENTIFIER,
        SemanticCategory.MARKUSH_DESCRIPTION,
        SemanticCategory.FIGURE_LEGEND,
    }
)


def category_layer(category: SemanticCategory) -> Layer:
    return Layer.TOP if category in TOP_LAYER_CATEGORIES else Layer.BOTTOM


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


@dataclass(frozen=True)
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

    def is_valid(self) -> bool:
        coords = (self.x0, self.y0, self.x1, self.y1)
        if not all(math.isfinite(v) for v in coords):
            return False
        if not all(0.0 <= v <= 1.0 for v in coords):
            return False
        return self.x0 < self.x1 and self.y0 < self.y1

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


@dataclass(frozen=True)
class Detection:
    id: str
    page_index: int
    box: BoundingBox
    category: SemanticCategory
    confidence: float
    group_hint: str | None = None
    truth_text: str | None = None
    truth_payload: ContentPayload | None = None

    @property
    def layer(self) -> Layer:
        return category_layer(self.category)


@dataclass(frozen=True)
class OutlineEntry:
    level: int
    title: str
    page_index: int


@dataclass(frozen=True)
class PageIR:
    page_index: int
    width_pt: float
    height_pt: float
    detections: tuple[Detection, ...] = ()


@dataclass(frozen=True)
class DocumentIR:
    doc_id: str
    pages: tuple[PageIR, ...] = ()
    outline: tuple[OutlineEntry, ...] = ()
    language_tag: str = "en"

    def iter_detections(self):
        for page in self.pages:
            yield from page.detections

    def detection_index(self) -> dict[str, Detection]:
        return {d.id: d for d in self.iter_detections()}

    @property
    def page_count(self) -> int:
        return len(self.pages)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    code: str
    message: str
    detection_id: str | None = None


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_document(doc: DocumentIR) -> ValidationReport:
    """Check every IR invariant. Errors are violations; warnings are smells."""
    report = ValidationReport()
    err = lambda code, msg, det=None: report.findings.append(
        Finding(Severity.ERROR, code, msg, det)
    )
    warn = lambda code, msg, det=None: report.findings.append(
        Finding(Severity.WARNING, code, msg, det)
    )

    for i, page in enumerate(doc.pages):
        if page.page_index != i:
            err("page_index", f"page {i} carries index {page.page_index}")
        if page.width_pt <= 0 or page.height_pt <= 0:
            err("page_size", f"page {page.page_index} has non-positive dimensions")

    seen_ids: set[str] = set()
    hint_members: dict[str, list[Detection]] = {}
    for page in doc.pages:
        for det in page.detections:
            if det.id in seen_ids:
                err("duplicate_id", f"duplicate detection id {det.id!r}", det.id)
            seen_ids.add(det.id)
            if det.page_index != page.page_index:
                err(
                    "page_index",
                    f"detection {det.id} claims page {det.page_index}, found on {page.page_index}",
                    det.id,
                )
            if not det.box.is_valid():
                if det.box.x0 >= det.box.x1 or det.box.y0 >= det.box.y1:
                    err("degenerate_box", f"detection {det.id} has a degenerate box", det.id)
                else:
                    err("box_bounds", f"detection {det.id} box outside [0,1]", det.id)
            if not (0.0 <= det.confidence <= 1.0):
                err("confidence", f"detection {det.id} confidence {det.confidence}", det.id)
            if det.group_hint is not None:
                hint_members.setdefault(det.group_hint, []).append(det)
            if det.truth_payload is not None:
                _validate_payload(det, report)

    for hint, members in sorted(hint_members.items()):
        if len(members) < 2:
            warn("orphan_group_hint", f"group hint {hint!r} has a single member", members[0].id)
            continue
        pages = sorted(m.page_index for m in members)
        if pages[-1] - pages[0] > 1:
            warn("scattered_group_hint", f"group hint {hint!r} spans non-adjacent pages")

    prev_level = None
    for entry in doc.outline:
        if entry.level < 1:
            err("outline_level", f"outline level {entry.level} < 1 ({entry.title!r})")
        elif prev_level is not None and entry.level > prev_level + 1:
            err(
                "outline_level",
                f"outline level jumps from {prev_level} to {entry.level} ({entry.title!r})",
            )
        if not (0 <= entry.page_index < len(doc.pages)):
            err("outline_page", f"outline entry {entry.title!r} points at missing page")
        prev_level = entry.level

    return report


def _validate_payload(det: Detection, report: ValidationReport) -> None:
    p = det.truth_payload
    if isinstance(p, TableGrid) and not p.spans_tile():
        report.findings.append(
            Finding(Severity.ERROR, "grid_spans", f"table {det.id} spans overlap or overflow", det.id)
        )
    if isinstance(p, Reaction) and (not p.reactants or not p.products):
        report.findings.append(
            Finding(
                Severity.ERROR, "reaction_arity", f"reaction {det.id} needs reactants and products", det.id
            )
        )


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """The one serialization used everywhere byte-stability matters.

    ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``
    is both the specification and the fallback. With an indent the standard
    library encodes in pure Python through a stack of generators, so a dict
    or list made only of exact ``dict``/``list``/``tuple``/``str``/``int``/
    ``float``/``bool``/``None`` values with ``str`` keys is written here
    instead, to the same bytes. Any other value (subclasses such as
    str-Enums, non-``str`` keys, a top-level scalar), a cycle, or nesting
    deeper than the recursion limit goes to the standard library call, so
    the output, or the exception raised, is always the standard library's.
    """
    out: list[str] = []
    try:
        if type(obj) not in (dict, list, tuple):
            raise _NotCanonical
        _encode(obj, out, "\n")
    except (_NotCanonical, RecursionError):
        # A cycle recurses until RecursionError; the standard library then
        # reports it as ValueError. Keys that do not sort (say 1 and "a")
        # raise here the TypeError the standard library's own sort raises.
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    out.append("\n")
    return "".join(out)


class _NotCanonical(Exception):
    """A value the fast encoder leaves to the standard library."""


_encode_str = json.encoder.encode_basestring
_int_repr = int.__repr__
_float_repr = float.__repr__
_INFINITY = float("inf")


def _encode(value, out: list[str], nl: str) -> None:
    """Append the JSON of `value` to `out`. `nl` is the newline and indent of
    the line the value is on; container members go one indent (2 spaces)
    deeper."""
    t = type(value)
    if t is str:
        out.append(_encode_str(value))
    elif t is int:
        out.append(_int_repr(value))
    elif t is float:
        # The standard library's floatstr with allow_nan=True.
        if value != value:
            out.append("NaN")
        elif value == _INFINITY:
            out.append("Infinity")
        elif value == -_INFINITY:
            out.append("-Infinity")
        else:
            out.append(_float_repr(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif t is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise _NotCanonical
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            sep = "," + inner
            _encode(value[key], out, inner)
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _encode(item, out, inner)
        out.append(nl + "]")
    else:
        raise _NotCanonical


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
    seen: set[str] = set()
    for i, page in enumerate(_list_field(data, "pages", "pages")):
        try:
            page_index = int(page["page_index"])
            width_pt = float(page["width_pt"])
            height_pt = float(page["height_pt"])
        except DECODE_ERRORS as exc:
            raise SchemaViolation(f"pages[{i}]", f"malformed page: {exc}") from exc
        detections = []
        for j, det in enumerate(_list_field(page, "detections", f"pages[{i}].detections")):
            parsed = _detection_from_dict(det, page_index, f"pages[{i}].detections[{j}]")
            if parsed.id in seen:
                raise DuplicateId(parsed.id)
            seen.add(parsed.id)
            detections.append(parsed)
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
    """Parse and fully validate an IR file. Raises instead of repairing."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation("document", f"not valid JSON: {exc}") from exc
    doc = document_from_dict(data)
    report = validate_document(doc)
    if report.errors:
        first = report.errors[0]
        raise SchemaViolation(first.code, first.message)
    return doc


def save_document(doc: DocumentIR, path: str | Path) -> None:
    Path(path).write_text(canonical_json(document_to_dict(doc)), encoding="utf-8")


def document_bytes(doc: DocumentIR) -> bytes:
    return canonical_json(document_to_dict(doc)).encode("utf-8")
