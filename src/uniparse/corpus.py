"""Synthetic corpus generator and evaluation metrics.

Pages are laid out from a column-grid template family (full-width bands plus
1-3 column flows) with seeded randomness, then perturbed: adjacent-element
merging, Gaussian box jitter, and content substitution. Ground truth (reading
order, group pairs, cross-page merges, inline positions) is recorded before
perturbation; jitter never changes the intended order.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import asdict, dataclass, field, replace

from .config import check_fields
from .docmodel import (
    BoundingBox,
    Detection,
    DocumentIR,
    OutlineEntry,
    PageIR,
    SemanticCategory,
)
from .payloads import (
    INLINE_MARKER,
    Cell,
    ChartTable,
    ESmiles,
    Latex,
    Reaction,
    TableGrid,
)


class InvalidSpec(ValueError):
    pass


@dataclass
class CorpusSpec:
    seed: int = 0
    n_docs: int = 10
    pages_min: int = 1
    pages_max: int = 3
    columns: int = 2
    modality_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    merge_prob: float = 0.0
    jitter_sigma: float = 0.0
    substitution_prob: float = 0.0
    cross_page_split_prob: float = 0.0
    with_hints: bool = True

    def __post_init__(self) -> None:
        """The field rule of config.check_fields, then the cross-field rules;
        a bad value raises InvalidSpec naming it."""
        check_fields(self, InvalidSpec, counts=("n_docs", "pages_min", "pages_max"),
                     not_negative=("jitter_sigma",),
                     fractions=("merge_prob", "substitution_prob", "cross_page_split_prob"))
        if self.pages_max < self.pages_min:
            raise InvalidSpec(f"pages_max must be at least pages_min ({self.pages_min}), "
                              f"got {self.pages_max}")
        if self.columns not in (1, 2, 3):
            raise InvalidSpec("columns must be 1, 2 or 3")
        unknown = [kind for kind in self.modality_mix if kind not in DEFAULT_MIX]
        if unknown:
            raise InvalidSpec(f"modality_mix names unknown block kinds: {unknown}")
        weights = list(self.modality_mix.values())
        if not all(type(w) in (int, float) and 0 <= w <= sys.float_info.max for w in weights):
            raise InvalidSpec("modality_mix weights must be finite numbers >= 0")
        if not 0 < sum(map(float, weights)) < math.inf:
            raise InvalidSpec("modality_mix weights must have a finite, positive sum")


DEFAULT_MIX: dict[str, float] = {
    "paragraph": 0.46,
    "section_title": 0.08,
    "formula": 0.09,
    "image": 0.09,
    "table": 0.09,
    "molecule": 0.08,
    "reaction": 0.04,
    "chart": 0.04,
    "code": 0.02,
    "key_value": 0.01,
}


# Page geometry (normalized). Band gaps exceed gutters exceed the ordering
# min_gap, so whitespace cuts recover the intended band/column structure.
_LEFT, _RIGHT = 0.07, 0.93
_TOP, _BOTTOM = 0.07, 0.93
_BAND_GAP = 0.06
_GUTTER = 0.05
_BLOCK_GAP = (0.013, 0.018)
_LINE_H = 0.016

_WORDS = (
    "the reaction mixture was stirred under nitrogen for several hours and then "
    "concentrated to afford a residue that was purified by column chromatography "
    "yielding product as white solid analysis confirmed structure with spectra "
    "measured values agreement sample prepared according general procedure using "
    "catalyst solvent temperature pressure observed result data method described"
).split()

_SMILES = (
    "C1=CC=CC=C1",
    "CCO",
    "CC(=O)O",
    "C1CCCCC1",
    "CCN(CC)CC",
    "O=C=O",
    "C1=CC=C(C=C1)O",
    "CC(C)CC1=CC=C(C=C1)C(C)C(=O)O",
    "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
)

_LATEX = (
    "E = mc^2",
    "x_{i}^{2} + y_{i}^{2}",
    "\\frac{\\partial u}{\\partial t} = \\alpha \\nabla^2 u",
    "\\sum_{i=1}^{n} w_i x_i",
    "k = A e^{-E_a / RT}",
    "\\int_0^1 f(x)\\,dx",
)

_CONDITIONS = ("Pd/C", "H2, 50 bar", "reflux, 12 h", "NaOH, rt", "DMF, 80 C")


@dataclass
class PageTruth:
    page_index: int
    order: list[str] = field(default_factory=list)
    groups: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class MergeRecord:
    kind: str  # table | paragraph | reaction
    first_id: str
    second_id: str


@dataclass
class InlineRecord:
    parent_id: str
    child_ids: list[str]


@dataclass
class DocTruth:
    doc_id: str
    pages: list[PageTruth] = field(default_factory=list)
    merges: list[MergeRecord] = field(default_factory=list)
    inline: list[InlineRecord] = field(default_factory=list)


@dataclass
class GroundTruth:
    docs: dict[str, DocTruth] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {doc_id: asdict(truth) for doc_id, truth in sorted(self.docs.items())}


class _DocBuilder:
    def __init__(self, doc_id: str, spec: CorpusSpec, rng: random.Random):
        self.doc_id = doc_id
        self.spec = spec
        self.rng = rng
        self.truth = DocTruth(doc_id=doc_id)
        self.pages: list[list[Detection]] = []
        self.outline: list[OutlineEntry] = []
        self._counter = 0
        self._hint_counter = 0
        self._section_counter = 0

    def new_id(self, page: int) -> str:
        self._counter += 1
        return f"{self.doc_id}p{page}b{self._counter:03d}"

    def new_hint(self) -> str:
        self._hint_counter += 1
        return f"{self.doc_id}g{self._hint_counter}"

    def det(self, page: int, box: BoundingBox, category: SemanticCategory, *,
            hint: str | None = None, text: str | None = None, payload=None) -> Detection:
        d = Detection(
            id=self.new_id(page),
            page_index=page,
            box=box,
            category=category,
            confidence=round(self.rng.uniform(0.82, 0.99), 4),
            group_hint=hint if self.spec.with_hints else None,
            truth_text=text,
            truth_payload=payload,
        )
        self.pages[page].append(d)
        return d

    # -- content helpers ----------------------------------------------------

    def sentence(self, lo: int = 5, hi: int = 11) -> str:
        n = self.rng.randint(lo, hi)
        words = [self.rng.choice(_WORDS) for _ in range(n)]
        return " ".join(words).capitalize() + "."

    def paragraph_text(self, sentences: int) -> str:
        return " ".join(self.sentence() for _ in range(sentences))

    def grid(self, rows: int, cols: int, marker_cell: tuple[int, int] | None = None) -> TableGrid:
        cells = []
        for r in range(rows):
            for c in range(cols):
                word = self.rng.choice(_WORDS)
                content: tuple[str, ...]
                if marker_cell == (r, c):
                    content = (f"{word} {INLINE_MARKER}",)
                elif r == 0:
                    content = (word.capitalize(),)
                else:
                    content = (f"{word} {self.rng.randint(0, 99)}",)
                cells.append(Cell(r, c, content=content))
        return TableGrid(rows=rows, cols=cols, cells=tuple(cells))


def gen_corpus(spec: CorpusSpec) -> tuple[list[DocumentIR], GroundTruth]:
    """Generate a seeded synthetic corpus with its ground truth."""
    docs = []
    truth = GroundTruth()
    for i in range(spec.n_docs):
        rng = random.Random(f"{spec.seed}:{i}")
        builder = _DocBuilder(f"d{i:03d}", spec, rng)
        doc = _gen_document(builder)
        docs.append(doc)
        truth.docs[doc.doc_id] = builder.truth
    return docs, truth


def _gen_document(b: _DocBuilder) -> DocumentIR:
    rng, spec = b.rng, b.spec
    n_pages = rng.randint(spec.pages_min, spec.pages_max)
    splits: dict[int, str] = {}
    split_kinds = ("table", "paragraph", "reaction")
    k = 0
    for boundary in range(n_pages - 1):
        if rng.random() < spec.cross_page_split_prob:
            splits[boundary] = split_kinds[k % len(split_kinds)]
            k += 1

    pending: dict | None = None
    for page in range(n_pages):
        b.pages.append([])
        b.truth.pages.append(PageTruth(page_index=page))
        pending = _gen_page(b, page, splits.get(page), pending)

    pages = [
        PageIR(page_index=i, width_pt=612.0, height_pt=792.0, detections=tuple(dets))
        for i, dets in enumerate(b.pages)
    ]
    doc = DocumentIR(
        doc_id=b.doc_id, pages=tuple(pages), outline=tuple(b.outline), language_tag="en"
    )
    return _perturb(b, doc)


def _gen_page(
    b: _DocBuilder, page: int, split_kind: str | None, pending: dict | None
) -> dict | None:
    rng = b.rng
    truth = b.truth.pages[page]

    # Functional furniture (filtered out downstream, never in truth order).
    if rng.random() < 0.6:
        b.det(page, BoundingBox(_LEFT, 0.02, _RIGHT, 0.042), SemanticCategory.HEADER,
              text="Journal of Synthetic Documents")
    if rng.random() < 0.7:
        b.det(page, BoundingBox(0.47, 0.955, 0.53, 0.975), SemanticCategory.PAGE_NUMBER,
              text=str(page + 1))

    y = _TOP

    # Continuation fragment from the previous page comes first.
    if pending is not None:
        y = _place_continuation(b, page, y, pending)

    if page == 0:
        box = BoundingBox(_LEFT, y, _RIGHT, y + 0.05)
        det = b.det(page, box, SemanticCategory.DOCUMENT_TITLE,
                    text=b.sentence(4, 7).rstrip("."))
        truth.order.append(det.id)
        y = box.y1 + _BAND_GAP

    # Reserve a full-width bottom band when this page starts a split.
    bottom_limit = _BOTTOM
    split_plan: dict | None = None
    if split_kind is not None:
        heights = {"table": 0.12, "paragraph": 0.07, "reaction": 0.08}
        band_h = heights[split_kind]
        bottom_limit = _BOTTOM - band_h - _BAND_GAP
        split_plan = {"kind": split_kind, "y": bottom_limit + _BAND_GAP, "h": band_h}

    _fill_columns(b, page, y, bottom_limit)

    if split_plan is not None:
        return _place_split_first(b, page, split_plan)
    return None


def _fill_columns(b: _DocBuilder, page: int, y_top: float, y_bottom: float) -> None:
    spec, rng = b.spec, b.rng
    n_cols = spec.columns
    width = _RIGHT - _LEFT
    col_w = (width - (n_cols - 1) * _GUTTER) / n_cols
    kinds, weights = zip(*sorted(spec.modality_mix.items()))
    for col in range(n_cols):
        x0 = _LEFT + col * (col_w + _GUTTER)
        x1 = x0 + col_w
        y = y_top
        guard = 0
        while guard < 60:
            guard += 1
            kind = rng.choices(kinds, weights)[0]
            y_next = _place_block(b, page, kind, x0, x1, y, y_bottom)
            if y_next is None:
                break
            y = y_next + rng.uniform(*_BLOCK_GAP)


def _place_block(
    b: _DocBuilder, page: int, kind: str, x0: float, x1: float, y: float, y_bottom: float
) -> float | None:
    """Place one block (or group) at y; returns its bottom or None if no room."""
    rng = b.rng
    truth = b.truth.pages[page]

    if kind == "paragraph":
        lines = rng.randint(3, 7)
        h = lines * _LINE_H
        if y + h > y_bottom:
            return None
        box = BoundingBox(x0, y, x1, y + h)
        text = b.paragraph_text(rng.randint(2, 4))
        det_id = b.new_id(page)
        children: list[Detection] = []
        if rng.random() < 0.4:
            text, children = _inline_children(b, page, box, text, lines)
        d = Detection(
            id=det_id, page_index=page, box=box, category=SemanticCategory.PARAGRAPH,
            confidence=round(rng.uniform(0.82, 0.99), 4), truth_text=text,
        )
        b.pages[page].append(d)
        truth.order.append(d.id)
        if children:
            b.truth.inline.append(InlineRecord(parent_id=d.id, child_ids=[c.id for c in children]))
        return box.y1

    if kind == "section_title":
        h = 0.024
        if y + h > y_bottom:
            return None
        b._section_counter += 1
        level = 1 if b._section_counter == 1 else rng.choice((1, 2))
        title = f"{b._section_counter} {b.sentence(2, 4).rstrip('.')}"
        box = BoundingBox(x0, y, x1, y + h)
        d = b.det(page, box, SemanticCategory.SECTION_TITLE, text=title)
        truth.order.append(d.id)
        b.outline.append(OutlineEntry(level=level, title=title, page_index=page))
        return box.y1

    if kind == "formula":
        h = 0.035
        if y + h > y_bottom:
            return None
        box = BoundingBox(x0, y, x1 - 0.06, y + h)
        hint = b.new_hint()
        anchor = b.det(page, box, SemanticCategory.FORMULA, hint=hint,
                       payload=Latex(rng.choice(_LATEX)))
        id_box = BoundingBox(x1 - 0.05, y + 0.008, x1, y + 0.026)
        partner = b.det(page, id_box, SemanticCategory.FORMULA_ID, hint=hint,
                        text=f"({rng.randint(1, 40)})")
        truth.order.append(anchor.id)
        truth.groups.append((anchor.id, partner.id))
        return box.y1

    if kind == "image":
        h = rng.uniform(0.09, 0.15)
        cap_h = 0.03
        if y + h + 0.007 + cap_h > y_bottom:
            return None
        box = BoundingBox(x0, y, x1, y + h)
        hint = b.new_hint()
        anchor = b.det(page, box, SemanticCategory.IMAGE, hint=hint,
                       text="Micrograph of the prepared sample")
        cap_box = BoundingBox(x0, box.y1 + 0.005, x1, box.y1 + 0.005 + cap_h)
        partner = b.det(page, cap_box, SemanticCategory.CAPTION, hint=hint,
                        text=f"Figure {rng.randint(1, 9)}. {b.sentence(4, 8)}")
        truth.order.append(anchor.id)
        truth.groups.append((anchor.id, partner.id))
        return cap_box.y1

    if kind == "table":
        rows = rng.randint(3, 6)
        cols = rng.randint(2, 4)
        cap_h = 0.022
        h = rows * 0.014
        if y + cap_h + 0.007 + h > y_bottom:
            return None
        hint = b.new_hint()
        cap_box = BoundingBox(x0, y, x1, y + cap_h)
        partner = b.det(page, cap_box, SemanticCategory.CAPTION, hint=hint,
                        text=f"Table {rng.randint(1, 9)}. {b.sentence(3, 6)}")
        box = BoundingBox(x0, cap_box.y1 + 0.005, x1, cap_box.y1 + 0.005 + h)
        marker_cell = None
        child: Detection | None = None
        if rng.random() < 0.25:
            marker_cell = (rng.randint(1, rows - 1), rng.randint(0, cols - 1))
        anchor_id = b.new_id(page)
        if marker_cell is not None:
            cx = box.x0 + 0.02
            cy = box.y0 + (marker_cell[0] + 0.2) * (box.height / rows)
            child_box = BoundingBox(cx, cy, min(cx + 0.03, box.x1),
                                    min(cy + 0.01, box.y1))
            child = Detection(
                id=b.new_id(page), page_index=page, box=child_box,
                category=SemanticCategory.MOLECULE,
                confidence=round(rng.uniform(0.82, 0.99), 4),
                truth_payload=ESmiles(rng.choice(_SMILES)),
            )
        anchor = Detection(
            id=anchor_id, page_index=page, box=box, category=SemanticCategory.TABLE,
            confidence=round(rng.uniform(0.82, 0.99), 4),
            group_hint=hint if b.spec.with_hints else None,
            truth_payload=b.grid(rows, cols, marker_cell),
        )
        b.pages[page].append(anchor)
        if child is not None:
            b.pages[page].append(child)
            b.truth.inline.append(InlineRecord(parent_id=anchor.id, child_ids=[child.id]))
        truth.order.append(anchor.id)
        truth.groups.append((anchor.id, partner.id))
        return box.y1

    if kind == "molecule":
        h = rng.uniform(0.06, 0.1)
        id_h = 0.018
        if y + h + 0.007 + id_h > y_bottom:
            return None
        box = BoundingBox(x0 + 0.05, y, x1 - 0.05, y + h)
        hint = b.new_hint()
        anchor = b.det(page, box, SemanticCategory.MOLECULE, hint=hint,
                       payload=ESmiles(rng.choice(_SMILES)))
        id_box = BoundingBox(x0 + 0.12, box.y1 + 0.005, x1 - 0.12, box.y1 + 0.005 + id_h)
        partner = b.det(page, id_box, SemanticCategory.MOLECULE_IDENTIFIER, hint=hint,
                        text=f"Compound {rng.randint(1, 99)}")
        truth.order.append(anchor.id)
        truth.groups.append((anchor.id, partner.id))
        bottom = id_box.y1
        if rng.random() < 0.3:
            mk_box = BoundingBox(x0 + 0.02, bottom + 0.005, x1 - 0.02, bottom + 0.027)
            if mk_box.y1 <= y_bottom:
                markush = b.det(page, mk_box, SemanticCategory.MARKUSH_DESCRIPTION, hint=hint,
                                text="R1 = alkyl or aryl; R2 = H or halogen")
                truth.groups.append((anchor.id, markush.id))
                bottom = mk_box.y1
        return bottom

    if kind == "reaction":
        h = rng.uniform(0.06, 0.09)
        if y + h > y_bottom:
            return None
        box = BoundingBox(x0, y, x1, y + h)
        d = b.det(page, box, SemanticCategory.CHEMICAL_REACTION,
                  payload=_random_reaction(rng))
        truth.order.append(d.id)
        return box.y1

    if kind == "chart":
        h = rng.uniform(0.08, 0.12)
        cap_h = 0.026
        if y + h + 0.007 + cap_h > y_bottom:
            return None
        box = BoundingBox(x0, y, x1, y + h)
        hint = b.new_hint()
        grid = b.grid(rng.randint(2, 4), rng.randint(2, 3))
        anchor = b.det(page, box, SemanticCategory.CHART, hint=hint,
                       payload=ChartTable(grid=grid))
        cap_box = BoundingBox(x0, box.y1 + 0.005, x1, box.y1 + 0.005 + cap_h)
        partner = b.det(page, cap_box, SemanticCategory.CAPTION, hint=hint,
                        text=f"Figure {rng.randint(1, 9)}. {b.sentence(3, 6)}")
        truth.order.append(anchor.id)
        truth.groups.append((anchor.id, partner.id))
        return cap_box.y1

    if kind == "code":
        lines = rng.randint(3, 6)
        h = lines * _LINE_H
        if y + h > y_bottom:
            return None
        box = BoundingBox(x0, y, x1, y + h)
        code = "\n".join(f"value_{i} = compute({i})" for i in range(lines))
        d = b.det(page, box, SemanticCategory.CODE_BLOCK, text=code)
        truth.order.append(d.id)
        return box.y1

    if kind == "key_value":
        h = 0.022
        if y + h > y_bottom:
            return None
        box = BoundingBox(x0, y, x1, y + h)
        d = b.det(page, box, SemanticCategory.KEY_VALUE_ITEM,
                  text=f"Yield: {b.rng.randint(10, 99)}%")
        truth.order.append(d.id)
        return box.y1

    return None


def _random_reaction(rng: random.Random) -> Reaction:
    return Reaction(
        reactants=tuple(rng.sample(_SMILES, 2)),
        conditions=(rng.choice(_CONDITIONS),),
        products=(rng.choice(_SMILES),),
    )


def _inline_children(
    b: _DocBuilder, page: int, box: BoundingBox, text: str, lines: int
) -> tuple[str, list[Detection]]:
    """Insert 1-2 inline markers into the text and emit matching children.

    Children sit on distinct text lines, top to bottom, so their geometric
    reading order always equals the marker order in the text stream.
    """
    rng = b.rng
    words = text.split()
    n_children = 1 if lines < 4 or len(words) < 24 or rng.random() < 0.6 else 2
    child_lines = sorted(rng.sample(range(lines), n_children))
    # Word positions track the chosen lines so text flow and geometry agree.
    positions = []
    for li in child_lines:
        pos = max(1, min(len(words) - 1, round((li + 0.5) / lines * len(words))))
        if positions and pos <= positions[-1]:
            pos = min(len(words) - 1, positions[-1] + 1)
        positions.append(pos)
    children: list[Detection] = []
    line_h = box.height / lines
    for idx, (li, pos) in enumerate(zip(child_lines, positions)):
        cx = box.x0 + 0.01 + rng.uniform(0.0, max(box.width - 0.06, 0.01))
        cy = box.y0 + li * line_h + 0.002
        child_box = BoundingBox(cx, cy, min(cx + 0.028, box.x1), min(cy + line_h - 0.004, box.y1))
        if rng.random() < 0.7:
            category = SemanticCategory.FORMULA_INLINE
            payload = Latex(rng.choice(_LATEX))
        else:
            category = SemanticCategory.MOLECULE
            payload = ESmiles(rng.choice(_SMILES))
        child = Detection(
            id=b.new_id(page), page_index=page, box=child_box, category=category,
            confidence=round(rng.uniform(0.82, 0.99), 4), truth_payload=payload,
        )
        b.pages[page].append(child)
        children.append(child)
        words.insert(pos + idx, INLINE_MARKER)
    return " ".join(words), children


def _place_continuation(b: _DocBuilder, page: int, y: float, pending: dict) -> float:
    """Second fragment of a split entity, first unit of this page."""
    rng = b.rng
    truth = b.truth.pages[page]
    kind = pending["kind"]
    if kind == "table":
        rows = rng.randint(3, 7)
        cols = pending["cols"]
        h = rows * 0.014
        y0 = y
        partner = None
        if rng.random() < 0.5:
            cap_box = BoundingBox(_LEFT, y0, _RIGHT, y0 + 0.022)
            partner = b.det(page, cap_box, SemanticCategory.CAPTION,
                            text=f"Table {pending['number']} (continued)")
            y0 = cap_box.y1 + 0.005
        box = BoundingBox(_LEFT, y0, _RIGHT, y0 + h)
        d = b.det(page, box, SemanticCategory.TABLE, payload=b.grid(rows, cols))
        if partner is not None:
            truth.groups.append((d.id, partner.id))
        truth.order.append(d.id)
        b.truth.merges.append(MergeRecord("table", pending["first_id"], d.id))
        return box.y1 + _BAND_GAP
    if kind == "paragraph":
        lines = rng.randint(2, 4)
        box = BoundingBox(_LEFT, y, _RIGHT, y + lines * _LINE_H)
        tail = b.paragraph_text(rng.randint(1, 2))
        text = tail[0].lower() + tail[1:]
        d = b.det(page, box, SemanticCategory.PARAGRAPH, text=text)
        truth.order.append(d.id)
        b.truth.merges.append(MergeRecord("paragraph", pending["first_id"], d.id))
        return box.y1 + _BAND_GAP
    # reaction
    box = BoundingBox(_LEFT, y, _RIGHT, y + 0.07)
    d = b.det(page, box, SemanticCategory.CHEMICAL_REACTION, hint=pending["hint"],
              payload=Reaction(reactants=(rng.choice(_SMILES),),
                               conditions=(rng.choice(_CONDITIONS),),
                               products=(rng.choice(_SMILES),)))
    truth.order.append(d.id)
    b.truth.merges.append(MergeRecord("reaction", pending["first_id"], d.id))
    return box.y1 + _BAND_GAP


def _place_split_first(b: _DocBuilder, page: int, plan: dict) -> dict:
    """First fragment of a split entity, last unit of this page."""
    rng = b.rng
    truth = b.truth.pages[page]
    kind, y, h = plan["kind"], plan["y"], plan["h"]
    if kind == "table":
        cols = rng.randint(3, 5)
        number = rng.randint(1, 9)
        cap_box = BoundingBox(_LEFT, y, _RIGHT, y + 0.022)
        hint = b.new_hint()
        partner = b.det(page, cap_box, SemanticCategory.CAPTION, hint=hint,
                        text=f"Table {number}. {b.sentence(3, 6)}")
        rows = max(3, int((h - 0.032) / 0.014))
        box = BoundingBox(_LEFT, cap_box.y1 + 0.005, _RIGHT, cap_box.y1 + 0.005 + rows * 0.014)
        d = b.det(page, box, SemanticCategory.TABLE, hint=hint, payload=b.grid(rows, cols))
        truth.order.append(d.id)
        truth.groups.append((d.id, partner.id))
        return {"kind": "table", "first_id": d.id, "cols": cols, "number": number}
    if kind == "paragraph":
        lines = max(2, int(h / _LINE_H))
        box = BoundingBox(_LEFT, y, _RIGHT, y + lines * _LINE_H)
        lead = b.paragraph_text(1)
        # Cut mid-sentence: drop the final period and a couple of words.
        open_text = lead.rstrip(".")
        words = open_text.split()
        open_text = " ".join(words[: max(3, len(words) - 2)])
        d = b.det(page, box, SemanticCategory.PARAGRAPH, text=open_text)
        truth.order.append(d.id)
        return {"kind": "paragraph", "first_id": d.id}
    hint = b.new_hint()
    box = BoundingBox(_LEFT, y, _RIGHT, y + h)
    d = b.det(page, box, SemanticCategory.CHEMICAL_REACTION, hint=hint,
              payload=_random_reaction(rng))
    truth.order.append(d.id)
    return {"kind": "reaction", "first_id": d.id, "hint": hint}


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


def _perturb(b: _DocBuilder, doc: DocumentIR) -> DocumentIR:
    spec = b.spec
    if spec.merge_prob <= 0 and spec.jitter_sigma <= 0 and spec.substitution_prob <= 0:
        return doc
    rng = random.Random(f"{spec.seed}:perturb:{doc.doc_id}")
    pages = []
    for page in doc.pages:
        detections = list(page.detections)
        if spec.merge_prob > 0:
            detections = _merge_elements(b, page.page_index, detections, rng)
        out = []
        for det in detections:
            new_det = det
            if spec.substitution_prob > 0 and rng.random() < spec.substitution_prob:
                new_det = _substitute_content(new_det, rng)
            if spec.jitter_sigma > 0:
                new_det = replace(new_det, box=_jitter_box(new_det.box, spec.jitter_sigma, rng))
            out.append(new_det)
        pages.append(replace(page, detections=tuple(out)))
    return replace(doc, pages=tuple(pages))


def _merge_elements(
    b: _DocBuilder, page_index: int, detections: list[Detection], rng: random.Random
) -> list[Detection]:
    """Element-merging perturbation: fuse stacked child-free paragraph pairs
    that are adjacent in the intended order and share a column.

    The merged detection keeps the first id; the second id leaves the truth
    order so prediction and truth stay over one id universe.
    """
    by_id = {d.id: d for d in detections}
    inline_parents = {r.parent_id for r in b.truth.inline}
    order = b.truth.pages[page_index].order
    i = 0
    while i < len(order) - 1:
        first = by_id.get(order[i])
        second = by_id.get(order[i + 1])
        fusable = (
            first is not None
            and second is not None
            and first.category is SemanticCategory.PARAGRAPH
            and second.category is SemanticCategory.PARAGRAPH
            and first.id not in inline_parents
            and second.id not in inline_parents
            and abs(first.box.x0 - second.box.x0) < 1e-9
            and second.box.y0 >= first.box.y1
        )
        if fusable and rng.random() < b.spec.merge_prob:
            by_id[first.id] = replace(
                first,
                box=first.box.union(second.box),
                truth_text=f"{first.truth_text} {second.truth_text}",
            )
            del by_id[second.id]
            order.pop(i + 1)  # the fused block may chain with the next one
        else:
            i += 1
    return [by_id[d.id] for d in detections if d.id in by_id]


def _substitute_content(det: Detection, rng: random.Random) -> Detection:
    p = det.truth_payload
    if isinstance(p, Latex):
        return replace(det, truth_payload=Latex(rng.choice(_LATEX)))
    if isinstance(p, ESmiles):
        return replace(det, truth_payload=ESmiles(rng.choice(_SMILES)))
    if det.truth_text and INLINE_MARKER not in det.truth_text:
        words = det.truth_text.split()
        rng.shuffle(words)
        return replace(det, truth_text=" ".join(words))
    return det


def _jitter_box(box: BoundingBox, sigma: float, rng: random.Random) -> BoundingBox:
    dx = rng.gauss(0.0, sigma)
    dy = rng.gauss(0.0, sigma)
    dx = max(-box.x0, min(dx, 1.0 - box.x1))
    dy = max(-box.y0, min(dy, 1.0 - box.y1))
    return box.translate(dx, dy)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def order_edit_distance(pred: list[str], truth: list[str]) -> float:
    """Levenshtein distance over id sequences, normalized by the longer one."""
    if not pred and not truth:
        return 0.0
    n, m = len(pred), len(truth)
    prev = list(range(m + 1))
    cur = [0] * (m + 1)
    for i in range(1, n + 1):
        cur[0] = i
        for j in range(1, m + 1):
            cost = 0 if pred[i - 1] == truth[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev, cur = cur, prev
    return prev[m] / max(n, m)


def grouping_f1(pred_pairs, truth_pairs) -> tuple[float, float, float]:
    """Set precision/recall/F1 over unordered id 2-sets. Empty pred -> 0."""
    pred = {frozenset(p) for p in pred_pairs}
    truth = {frozenset(p) for p in truth_pairs}
    if not pred and not truth:
        return (1.0, 1.0, 1.0)
    hit = len(pred & truth)
    precision = hit / len(pred) if pred else 0.0
    recall = hit / len(truth) if truth else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return (precision, recall, f1)
