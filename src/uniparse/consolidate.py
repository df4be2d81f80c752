"""Document-level assembly: one walk over the flow that merges fragments
split by a column or a page break, multimodal linkage across page
boundaries, and section-hierarchy integration.

All continuity rules are lexical and geometric; there is no language model in
the loop. The punctuation set and CJK join behavior come from EngineConfig.

`frozen` marks objects shared beyond the parse that built them, such as the
IR and the payloads, and those are slotted too; Partner and FlowItem are not
shared, so they are slotted and mutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .config import EngineConfig
from .docmodel import BoundingBox, OutlineEntry, SemanticCategory
from .layout import COMPATIBLE_PARTNERS, RELATION_FOR, RelationKind
from .payloads import Cell, ContentPayload, Reaction, TableGrid, Text, payload_text


@dataclass(slots=True)
class Partner:
    relation: RelationKind
    category: SemanticCategory
    detection_id: str
    payload: ContentPayload | None


@dataclass(slots=True)
class FlowItem:
    """One reading-order unit with its resolved content."""

    item_id: str
    page_index: int
    category: SemanticCategory
    box: BoundingBox
    payload: ContentPayload | None
    partners: tuple[Partner, ...] = ()
    merged_ids: tuple[str, ...] = ()
    source_pages: tuple[int, ...] = ()
    group_hint: str | None = None

    @property
    def text(self) -> str:
        return payload_text(self.payload)

    @property
    def pages(self) -> tuple[int, ...]:
        return self.source_pages or (self.page_index,)

    def partner_of(self, relation: RelationKind) -> Partner | None:
        for partner in self.partners:
            if partner.relation is relation:
                return partner
        return None

    def caption_text(self) -> str | None:
        for relation in _CAPTION_RELATIONS:
            partner = self.partner_of(relation)
            if partner is not None and partner.payload is not None:
                return payload_text(partner.payload)
        return None


# The members the merge and section rules compare with, bound once: loading
# an enum member through its class costs about 150 ns on CPython 3.11.
_PARAGRAPH = SemanticCategory.PARAGRAPH
_TABLE = SemanticCategory.TABLE
_REACTION = SemanticCategory.CHEMICAL_REACTION
_SECTION_TITLE = SemanticCategory.SECTION_TITLE
_CAPTION_RELATIONS = (RelationKind.CAPTION, RelationKind.TITLE)


@dataclass
class SectionNode:
    level: int
    title: str
    children: list["SectionNode"] = field(default_factory=list)
    body: list[FlowItem] = field(default_factory=list)

    def iter_sections(self):
        yield self
        for child in self.children:
            yield from child.iter_sections()

    def iter_items(self):
        for section in self.iter_sections():
            yield from section.body


def _ends_open(text: str, terminal: str) -> tuple[bool, bool]:
    """(continues, hyphenated): whether the fragment ends mid-flow."""
    stripped = text.rstrip()
    if not stripped:
        return False, False
    if stripped.endswith("-"):
        return True, True
    return stripped[-1] not in terminal, False


def _starts_continuation(text: str, hyphenated: bool, caseless_ok: bool) -> bool:
    stripped = text.lstrip()
    if not stripped:
        return False
    if hyphenated:
        return stripped[0].isalnum()
    if caseless_ok:
        # CJK scripts carry no case; anything but an explicit capital reads on.
        return not stripped[0].isupper()
    return stripped[0].islower()


def join_fragments(first: str, second: str, no_space: bool) -> str:
    a = first.rstrip()
    b = second.lstrip()
    if a.endswith("-"):
        return a[:-1] + b  # drop the line-break hyphen, no space
    if no_space:
        return a + b
    return a + " " + b


def _can_merge_paragraphs(
    first: FlowItem, second: FlowItem, cfg: EngineConfig, caseless_ok: bool = False
) -> bool:
    if first.category is not _PARAGRAPH or second.category is not _PARAGRAPH:
        return False
    if not isinstance(first.payload, Text) or not isinstance(second.payload, Text):
        return False
    continues, hyphenated = _ends_open(first.payload.value, cfg.terminal_punctuation)
    if not continues:
        return False
    return _starts_continuation(second.payload.value, hyphenated, caseless_ok)


def _fold(first: FlowItem, second: FlowItem, payload: ContentPayload) -> FlowItem:
    """first with second folded in: the merged payload, second's ids, pages
    and partners after first's."""
    return replace(
        first,
        payload=payload,
        merged_ids=(*first.merged_ids, second.item_id, *second.merged_ids),
        source_pages=tuple(dict.fromkeys((*first.pages, *second.pages))),
        partners=(*first.partners, *second.partners),
    )


def _merge_paragraph_items(first: FlowItem, second: FlowItem, no_space: bool) -> FlowItem:
    return _fold(first, second,
                 Text(join_fragments(first.payload.value, second.payload.value, no_space)))


def _merge_tables(first: FlowItem, second: FlowItem) -> FlowItem | None:
    if first.category is not _TABLE or second.category is not _TABLE:
        return None
    if not isinstance(first.payload, TableGrid) or not isinstance(second.payload, TableGrid):
        return None
    if first.payload.cols != second.payload.cols:
        return None
    caption = second.caption_text()
    if caption is not None and "(continued)" not in caption.lower():
        return None
    offset = first.payload.rows
    moved = tuple(
        Cell(c.row + offset, c.col, c.row_span, c.col_span, c.content)
        for c in second.payload.cells
    )
    grid = TableGrid(
        rows=first.payload.rows + second.payload.rows,
        cols=first.payload.cols,
        cells=(*first.payload.cells, *moved),
    )
    return _fold(first, second, grid)


def _merge_reactions(first: FlowItem, second: FlowItem) -> FlowItem | None:
    if first.category is not _REACTION or second.category is not _REACTION:
        return None
    if first.group_hint is None or first.group_hint != second.group_hint:
        return None
    if not isinstance(first.payload, Reaction) or not isinstance(second.payload, Reaction):
        return None
    merged = Reaction(
        reactants=(*first.payload.reactants, *second.payload.reactants),
        conditions=(*first.payload.conditions, *second.payload.conditions),
        products=(*first.payload.products, *second.payload.products),
    )
    return _fold(first, second, merged)


def merge_fragments(items: list[FlowItem], cfg: EngineConfig,
                    language_tag: str = "en") -> list[FlowItem]:
    """Reconnect entities split by a column or a page break, in one walk.

    Each item meets the last item kept so far. Paragraphs on that item's last
    page or the next one merge when the first ends mid-flow (no terminal
    punctuation, or a hyphenated word) and the second reads as a
    continuation. Across a one-page step, tables with equal column counts
    whose continuation lacks a caption (or says "continued") merge too, and
    so do reaction fragments sharing a group hint. The merged item keeps the
    first item's id.
    """
    no_space = cfg.joins_without_space(language_tag)
    out: list[FlowItem] = []
    for item in items:
        merged = None
        if out:
            first = out[-1]
            # Flow order puts all of page p before page p+1, so adjacency
            # across a one-page step means last-of-p meets first-of-p+1.
            step = item.page_index - max(first.pages)
            if step in (0, 1) and _can_merge_paragraphs(first, item, cfg, caseless_ok=no_space):
                merged = _merge_paragraph_items(first, item, no_space)
            elif step == 1:
                merged = _merge_tables(first, item) or _merge_reactions(first, item)
        if merged is None:
            out.append(item)
        else:
            out[-1] = merged
    return out


# Anchors whose partner may open the next page.
_LINKABLE = {category: COMPATIBLE_PARTNERS[category]
             for category in (SemanticCategory.MOLECULE, SemanticCategory.FIGURE)}


def link_multimodal(items: list[FlowItem]) -> list[FlowItem]:
    """Associate an unpartnered anchor ending one page with a compatible
    orphan partner opening the next page (first two units only). The partner
    folds into the anchor's group; at most one link per anchor.
    """
    out = list(items)
    by_page: dict[int, list[int]] = {}
    for idx, item in enumerate(out):
        by_page.setdefault(item.page_index, []).append(idx)

    to_remove: set[int] = set()
    for page in sorted(by_page):
        next_page = by_page.get(page + 1)
        if not next_page:
            continue
        # Anchors near the end of the page (last two units).
        for anchor_idx in by_page[page][-2:]:
            if anchor_idx in to_remove:
                continue
            anchor = out[anchor_idx]
            compatible = _LINKABLE.get(anchor.category)
            if compatible is None or anchor.partners:
                continue
            for partner_idx in next_page[:2]:
                if partner_idx in to_remove:
                    continue
                candidate = out[partner_idx]
                if candidate.category not in compatible or candidate.partners:
                    continue
                if candidate.payload is None:
                    continue
                partner = Partner(
                    relation=RELATION_FOR[candidate.category, anchor.category],
                    category=candidate.category,
                    detection_id=candidate.item_id,
                    payload=candidate.payload,
                )
                out[anchor_idx] = replace(
                    anchor,
                    partners=(*anchor.partners, partner),
                    source_pages=tuple(dict.fromkeys((*anchor.pages, *candidate.pages))),
                )
                to_remove.add(partner_idx)
                break
    return [item for idx, item in enumerate(out) if idx not in to_remove]


def _normalize_title(title: str) -> str:
    return re.sub(r"\s+", " ", title).strip().casefold()


def integrate_sections(
    items: list[FlowItem], outline: tuple[OutlineEntry, ...] | list[OutlineEntry]
) -> SectionNode:
    """Fold the flat flow into the outline's section hierarchy.

    Outline entries match section-title items by normalized-title equality
    within one page of the recorded page. Matched titles open their section's
    body; unmatched entries become empty sections; no outline at all leaves a
    single flat root.
    """
    root = SectionNode(level=0, title="")
    if not outline:
        root.body = list(items)
        return root

    # (outline index, item index): each entry searches only past the previous
    # match, so the item indexes rise
    boundaries: list[tuple[int, int]] = []
    last_item = -1
    for oi, entry in enumerate(outline):
        wanted = _normalize_title(entry.title)
        for ii in range(last_item + 1, len(items)):
            item = items[ii]
            if item.category is not _SECTION_TITLE:
                continue
            if _normalize_title(item.text) != wanted:
                continue
            if abs(item.page_index - entry.page_index) > 1:
                continue
            boundaries.append((oi, ii))
            last_item = ii
            break

    first_boundary = boundaries[0][1] if boundaries else len(items)
    root.body = list(items[:first_boundary])

    stack: list[SectionNode] = [root]
    sections: dict[int, SectionNode] = {}
    for oi, entry in enumerate(outline):
        while stack and stack[-1].level >= entry.level:
            stack.pop()
        parent = stack[-1] if stack else root
        node = SectionNode(level=entry.level, title=entry.title)
        parent.children.append(node)
        stack.append(node)
        sections[oi] = node

    for k, (oi, item_idx) in enumerate(boundaries):
        end = boundaries[k + 1][1] if k + 1 < len(boundaries) else len(items)
        sections[oi].body = list(items[item_idx:end])
    return root


def consolidate(
    items: list[FlowItem],
    outline,
    cfg: EngineConfig | None = None,
    language_tag: str = "en",
) -> SectionNode:
    items = merge_fragments(items, cfg or EngineConfig(), language_tag)
    return integrate_sections(link_multimodal(items), outline)
